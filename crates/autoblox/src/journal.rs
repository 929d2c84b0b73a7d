//! Streaming run journal: line-buffered JSONL of spans, iteration records,
//! and pipeline phases, written while a run executes.
//!
//! A [`Journal`] owns a background writer thread that periodically drains
//! the span ring buffer (`telemetry::span`) and the journal's own bounded
//! event queue to a JSONL file, so the instrumented hot path never blocks
//! on file I/O: producers push into in-memory buffers (dropping, with a
//! count, on overflow) and only the writer thread touches the disk.
//!
//! Every line is one JSON object tagged by `"t"`:
//!
//! - `meta` — first line; schema [`JOURNAL_SCHEMA`], thread limit, argv.
//! - `span` — one completed span (ids as 16-hex-digit strings, since the
//!   vendored JSON shim carries integers as `i64`).
//! - `iteration` — one tuner [`IterationRecord`], streamed as it happens.
//! - `model` — one iteration's model-observatory view: the surrogate's
//!   prediction for the chosen candidate, explore/exploit shares, decision
//!   margin, and the calibration pair once validation realized a grade.
//! - `phase` — one completed pipeline stage.
//! - `series` — one simulator run's sampled [`ssdsim::DeviceSeries`]
//!   (samples embedded, one line per run — never one line per sample, so
//!   queue pressure cannot drop part of a series nondeterministically).
//! - `bottleneck` — one simulator run's [`ssdsim::BottleneckReport`].
//! - `progress` — one driver progress estimate (phase, iteration, percent
//!   complete, ETA); consumed by `autoblox watch` and, later, by a serving
//!   daemon streaming the same records over a socket.
//! - `summary` — last line; totals and drop counters.
//!
//! [`export_chrome`] converts a journal into the Chrome `about://tracing` /
//! Perfetto JSON format (`trace export --chrome`); [`export_csv`] flattens
//! the `series` lines into a spreadsheet-friendly table
//! (`trace export --csv`), and [`export_calibration_csv`] does the same for
//! `model` lines when a journal carries calibration records but no device
//! series.

use crate::tuner::IterationRecord;
use serde_json::Value;
use ssdsim::{BottleneckReport, DeviceSeries};
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use telemetry::Counter;

/// Schema identifier written into every journal's `meta` line.
pub const JOURNAL_SCHEMA: &str = "autoblox.journal.v1";

/// Maximum buffered (not yet written) non-span events.
const EVENT_QUEUE_CAP: usize = 1 << 14;

/// How often the writer thread drains the buffers.
const FLUSH_INTERVAL: Duration = Duration::from_millis(25);

/// The producer-facing half of a journal: a bounded in-memory event queue
/// shared (via `Arc`) between the telemetry sink and the writer thread.
///
/// Pushes never block on I/O and never grow without bound — when the queue
/// is full the event is dropped and counted, mirroring the span ring.
#[derive(Debug, Default)]
pub struct JournalHandle {
    queue: Mutex<VecDeque<Value>>,
    dropped: Counter,
}

impl JournalHandle {
    fn push(&self, event: Value) {
        let mut q = lock(&self.queue);
        if q.len() >= EVENT_QUEUE_CAP {
            self.dropped.inc();
        } else {
            q.push_back(event);
        }
    }

    /// Streams one tuner iteration record.
    pub fn record_iteration(&self, workload: &str, r: &IterationRecord) {
        self.push(serde_json::json!({
            "t": "iteration",
            "workload": workload,
            "iteration": r.iteration,
            "candidates_considered": r.candidates_considered,
            "sgd_steps": r.sgd_steps,
            "surrogate_fit_ns": r.surrogate_fit_ns,
            "exploration_distance": r.exploration_distance,
            "best_grade": r.best_grade,
            "convergence_delta": r.convergence_delta,
            "validations": r.validations,
            "wall_ns": r.wall_ns,
            "bottleneck": r.bottleneck,
        }));
    }

    /// Streams one iteration's model-observatory record: the surrogate's
    /// prediction for the chosen candidate, the UCB decomposition, and the
    /// calibration pair (`calibrated` / `realized_grade`) once validation
    /// landed an observation. Per-parameter importance vectors stay in the
    /// telemetry report — they are too bulky for a per-iteration line.
    pub fn record_model(&self, workload: &str, r: &IterationRecord) {
        self.push(serde_json::json!({
            "t": "model",
            "workload": workload,
            "iteration": r.iteration,
            "predicted_mean": r.predicted_mean,
            "predicted_std": r.predicted_std,
            "calibrated": r.calibrated,
            "realized_grade": r.realized_grade,
            "explore_share": r.explore_share,
            "exploit_share": r.exploit_share,
            "decision_margin": r.decision_margin,
            "kernel_length_scale": r.kernel_length_scale,
        }));
    }

    /// Streams one simulator run's sampled device series as a single line
    /// (samples embedded), keyed by the trace it ran and which replay
    /// (`timed` or `saturated`) produced it.
    pub fn record_series(&self, trace: &str, replay: &str, series: &DeviceSeries) {
        self.push(serde_json::json!({
            "t": "series",
            "trace": trace,
            "replay": replay,
            "interval_ns": series.interval_ns,
            "dropped": series.dropped,
            "samples": series.samples,
        }));
    }

    /// Streams one simulator run's bottleneck attribution.
    pub fn record_bottleneck(&self, trace: &str, replay: &str, b: &BottleneckReport) {
        self.push(serde_json::json!({
            "t": "bottleneck",
            "trace": trace,
            "replay": replay,
            "report": b,
        }));
    }

    /// Streams one placement decision: which tenants share `device`, the
    /// device's interference cost, and where its compromise configuration
    /// came from. Exporters that predate this line kind skip it (unknown
    /// `"t"` tags are ignored).
    pub fn record_placement(
        &self,
        device: u64,
        tenants: &[String],
        cost: f64,
        config_source: &str,
    ) {
        self.push(serde_json::json!({
            "t": "placement",
            "device": device,
            "tenants": tenants,
            "cost": cost,
            "config_source": config_source,
        }));
    }

    /// Streams one driver progress estimate. `percent` is a deterministic
    /// function of the tuner phase and iteration counters (0.0 ..= 1.0);
    /// `eta_ns` is a wall-clock extrapolation and therefore the one field
    /// consumers must exclude from determinism fingerprints (it is zero
    /// when the telemetry switch is off, since iteration timing is then
    /// not collected).
    pub fn record_progress(
        &self,
        workload: &str,
        phase: &str,
        iteration: u64,
        total: u64,
        percent: f64,
        eta_ns: u64,
    ) {
        self.push(serde_json::json!({
            "t": "progress",
            "workload": workload,
            "phase": phase,
            "iteration": iteration,
            "total": total,
            "percent": percent,
            "eta_ns": eta_ns,
        }));
    }

    /// Streams one completed pipeline phase.
    pub fn record_phase(&self, name: &str, wall_ns: u64) {
        self.push(serde_json::json!({
            "t": "phase",
            "name": name,
            "wall_ns": wall_ns,
        }));
    }

    /// Events dropped because the queue was full.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.get()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn hex(id: u64) -> String {
    format!("{id:016x}")
}

fn span_line(s: &telemetry::span::SpanRecord) -> Value {
    serde_json::json!({
        "t": "span",
        "id": hex(s.id),
        "parent": hex(s.parent),
        "name": s.name,
        "disc": hex(s.disc),
        "start_ns": s.start_ns,
        "dur_ns": s.dur_ns,
        "thread": s.thread,
    })
}

/// A live run journal; create with [`Journal::create`], close with
/// [`Journal::finish`] (dropping without finishing still stops the writer
/// but skips the `summary` line).
#[derive(Debug)]
pub struct Journal {
    handle: Arc<JournalHandle>,
    stop: Arc<AtomicBool>,
    writer: Option<std::thread::JoinHandle<std::io::Result<JournalTotals>>>,
}

#[derive(Debug, Default, Clone, Copy)]
struct JournalTotals {
    spans: u64,
    events: u64,
}

impl Journal {
    /// Opens `path`, writes the `meta` line, **arms span tracing** (clearing
    /// any previously buffered spans so the journal covers exactly this
    /// run), and starts the writer thread.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O failure if the file cannot be
    /// created or the meta line cannot be written.
    pub fn create(path: &str) -> Result<Journal, String> {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create journal `{path}`: {e}"))?;
        // Line buffering: every completed line is written promptly, so a
        // tail -f (or a crash) sees whole JSON objects only.
        let mut out = std::io::LineWriter::new(file);
        let meta = serde_json::json!({
            "t": "meta",
            "schema": JOURNAL_SCHEMA,
            "threads": mlkit::parallel::max_threads() as u64,
            "argv": std::env::args().collect::<Vec<String>>(),
        });
        writeln!(
            out,
            "{}",
            serde_json::to_string(&meta).expect("meta serializes")
        )
        .map_err(|e| format!("cannot write journal `{path}`: {e}"))?;

        telemetry::span::reset_tracing_state();
        telemetry::span::set_tracing(true);

        let handle = Arc::new(JournalHandle::default());
        let stop = Arc::new(AtomicBool::new(false));
        let writer_handle = Arc::clone(&handle);
        let writer_stop = Arc::clone(&stop);
        let writer = std::thread::spawn(move || -> std::io::Result<JournalTotals> {
            let mut totals = JournalTotals::default();
            let mut spans: Vec<telemetry::span::SpanRecord> = Vec::new();
            loop {
                let stopping = writer_stop.load(Ordering::Relaxed);
                spans.clear();
                telemetry::span::drain_spans(&mut spans);
                for s in &spans {
                    writeln!(
                        out,
                        "{}",
                        serde_json::to_string(&span_line(s)).expect("span")
                    )?;
                    totals.spans += 1;
                }
                let events: Vec<Value> = {
                    let mut q = lock(&writer_handle.queue);
                    q.drain(..).collect()
                };
                for e in &events {
                    writeln!(out, "{}", serde_json::to_string(e).expect("event"))?;
                    totals.events += 1;
                }
                if stopping {
                    out.flush()?;
                    return Ok(totals);
                }
                std::thread::sleep(FLUSH_INTERVAL);
            }
        });
        Ok(Journal {
            handle,
            stop,
            writer: Some(writer),
        })
    }

    /// The producer handle to share with the telemetry sink.
    pub fn handle(&self) -> Arc<JournalHandle> {
        Arc::clone(&self.handle)
    }

    /// Disarms tracing, drains everything still buffered, appends the
    /// `summary` line, and closes the file.
    ///
    /// # Errors
    ///
    /// Returns a description of any I/O failure the writer thread hit.
    pub fn finish(mut self, path: &str) -> Result<(), String> {
        telemetry::span::set_tracing(false);
        self.stop.store(true, Ordering::Relaxed);
        let totals = match self.writer.take() {
            Some(w) => w
                .join()
                .map_err(|_| "journal writer thread panicked".to_string())?
                .map_err(|e| format!("journal write failed: {e}"))?,
            None => JournalTotals::default(),
        };
        let summary = serde_json::json!({
            "t": "summary",
            "spans_written": totals.spans,
            "events_written": totals.events,
            "spans_dropped": telemetry::span::dropped_spans(),
            "events_dropped": self.handle.dropped_events(),
        });
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot reopen journal `{path}`: {e}"))?;
        writeln!(
            file,
            "{}",
            serde_json::to_string(&summary).expect("summary serializes")
        )
        .map_err(|e| format!("cannot write journal summary: {e}"))?;
        Ok(())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // finish() already joined; otherwise stop the writer so the thread
        // does not outlive the journal (no summary line in that case).
        self.stop.store(true, Ordering::Relaxed);
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
    }
}

/// Lenient field accessors for journal lines: a missing or mistyped member
/// reads as zero/empty, never an error (a tail may observe anything).
pub(crate) fn get_u64(obj: &Value, key: &str) -> u64 {
    match obj.get(key) {
        Some(Value::Int(i)) => *i as u64,
        Some(Value::Float(f)) => *f as u64,
        Some(Value::Str(s)) => u64::from_str_radix(s, 16).unwrap_or(0),
        _ => 0,
    }
}

pub(crate) fn get_f64(obj: &Value, key: &str) -> f64 {
    match obj.get(key) {
        Some(Value::Float(f)) => *f,
        Some(Value::Int(i)) => *i as f64,
        _ => 0.0,
    }
}

pub(crate) fn get_str<'v>(obj: &'v Value, key: &str) -> &'v str {
    match obj.get(key) {
        Some(Value::Str(s)) => s,
        _ => "",
    }
}

/// Converts a JSONL run journal into Chrome `about://tracing` / Perfetto
/// trace JSON: spans and pipeline phases become complete (`"X"`) duration
/// events (phases laid end-to-end on the pipeline track, so placement
/// journals export their classify/search/attribute stages cleanly),
/// iteration and progress records become instant (`"i"`) events on the
/// tuner track.
///
/// # Errors
///
/// Returns a description of the first malformed line; unknown `"t"` tags
/// are ignored so newer journals still export.
pub fn export_chrome(journal: &str) -> Result<String, String> {
    let mut events: Vec<Value> = Vec::new();
    // Pipeline phases carry a duration but no start timestamp; lay them
    // end-to-end on their own track so `place.classify` / `place.search` /
    // `place.attribute` (and `tune`) render as a contiguous timeline.
    let mut phase_clock_us = 0.0f64;
    for (lineno, line) in journal.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("journal line {}: invalid JSON: {e}", lineno + 1))?;
        match get_str(&v, "t") {
            "meta" => {
                let schema = get_str(&v, "schema");
                if !schema.starts_with("autoblox.journal.v") {
                    return Err(format!(
                        "journal line {}: unknown schema `{schema}`",
                        lineno + 1
                    ));
                }
                events.push(serde_json::json!({
                    "name": "process_name",
                    "ph": "M",
                    "pid": 1,
                    "args": serde_json::json!({"name": "autoblox"}),
                }));
            }
            "span" => {
                let start_us = get_u64(&v, "start_ns") as f64 / 1_000.0;
                let dur_us = get_u64(&v, "dur_ns") as f64 / 1_000.0;
                events.push(serde_json::json!({
                    "name": get_str(&v, "name"),
                    "cat": "span",
                    "ph": "X",
                    "ts": start_us,
                    "dur": dur_us,
                    "pid": 1,
                    "tid": get_u64(&v, "thread"),
                    "args": serde_json::json!({
                        "id": get_str(&v, "id"),
                        "parent": get_str(&v, "parent"),
                        "disc": get_str(&v, "disc"),
                    }),
                }));
            }
            "iteration" => {
                // Instant event on a dedicated tuner track; the journal
                // does not timestamp iterations, so anchor them at the
                // iteration index (milliseconds) to preserve ordering.
                let iter = get_u64(&v, "iteration");
                events.push(serde_json::json!({
                    "name": "tuner.iteration_record",
                    "cat": "iteration",
                    "ph": "i",
                    "s": "g",
                    "ts": iter as f64 * 1_000.0,
                    "pid": 1,
                    "tid": 0,
                    "args": serde_json::json!({
                        "workload": get_str(&v, "workload"),
                        "iteration": iter,
                        "best_grade": get_f64(&v, "best_grade"),
                        "validations": get_u64(&v, "validations"),
                    }),
                }));
            }
            "model" => {
                // Two events per model line, anchored a quarter-tick after
                // the iteration record that produced them: a counter lane
                // charting explore-vs-exploit share over time, and an
                // instant carrying the prediction and calibration detail.
                let iter = get_u64(&v, "iteration");
                let ts = iter as f64 * 1_000.0 + 250.0;
                events.push(serde_json::json!({
                    "name": "tuner.model.shares",
                    "cat": "model",
                    "ph": "C",
                    "ts": ts,
                    "pid": 1,
                    "tid": 0,
                    "args": serde_json::json!({
                        "explore": get_f64(&v, "explore_share"),
                        "exploit": get_f64(&v, "exploit_share"),
                    }),
                }));
                events.push(serde_json::json!({
                    "name": "tuner.model",
                    "cat": "model",
                    "ph": "i",
                    "s": "g",
                    "ts": ts,
                    "pid": 1,
                    "tid": 0,
                    "args": serde_json::json!({
                        "workload": get_str(&v, "workload"),
                        "iteration": iter,
                        "predicted_mean": get_f64(&v, "predicted_mean"),
                        "predicted_std": get_f64(&v, "predicted_std"),
                        "calibrated": matches!(v.get("calibrated"), Some(Value::Bool(true))),
                        "realized_grade": get_f64(&v, "realized_grade"),
                        "decision_margin": get_f64(&v, "decision_margin"),
                        "kernel_length_scale": get_f64(&v, "kernel_length_scale"),
                    }),
                }));
            }
            "phase" => {
                let dur_us = get_u64(&v, "wall_ns") as f64 / 1_000.0;
                events.push(serde_json::json!({
                    "name": get_str(&v, "name"),
                    "cat": "phase",
                    "ph": "X",
                    "ts": phase_clock_us,
                    "dur": dur_us,
                    "pid": 1,
                    "tid": 0,
                    "args": serde_json::json!({"wall_ns": get_u64(&v, "wall_ns")}),
                }));
                phase_clock_us += dur_us;
            }
            "progress" => {
                // Same iteration-index anchoring as iteration records, offset
                // half a tick so a progress marker sorts after the iteration
                // that produced it.
                let iter = get_u64(&v, "iteration");
                events.push(serde_json::json!({
                    "name": "tuner.progress",
                    "cat": "progress",
                    "ph": "i",
                    "s": "g",
                    "ts": iter as f64 * 1_000.0 + 500.0,
                    "pid": 1,
                    "tid": 0,
                    "args": serde_json::json!({
                        "workload": get_str(&v, "workload"),
                        "phase": get_str(&v, "phase"),
                        "iteration": iter,
                        "total": get_u64(&v, "total"),
                        "percent": get_f64(&v, "percent"),
                    }),
                }));
            }
            // summary/unknown tags carry no timeline position.
            _ => {}
        }
    }
    if events.is_empty() {
        return Err("journal contains no convertible events".to_string());
    }
    let doc = serde_json::json!({
        "displayTimeUnit": "ms",
        "traceEvents": events,
    });
    serde_json::to_string(&doc).map_err(|e| format!("cannot serialize trace: {e}"))
}

/// Flattens the `series` lines of a JSONL run journal into CSV: one row per
/// device sample, keyed by the trace and replay that produced it.
///
/// # Errors
///
/// Returns a description of the first malformed line, or an error when the
/// journal contains no `series` lines at all (e.g. it was recorded with the
/// telemetry switch off).
pub fn export_csv(journal: &str) -> Result<String, String> {
    let mut out = String::from(
        "trace,replay,sample,t_ns,channel_busy,plane_busy,gc_activity,queue_depth,\
         data_cache_occupancy,data_cache_hit_rate,cmt_occupancy,cmt_hit_rate,\
         gc_backlog_pages,write_amplification\n",
    );
    let mut rows = 0u64;
    for (lineno, line) in journal.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("journal line {}: invalid JSON: {e}", lineno + 1))?;
        if get_str(&v, "t") != "series" {
            continue;
        }
        let trace = get_str(&v, "trace").to_string();
        let replay = get_str(&v, "replay").to_string();
        let Some(Value::Array(samples)) = v.get("samples") else {
            return Err(format!(
                "journal line {}: series without samples array",
                lineno + 1
            ));
        };
        for (i, s) in samples.iter().enumerate() {
            out.push_str(&format!(
                "{trace},{replay},{i},{},{},{},{},{},{},{},{},{},{},{}\n",
                get_u64(s, "t_ns"),
                get_f64(s, "channel_busy"),
                get_f64(s, "plane_busy"),
                get_f64(s, "gc_activity"),
                get_u64(s, "queue_depth"),
                get_f64(s, "data_cache_occupancy"),
                get_f64(s, "data_cache_hit_rate"),
                get_f64(s, "cmt_occupancy"),
                get_f64(s, "cmt_hit_rate"),
                get_u64(s, "gc_backlog_pages"),
                get_f64(s, "write_amplification"),
            ));
            rows += 1;
        }
    }
    if rows == 0 {
        return Err(
            "journal contains no device series (was the run recorded with --telemetry \
             and the sampler enabled?)"
                .to_string(),
        );
    }
    Ok(out)
}

/// Flattens the `model` lines of a JSONL run journal into CSV: one row per
/// iteration's surrogate prediction/calibration record. Used by
/// `trace export --csv` as a fallback when a journal carries model
/// observatory records but no device series.
///
/// # Errors
///
/// Returns a description of the first malformed line, or an error when the
/// journal contains no `model` lines at all.
pub fn export_calibration_csv(journal: &str) -> Result<String, String> {
    let mut out = String::from(
        "workload,iteration,predicted_mean,predicted_std,calibrated,realized_grade,\
         explore_share,exploit_share,decision_margin,kernel_length_scale\n",
    );
    let mut rows = 0u64;
    for (lineno, line) in journal.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("journal line {}: invalid JSON: {e}", lineno + 1))?;
        if get_str(&v, "t") != "model" {
            continue;
        }
        let calibrated = matches!(v.get("calibrated"), Some(Value::Bool(true)));
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            get_str(&v, "workload"),
            get_u64(&v, "iteration"),
            get_f64(&v, "predicted_mean"),
            get_f64(&v, "predicted_std"),
            calibrated,
            get_f64(&v, "realized_grade"),
            get_f64(&v, "explore_share"),
            get_f64(&v, "exploit_share"),
            get_f64(&v, "decision_margin"),
            get_f64(&v, "kernel_length_scale"),
        ));
        rows += 1;
    }
    if rows == 0 {
        return Err(
            "journal contains no model lines (was the run recorded by a build with \
             the model observatory?)"
                .to_string(),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_queue_is_bounded() {
        let h = JournalHandle::default();
        for i in 0..(EVENT_QUEUE_CAP as u64 + 10) {
            h.record_phase("p", i);
        }
        assert_eq!(h.dropped_events(), 10);
        assert_eq!(lock(&h.queue).len(), EVENT_QUEUE_CAP);
    }

    #[test]
    fn export_rejects_garbage_and_accepts_minimal_journal() {
        assert!(export_chrome("not json").is_err());
        assert!(export_chrome("").is_err());
        let journal = concat!(
            r#"{"t":"meta","schema":"autoblox.journal.v1","threads":1,"argv":[]}"#,
            "\n",
            r#"{"t":"span","id":"00000000000000aa","parent":"0000000000000000","name":"sim.run","disc":"0000000000000000","start_ns":1000,"dur_ns":5000,"thread":1}"#,
            "\n",
            r#"{"t":"iteration","workload":"database","iteration":1,"best_grade":0.5,"validations":2}"#,
            "\n",
            r#"{"t":"summary","spans_written":1,"events_written":1,"spans_dropped":0,"events_dropped":0}"#,
            "\n",
        );
        let chrome = export_chrome(journal).expect("valid journal");
        let doc: Value = serde_json::from_str(&chrome).expect("chrome JSON parses");
        let Some(Value::Array(events)) = doc.get("traceEvents") else {
            panic!("traceEvents array expected");
        };
        // meta + span + iteration.
        assert_eq!(events.len(), 3);
        let span = &events[1];
        assert_eq!(get_str(span, "ph"), "X");
        assert_eq!(get_str(span, "name"), "sim.run");
        assert_eq!(events[2].get("ph"), Some(&Value::Str("i".to_string())));
    }

    #[test]
    fn export_chrome_lays_phases_end_to_end_and_anchors_progress() {
        let journal = concat!(
            r#"{"t":"meta","schema":"autoblox.journal.v1","threads":1,"argv":[]}"#,
            "\n",
            r#"{"t":"phase","name":"place.classify","wall_ns":2000}"#,
            "\n",
            r#"{"t":"phase","name":"place.search","wall_ns":3000}"#,
            "\n",
            r#"{"t":"progress","workload":"Database","phase":"iterating","iteration":3,"total":8,"percent":0.4375,"eta_ns":0}"#,
            "\n",
        );
        let chrome = export_chrome(journal).expect("valid journal");
        let doc: Value = serde_json::from_str(&chrome).expect("chrome JSON parses");
        let Some(Value::Array(events)) = doc.get("traceEvents") else {
            panic!("traceEvents array expected");
        };
        assert_eq!(events.len(), 4);
        assert_eq!(get_str(&events[1], "name"), "place.classify");
        assert_eq!(get_f64(&events[1], "ts"), 0.0);
        assert_eq!(get_str(&events[2], "name"), "place.search");
        // Second phase starts where the first ended (2000 ns = 2 us).
        assert_eq!(get_f64(&events[2], "ts"), 2.0);
        assert_eq!(get_str(&events[3], "name"), "tuner.progress");
        assert_eq!(get_str(&events[3], "ph"), "i");
    }

    #[test]
    fn model_lines_export_as_counter_and_instant() {
        let journal = concat!(
            r#"{"t":"meta","schema":"autoblox.journal.v1","threads":1,"argv":[]}"#,
            "\n",
            r#"{"t":"model","workload":"Database","iteration":2,"predicted_mean":0.8,"predicted_std":0.1,"calibrated":true,"realized_grade":0.75,"explore_share":0.2,"exploit_share":0.8,"decision_margin":0.05,"kernel_length_scale":1.5}"#,
            "\n",
        );
        let chrome = export_chrome(journal).expect("valid journal");
        let doc: Value = serde_json::from_str(&chrome).expect("chrome JSON parses");
        let Some(Value::Array(events)) = doc.get("traceEvents") else {
            panic!("traceEvents array expected");
        };
        // meta + counter + instant.
        assert_eq!(events.len(), 3);
        assert_eq!(get_str(&events[1], "name"), "tuner.model.shares");
        assert_eq!(get_str(&events[1], "ph"), "C");
        assert_eq!(get_f64(&events[1], "ts"), 2_250.0);
        assert_eq!(get_str(&events[2], "name"), "tuner.model");
        assert_eq!(get_str(&events[2], "ph"), "i");
        let args = events[2].get("args").expect("instant args");
        assert_eq!(get_f64(args, "realized_grade"), 0.75);
        assert_eq!(args.get("calibrated"), Some(&Value::Bool(true)));
    }

    #[test]
    fn calibration_csv_flattens_model_lines_only() {
        let journal = concat!(
            r#"{"t":"meta","schema":"autoblox.journal.v1","threads":1,"argv":[]}"#,
            "\n",
            r#"{"t":"model","workload":"Database","iteration":2,"predicted_mean":0.8,"predicted_std":0.1,"calibrated":true,"realized_grade":0.75,"explore_share":0.2,"exploit_share":0.8,"decision_margin":0.05,"kernel_length_scale":1.5}"#,
            "\n",
            r#"{"t":"iteration","workload":"Database","iteration":2,"best_grade":0.75,"validations":1}"#,
            "\n",
        );
        let csv = export_calibration_csv(journal).expect("model lines present");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2, "header + one model row");
        assert!(lines[0].starts_with("workload,iteration,predicted_mean"));
        assert!(
            lines[1].starts_with("Database,2,0.8,0.1,true,0.75"),
            "{}",
            lines[1]
        );
        // A journal without model lines is an explicit error, not empty CSV.
        let err = export_calibration_csv(r#"{"t":"phase","name":"tune","wall_ns":1}"#).unwrap_err();
        assert!(err.contains("no model lines"), "{err}");
    }

    #[test]
    fn export_rejects_unknown_schema() {
        let journal = r#"{"t":"meta","schema":"somethingelse.v9"}"#;
        let err = export_chrome(journal).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
    }
}

//! Run journal: line-buffered JSONL of spans, iteration records, tuning
//! runs and pipeline phases, written while a run executes.
//!
//! A [`Journal`] owns a background writer thread that periodically drains
//! the span ring buffer (`telemetry::span`) and writes the lines the
//! process-wide [`TelemetrySink`](crate::telemetry::TelemetrySink) recorded
//! since its last pass (a cursor into the sink's one line log), so the
//! instrumented hot path never blocks on file I/O: producers append to
//! in-memory buffers and only the writer thread touches the disk.
//!
//! Every line is one [`JournalLine`]: a JSON object whose `"t"` tag names
//! the kind and whose other members are that kind's struct. The tag is
//! written by [`JournalLine::to_line`] and read by [`JournalLine::parse`]
//! and nowhere else. The seven kinds:
//!
//! - `meta` ([`MetaLine`]) — first line; schema [`JOURNAL_SCHEMA`], thread
//!   limit, argv.
//! - `span` ([`SpanLine`]) — one completed span (ids as 16-hex-digit
//!   strings, since the vendored JSON shim carries integers as `i64`).
//! - `iteration` ([`IterationLine`]) — one tuner [`IterationRecord`]'s
//!   search fields, recorded as it happens.
//! - `model` ([`ModelLine`]) — one iteration's model-observatory view: the
//!   surrogate's prediction for the chosen candidate, explore/exploit
//!   shares, decision margin, kernel lengthscale, and the calibration pair
//!   once validation realized a grade. Written only when one of these is
//!   set.
//! - `tune` ([`TuneLine`]) — one finished tuning run's totals; it closes
//!   the run's `iteration` lines.
//! - `phase` ([`PhaseRecord`]) — one completed pipeline stage.
//! - `summary` ([`SummaryLine`]) — last line; totals and the span drop
//!   counter.
//!
//! [`RunReport::fold`](crate::telemetry::RunReport::fold) turns the
//! `phase`, `iteration`, `model` and `tune` lines into a report's phases
//! and tuning runs.
//!
//! A line that yields no kind is a [`Skipped`] saying why: torn, untagged,
//! an unknown tag (a newer producer's, or a kind this build has retired:
//! `placement`, `progress`, `series`, `bottleneck`),
//! or a known tag whose members do not decode. The exporters pass over
//! untagged and unknown lines and reject the others with the line number.
//!
//! [`export_chrome`] converts a journal into the Chrome `about://tracing` /
//! Perfetto JSON format (`trace export --chrome`).

use crate::telemetry::PhaseRecord;
use crate::tuner::{IterationRecord, TuningOutcome};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use ssdsim::BottleneckReport;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{LineWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use telemetry::span::SpanRecord;

/// Schema identifier written into every journal's `meta` line.
pub const JOURNAL_SCHEMA: &str = "autoblox.journal.v1";

/// How often the writer thread drains the buffers.
const FLUSH_INTERVAL: Duration = Duration::from_millis(25);

/// One run-journal line. It is stored as one flat JSON object: the
/// variant's members plus a `"t"` member holding the variant's name in
/// lower case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalLine {
    /// `meta`: the journal's first line.
    Meta(MetaLine),
    /// `span`: one completed span.
    Span(SpanLine),
    /// `iteration`: one tuner iteration.
    Iteration(IterationLine),
    /// `model`: one iteration's surrogate view.
    Model(ModelLine),
    /// `tune`: one finished tuning run.
    Tune(TuneLine),
    /// `phase`: one completed pipeline stage.
    Phase(PhaseRecord),
    /// `summary`: the journal's last line.
    Summary(SummaryLine),
}

/// The `"t"` tag of every [`JournalLine`] variant: its name in lower case.
const KINDS: [&str; 7] = [
    "meta",
    "span",
    "iteration",
    "model",
    "tune",
    "phase",
    "summary",
];

/// Why [`JournalLine::parse`] returned no line.
#[derive(Debug, Clone, PartialEq)]
pub enum Skipped {
    /// An empty or whitespace-only line.
    Blank,
    /// Not JSON: a torn tail write or garbage (the parse error).
    Torn(String),
    /// JSON, but not an object with a string `"t"` tag.
    Untagged,
    /// A tag this build does not know: a newer producer's, or a kind this
    /// build has retired (old journals' `placement`, `progress`, `series`
    /// and `bottleneck` lines read as this).
    Unknown(String),
    /// A known tag whose members do not decode: the tag and the error.
    Malformed(String, String),
}

impl JournalLine {
    /// The line as the journal stores it (no trailing newline). Keys come
    /// out sorted, `"t"` among them.
    pub fn to_line(&self) -> String {
        // The derive writes `{"Variant": {members}}`; the journal moves the
        // variant name into the members as `"t"`.
        let Value::Object(tagged) = self.serialize_value() else {
            unreachable!("newtype variants serialize as objects")
        };
        let (variant, body) = tagged.into_iter().next().expect("one variant");
        let Value::Object(mut members) = body else {
            unreachable!("every line kind is a struct")
        };
        members.insert("t".to_string(), Value::Str(variant.to_ascii_lowercase()));
        serde_json::to_string(&Value::Object(members)).expect("journal lines serialize")
    }

    /// Reads one journal line. Members a kind does not know are ignored, so
    /// a newer producer's extra fields still read.
    ///
    /// # Errors
    ///
    /// Returns why the line yields no kind; see [`Skipped`].
    pub fn parse(line: &str) -> Result<JournalLine, Skipped> {
        let line = line.trim();
        if line.is_empty() {
            return Err(Skipped::Blank);
        }
        let mut members = match serde_json::from_str::<Value>(line) {
            Ok(Value::Object(members)) => members,
            Ok(_) => return Err(Skipped::Untagged),
            Err(e) => return Err(Skipped::Torn(e.to_string())),
        };
        let Some(Value::Str(tag)) = members.remove("t") else {
            return Err(Skipped::Untagged);
        };
        if !KINDS.contains(&tag.as_str()) {
            return Err(Skipped::Unknown(tag));
        }
        let variant = tag[..1].to_ascii_uppercase() + &tag[1..];
        let tagged = Value::Object(BTreeMap::from([(variant, Value::Object(members))]));
        JournalLine::deserialize_value(&tagged).map_err(|e| Skipped::Malformed(tag, e.to_string()))
    }
}

/// Accepts the schema of a journal this build reads: any
/// `autoblox.journal.v*`. Every exporter applies it.
///
/// # Errors
///
/// Names the foreign schema.
pub fn check_schema(schema: &str) -> Result<(), String> {
    if schema.starts_with("autoblox.journal.v") {
        Ok(())
    } else {
        Err(format!(
            "unknown journal schema `{schema}` (expected autoblox.journal.v*)"
        ))
    }
}

/// The `meta` line.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetaLine {
    /// [`JOURNAL_SCHEMA`] of the producing build.
    pub schema: String,
    /// Worker-pool thread limit of the run.
    pub threads: u64,
    /// The producing command line.
    pub argv: Vec<String>,
}

/// The `span` line: one [`SpanRecord`], ids in hex.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanLine {
    /// Span id.
    pub id: String,
    /// Parent span id (all zeros for a root span).
    pub parent: String,
    /// Span name.
    pub name: String,
    /// Discriminator the id was derived from.
    pub disc: String,
    /// Start relative to the tracing epoch, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Ordinal of the OS thread the span ran on.
    pub thread: u64,
}

impl From<&SpanRecord> for SpanLine {
    fn from(s: &SpanRecord) -> Self {
        let hex = |id: u64| format!("{id:016x}");
        SpanLine {
            id: hex(s.id),
            parent: hex(s.parent),
            name: s.name.to_string(),
            disc: hex(s.disc),
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            thread: s.thread,
        }
    }
}

/// The `iteration` line: an [`IterationRecord`]'s search fields (its model
/// fields ride on the `model` line).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IterationLine {
    /// Target workload.
    pub workload: String,
    /// 1-based outer-iteration index.
    pub iteration: u64,
    /// Neighbor candidates the surrogate scored.
    pub candidates_considered: u64,
    /// SGD steps taken.
    pub sgd_steps: u64,
    /// Surrogate fit time, ns (0 with telemetry off).
    pub surrogate_fit_ns: u64,
    /// Manhattan distance from the root to the validated candidate.
    pub exploration_distance: u64,
    /// Best grade after this iteration.
    pub best_grade: f64,
    /// Relative grade spread over the convergence window (`-1.0` until it
    /// fills).
    pub convergence_delta: f64,
    /// Simulator runs this iteration triggered.
    pub validations: u64,
    /// Wall-clock time of the iteration, ns (0 with telemetry off).
    pub wall_ns: u64,
    /// Bottleneck fingerprint of the iteration's simulator work.
    pub bottleneck: BottleneckReport,
}

impl From<(&str, &IterationRecord)> for IterationLine {
    fn from((workload, r): (&str, &IterationRecord)) -> Self {
        IterationLine {
            workload: workload.to_string(),
            iteration: r.iteration,
            candidates_considered: r.candidates_considered,
            sgd_steps: r.sgd_steps,
            surrogate_fit_ns: r.surrogate_fit_ns,
            exploration_distance: r.exploration_distance,
            best_grade: r.best_grade,
            convergence_delta: r.convergence_delta,
            validations: r.validations,
            wall_ns: r.wall_ns,
            bottleneck: r.bottleneck,
        }
    }
}

/// The `model` line: an [`IterationRecord`]'s surrogate prediction for the
/// chosen candidate, the UCB decomposition, and the calibration pair.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelLine {
    /// Target workload.
    pub workload: String,
    /// 1-based outer-iteration index.
    pub iteration: u64,
    /// Predicted grade mean for the chosen candidate.
    pub predicted_mean: f64,
    /// Predicted grade standard deviation.
    pub predicted_std: f64,
    /// Whether validation realized a grade for the prediction.
    pub calibrated: bool,
    /// The realized grade (meaningful only when `calibrated`).
    pub realized_grade: f64,
    /// Exploration share of the chosen UCB.
    pub explore_share: f64,
    /// Exploitation share of the chosen UCB.
    pub exploit_share: f64,
    /// Chosen UCB minus the runner-up's.
    pub decision_margin: f64,
    /// Fitted GPR kernel lengthscale (0 when not swept).
    pub kernel_length_scale: f64,
}

impl From<(&str, &IterationRecord)> for ModelLine {
    fn from((workload, r): (&str, &IterationRecord)) -> Self {
        ModelLine {
            workload: workload.to_string(),
            iteration: r.iteration,
            predicted_mean: r.predicted_mean,
            predicted_std: r.predicted_std,
            calibrated: r.calibrated,
            realized_grade: r.realized_grade,
            explore_share: r.explore_share,
            exploit_share: r.exploit_share,
            decision_margin: r.decision_margin,
            kernel_length_scale: r.kernel_length_scale,
        }
    }
}

impl From<&IterationLine> for IterationRecord {
    /// The record's search fields; its model fields stay at their
    /// defaults until its iteration's `model` line fills them.
    fn from(l: &IterationLine) -> Self {
        IterationRecord {
            iteration: l.iteration,
            candidates_considered: l.candidates_considered,
            sgd_steps: l.sgd_steps,
            surrogate_fit_ns: l.surrogate_fit_ns,
            exploration_distance: l.exploration_distance,
            best_grade: l.best_grade,
            convergence_delta: l.convergence_delta,
            validations: l.validations,
            wall_ns: l.wall_ns,
            bottleneck: l.bottleneck,
            ..IterationRecord::default()
        }
    }
}

impl ModelLine {
    /// Sets `record`'s model fields from this line.
    pub(crate) fn fill(&self, record: &mut IterationRecord) {
        record.predicted_mean = self.predicted_mean;
        record.predicted_std = self.predicted_std;
        record.calibrated = self.calibrated;
        record.realized_grade = self.realized_grade;
        record.explore_share = self.explore_share;
        record.exploit_share = self.exploit_share;
        record.decision_margin = self.decision_margin;
        record.kernel_length_scale = self.kernel_length_scale;
    }
}

/// The `tune` line: one finished tuning run's totals. Its per-iteration
/// records are the run's `iteration` and `model` lines before it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TuneLine {
    /// Target workload.
    pub workload: String,
    /// Outer iterations executed.
    pub iterations: u64,
    /// Simulator validations the run performed.
    pub validations: u64,
    /// Final best grade.
    pub best_grade: f64,
}

impl From<&TuningOutcome> for TuneLine {
    fn from(o: &TuningOutcome) -> Self {
        TuneLine {
            workload: o.workload.clone(),
            iterations: o.iterations as u64,
            validations: o.validations,
            best_grade: o.best.grade,
        }
    }
}

/// The `summary` line: totals and the span drop counter.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SummaryLine {
    /// Span lines written.
    pub spans_written: u64,
    /// Other lines written (meta and summary excluded).
    pub events_written: u64,
    /// Spans the ring dropped.
    pub spans_dropped: u64,
}

/// A live run journal; create with [`Journal::create`], close with
/// [`Journal::finish`]. Dropping it without finishing stops the writer and
/// disarms span tracing, but writes no `summary` line.
#[derive(Debug)]
pub struct Journal {
    stop: Arc<AtomicBool>,
    writer: Option<JoinHandle<Written>>,
}

/// What the writer thread hands back: its file and the counts of the
/// lines it wrote.
type Written = std::io::Result<(LineWriter<File>, SummaryLine)>;

impl Journal {
    /// Opens `path`, writes the `meta` line, **arms span tracing** (clearing
    /// any previously buffered spans so the journal covers exactly this
    /// run), and starts the writer thread, which writes every line the
    /// process-wide telemetry sink holds or records until [`Journal::finish`].
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O failure if the file cannot be
    /// created or the meta line cannot be written.
    pub fn create(path: &str) -> Result<Journal, String> {
        let file =
            File::create(path).map_err(|e| format!("cannot create journal `{path}`: {e}"))?;
        // Line buffering: every completed line is written promptly, so a
        // tail -f (or a crash) sees whole JSON objects only.
        let mut out = LineWriter::new(file);
        let meta = JournalLine::Meta(MetaLine {
            schema: JOURNAL_SCHEMA.to_string(),
            threads: mlkit::parallel::max_threads() as u64,
            argv: std::env::args().collect(),
        });
        writeln!(out, "{}", meta.to_line())
            .map_err(|e| format!("cannot write journal `{path}`: {e}"))?;

        telemetry::span::reset_tracing_state();
        telemetry::span::set_tracing(true);

        let stop = Arc::new(AtomicBool::new(false));
        let writer_stop = Arc::clone(&stop);
        let writer = std::thread::spawn(move || -> Written {
            let sink = crate::telemetry::global();
            let mut written = SummaryLine::default();
            let mut spans: Vec<SpanRecord> = Vec::new();
            loop {
                let stopping = writer_stop.load(Ordering::Relaxed);
                spans.clear();
                telemetry::span::drain_spans(&mut spans);
                for s in &spans {
                    writeln!(out, "{}", JournalLine::Span(s.into()).to_line())?;
                    written.spans_written += 1;
                }
                // Every sink line written so far is one of its first
                // `events_written`: the count is the cursor.
                for line in sink.lines_from(written.events_written as usize) {
                    writeln!(out, "{}", line.to_line())?;
                    written.events_written += 1;
                }
                if stopping {
                    return Ok((out, written));
                }
                std::thread::sleep(FLUSH_INTERVAL);
            }
        });
        Ok(Journal {
            stop,
            writer: Some(writer),
        })
    }

    /// Disarms tracing and stops the writer thread once it has written
    /// everything still buffered.
    fn stop_writer(&mut self) -> Result<(LineWriter<File>, SummaryLine), String> {
        telemetry::span::set_tracing(false);
        self.stop.store(true, Ordering::Relaxed);
        self.writer
            .take()
            .ok_or("the journal writer has already stopped")?
            .join()
            .map_err(|_| "journal writer thread panicked")?
            .map_err(|e| format!("journal write failed: {e}"))
    }

    /// Disarms tracing, drains everything still buffered, and appends the
    /// `summary` line through the writer's own file handle.
    ///
    /// # Errors
    ///
    /// Returns a description of any I/O failure the writer thread hit.
    pub fn finish(mut self) -> Result<(), String> {
        let (mut out, summary) = self.stop_writer()?;
        let summary = JournalLine::Summary(SummaryLine {
            spans_dropped: telemetry::span::dropped_spans(),
            ..summary
        });
        writeln!(out, "{}", summary.to_line())
            .and_then(|()| out.flush())
            .map_err(|e| format!("cannot write journal summary: {e}"))
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // finish() already stopped the writer; otherwise stop it so neither
        // the thread nor armed tracing outlives the journal.
        let _ = self.stop_writer();
    }
}

/// The lines of a journal the exporters read, in order. Blank, untagged
/// and unknown-kind lines are passed over, so newer journals still export;
/// a torn line, a known kind whose members do not decode, or a foreign
/// schema is an error naming the line.
fn read_lines(journal: &str) -> impl Iterator<Item = Result<JournalLine, String>> + '_ {
    journal.lines().enumerate().filter_map(|(i, text)| {
        let line = match JournalLine::parse(text) {
            Ok(JournalLine::Meta(m)) => check_schema(&m.schema).map(|()| JournalLine::Meta(m)),
            Ok(line) => Ok(line),
            Err(Skipped::Torn(e)) => Err(format!("invalid JSON: {e}")),
            Err(Skipped::Malformed(tag, e)) => Err(format!("`{tag}` line: {e}")),
            Err(Skipped::Blank | Skipped::Untagged | Skipped::Unknown(_)) => return None,
        };
        Some(line.map_err(|e| format!("journal line {}: {e}", i + 1)))
    })
}

/// Converts a JSONL run journal into Chrome `about://tracing` / Perfetto
/// trace JSON: spans and pipeline phases become complete (`"X"`) duration
/// events (phases laid end-to-end on the pipeline track), iteration
/// records become instant (`"i"`) events on the tuner track.
///
/// # Errors
///
/// Returns a description of the first malformed line; unknown `"t"` tags
/// are ignored so newer journals still export.
pub fn export_chrome(journal: &str) -> Result<String, String> {
    let mut events: Vec<Value> = Vec::new();
    // Pipeline phases carry a duration but no start timestamp; lay them
    // end-to-end on their own track so a run's stages render as a
    // contiguous timeline.
    let mut phase_clock_us = 0.0f64;
    for line in read_lines(journal) {
        match line? {
            JournalLine::Meta(_) => events.push(serde_json::json!({
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "args": serde_json::json!({"name": "autoblox"}),
            })),
            JournalLine::Span(s) => events.push(serde_json::json!({
                "name": s.name,
                "cat": "span",
                "ph": "X",
                "ts": s.start_ns as f64 / 1_000.0,
                "dur": s.dur_ns as f64 / 1_000.0,
                "pid": 1,
                "tid": s.thread,
                "args": serde_json::json!({
                    "id": s.id,
                    "parent": s.parent,
                    "disc": s.disc,
                }),
            })),
            // Instant event on a dedicated tuner track; the journal does not
            // timestamp iterations, so anchor them at the iteration index
            // (milliseconds) to preserve ordering.
            JournalLine::Iteration(r) => events.push(serde_json::json!({
                "name": "tuner.iteration_record",
                "cat": "iteration",
                "ph": "i",
                "s": "g",
                "ts": r.iteration as f64 * 1_000.0,
                "pid": 1,
                "tid": 0,
                "args": serde_json::json!({
                    "workload": r.workload,
                    "iteration": r.iteration,
                    "best_grade": r.best_grade,
                    "validations": r.validations,
                }),
            })),
            JournalLine::Model(m) => {
                // Two events per model line, anchored a quarter-tick after
                // the iteration record that produced them: a counter lane
                // charting explore-vs-exploit share over time, and an
                // instant carrying the prediction and calibration detail.
                let ts = m.iteration as f64 * 1_000.0 + 250.0;
                events.push(serde_json::json!({
                    "name": "tuner.model.shares",
                    "cat": "model",
                    "ph": "C",
                    "ts": ts,
                    "pid": 1,
                    "tid": 0,
                    "args": serde_json::json!({
                        "explore": m.explore_share,
                        "exploit": m.exploit_share,
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
                        "workload": m.workload,
                        "iteration": m.iteration,
                        "predicted_mean": m.predicted_mean,
                        "predicted_std": m.predicted_std,
                        "calibrated": m.calibrated,
                        "realized_grade": m.realized_grade,
                        "decision_margin": m.decision_margin,
                        "kernel_length_scale": m.kernel_length_scale,
                    }),
                }));
            }
            JournalLine::Phase(p) => {
                let dur_us = p.wall_ns as f64 / 1_000.0;
                events.push(serde_json::json!({
                    "name": p.name,
                    "cat": "phase",
                    "ph": "X",
                    "ts": phase_clock_us,
                    "dur": dur_us,
                    "pid": 1,
                    "tid": 0,
                    "args": serde_json::json!({"wall_ns": p.wall_ns}),
                }));
                phase_clock_us += dur_us;
            }
            // The tune and summary lines carry no timeline position.
            JournalLine::Tune(_) | JournalLine::Summary(_) => {}
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

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> String {
        JournalLine::Meta(MetaLine {
            schema: JOURNAL_SCHEMA.to_string(),
            threads: 1,
            argv: Vec::new(),
        })
        .to_line()
    }

    fn span(disc: u64) -> String {
        JournalLine::Span(SpanLine::from(&SpanRecord {
            id: 0xaa,
            parent: 0,
            name: "sim.run",
            disc,
            start_ns: 1000,
            dur_ns: 5000,
            thread: 1,
        }))
        .to_line()
    }

    fn model_line() -> String {
        JournalLine::Model(ModelLine {
            workload: "Database".to_string(),
            iteration: 2,
            predicted_mean: 0.8,
            predicted_std: 0.1,
            calibrated: true,
            realized_grade: 0.75,
            explore_share: 0.2,
            exploit_share: 0.8,
            decision_margin: 0.05,
            kernel_length_scale: 1.5,
        })
        .to_line()
    }

    fn trace_events(chrome: &str) -> Vec<Value> {
        let doc: Value = serde_json::from_str(chrome).expect("chrome JSON parses");
        let Some(Value::Array(events)) = doc.get("traceEvents") else {
            panic!("traceEvents array expected");
        };
        events.clone()
    }

    #[test]
    fn lines_keep_their_wire_format() {
        assert_eq!(
            meta(),
            r#"{"argv":[],"schema":"autoblox.journal.v1","t":"meta","threads":1}"#
        );
        assert_eq!(
            span(7),
            concat!(
                r#"{"disc":"0000000000000007","dur_ns":5000,"id":"00000000000000aa","#,
                r#""name":"sim.run","parent":"0000000000000000","start_ns":1000,"#,
                r#""t":"span","thread":1}"#
            )
        );
    }

    #[test]
    fn export_rejects_garbage_and_accepts_minimal_journal() {
        assert!(export_chrome("not json").is_err());
        assert!(export_chrome("").is_err());
        let iteration = JournalLine::Iteration(IterationLine {
            workload: "database".to_string(),
            iteration: 1,
            best_grade: 0.5,
            validations: 2,
            ..Default::default()
        });
        let summary = JournalLine::Summary(SummaryLine {
            spans_written: 1,
            events_written: 1,
            ..Default::default()
        });
        let journal = [meta(), span(0), iteration.to_line(), summary.to_line()].join("\n");
        let events = trace_events(&export_chrome(&journal).expect("valid journal"));
        // meta + span + iteration.
        assert_eq!(events.len(), 3);
        assert_eq!(events[1]["ph"], "X");
        assert_eq!(events[1]["name"], "sim.run");
        assert_eq!(events[2]["ph"], "i");
    }

    #[test]
    fn export_chrome_lays_phases_end_to_end_and_skips_retired_kinds() {
        let phase = |name: &str, wall_ns| {
            let name = name.to_string();
            JournalLine::Phase(PhaseRecord { name, wall_ns }).to_line()
        };
        // A `progress` line as older builds wrote it.
        let progress = r#"{"eta_ns":0,"iteration":3,"percent":0.4375,"phase":"iterating","t":"progress","total":8,"workload":"Database"}"#;
        assert_eq!(
            JournalLine::parse(progress),
            Err(Skipped::Unknown("progress".to_string()))
        );
        let journal = [
            meta(),
            phase("coarse_prune", 2000),
            phase("fine_prune", 3000),
            progress.to_string(),
        ]
        .join("\n");
        let events = trace_events(&export_chrome(&journal).expect("valid journal"));
        assert_eq!(events.len(), 3);
        assert_eq!(events[1]["name"], "coarse_prune");
        assert_eq!(events[1]["ts"], 0.0);
        assert_eq!(events[2]["name"], "fine_prune");
        // Second phase starts where the first ended (2000 ns = 2 us).
        assert_eq!(events[2]["ts"], 2.0);
    }

    #[test]
    fn model_lines_export_as_counter_and_instant() {
        let journal = [meta(), model_line()].join("\n");
        let events = trace_events(&export_chrome(&journal).expect("valid journal"));
        // meta + counter + instant.
        assert_eq!(events.len(), 3);
        assert_eq!(events[1]["name"], "tuner.model.shares");
        assert_eq!(events[1]["ph"], "C");
        assert_eq!(events[1]["ts"], 2_250.0);
        assert_eq!(events[2]["name"], "tuner.model");
        assert_eq!(events[2]["ph"], "i");
        assert_eq!(events[2]["args"]["realized_grade"], 0.75);
        assert_eq!(events[2]["args"]["calibrated"], Value::Bool(true));
    }

    #[test]
    fn export_rejects_unknown_schema() {
        let journal = JournalLine::Meta(MetaLine {
            schema: "somethingelse.v9".to_string(),
            ..Default::default()
        })
        .to_line();
        let err = export_chrome(&journal).unwrap_err();
        assert!(
            err.contains("journal line 1: unknown journal schema"),
            "{err}"
        );
    }

    #[test]
    fn parse_says_why_a_line_is_skipped() {
        assert_eq!(JournalLine::parse("  "), Err(Skipped::Blank));
        assert!(matches!(
            JournalLine::parse(r#"{"t":"span","id":"trunca"#),
            Err(Skipped::Torn(_))
        ));
        assert_eq!(
            JournalLine::parse(r#"{"no_tag":true}"#),
            Err(Skipped::Untagged)
        );
        assert_eq!(JournalLine::parse(r#"{"t":3}"#), Err(Skipped::Untagged));
        assert_eq!(JournalLine::parse("[1]"), Err(Skipped::Untagged));
        assert_eq!(
            JournalLine::parse(r#"{"t":"hologram","x":1}"#),
            Err(Skipped::Unknown("hologram".to_string()))
        );
        // The tag is matched exactly: a variant name is not a tag.
        assert_eq!(
            JournalLine::parse(r#"{"t":"Phase","name":"p","wall_ns":1}"#),
            Err(Skipped::Unknown("Phase".to_string()))
        );
        assert!(matches!(
            JournalLine::parse(r#"{"t":"phase","name":"p"}"#),
            Err(Skipped::Malformed(tag, _)) if tag == "phase"
        ));
        // Members a kind does not know are a newer producer's, not damage.
        assert_eq!(
            JournalLine::parse(r#"{"t":"phase","name":"p","wall_ns":1,"extra":[]}"#),
            Ok(JournalLine::Phase(PhaseRecord {
                name: "p".to_string(),
                wall_ns: 1
            }))
        );
    }
}

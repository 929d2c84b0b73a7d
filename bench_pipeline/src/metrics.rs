//! The benchmark's metric registry and its result line.
//!
//! Every metric is declared once here with its unit and with the clock it is
//! read from, because the two clocks never mix: `Host` is wall time of this
//! machine, `Simulated` is what the modelled SSD would take, `Count` is a
//! tally that repeats exactly for one seed. `BENCHMARK.json` lists the same
//! names (a unit test holds the two together).

use crate::sweep::CELL_NAMES;
use std::collections::BTreeMap;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    Host,
    Simulated,
    Count,
}

impl Domain {
    pub fn label(self) -> &'static str {
        match self {
            Domain::Host => "host",
            Domain::Simulated => "simulated",
            Domain::Count => "count",
        }
    }
}

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// The best of `samples` in this direction; 0 for an empty sample (a
    /// layer that did not run).
    pub fn best(self, samples: impl Iterator<Item = f64>) -> f64 {
        match self {
            Better::Lower => samples.reduce(f64::min),
            Better::Higher => samples.reduce(f64::max),
        }
        .unwrap_or(0.0)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub domain: Domain,
    pub better: Better,
}

/// A metric named by its unit's usual direction: times, sizes and counts
/// of work are better lower; `up` marks the ones that are better higher.
fn def(name: &str, unit: &'static str, domain: Domain) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        domain,
        better: Better::Lower,
    }
}

fn up(name: &str, unit: &'static str, domain: Domain) -> MetricDef {
    MetricDef {
        better: Better::Higher,
        ..def(name, unit, domain)
    }
}

/// What a user of the system sees; printed with `--trace 0`.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("wall_s", "s", Domain::Host),
        def("setup_s", "s", Domain::Host),
        up("sim_events_per_s", "1/s", Domain::Host),
        def("peak_rss_mib", "MiB", Domain::Host),
    ]
}

/// One row per layer measurement; printed with `--trace 1`. A layer a
/// workload bypasses reads 0 there.
pub fn per_layer() -> Vec<MetricDef> {
    use Domain::{Count, Host, Simulated};
    let mut defs = vec![
        def("iotrace.gen_s", "s", Host),
        def("iotrace.gen_events", "count", Count),
        def("iotrace.parse_s", "s", Host),
        def("iotrace.parse_events", "count", Count),
        def("iotrace.window_s", "s", Host),
        def("iotrace.windows", "count", Count),
        def("clustering.fit_s", "s", Host),
        def("clustering.classify_s", "s", Host),
        def("pruning.coarse_s", "s", Host),
        def("pruning.coarse_runs", "count", Count),
        def("pruning.fine_s", "s", Host),
        def("pruning.fine_runs", "count", Count),
        def("pruning.sensitive_params", "count", Count),
        def("pruning.self_s", "s", Host),
        def("tuner.init_s", "s", Host),
        def("tuner.search_s", "s", Host),
        def("tuner.iterations", "count", Count),
        def("tuner.candidates", "count", Count),
        def("tuner.sgd_walk_s", "s", Host),
        def("tuner.validate_s", "s", Host),
        def("tuner.speculate_s", "s", Host),
        def("tuner.self_s", "s", Host),
        def("mlkit.gpr_fit_s", "s", Host),
        def("mlkit.pool_batches", "count", Count),
        def("mlkit.pool_jobs", "count", Count),
        def("mlkit.pool_busy_s", "s", Host),
        up("mlkit.pool_utilization", "ratio", Host),
        def("validator.simulate_s", "s", Host),
        def("validator.self_s", "s", Host),
        def("validator.validations_timed", "count", Count),
        def("validator.validation_ms_p50", "ms", Host),
        def("validator.validation_ms_p95", "ms", Host),
        def("validator.trace_build_s", "s", Host),
        def("validator.cache_hits", "count", Count),
        def("validator.cache_misses", "count", Count),
        up("validator.hit_ratio", "ratio", Count),
        def("validator.speculative_runs", "count", Count),
        up("validator.speculative_hits", "count", Count),
        def("validator.speculative_wasted", "count", Count),
        up("validator.speculation_useful_ratio", "ratio", Count),
        def("ssdsim.runs", "count", Count),
        def("ssdsim.events", "count", Count),
        def("ssdsim.new_s", "s", Host),
        def("ssdsim.warm_up_s", "s", Host),
        def("ssdsim.run_s", "s", Host),
        def("ssdsim.drain_s", "s", Host),
        def("ssdsim.ns_per_event", "ns", Host),
        def("ssdsim.flash_reads", "count", Simulated),
        def("ssdsim.flash_programs", "count", Simulated),
        def("ssdsim.flash_erases", "count", Simulated),
        def("ssdsim.gc_invocations", "count", Simulated),
        def("ssdsim.slc_migrated_pages", "count", Simulated),
        def("ssdsim.share.host_queue", "ratio", Simulated),
        def("ssdsim.share.channel_wait", "ratio", Simulated),
        def("ssdsim.share.plane_busy", "ratio", Simulated),
        def("ssdsim.share.cache_miss", "ratio", Simulated),
        def("ssdsim.share.gc_stall", "ratio", Simulated),
        def("ssdsim.share.slc_migration", "ratio", Simulated),
    ];
    for cell in CELL_NAMES {
        defs.push(up(&format!("ssdsim.cell.{cell}.events_per_s"), "1/s", Host));
        defs.push(def(
            &format!("ssdsim.cell.{cell}.mean_latency_us"),
            "us",
            Simulated,
        ));
    }
    defs.extend([
        def("autodb.get_s", "s", Host),
        def("autodb.flush_s", "s", Host),
        def("autodb.log_bytes", "B", Count),
        def("telemetry.trace_overhead_pct", "%", Host),
        def("telemetry.spans", "count", Count),
        def("telemetry.spans_dropped", "count", Count),
        up("ledger.coverage", "ratio", Host),
        def("ledger.pool_blocked_s", "s", Host),
        up("outcome.best_grade", "grade", Simulated),
        up("outcome.latency_speedup", "ratio", Simulated),
        up("outcome.throughput_speedup", "ratio", Simulated),
        def("outcome.simulator_runs", "count", Count),
    ]);
    defs
}

/// The contract's rule for a metric name: a letter or digit first, then at
/// most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Values by metric name; a name a workload never set reads 0.
pub type Values = BTreeMap<String, f64>;

/// The result line the driver reads: one JSON object holding every metric
/// of `defs`, each value printed with all the digits it was measured with.
///
/// # Errors
///
/// Names the first metric whose name breaks [`valid_name`] or whose value
/// is not finite; such a line must never be printed.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        if !valid_name(&d.name) {
            return Err(format!("metric name {:?} breaks the naming rule", d.name));
        }
        let value = values.get(&d.name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", d.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule_accepts_the_contract_alphabet_only() {
        for ok in [
            "wall_s",
            "ssdsim.cell.read_nvme.events_per_s",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "p/q", "ünit", &too_long] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn every_registered_metric_is_well_formed_and_unique() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(per_layer().len() <= 128);
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used once");
        for d in &all {
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "{}", d.name);
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.name
            );
        }
    }

    #[test]
    fn result_line_prints_every_metric_and_refuses_bad_ones() {
        let defs = [
            def("wall_s", "s", Domain::Host),
            def("n", "count", Domain::Count),
        ];
        let values = Values::from([("wall_s".to_string(), 1.203_456_789_012)]);
        let line = result_line(true, 12, 0, &defs, &values).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.203456789012, \"unit\": \"s\"}, \
             \"n\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        let nan = Values::from([("wall_s".to_string(), f64::NAN)]);
        assert!(result_line(true, 1, 0, &defs, &nan).is_err());
        let bad = [def("no spaces", "s", Domain::Host)];
        assert!(result_line(true, 1, 0, &bad, &Values::new()).is_err());
    }

    /// `BENCHMARK.json` sits outside this package; when the repository is
    /// around it, its metric and workload names must be this registry's.
    #[test]
    fn benchmark_json_lists_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> &[serde_json::Value] {
            match &doc[key] {
                serde_json::Value::Array(items) => items,
                other => panic!("{key} is not a list: {other:?}"),
            }
        };
        let names = |key: &str| -> Vec<String> {
            list(key)
                .iter()
                .map(|m| m["name"].as_str().expect("name").to_string())
                .collect()
        };
        let registry =
            |defs: Vec<MetricDef>| -> Vec<String> { defs.into_iter().map(|d| d.name).collect() };
        assert_eq!(names("end_to_end"), registry(end_to_end()));
        assert_eq!(names("per_layer"), registry(per_layer()));
        assert_eq!(names("workloads"), crate::WORKLOADS.map(|(name, _)| name));
        for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            for (m, d) in list(key).iter().zip(defs) {
                assert_eq!(m["unit"].as_str(), Some(d.unit), "{}", d.name);
                assert_eq!(m["better"].as_str(), Some(d.better.label()), "{}", d.name);
            }
        }
    }
}

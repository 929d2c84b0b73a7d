//! What-if analysis (§4.5): search for configurations that meet explicit
//! performance targets, as SSD vendors would when planning a next-generation
//! device.
//!
//! Run with: `cargo run --release --example whatif_analysis`

use autoblox::constraints::Constraints;
use autoblox::tuner::TunerOptions;
use autoblox::validator::{Validator, ValidatorOptions};
use autoblox::whatif::{what_if, WhatIfGoal, WhatIfOptions};
use iotrace::gen::WorkloadKind;
use ssdsim::config::presets;

fn main() {
    let validator = Validator::new(ValidatorOptions {
        trace_events: 1_500,
        ..Default::default()
    });
    let opts = WhatIfOptions {
        tuner: TunerOptions {
            max_iterations: 15,
            ..TunerOptions::default()
        },
    };

    // Latency-sensitive workloads chase a latency-reduction target;
    // throughput-intensive workloads chase a throughput target (Table 7
    // uses VDI/WebSearch and Database/KVStore respectively).
    let goals = [
        (WorkloadKind::Vdi, WhatIfGoal::LatencyReduction(1.5)),
        (WorkloadKind::WebSearch, WhatIfGoal::LatencyReduction(1.5)),
        (
            WorkloadKind::Database,
            WhatIfGoal::ThroughputImprovement(1.2),
        ),
        (
            WorkloadKind::KvStore,
            WhatIfGoal::ThroughputImprovement(1.2),
        ),
    ];

    for (kind, goal) in goals {
        let out = what_if(
            kind,
            goal,
            Constraints::paper_default(),
            &presets::intel_750(),
            &validator,
            opts.clone(),
        )
        .expect("the paper's constraints admit a search");
        let goal_desc = match goal {
            WhatIfGoal::LatencyReduction(f) => format!("{f:.1}x lower latency"),
            WhatIfGoal::ThroughputImprovement(f) => format!("{f:.1}x higher throughput"),
        };
        println!(
            "{:<12} goal: {:<24} achieved {:.2}x after {} iterations -> {}",
            out.workload,
            goal_desc,
            out.achieved,
            out.tuning.iterations,
            if out.met { "MET" } else { "not met" }
        );
        let c = &out.tuning.best.config;
        println!(
            "    channels={} chips/ch={} dies={} planes={} cache={}MiB cmt={}MiB rate={}MT/s qd={}",
            c.channel_count,
            c.chips_per_channel,
            c.dies_per_chip,
            c.planes_per_die,
            c.data_cache_mb,
            c.cmt_capacity_mb,
            c.channel_transfer_rate_mts,
            c.io_queue_depth
        );
    }
}

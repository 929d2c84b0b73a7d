//! Command-line input is hostile input: a configuration file the simulator
//! cannot hold, an unknown flag or a flag without its value is refused with
//! a one-line message and exit 2 before anything is simulated.

use ssdsim::config::{SsdConfig, MAX_PAGES_PER_BLOCK};
use std::process::{Command, Output};

fn autoblox(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_autoblox"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// `autoblox simulate fiu <cfg>` exits 2 with `message` as its one stderr
/// line and simulates nothing.
fn simulate_refuses(name: &str, cfg: &SsdConfig, message: &str) {
    let dir = std::env::temp_dir().join(format!("abx-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("config.json");
    std::fs::write(&path, serde_json::to_string(cfg).unwrap()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_autoblox"))
        .args(["simulate", "fiu"])
        .arg(&path)
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).unwrap();

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may be simulated");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains(message), "{stderr}");
}

#[test]
fn simulate_refuses_a_config_whose_blocks_outgrow_the_valid_counter() {
    let cfg = SsdConfig {
        channel_count: 1,
        chips_per_channel: 1,
        dies_per_chip: 1,
        blocks_per_plane: 8,
        pages_per_block: MAX_PAGES_PER_BLOCK + 1,
        ..SsdConfig::default()
    };
    simulate_refuses("ppb", &cfg, "pages_per_block must not exceed 65535");
}

// The three geometries below used to abort the process (a failed block-table
// allocation, exit 134) or panic on a wrapped plane count (exit 101).

#[test]
fn simulate_refuses_four_billion_blocks_per_plane() {
    let cfg = SsdConfig {
        blocks_per_plane: 4_000_000_000,
        ..SsdConfig::default()
    };
    simulate_refuses("bpp", &cfg, "total blocks must not exceed 4294967295");
}

#[test]
fn simulate_refuses_a_plane_count_that_wraps() {
    let cfg = SsdConfig {
        channel_count: 4_000_000_000,
        chips_per_channel: 4_000_000_000,
        dies_per_chip: 4_000_000_000,
        planes_per_die: 4_000_000_000,
        ..SsdConfig::default()
    };
    simulate_refuses("planes", &cfg, "total planes must not exceed 4294967295");
}

#[test]
fn simulate_refuses_more_blocks_than_a_u32_indexes() {
    let cfg = SsdConfig {
        channel_count: 65_536,
        blocks_per_plane: 65_536,
        ..SsdConfig::default()
    };
    simulate_refuses("blocks", &cfg, "total blocks must not exceed 4294967295");
}

/// Exit 2 before anything runs, with `error: <message>` as the first line.
fn usage_error(args: &[&str], message: &str) {
    let out = autoblox(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    assert!(
        stderr.starts_with(&format!("error: {message}\n")),
        "{args:?}: {stderr}"
    );
}

/// The retired checkpoint flags must not silently start a full tune.
#[test]
fn tune_rejects_unknown_flags_and_missing_values() {
    for flag in [
        "--resume",
        "--checkpoint",
        "--checkpoint-every",
        "--stop-after-iter",
    ] {
        usage_error(
            &["tune", "database", "--events", "60", flag, "1"],
            &format!("unknown tune flag \"{flag}\""),
        );
    }
    usage_error(
        &["tune", "database", "--iterations"],
        "--iterations needs a value",
    );
}

#[test]
fn whatif_rejects_unknown_flags_and_missing_values() {
    usage_error(
        &[
            "whatif",
            "database",
            "--goal",
            "latency",
            "--itrations",
            "2",
        ],
        "unknown whatif flag \"--itrations\"",
    );
    usage_error(
        &["whatif", "database", "--factor"],
        "--factor needs a value",
    );
}

#[test]
fn place_rejects_unknown_flags_and_missing_values() {
    usage_error(
        &[
            "place",
            "--devices",
            "2",
            "--traces",
            "Database:100:1",
            "--resume",
        ],
        "unknown place flag \"--resume\"",
    );
    usage_error(
        &["place", "--devices", "2", "--traces"],
        "--traces needs a value",
    );
}

#[test]
fn checkpoint_inspect_is_a_retired_command() {
    let out = autoblox(&["checkpoint", "inspect", "checkpoint-Database.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("usage: autoblox <command>"), "{stderr}");
    assert!(!stderr.contains("checkpoint"), "{stderr}");
}

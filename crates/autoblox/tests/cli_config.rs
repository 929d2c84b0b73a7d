//! A configuration file is hostile input: one the simulator cannot hold is
//! refused with a one-line message and exit 2 before anything is simulated.

use ssdsim::config::{SsdConfig, MAX_PAGES_PER_BLOCK};
use std::process::Command;

#[test]
fn simulate_refuses_a_config_whose_blocks_outgrow_the_valid_counter() {
    let dir = std::env::temp_dir().join(format!("abx-cli-config-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("config.json");
    let cfg = SsdConfig {
        channel_count: 1,
        chips_per_channel: 1,
        dies_per_chip: 1,
        blocks_per_plane: 8,
        pages_per_block: MAX_PAGES_PER_BLOCK + 1,
        ..SsdConfig::default()
    };
    std::fs::write(&path, serde_json::to_string(&cfg).unwrap()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_autoblox"))
        .args(["simulate", "fiu"])
        .arg(&path)
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may be simulated");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.contains("pages_per_block must not exceed 65535"),
        "{stderr}"
    );
}

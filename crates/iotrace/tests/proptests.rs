//! Property-based tests for trace generation, parsing, and windowing.

use iotrace::gen::WorkloadKind;
use iotrace::parse::{parse_blkparse, parse_csv, parse_msr, write_csv};
use iotrace::window::{window_features, WindowOptions, FEATURE_DIM};
use iotrace::{OpKind, Trace, TraceEvent};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = WorkloadKind> {
    prop::sample::select(
        WorkloadKind::STUDIED
            .iter()
            .chain(WorkloadKind::NEW.iter())
            .copied()
            .collect::<Vec<_>>(),
    )
}

fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    prop::collection::vec(
        (0u64..1_000_000, 0u64..1_000_000, 1u32..=64, prop::bool::ANY),
        0..200,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(t, lba, sectors, read)| {
                TraceEvent::new(
                    t,
                    lba,
                    sectors * 512,
                    if read { OpKind::Read } else { OpKind::Write },
                )
            })
            .collect()
    })
}

/// `u64`s at the edges of the byte address space (`u64::MAX / 512`).
fn arb_u64() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "0",
        "1",
        "8",
        "4096",
        "36028797018963967",
        "36028797018963968",
        "18446744073709551615",
    ])
}

/// `u32`s, zero and `u32::MAX` among them.
fn arb_u32() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["0", "1", "8", "4096", "8388608", "4294967295"])
}

/// Arbitrary bytes shaped like a trace: mostly well-formed lines built by
/// `line` from fields at the edges of their types, one in four a line of
/// random bytes.
fn arb_trace_bytes(line: impl Strategy<Value = String>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        (0u8..4, line, prop::collection::vec(any::<u8>(), 0..12))
            .prop_map(|(pick, line, bytes)| if pick == 0 { bytes } else { line.into_bytes() }),
        1..6,
    )
    .prop_map(|lines| lines.join(&b'\n'))
}

/// What every parser guarantees of a trace it accepts: each request moves
/// at least one byte and its byte range fits in a `u64`.
fn assert_in_bounds(parsed: Result<Trace, Box<dyn std::error::Error>>) {
    if let Ok(t) = parsed {
        for e in &t {
            assert!(e.size_bytes > 0, "{e:?}");
            assert!(
                e.lba
                    .checked_mul(512)
                    .and_then(|b| b.checked_add(u64::from(e.size_bytes)))
                    .is_some(),
                "{e:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn csv_parser_never_panics_and_bounds_what_it_accepts(bytes in arb_trace_bytes(
        (arb_u64(), arb_u64(), arb_u32(), prop::sample::select(vec!["R", "W"]))
            .prop_map(|(t, lba, size, op)| format!("{t},{lba},{size},{op}")),
    )) {
        assert_in_bounds(parse_csv("p", bytes.as_slice()));
    }

    #[test]
    fn blkparse_parser_never_panics_and_bounds_what_it_accepts(bytes in arb_trace_bytes(
        (arb_u64(), arb_u64(), arb_u32(), prop::sample::select(vec!["R", "WS"]))
            .prop_map(|(t, lba, sectors, op)| format!("{t}.5 {lba} + {sectors} {op}")),
    )) {
        assert_in_bounds(parse_blkparse("p", bytes.as_slice()));
    }

    #[test]
    fn msr_parser_never_panics_and_bounds_what_it_accepts(bytes in arb_trace_bytes(
        (arb_u64(), prop::sample::select(vec!["Read", "Write"]), arb_u64(), arb_u32())
            .prop_map(|(ticks, op, offset, size)| format!("{ticks},h,0,{op},{offset},{size},1")),
    )) {
        assert_in_bounds(parse_msr("p", bytes.as_slice()));
    }

    #[test]
    fn generated_traces_satisfy_invariants(kind in arb_kind(), n in 10usize..500, seed in 0u64..1000) {
        let spec = kind.spec();
        let t = spec.generate(n, seed);
        prop_assert_eq!(t.len(), n);
        let mut prev = 0u64;
        for e in &t {
            prop_assert!(e.timestamp_ns >= prev);
            prev = e.timestamp_ns;
            prop_assert!(e.size_bytes >= 512);
            prop_assert_eq!(e.size_bytes % 512, 0);
            prop_assert!(e.lba < spec.working_set_sectors + 2048);
        }
        // Determinism.
        prop_assert_eq!(t, spec.generate(n, seed));
    }

    #[test]
    fn csv_roundtrip_preserves_events(events in arb_events()) {
        let t = Trace::from_events("p", events);
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let parsed = parse_csv("p", buf.as_slice()).unwrap();
        prop_assert_eq!(parsed.events(), t.events());
    }

    #[test]
    fn blkparse_format_roundtrip(events in arb_events()) {
        let t = Trace::from_events("p", events);
        let mut text = String::new();
        for e in &t {
            text.push_str(&format!(
                "{}.{:09} {} + {} {}\n",
                e.timestamp_ns / 1_000_000_000,
                e.timestamp_ns % 1_000_000_000,
                e.lba,
                e.sector_count(),
                e.op
            ));
        }
        let parsed = parse_blkparse("p", text.as_bytes()).unwrap();
        prop_assert_eq!(parsed.len(), t.len());
        for (a, b) in parsed.events().iter().zip(t.events()) {
            prop_assert_eq!(a.lba, b.lba);
            prop_assert_eq!(a.op, b.op);
            prop_assert_eq!(a.size_bytes, b.size_bytes);
            // Timestamps survive within ns rounding.
            prop_assert!(a.timestamp_ns.abs_diff(b.timestamp_ns) <= 1);
        }
    }

    #[test]
    fn window_features_are_finite_and_shaped(events in arb_events(), window_len in 2usize..50) {
        let t = Trace::from_events("p", events);
        let feats = window_features(&t, WindowOptions { window_len });
        prop_assert_eq!(feats.len(), t.len() / window_len);
        for f in &feats {
            prop_assert_eq!(f.len(), FEATURE_DIM);
            for &v in f {
                prop_assert!(v.is_finite());
            }
            // Bounded fraction features.
            prop_assert!((0.0..=1.0).contains(&f[0]), "read fraction {}", f[0]);
            prop_assert!((0.0..=1.0).contains(&f[5]), "seq fraction {}", f[5]);
        }
    }

    #[test]
    fn rebase_preserves_relative_geometry(events in arb_events()) {
        prop_assume!(!events.is_empty());
        let mut t = Trace::from_events("p", events);
        let gaps_before: Vec<i64> = t
            .events()
            .windows(2)
            .map(|w| w[1].lba as i64 - w[0].lba as i64)
            .collect();
        t.rebase_addresses();
        let gaps_after: Vec<i64> = t
            .events()
            .windows(2)
            .map(|w| w[1].lba as i64 - w[0].lba as i64)
            .collect();
        prop_assert_eq!(gaps_before, gaps_after);
        prop_assert_eq!(t.events().iter().map(|e| e.lba).min(), Some(0));
    }

    #[test]
    fn statistics_are_bounded(events in arb_events()) {
        let t = Trace::from_events("p", events);
        prop_assert!((0.0..=1.0).contains(&t.read_ratio()));
        prop_assert!((0.0..=1.0).contains(&t.sequential_ratio()));
        let total: u64 = t.events().iter().map(|e| u64::from(e.size_bytes)).sum();
        prop_assert_eq!(t.total_bytes(), total);
    }
}

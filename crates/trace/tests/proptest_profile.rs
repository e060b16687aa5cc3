//! Property tests over the profile artifact: the JSON writer/parser
//! round-trip exactly, and the accounting identity (Σ per-kernel self-time
//! ≡ Σ per-worker busy time) holds by construction on any recorded trace
//! whose workers run one node at a time.

use arp_trace::profile::{Profile, ProfileNode, WhatIfCurve, WhatIfPoint};
use proptest::prelude::*;

/// Builds a realized trace from generator output: each node is appended to
/// its worker's timeline (never overlapping, as real workers behave), and
/// predecessor edges point only at earlier indices (acyclic by
/// construction).
fn realize(items: Vec<(usize, u64, u64, u8, usize)>) -> (Vec<ProfileNode>, Vec<Vec<usize>>) {
    let mut lane_clock = [0u64; 4];
    let mut nodes = Vec::new();
    for (lane, dur, gap, process, ev) in items {
        let start = lane_clock[lane] + gap;
        lane_clock[lane] = start + dur;
        nodes.push(ProfileNode {
            event: format!("ev-{ev}"),
            process,
            name: format!("kernel-{process}"),
            kind: match process % 3 {
                0 => "heavy-io".into(),
                1 => "heavy-flops".into(),
                _ => "light".into(),
            },
            lane: format!("w{lane}"),
            start_ns: start,
            dur_ns: dur,
        });
    }
    let preds = (0..nodes.len())
        .map(|i| (0..i).filter(|j| (i * 7 + j * 13) % 5 == 0).collect())
        .collect();
    (nodes, preds)
}

proptest! {
    /// Non-overlapping per-worker spans make the accounting identity exact:
    /// the interval union degenerates to the per-worker sum, so both sides
    /// count every nanosecond exactly once.
    #[test]
    fn accounting_identity_is_exact_on_recorded_traces(
        items in proptest::collection::vec(
            (0usize..4, 1u64..1_000_000, 0u64..1_000, 1u8..21, 0usize..3),
            0..40,
        )
    ) {
        let (nodes, preds) = realize(items);
        let wall = nodes.iter().map(|n| n.start_ns + n.dur_ns).max().unwrap_or(0);
        let p = Profile::build(&nodes, &preds, 4, wall).unwrap();
        prop_assert_eq!(p.self_total_ns, p.worker_busy_ns);
        prop_assert!(p.accounting_error() == 0.0);
        p.validate(0.0).unwrap();
        // The realized critical path can never exceed the wall clock the
        // workers realized, nor the total work.
        prop_assert!(p.cp_ns <= p.self_total_ns);
    }

    /// write → parse → write is the identity on the JSON artifact, and the
    /// parsed profile equals the built one field for field.
    #[test]
    fn profile_json_round_trips(
        items in proptest::collection::vec(
            (0usize..4, 1u64..1_000_000, 0u64..1_000, 1u8..21, 0usize..3),
            0..30,
        ),
        speedup in 1.25f64..16.0,
    ) {
        let (nodes, preds) = realize(items);
        let wall = nodes.iter().map(|n| n.start_ns + n.dur_ns).max().unwrap_or(0);
        let mut p = Profile::build(&nodes, &preds, 3, wall).unwrap();
        if let Some(k) = p.kernels.first().cloned() {
            let base = p.cp_ns.max(1);
            let predicted = base - base / 4;
            p.replay_base_ns = base;
            p.what_if = vec![WhatIfCurve {
                process: k.process,
                name: k.name,
                points: vec![WhatIfPoint {
                    speedup,
                    predicted_ns: predicted,
                    saving: 1.0 - predicted as f64 / base as f64,
                    bottleneck: "kernel-1".into(),
                }],
            }];
        }
        let text = p.to_json();
        let back = Profile::parse_json(&text).unwrap();
        prop_assert_eq!(&back, &p);
        prop_assert_eq!(back.to_json(), text);
    }
}

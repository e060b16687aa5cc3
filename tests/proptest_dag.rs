//! Property tests over the artifact-dependency DAG: the stage plan's
//! freedom (concurrent tasks within a stage) never violates a dependency,
//! the redundant processes are schedulable anywhere after their inputs,
//! and the critical path behaves like a longest path should. The batch's
//! union of per-event DAGs is property-tested where it is built, in
//! `arp-core`'s `plan` module.

use arp_core::plan::STAGE_TABLE;
use arp_core::{ProcessDag, ProcessId};
use proptest::prelude::*;
use std::time::Duration;

/// SplitMix64 step: cheap, deterministic, good enough to explore orderings.
fn next_u64(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shuffles a slice in place with a Fisher–Yates walk driven by `seed`.
fn shuffle(xs: &mut [u8], mut seed: u64) {
    for i in (1..xs.len()).rev() {
        let z = next_u64(&mut seed);
        xs.swap(i, (z as usize) % (i + 1));
    }
}

/// A shuffled flattening of the eleven-stage plan: stages in order,
/// intra-stage processes permuted by `seed`. Always a valid linearization
/// of the optimized per-event graph.
fn shuffled_plan_flattening(seed: u64) -> Vec<u8> {
    let mut order = Vec::new();
    for (k, stage) in STAGE_TABLE.iter().enumerate() {
        let mut procs: Vec<u8> = stage.processes.to_vec();
        shuffle(&mut procs, seed.wrapping_add(k as u64));
        order.extend(procs);
    }
    order
}

proptest! {
    /// A stage's processes are concurrent tasks, so *any* intra-stage
    /// completion order must still be a topological linearization of the
    /// dependency graph — that is what makes the barrier plan sound.
    #[test]
    fn every_intra_stage_shuffle_of_the_plan_linearizes(seed in any::<u64>()) {
        let dag = ProcessDag::optimized();
        let order = shuffled_plan_flattening(seed);
        let violations = dag.linearization_violations(&order);
        prop_assert!(violations.is_empty(), "{violations:#?}");
    }

    /// The redundant processes #6/#12/#14 are pure leaves of the full
    /// graph: inserting each at *any* position after the gather (#1) keeps
    /// a valid linearization, which is exactly why deleting them is safe.
    #[test]
    fn redundant_processes_slot_in_anywhere_after_the_gather(
        seed in any::<u64>(),
        positions in prop::collection::vec(0usize..18, 3),
    ) {
        let full = ProcessDag::full();
        let opt = ProcessDag::optimized();
        for p in [6u8, 12, 14] {
            prop_assert_eq!(full.preds(p), &[1u8], "redundant #{} preds", p);
            prop_assert!(full.succs(p).is_empty(), "redundant #{} must be a leaf", p);
        }

        // Start from a valid order of the optimized graph (a shuffled plan
        // flattening) and splice the redundant leaves in anywhere after #1.
        let mut order = shuffled_plan_flattening(seed);
        prop_assert!(opt.is_linearization(&order));
        let gather_pos = order.iter().position(|&p| p == 1).unwrap();
        for (i, &p) in [6u8, 12, 14].iter().enumerate() {
            let at = gather_pos + 1 + positions[i] % (order.len() - gather_pos);
            order.insert(at, p);
        }
        let violations = full.linearization_violations(&order);
        prop_assert!(violations.is_empty(), "{violations:#?}");
    }

    /// Longest-path sanity under arbitrary weights: bounded below by the
    /// heaviest node, above by the serial sum, and every consecutive pair
    /// on the reported path is a real dependency.
    #[test]
    fn critical_path_is_a_dependency_chain_with_sane_length(
        weights in prop::collection::vec(1u64..1_000, 17),
    ) {
        let dag = ProcessDag::optimized();
        let nodes = dag.nodes().to_vec();
        let weight_of = |p: ProcessId| {
            let i = nodes.iter().position(|&q| q == p.0).unwrap();
            Duration::from_micros(weights[i])
        };
        let cp = dag.critical_path(weight_of);

        let total: Duration = nodes.iter().map(|&p| weight_of(ProcessId(p))).sum();
        let heaviest = nodes.iter().map(|&p| weight_of(ProcessId(p))).max().unwrap();
        prop_assert!(cp.length >= heaviest);
        prop_assert!(cp.length <= total);

        let path_sum: Duration = cp.nodes.iter().map(|&p| weight_of(p)).sum();
        prop_assert_eq!(path_sum, cp.length);
        for pair in cp.nodes.windows(2) {
            prop_assert!(
                dag.preds(pair[1].0).contains(&pair[0].0),
                "#{} -> #{} is not an edge",
                pair[0].0,
                pair[1].0
            );
        }
    }
}

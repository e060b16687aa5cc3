//! Trace → profile extraction and the what-if speedup engine.
//!
//! `arp-trace` records *what ran where*; [`crate::dag::SuperDag`] knows
//! *what had to wait for what*. This module joins the two into the
//! attribution artifact of [`arp_trace::profile`]:
//!
//! 1. [`realize_batch`] folds a recorded trace's DAG-node spans back onto
//!    the super-DAG the batch executed: one realized node per span, with
//!    the recorded duration, plus the dependency edges the scheduler
//!    honored (edges through nodes missing from the trace are contracted
//!    to the nearest recorded ancestors, so partial traces still profile);
//! 2. [`profile_trace`] builds the [`Profile`] — per-kernel self-time,
//!    realized critical path, accounting identity — labeling kernels from
//!    [`crate::process::PROCESS_TABLE`];
//! 3. [`profile_trace_what_if`] adds Coz-style sensitivity curves: for the
//!    top-k kernels by self-time, the recorded durations are scaled
//!    ([`RealizedBatch::scaled_durations`]) and replayed through `arp-par`'s
//!    deterministic scheduling replay ([`arp_par::replay`]), so every
//!    prediction is exactly reproducible by replaying pre-scaled inputs.

use crate::dag::SuperDag;
use crate::process::{process_info, ProcessId, ProcessKind};
use arp_trace::profile::{Profile, ProfileNode, WhatIfCurve, WhatIfPoint};
use arp_trace::{Cat, Trace};
use std::time::Duration;

/// Speedup factors of the default what-if grid.
pub const WHAT_IF_SPEEDUPS: [f64; 4] = [1.5, 2.0, 4.0, 8.0];

/// Kernels (ranked by self-time) that get a sensitivity curve by default.
pub const WHAT_IF_TOP_K: usize = 3;

/// Label for a workload class, as it appears in profiles and folded stacks.
pub fn kind_label(kind: ProcessKind) -> &'static str {
    match kind {
        ProcessKind::HeavyIo => "heavy-io",
        ProcessKind::HeavyFlops => "heavy-flops",
        ProcessKind::Plotting => "plotting",
        ProcessKind::Light => "light",
    }
}

/// A recorded batch execution folded back onto its super-DAG: the inputs
/// of both the profile fold and the what-if replay.
pub struct RealizedBatch {
    /// The reconstructed super-DAG (events sorted by label).
    pub super_dag: SuperDag,
    /// One realized node per recorded DAG-node span.
    pub nodes: Vec<ProfileNode>,
    /// Dependency edges between realized nodes (indices into `nodes`).
    pub preds: Vec<Vec<usize>>,
    /// Recorded duration per flat super-DAG node (zero where the trace
    /// has no span), shaped for [`arp_par::replay`].
    pub durations: Vec<Duration>,
    /// Super-DAG predecessor lists, aligned with `durations`.
    pub dag_preds: Vec<Vec<usize>>,
    /// Wall time of the traced run, ns.
    pub wall_ns: u64,
}

impl RealizedBatch {
    /// The recorded durations with every node of kernel `process` run
    /// `speedup`× faster: the input of a what-if replay.
    pub fn scaled_durations(&self, process: ProcessId, speedup: f64) -> Vec<Duration> {
        self.durations
            .iter()
            .zip(self.super_dag.nodes())
            .map(|(&d, node)| {
                if node.process == process {
                    d.div_f64(speedup)
                } else {
                    d
                }
            })
            .collect()
    }

    /// Replayed makespan of `durations` (aligned with the super-DAG) on
    /// `threads` workers.
    pub fn replay_makespan(&self, durations: &[Duration], threads: usize) -> Duration {
        arp_par::replay(durations, &self.dag_preds, threads).makespan()
    }
}

/// Folds a recorded trace's DAG-node spans onto the super-DAG the batch
/// ran. Errors when the trace has no attributed DAG-node spans or a span
/// names a process outside the per-event graph.
pub fn realize_batch(trace: &Trace) -> Result<RealizedBatch, String> {
    let spans: Vec<_> = trace
        .spans_of(Cat::DagNode)
        .filter(|s| s.process.is_some() && !s.event.is_empty())
        .collect();
    if spans.is_empty() {
        return Err(
            "profile: trace contains no attributed DAG-node spans (was the workload \
             a DAG batch run with tracing enabled?)"
                .into(),
        );
    }
    let mut events: Vec<String> = spans.iter().map(|s| s.event.clone()).collect();
    events.sort();
    events.dedup();
    let super_dag = SuperDag::union(&events);
    let per_nodes = super_dag.per_event().nodes().to_vec();
    let position_of = |p: u8| per_nodes.iter().position(|&q| q == p);

    // Realized nodes, plus span indices grouped by flat super-DAG node.
    let mut nodes = Vec::with_capacity(spans.len());
    let mut at_flat: Vec<Vec<usize>> = vec![Vec::new(); super_dag.len()];
    let mut durations = vec![Duration::ZERO; super_dag.len()];
    for span in &spans {
        let p = span.process.expect("filtered on is_some");
        let e = events
            .binary_search(&span.event)
            .expect("event list built from these spans");
        let pos = position_of(p).ok_or_else(|| {
            format!(
                "profile: span {:?} names process #{p} which is not in the per-event graph",
                span.name
            )
        })?;
        let info = process_info(ProcessId(p));
        let flat = super_dag.event_offset(e) + pos;
        at_flat[flat].push(nodes.len());
        durations[flat] += Duration::from_nanos(span.dur_ns);
        nodes.push(ProfileNode {
            event: span.event.clone(),
            process: p,
            name: info.name.to_string(),
            kind: kind_label(info.kind).to_string(),
            lane: trace
                .lanes
                .get(span.lane)
                .cloned()
                .unwrap_or_else(|| format!("lane-{}", span.lane)),
            start_ns: span.start_ns,
            dur_ns: span.dur_ns,
        });
    }

    // Nearest *recorded* ancestors per flat node: a node missing from the
    // trace (skipped, or the trace is partial) contracts to its own
    // ancestors so dependency chains survive the gap. Super-DAG preds are
    // acyclic, so ancestors[q] is complete before any node that needs it
    // when filled in index order within an event... positions are not
    // topologically sorted, so recurse with memoization instead.
    let flat_preds = super_dag.preds();
    let mut ancestors: Vec<Option<Vec<usize>>> = vec![None; super_dag.len()];
    fn recorded_ancestors(
        q: usize,
        at_flat: &[Vec<usize>],
        flat_preds: &[Vec<usize>],
        ancestors: &mut Vec<Option<Vec<usize>>>,
    ) -> Vec<usize> {
        if let Some(done) = &ancestors[q] {
            return done.clone();
        }
        let mut found = Vec::new();
        for &p in &flat_preds[q] {
            if at_flat[p].is_empty() {
                found.extend(recorded_ancestors(p, at_flat, flat_preds, ancestors));
            } else {
                found.extend(at_flat[p].iter().copied());
            }
        }
        found.sort_unstable();
        found.dedup();
        ancestors[q] = Some(found.clone());
        found
    }
    let mut preds = vec![Vec::new(); nodes.len()];
    for (flat, here) in at_flat.iter().enumerate() {
        if here.is_empty() {
            continue;
        }
        let ps = recorded_ancestors(flat, &at_flat, flat_preds, &mut ancestors);
        for &i in here {
            preds[i] = ps.clone();
        }
    }

    Ok(RealizedBatch {
        dag_preds: flat_preds.to_vec(),
        super_dag,
        nodes,
        preds,
        durations,
        wall_ns: trace.wall.as_nanos() as u64,
    })
}

/// Builds the attribution profile of a recorded trace (no what-if curves).
///
/// `threads` documents the worker count the what-if replay would use; it
/// does not change the fold itself.
pub fn profile_trace(trace: &Trace, threads: usize) -> Result<Profile, String> {
    let batch = realize_batch(trace)?;
    Profile::build(&batch.nodes, &batch.preds, threads, batch.wall_ns)
}

/// Builds the profile *and* the what-if sensitivity curves for the `top_k`
/// kernels by self-time, replaying each speedup in `speedups` through the
/// deterministic scheduler on `threads` workers.
pub fn profile_trace_what_if(
    trace: &Trace,
    threads: usize,
    top_k: usize,
    speedups: &[f64],
) -> Result<Profile, String> {
    let batch = realize_batch(trace)?;
    let mut profile = Profile::build(&batch.nodes, &batch.preds, threads, batch.wall_ns)?;
    let base = batch.replay_makespan(&batch.durations, threads);
    profile.replay_base_ns = base.as_nanos() as u64;
    for kernel in profile.kernels.iter().filter(|k| k.self_ns > 0).take(top_k) {
        let mut points = Vec::with_capacity(speedups.len());
        for &speedup in speedups {
            let scaled = batch.scaled_durations(ProcessId(kernel.process), speedup);
            let predicted = batch.replay_makespan(&scaled, threads);
            let predicted_ns = predicted.as_nanos() as u64;
            let saving = if profile.replay_base_ns == 0 {
                0.0
            } else {
                1.0 - predicted_ns as f64 / profile.replay_base_ns as f64
            };
            points.push(WhatIfPoint {
                speedup,
                predicted_ns,
                saving,
                bottleneck: scaled_bottleneck(&batch, kernel.process, speedup),
            });
        }
        profile.what_if.push(WhatIfCurve {
            process: kernel.process,
            name: kernel.name.clone(),
            points,
        });
    }
    Ok(profile)
}

/// The kernel dominating the realized critical path once `process` runs
/// `speedup`× faster — where the next bottleneck moves to.
fn scaled_bottleneck(batch: &RealizedBatch, process: u8, speedup: f64) -> String {
    let scaled: Vec<ProfileNode> = batch
        .nodes
        .iter()
        .map(|n| {
            let mut n = n.clone();
            if n.process == process {
                n.dur_ns = (n.dur_ns as f64 / speedup).round() as u64;
            }
            n
        })
        .collect();
    match Profile::build(&scaled, &batch.preds, 1, 0) {
        Ok(p) => p
            .kernels
            .iter()
            .max_by_key(|k| (k.cp_ns, std::cmp::Reverse(k.process)))
            .map(|k| k.name.clone())
            .unwrap_or_default(),
        Err(_) => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arp_trace::Span;

    /// A synthetic two-event measured batch: every super-DAG node gets one
    /// span, laid out on three workers with event-major start times.
    fn synthetic_trace() -> Trace {
        let events = ["ev-a".to_string(), "ev-b".to_string()];
        let super_dag = SuperDag::union(&events);
        let lanes = vec![
            "main".to_string(),
            "arp-par-0".to_string(),
            "arp-par-1".to_string(),
        ];
        let mut spans = Vec::new();
        let mut clocks = [0u64; 3];
        for (i, node) in super_dag.nodes().iter().enumerate() {
            let p = node.process.0;
            let lane = i % 3;
            let dur = 1_000 * (p as u64 + 1);
            let start = clocks[lane];
            clocks[lane] = start + dur;
            spans.push(Span {
                name: format!("{}/#{p}", events[node.event]),
                cat: Cat::DagNode,
                process: Some(p),
                event: events[node.event].clone(),
                lane,
                start_ns: start,
                dur_ns: dur,
                queue_ns: 0,
                bytes: 0,
            });
        }
        Trace {
            spans,
            lanes,
            counters: Vec::new(),
            wall: Duration::from_micros(400),
            dropped: 0,
        }
    }

    #[test]
    fn realize_maps_every_span_onto_the_super_dag() {
        let trace = synthetic_trace();
        let batch = realize_batch(&trace).unwrap();
        assert_eq!(batch.nodes.len(), batch.super_dag.len());
        // Two events' worth of flat super-DAG positions.
        let per = batch.super_dag.per_event().nodes().len();
        assert_eq!(batch.durations.len(), 2 * per);
        // Total realized duration equals the spans' sum.
        let total: Duration = batch.durations.iter().sum();
        let spans_total: u64 = trace.spans.iter().map(|s| s.dur_ns).sum();
        assert_eq!(total, Duration::from_nanos(spans_total));
    }

    #[test]
    fn profile_satisfies_identity_and_validates() {
        let trace = synthetic_trace();
        let p = profile_trace(&trace, 3).unwrap();
        // One span at a time per worker: the identity is exact.
        assert_eq!(p.self_total_ns, p.worker_busy_ns);
        p.validate(0.0).unwrap();
        assert_eq!(p.events, vec!["ev-a".to_string(), "ev-b".to_string()]);
        // Kernel names come from the process table.
        assert!(p.kernels.iter().any(|k| k.name == "Apply default filters"));
    }

    #[test]
    fn what_if_prediction_equals_scaled_resimulation() {
        let trace = synthetic_trace();
        let p = profile_trace_what_if(&trace, 3, 3, &WHAT_IF_SPEEDUPS).unwrap();
        assert!(!p.what_if.is_empty());
        p.validate(0.0).unwrap();
        let batch = realize_batch(&trace).unwrap();
        assert_eq!(
            p.replay_base_ns,
            batch.replay_makespan(&batch.durations, 3).as_nanos() as u64
        );
        for curve in &p.what_if {
            for point in &curve.points {
                let scaled: Vec<Duration> = batch
                    .durations
                    .iter()
                    .zip(batch.super_dag.nodes())
                    .map(|(&d, n)| match n.process.0 == curve.process {
                        true => d.div_f64(point.speedup),
                        false => d,
                    })
                    .collect();
                let rerun = arp_par::replay(&scaled, &batch.dag_preds, 3).makespan();
                assert_eq!(point.predicted_ns, rerun.as_nanos() as u64);
            }
        }
    }

    #[test]
    fn partial_traces_contract_missing_nodes() {
        let mut trace = synthetic_trace();
        // Drop one mid-graph node; the fold must still succeed and keep
        // the dependency chain through the gap.
        let victim = trace.spans.len() / 2;
        trace.spans.remove(victim);
        let batch = realize_batch(&trace).unwrap();
        assert_eq!(batch.nodes.len(), batch.super_dag.len() - 1);
        let p = Profile::build(&batch.nodes, &batch.preds, 3, batch.wall_ns).unwrap();
        p.validate(0.0).unwrap();
    }

    #[test]
    fn empty_traces_are_an_error() {
        let trace = Trace {
            spans: Vec::new(),
            lanes: Vec::new(),
            counters: Vec::new(),
            wall: Duration::ZERO,
            dropped: 0,
        };
        assert!(profile_trace(&trace, 1).is_err());
    }
}

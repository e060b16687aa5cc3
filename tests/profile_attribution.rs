//! Profile attribution integration: building the critical-path profile
//! never changes the pipeline's bytes, the accounting identity (Σ
//! per-kernel self-time ≡ Σ per-worker busy time) holds exactly on real
//! batch traces, and every what-if prediction equals re-running the
//! deterministic replay on explicitly pre-scaled durations.

use arp_core::output::{diff_snapshots, snapshot};
use arp_core::{
    profile_trace_what_if, realize_batch, run_batch_dag, BatchItem, PipelineConfig, ProcessId,
    ReadyOrder, WHAT_IF_SPEEDUPS,
};
use arp_synth::{paper_event, write_event_inputs, PAPER_EVENT_SHAPES};
use arp_trace::profile::Profile;
use arp_trace::TraceSession;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

/// Trace sessions are process-global; the harness runs tests on parallel
/// threads, so every test that records spans takes this lock first.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn stage_paper_batch(base: &Path, scale: f64, events: usize) -> Vec<BatchItem> {
    let mut items = Vec::new();
    for (i, &(label, _, _, _)) in PAPER_EVENT_SHAPES.iter().take(events).enumerate() {
        let dir = base.join("in").join(label);
        std::fs::create_dir_all(&dir).unwrap();
        write_event_inputs(&paper_event(i, scale), &dir).unwrap();
        items.push(BatchItem {
            label: label.to_string(),
            input_dir: dir,
        });
    }
    items
}

/// Runs a traced batch and returns the raw trace; the caller owns the lock.
fn traced_batch(base: &Path, items: &[BatchItem]) -> arp_trace::Trace {
    let session = TraceSession::start();
    run_batch_dag(
        items,
        &base.join("work"),
        &PipelineConfig::fast(),
        ReadyOrder::CriticalPath,
    )
    .unwrap();
    session.finish()
}

#[test]
fn profiling_on_changes_no_bytes_on_all_paper_events() {
    let _guard = TEST_LOCK.lock().unwrap();
    let base = std::env::temp_dir().join(format!("arp-prof-equiv-{}", std::process::id()));
    let items = stage_paper_batch(&base, 0.002, PAPER_EVENT_SHAPES.len());

    // Reference pass: profiling off.
    run_batch_dag(
        &items,
        &base.join("work-off"),
        &PipelineConfig::fast(),
        ReadyOrder::CriticalPath,
    )
    .unwrap();

    // Profiled pass: trace the run and fold the full attribution profile,
    // what-if curves included, exercising the entire observation path.
    let session = TraceSession::start();
    run_batch_dag(
        &items,
        &base.join("work-on"),
        &PipelineConfig::fast(),
        ReadyOrder::CriticalPath,
    )
    .unwrap();
    let trace = session.finish();
    let profile = profile_trace_what_if(&trace, 4, 2, 3, &WHAT_IF_SPEEDUPS).unwrap();
    assert!(!profile.kernels.is_empty());
    assert!(!profile.what_if.is_empty());

    // Byte equivalence per event: observing the run never changes it.
    for item in &items {
        let diffs = diff_snapshots(
            &snapshot(&base.join("work-off").join(&item.label)).unwrap(),
            &snapshot(&base.join("work-on").join(&item.label)).unwrap(),
        );
        assert!(
            diffs.is_empty(),
            "profiling changed bytes of event {}: {diffs:#?}",
            item.label
        );
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn accounting_identity_is_exact_on_a_real_batch_trace() {
    let _guard = TEST_LOCK.lock().unwrap();
    let base = std::env::temp_dir().join(format!("arp-prof-acct-{}", std::process::id()));
    let items = stage_paper_batch(&base, 0.002, 3);
    let trace = traced_batch(&base, &items);

    let profile = profile_trace_what_if(&trace, 4, 2, 3, &WHAT_IF_SPEEDUPS).unwrap();
    // Exclusive self-time attribution makes the identity exact even when
    // help-first stealing nests DAG-node spans on one worker lane.
    assert_eq!(
        profile.self_total_ns, profile.worker_busy_ns,
        "accounting identity broken: Σ self {} ns vs Σ busy {} ns",
        profile.self_total_ns, profile.worker_busy_ns
    );
    assert_eq!(profile.accounting_error(), 0.0);
    profile.validate(0.0).unwrap();
    assert!(profile.cp_ns > 0, "realized critical path is empty");
    assert_eq!(profile.events.len(), items.len());

    // The exported artifacts agree with the in-memory profile: the JSON
    // round-trips exactly and the folded stacks cover every kernel with
    // attributed self-time.
    let back = Profile::parse_json(&profile.to_json()).unwrap();
    assert_eq!(back, profile);
    let folded = profile.folded();
    for k in profile.kernels.iter().filter(|k| k.self_ns > 0) {
        assert!(
            folded.contains(&k.name),
            "kernel {:?} missing from folded stacks",
            k.name
        );
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn what_if_predictions_equal_scaled_replay_exactly() {
    let _guard = TEST_LOCK.lock().unwrap();
    let base = std::env::temp_dir().join(format!("arp-prof-whatif-{}", std::process::id()));
    let items = stage_paper_batch(&base, 0.002, 3);
    let trace = traced_batch(&base, &items);

    let (threads, io_threads) = (4, 2);
    let profile = profile_trace_what_if(&trace, threads, io_threads, 3, &WHAT_IF_SPEEDUPS).unwrap();
    let batch = realize_batch(&trace).unwrap();
    assert_eq!(
        profile.replay_base_ns,
        batch
            .replay_makespan(&batch.durations, threads, io_threads)
            .as_nanos() as u64
    );

    assert!(!profile.what_if.is_empty());
    for curve in &profile.what_if {
        assert_eq!(curve.points.len(), WHAT_IF_SPEEDUPS.len());
        for point in &curve.points {
            // Scale the recorded durations by hand and rerun the same
            // deterministic replay: the engine's prediction must match to
            // the nanosecond — no hidden model, only the scheduler.
            let scaled: Vec<Duration> = batch
                .durations
                .iter()
                .zip(batch.super_dag.nodes())
                .map(|(&d, node)| {
                    if node.process == ProcessId(curve.process) {
                        d.div_f64(point.speedup)
                    } else {
                        d
                    }
                })
                .collect();
            let rerun = arp_par::replay(
                &scaled,
                &batch.dag_preds,
                threads,
                io_threads,
                &batch.io_lanes,
            )
            .makespan();
            assert_eq!(
                point.predicted_ns,
                rerun.as_nanos() as u64,
                "what-if #{:02} at {}x diverged from the scaled replay",
                curve.process,
                point.speedup
            );
            assert!(
                point.predicted_ns <= profile.replay_base_ns,
                "speeding a kernel up must never slow the replay down"
            );
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}

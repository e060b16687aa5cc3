//! Cross-event super-DAG integration: batching events into one graph
//! changes the schedule, never the bytes — and the schedule analysis shows
//! real cross-event overlap on a multi-thread pool.

use arp_core::config::TimingModel;
use arp_core::output::{diff_snapshots, snapshot};
use arp_core::{
    run_batch, run_batch_dag, run_pipeline, BatchItem, ImplKind, PipelineConfig, ReadyOrder,
    RunContext,
};
use arp_synth::{paper_event, write_event_inputs, PAPER_EVENT_SHAPES};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn stage_paper_batch(base: &Path, scale: f64) -> Vec<BatchItem> {
    let mut items = Vec::new();
    for (i, &(label, _, _, _)) in PAPER_EVENT_SHAPES.iter().enumerate() {
        let dir = base.join("batch").join(label);
        std::fs::create_dir_all(&dir).unwrap();
        write_event_inputs(&paper_event(i, scale), &dir).unwrap();
        items.push(BatchItem {
            label: label.to_string(),
            input_dir: dir,
        });
    }
    items
}

#[test]
fn batch_dag_products_match_sequential_per_event_on_all_paper_events() {
    // The tentpole guarantee at batch scope: unioning all six events into
    // one super-graph and running them concurrently on the shared pool
    // produces byte-identical products to processing each event alone with
    // the sequential optimized chain.
    // Simulated timing runs the same node closures inline and must write
    // the same bytes.
    let base = std::env::temp_dir().join(format!("arp-sdag-equiv-{}", std::process::id()));
    let items = stage_paper_batch(&base, 0.002);
    let mut simulated = PipelineConfig::fast();
    simulated.timing = TimingModel::Simulated { threads: 4 };

    for item in &items {
        let work_seq = base.join("seq-work").join(&item.label);
        let ctx = RunContext::new(&item.input_dir, &work_seq, PipelineConfig::fast()).unwrap();
        run_pipeline(&ctx, ImplKind::SequentialOptimized).unwrap();
    }
    for (tag, config) in [
        ("measured", PipelineConfig::fast()),
        ("simulated", simulated),
    ] {
        let batch_work = base.join(format!("batch-work-{tag}"));
        let report = run_batch(&items, &batch_work, &config, ImplKind::BatchDag).unwrap();
        assert_eq!(report.events.len(), PAPER_EVENT_SHAPES.len());

        for item in &items {
            let diffs = diff_snapshots(
                &snapshot(&base.join("seq-work").join(&item.label)).unwrap(),
                &snapshot(&batch_work.join(&item.label)).unwrap(),
            );
            assert!(
                diffs.is_empty(),
                "{tag} event {} diverged: {diffs:#?}",
                item.label
            );
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn super_dag_overlaps_events_beyond_the_per_event_loop() {
    // The acceptance bar for the batch scheduler: on a multi-thread pool
    // the unioned schedule finishes before the per-event DAG loop would
    // (small events fill the idle tails of big ones). Both makespans are
    // computed from the same measured per-node durations, so the
    // comparison is deterministic even on a loaded single-core host.
    let base = std::env::temp_dir().join(format!("arp-sdag-olap-{}", std::process::id()));
    let items = stage_paper_batch(&base, 0.002);
    let mut config = PipelineConfig::fast();
    config.timing = TimingModel::Simulated { threads: 8 };

    let report = run_batch_dag(
        &items,
        &base.join("work"),
        &config,
        ReadyOrder::CriticalPath,
    )
    .unwrap();
    let dag = report.dag.as_ref().expect("super-DAG analysis");
    assert_eq!(dag.event_makespans.len(), PAPER_EVENT_SHAPES.len());
    assert!(
        dag.cross_event_overlap() > Duration::ZERO,
        "batch {:?} vs per-event baseline {:?}",
        dag.batch_makespan,
        dag.sequential_baseline()
    );
    assert!(dag.overlap_speedup() > 1.0);
    // The batch can never beat its own longest event, nor its work spread
    // over every thread.
    assert!(dag.batch_makespan >= dag.critical_path_len);
    assert!(dag.batch_makespan * dag.threads as u32 >= dag.node_total);
    // The decomposition is consistent: serialized cost splits exactly into
    // intra-event saving + cross-event overlap + batch makespan.
    assert_eq!(
        dag.node_total,
        dag.intra_event_saving() + dag.cross_event_overlap() + dag.batch_makespan
    );
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn ready_orders_produce_identical_products() {
    // The fairness knob reorders dispatch, nothing else: both ready-queue
    // policies must emit the same bytes.
    let base = std::env::temp_dir().join(format!("arp-sdag-order-{}", std::process::id()));
    let items: Vec<BatchItem> = stage_paper_batch(&base, 0.002)
        .into_iter()
        .take(2)
        .collect();
    let mut snaps = Vec::new();
    for (i, order) in [ReadyOrder::CriticalPath, ReadyOrder::Submission]
        .into_iter()
        .enumerate()
    {
        let work: PathBuf = base.join(format!("work-{i}"));
        run_batch_dag(&items, &work, &PipelineConfig::fast(), order).unwrap();
        snaps.push(snapshot(&work.join(&items[0].label)).unwrap());
    }
    assert!(diff_snapshots(&snaps[0], &snaps[1]).is_empty());
    std::fs::remove_dir_all(&base).unwrap();
}

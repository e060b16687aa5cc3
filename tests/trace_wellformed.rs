//! Trace well-formedness: spans recorded by the DAG executors nest, never
//! overlap within a worker lane, round-trip through Chrome Trace Event
//! JSON exactly, cover every super-DAG node — and tracing never changes
//! the pipeline's bytes.

use arp_core::output::{diff_snapshots, snapshot};
use arp_core::{
    run_batch_dag, run_pipeline, BatchItem, ImplKind, PipelineConfig, ProcessDag, ReadyOrder,
    RunContext,
};
use arp_synth::{paper_event, write_event_inputs, PAPER_EVENT_SHAPES};
use arp_trace::{Cat, TraceSession};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Trace sessions are process-global; the harness runs tests on parallel
/// threads, so every test that records (or must *not* record) spans takes
/// this lock first.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn stage_event(dir: &Path, index: usize, scale: f64) {
    std::fs::create_dir_all(dir).unwrap();
    write_event_inputs(&paper_event(index, scale), dir).unwrap();
}

fn stage_paper_batch(base: &Path, scale: f64) -> Vec<BatchItem> {
    let mut items = Vec::new();
    for (i, &(label, _, _, _)) in PAPER_EVENT_SHAPES.iter().enumerate() {
        let dir = base.join("in").join(label);
        stage_event(&dir, i, scale);
        items.push(BatchItem {
            label: label.to_string(),
            input_dir: dir,
        });
    }
    items
}

#[test]
fn dag_run_spans_nest_and_lanes_never_overlap() {
    let _guard = TEST_LOCK.lock().unwrap();
    let base = std::env::temp_dir().join(format!("arp-trc-nest-{}", std::process::id()));
    stage_event(&base.join("in"), 0, 0.005);
    let ctx = RunContext::new(base.join("in"), base.join("work"), PipelineConfig::fast()).unwrap();

    let session = TraceSession::start();
    run_pipeline(&ctx, ImplKind::DagParallel).unwrap();
    let trace = session.finish();

    // Every optimized-graph node produced exactly one scheduler span.
    let dag_spans: Vec<_> = trace.spans_of(Cat::DagNode).collect();
    assert_eq!(dag_spans.len(), ProcessDag::optimized().nodes().len());
    // Each is complete and attributed to a real worker lane.
    for s in &dag_spans {
        assert!(s.lane < trace.lanes.len(), "span {s:?} off the lane table");
        assert!(s.end_ns() >= s.start_ns);
        assert!(s.process.is_some(), "unattributed scheduler span {s:?}");
        assert!(!s.event.is_empty());
    }
    // Within a lane, spans either nest or are disjoint — never partially
    // overlap. `lane_violations` checks exactly that invariant.
    let violations = trace.lane_violations();
    assert!(violations.is_empty(), "lane violations: {violations:#?}");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn chrome_json_round_trips_exactly() {
    let _guard = TEST_LOCK.lock().unwrap();
    let base = std::env::temp_dir().join(format!("arp-trc-json-{}", std::process::id()));
    stage_event(&base.join("in"), 1, 0.005);
    let ctx = RunContext::new(base.join("in"), base.join("work"), PipelineConfig::fast()).unwrap();

    let session = TraceSession::start();
    run_pipeline(&ctx, ImplKind::FullyParallel).unwrap();
    let trace = session.finish();
    assert!(!trace.spans.is_empty());

    let json = trace.to_chrome_json();
    let check = arp_trace::validate_chrome_json(&json).unwrap();
    assert_eq!(check.complete, trace.spans.len());
    // `ChromeCheck::lanes` counts lanes that actually carry spans; a lane
    // can legitimately be idle (a worker that never got a job), so it is
    // bounded by — not equal to — the trace's lane table.
    let spanned: std::collections::BTreeSet<usize> = trace.spans.iter().map(|s| s.lane).collect();
    assert_eq!(check.lanes, spanned.len());
    assert!(check.lanes <= trace.lanes.len());

    let back = arp_trace::from_chrome_json(&json).unwrap();
    assert_eq!(back, trace, "JSON round-trip must be lossless");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn batch_trace_has_one_span_per_super_dag_node() {
    let _guard = TEST_LOCK.lock().unwrap();
    let base = std::env::temp_dir().join(format!("arp-trc-batch-{}", std::process::id()));
    let items = stage_paper_batch(&base, 0.002);
    let labels: Vec<String> = items.iter().map(|i| i.label.clone()).collect();

    let session = TraceSession::start();
    run_batch_dag(
        &items,
        &base.join("work"),
        &PipelineConfig::fast(),
        ReadyOrder::CriticalPath,
    )
    .unwrap();
    let trace = session.finish();

    // The acceptance bar: one complete scheduler span per super-DAG node,
    // each attributed to a worker lane and to its event.
    let expected = labels.len() * ProcessDag::optimized().nodes().len();
    let dag_spans: Vec<_> = trace.spans_of(Cat::DagNode).collect();
    assert_eq!(dag_spans.len(), expected);
    for label in &labels {
        let per_event = dag_spans.iter().filter(|s| &s.event == label).count();
        assert_eq!(
            per_event,
            expected / labels.len(),
            "event {label} is missing scheduler spans"
        );
    }
    assert!(trace.lane_violations().is_empty());
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn tracing_never_changes_pipeline_bytes() {
    let _guard = TEST_LOCK.lock().unwrap();
    let base = std::env::temp_dir().join(format!("arp-trc-bytes-{}", std::process::id()));
    let items = stage_paper_batch(&base, 0.002);

    // Same batch, tracing off then on.
    let work_off: PathBuf = base.join("work-off");
    run_batch_dag(
        &items,
        &work_off,
        &PipelineConfig::fast(),
        ReadyOrder::CriticalPath,
    )
    .unwrap();

    let work_on: PathBuf = base.join("work-on");
    let session = TraceSession::start();
    run_batch_dag(
        &items,
        &work_on,
        &PipelineConfig::fast(),
        ReadyOrder::CriticalPath,
    )
    .unwrap();
    let trace = session.finish();
    assert!(!trace.spans.is_empty(), "traced run recorded nothing");

    // Tracing is observational: every product of all six paper events must
    // be byte-identical with and without a live session.
    for item in &items {
        let diffs = diff_snapshots(
            &snapshot(&work_off.join(&item.label)).unwrap(),
            &snapshot(&work_on.join(&item.label)).unwrap(),
        );
        assert!(
            diffs.is_empty(),
            "tracing changed bytes of event {}: {diffs:#?}",
            item.label
        );
    }
    std::fs::remove_dir_all(&base).unwrap();
}

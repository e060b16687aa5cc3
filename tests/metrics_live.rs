//! Live-metrics integration: the counter tracks exported into Chrome
//! traces agree with the pool's own statistics, batch traces carry
//! well-formed counter tracks next to their spans, and enabling metrics
//! collection never changes the pipeline's bytes.
//!
//! These tests live in their own binary on purpose: counter samples are
//! recorded into the process-global trace session, so any parallel test
//! that drives the global pool would pollute a peak-equality assertion.
//! Within the binary every test takes [`TEST_LOCK`].

use arp_core::output::{diff_snapshots, snapshot};
use arp_core::{run_batch_dag, BatchItem, PipelineConfig, ReadyOrder};
use arp_synth::{paper_event, write_event_inputs, PAPER_EVENT_SHAPES};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

/// Trace sessions and the metrics registry are process-global; every test
/// in this binary serializes on this lock.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn stage_paper_batch(base: &Path, scale: f64, n: usize) -> Vec<BatchItem> {
    let mut items = Vec::new();
    for (i, &(label, _, _, _)) in PAPER_EVENT_SHAPES.iter().take(n).enumerate() {
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

#[test]
fn ready_queue_counter_track_peak_matches_pool_stats_peak() {
    let _guard = TEST_LOCK.lock().unwrap();
    // A private pool so no other code path can touch the peak statistic
    // between the snapshot and the assertion.
    let pool = arp_par::ThreadPool::new(3);
    // Wide fan-out: one root releases 62 middle nodes at once into a
    // 3-thread pool, so the ready queue genuinely builds depth; a final
    // sink joins them.
    let n = 64;
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for p in preds.iter_mut().take(n - 1).skip(1) {
        *p = vec![0];
    }
    preds[n - 1] = (1..n - 1).collect();

    let session = arp_trace::TraceSession::start();
    let tasks: Vec<arp_par::BorrowedTask<'_>> = (0..n)
        .map(|_| {
            Box::new(|| std::thread::sleep(Duration::from_micros(200))) as arp_par::BorrowedTask<'_>
        })
        .collect();
    pool.run_dag(tasks, &preds, &[], &[]);
    let trace = session.finish();
    let stats = pool.stats();

    // The track samples the exact value `dag_ready_peak` maximizes over,
    // so the exported peak and the pool statistic must agree — this is
    // what lets a Perfetto counter track be read as scheduler truth.
    assert!(stats.dag_ready_peak >= 2, "fan-out never queued: {stats:?}");
    let track_peak = trace
        .counter_peak("ready-queue-depth")
        .expect("ready-queue-depth track missing");
    assert_eq!(track_peak as u64, stats.dag_ready_peak);

    // The workers-busy track is present and never exceeds the thread
    // count plus the helping caller.
    let busy_peak = trace
        .counter_peak("workers-busy")
        .expect("workers-busy track missing");
    assert!((1.0..=4.0).contains(&busy_peak), "busy peak {busy_peak}");

    // Per-track timestamps are monotone (the exporter sorts by track, and
    // the validator enforces it on the JSON form). The stealing scheduler
    // adds tracks beyond the classic two (deque-depth, steals, and the
    // io-workers-busy lane once I/O workers pull compute work), so the
    // exact count is not pinned — only that the classic pair is present.
    let json = trace.to_chrome_json();
    let check = arp_trace::validate_chrome_json(&json).unwrap();
    assert!(check.counter_tracks >= 2, "tracks {}", check.counter_tracks);
    assert_eq!(check.counter_events, trace.counters.len());
    let tracks = trace.counter_tracks();
    assert!(tracks.contains(&"ready-queue-depth"), "{tracks:?}");
    assert!(tracks.contains(&"workers-busy"), "{tracks:?}");
}

#[test]
fn batch_trace_counter_tracks_are_well_formed() {
    let _guard = TEST_LOCK.lock().unwrap();
    let base = std::env::temp_dir().join(format!("arp-met-batch-{}", std::process::id()));
    let items = stage_paper_batch(&base, 0.002, 3);

    let session = arp_trace::TraceSession::start();
    run_batch_dag(
        &items,
        &base.join("work"),
        &PipelineConfig::fast(),
        ReadyOrder::CriticalPath,
    )
    .unwrap();
    let trace = session.finish();

    // The batch trace carries spans AND counter samples, and the whole
    // file — spans, counter names, per-track monotonicity — validates.
    assert!(!trace.spans.is_empty());
    assert!(
        trace.counter_peak("ready-queue-depth").unwrap_or(0.0) >= 1.0,
        "batch run never sampled ready-queue depth"
    );
    let json = trace.to_chrome_json();
    let check = arp_trace::validate_chrome_json(&json).unwrap();
    assert!(check.complete > 0);
    assert!(check.counter_events > 0);
    assert!(check.counter_tracks >= 1);

    // And the file round-trips: counters included, losslessly.
    let back = arp_trace::from_chrome_json(&json).unwrap();
    assert_eq!(back.counters, trace.counters);
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn metrics_collection_never_changes_pipeline_bytes() {
    let _guard = TEST_LOCK.lock().unwrap();
    let base = std::env::temp_dir().join(format!("arp-met-bytes-{}", std::process::id()));
    let items = stage_paper_batch(&base, 0.002, 2);
    let config = PipelineConfig::fast();

    assert!(
        !arp_metrics::enabled(),
        "metrics leaked on from another test"
    );
    let work_off = base.join("work-off");
    run_batch_dag(&items, &work_off, &config, ReadyOrder::CriticalPath).unwrap();

    let work_on = base.join("work-on");
    arp_metrics::set_enabled(true);
    let result = run_batch_dag(&items, &work_on, &config, ReadyOrder::CriticalPath);
    arp_metrics::set_enabled(false);
    result.unwrap();

    // Metrics are observational: every product of every event must be
    // byte-identical with collection on and off.
    for item in &items {
        let diffs = diff_snapshots(
            &snapshot(&work_off.join(&item.label)).unwrap(),
            &snapshot(&work_on.join(&item.label)).unwrap(),
        );
        assert!(
            diffs.is_empty(),
            "metrics changed bytes of event {}: {diffs:#?}",
            item.label
        );
    }

    // And the collection that ran balanced its books: pending drained to
    // zero, every admitted event retired.
    let text = arp_metrics::gather();
    let samples = arp_metrics::expo::parse_exposition(&text).expect("gather must self-parse");
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
            .unwrap_or_else(|| panic!("{name} missing from exposition"))
    };
    assert_eq!(value("arp_batch_nodes_pending"), 0.0);
    assert!(value("arp_batch_events_admitted_total") >= 2.0);
    assert_eq!(
        value("arp_batch_events_admitted_total"),
        value("arp_batch_events_retired_total")
    );
    std::fs::remove_dir_all(&base).unwrap();
}

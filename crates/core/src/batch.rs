//! Multi-event batch processing.
//!
//! The observatory does not process one event in isolation: records arrive
//! in batches (the Salvadoran repository logged 241 events in a single
//! month). [`run_batch`] drives the pipeline over many event input
//! directories, each into its own work directory, and aggregates the
//! reports — the unit the paper's "scaling our approach to larger
//! experimental accelerographic datasets" future work asks about.
//!
//! Two batch schedules are available:
//!
//! * the **per-event loop** — every [`ImplKind`] except
//!   [`ImplKind::BatchDag`] processes events strictly one at a time, so
//!   the pool idles in the tail of each event;
//! * the **cross-event super-DAG** ([`run_batch_dag`], selected by
//!   [`ImplKind::BatchDag`]) — the per-event dependency graphs are unioned
//!   into one [`SuperDag`] and submitted to the worker pool in a single
//!   call, so small events fill the idle tails of big ones. The
//!   [`BatchDagReport`] decomposes the win into intra-event parallelism
//!   vs cross-event overlap.

use crate::config::{PipelineConfig, TimingModel};
use crate::context::RunContext;
use crate::dag::SuperDag;
use crate::error::{PipelineError, Result};
use crate::executor::{
    measure_input_shape, measured_graph, run_pipeline_labeled, run_plan, run_process, Event,
    NodeState,
};
use crate::plan::PlanGraph;
use crate::process;
use crate::report::{ImplKind, RunReport};
use crate::sim;
use arp_trace::Cat;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Live super-DAG frontier: per-node execution state for the batch run in
/// flight, published so `/statusz` and postmortem bundles can render
/// per-event progress while (or at the instant) the batch runs.
pub(crate) mod progress {
    use crate::executor::NodeState;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::Arc;

    /// Node states of one batch run (event-major flat indexing, aligned
    /// with [`crate::dag::SuperDag::nodes`]).
    pub(crate) struct BatchProgress {
        labels: Vec<String>,
        node_event: Vec<usize>,
        states: Vec<AtomicU8>,
    }

    impl BatchProgress {
        pub(crate) fn set(&self, node: usize, state: NodeState) {
            self.states[node].store(state as u8, Ordering::Relaxed);
        }
    }

    static CURRENT: Mutex<Option<Arc<BatchProgress>>> = Mutex::new(None);

    /// Publishes a fresh all-pending frontier for a starting batch.
    pub(crate) fn install(labels: Vec<String>, node_event: Vec<usize>) -> Arc<BatchProgress> {
        let p = Arc::new(BatchProgress {
            states: (0..node_event.len())
                .map(|_| AtomicU8::new(NodeState::Pending as u8))
                .collect(),
            labels,
            node_event,
        });
        *CURRENT.lock() = Some(p.clone());
        p
    }

    /// Retires the published frontier (batch finished or unwound).
    pub(crate) fn clear() {
        *CURRENT.lock() = None;
    }

    /// Drop guard so the frontier is retired on every exit path.
    pub(crate) struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            clear();
        }
    }

    /// JSON snapshot of the live frontier — per-event pending / running /
    /// completed / failed / skipped node counts — or `None` when no batch
    /// is in flight.
    pub fn frontier_json() -> Option<String> {
        let guard = CURRENT.lock();
        let p = guard.as_ref()?;
        let mut counts = vec![[0u64; 5]; p.labels.len()];
        for (i, st) in p.states.iter().enumerate() {
            let s = st.load(Ordering::Relaxed).min(NodeState::Skipped as u8) as usize;
            counts[p.node_event[i]][s] += 1;
        }
        let mut out = String::from("{\"events\":[");
        for (e, label) in p.labels.iter().enumerate() {
            if e > 0 {
                out.push(',');
            }
            let c = counts[e];
            out.push_str(&format!(
                "{{\"label\":{},\"pending\":{},\"running\":{},\"completed\":{},\"failed\":{},\"skipped\":{}}}",
                arp_trace::json::escape(label),
                c[NodeState::Pending as usize],
                c[NodeState::Running as usize],
                c[NodeState::Completed as usize],
                c[NodeState::Failed as usize],
                c[NodeState::Skipped as usize],
            ));
        }
        out.push_str("]}");
        Some(out)
    }
}

pub use progress::frontier_json;

/// One event to process: an input directory of `<station>.v1` files.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// Event label used in reports.
    pub label: String,
    /// Input directory.
    pub input_dir: PathBuf,
}

/// How the super-DAG scheduler orders simultaneously-ready nodes — the
/// batch's fairness knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReadyOrder {
    /// Critical-path weight: whenever several nodes are ready at once they
    /// are dispatched longest-remaining-work first (downward rank weighted
    /// by event size). Long chains start early, and one huge event cannot
    /// starve the rest — its nodes outrank others only while its remaining
    /// work genuinely is longer.
    #[default]
    CriticalPath,
    /// Flat submission (event-major index) order: the first event's ready
    /// nodes always queue ahead of later events'. The unfair baseline the
    /// critical-path knob is measured against.
    Submission,
}

impl ReadyOrder {
    /// Display name (batch report tables).
    pub fn label(self) -> &'static str {
        match self {
            ReadyOrder::CriticalPath => "critical-path",
            ReadyOrder::Submission => "submission",
        }
    }
}

/// Schedule analysis of a cross-event super-DAG batch run, decomposing the
/// batch speedup into its two independent sources.
///
/// All makespans are replays ([`arp_par::replay`]) of the *same* graph of
/// recorded durations — one vertex per node when measured, the recorded
/// chunks and segments when simulated — so the comparison is free of
/// measurement noise:
///
/// * `node_total` — every recorded duration, back to back;
/// * `Σ event_makespans` — the **sequential-per-event DAG baseline**: each
///   event scheduled as its own DAG (intra-event parallelism only), events
///   run one after another — what `run_batch --impl dag` did before the
///   super-DAG;
/// * `batch_makespan` — the whole super-graph scheduled in one call.
///
/// `node_total − Σ event_makespans` is the intra-event saving;
/// `Σ event_makespans − batch_makespan` is the cross-event overlap the
/// super-DAG adds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchDagReport {
    /// Per-event DAG makespans (same order as [`BatchReport::events`]):
    /// what each event costs scheduled alone on the same threads.
    pub event_makespans: Vec<Duration>,
    /// Makespan of the unioned super-graph on the same threads, clamped to
    /// the sequential-per-event baseline (running events back to back is
    /// always a valid schedule, so the union can never report a slowdown).
    pub batch_makespan: Duration,
    /// Sum of all node durations across all events.
    pub node_total: Duration,
    /// The longest per-event critical path — the floor no schedule beats.
    pub critical_path_len: Duration,
    /// Thread count the schedules were computed for.
    pub threads: usize,
    /// Ready-queue ordering the run used.
    pub order: ReadyOrder,
    /// Always equal to [`BatchDagReport::batch_makespan`]: the pool has one
    /// kind of worker. A stand-in kept only because the benchmark harness
    /// (`perfbench/`) still reads it; it goes when the harness next
    /// changes.
    #[serde(default)]
    pub lane_makespan: Duration,
}

impl BatchDagReport {
    /// The sequential-per-event DAG baseline: Σ of per-event makespans.
    pub fn sequential_baseline(&self) -> Duration {
        self.event_makespans.iter().sum()
    }

    /// Virtual time recovered by overlapping events in one super-graph
    /// (what the batch scheduler buys beyond a per-event DAG loop).
    pub fn cross_event_overlap(&self) -> Duration {
        self.sequential_baseline()
            .saturating_sub(self.batch_makespan)
    }

    /// Virtual time recovered by each event's own DAG parallelism relative
    /// to running every node back to back.
    pub fn intra_event_saving(&self) -> Duration {
        self.node_total.saturating_sub(self.sequential_baseline())
    }

    /// Speedup of the super-graph schedule over the sequential-per-event
    /// baseline (1.0 = no cross-event overlap).
    pub fn overlap_speedup(&self) -> f64 {
        if self.batch_makespan.is_zero() {
            return 0.0;
        }
        self.sequential_baseline().as_secs_f64() / self.batch_makespan.as_secs_f64()
    }

    /// Speedup of the super-graph schedule over the fully serialized batch.
    pub fn batch_speedup(&self) -> f64 {
        if self.batch_makespan.is_zero() {
            return 0.0;
        }
        self.node_total.as_secs_f64() / self.batch_makespan.as_secs_f64()
    }

    /// Formats the speedup decomposition.
    pub fn to_table(&self) -> String {
        format!(
            "super-DAG schedule on {} threads ({} ready order):\n\
             \x20 serialized nodes   {:>10.3}s\n\
             \x20 per-event DAG loop {:>10.3}s  (intra-event parallelism saves {:.3}s)\n\
             \x20 super-DAG batch    {:>10.3}s  (cross-event overlap saves {:.3}s)\n\
             \x20 critical-path floor{:>10.3}s\n\
             \x20 batch speedup {:.2}x serialized, {:.2}x per-event loop\n",
            self.threads,
            self.order.label(),
            self.node_total.as_secs_f64(),
            self.sequential_baseline().as_secs_f64(),
            self.intra_event_saving().as_secs_f64(),
            self.batch_makespan.as_secs_f64(),
            self.cross_event_overlap().as_secs_f64(),
            self.critical_path_len.as_secs_f64(),
            self.batch_speedup(),
            self.overlap_speedup(),
        )
    }
}

/// Aggregated result of a batch run.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-event reports, in input order.
    pub events: Vec<RunReport>,
    /// Total wall time of the whole batch. For the per-event loop this is
    /// the sum of event times; for [`run_batch_dag`] it is the batch
    /// makespan (events overlap, so no per-event wall times exist).
    pub total: Duration,
    /// Super-DAG schedule analysis ([`ImplKind::BatchDag`] runs only).
    pub dag: Option<BatchDagReport>,
}

impl BatchReport {
    /// Total data points processed.
    pub fn data_points(&self) -> usize {
        self.events.iter().map(|r| r.data_points).sum()
    }

    /// Aggregate throughput (points per second of batch wall time).
    pub fn throughput(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.data_points() as f64 / self.total.as_secs_f64()
    }

    /// Speedup of the batch wall time over the sum of per-event times:
    /// 1.0 for the per-event loop (the batch *is* the sum), and the
    /// cross-event overlap factor for a super-DAG run.
    pub fn speedup(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        let event_sum: Duration = self.events.iter().map(|r| r.total).sum();
        event_sum.as_secs_f64() / self.total.as_secs_f64()
    }

    /// Formats a per-event summary table, closed by the aggregate row
    /// (total shape, batch wall time, throughput and speedup over the
    /// per-event sum) and, for super-DAG runs, the schedule decomposition.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "{:<16} {:>8} {:>10} {:>10}\n",
            "event", "files", "points", "time (s)"
        );
        for r in &self.events {
            out.push_str(&format!(
                "{:<16} {:>8} {:>10} {:>10.3}\n",
                r.event,
                r.v1_files,
                r.data_points,
                r.total.as_secs_f64()
            ));
        }
        let files: usize = self.events.iter().map(|r| r.v1_files).sum();
        out.push_str(&format!(
            "{:<16} {:>8} {:>10} {:>10.3}\n",
            "batch",
            files,
            self.data_points(),
            self.total.as_secs_f64()
        ));
        out.push_str(&format!(
            "aggregate: {:.0} points/s, {:.2}x vs per-event sum\n",
            self.throughput(),
            self.speedup()
        ));
        if let Some(dag) = &self.dag {
            out.push_str(&dag.to_table());
        }
        out
    }
}

/// Rejects labels that would escape or collide inside the work root: every
/// event's work directory is `work_root/<label>/`, so labels must be
/// non-empty, path-separator-free, and unique.
fn validate_labels(items: &[BatchItem]) -> Result<()> {
    for (i, item) in items.iter().enumerate() {
        if item.label.is_empty() || item.label.contains(['/', '\\']) {
            return Err(PipelineError::Config(format!(
                "bad batch label {:?}",
                item.label
            )));
        }
        if items[..i].iter().any(|other| other.label == item.label) {
            return Err(PipelineError::Config(format!(
                "duplicate batch label {:?}",
                item.label
            )));
        }
    }
    Ok(())
}

/// Processes every event with the chosen implementation. Each event gets
/// `work_root/<label>/` as its work directory. Fails fast on the first
/// event error (a malformed event must not silently vanish from the
/// batch).
///
/// [`ImplKind::BatchDag`] routes to [`run_batch_dag`] (one cross-event
/// super-graph, default fairness); every other kind runs the per-event
/// loop.
pub fn run_batch(
    items: &[BatchItem],
    work_root: &Path,
    config: &PipelineConfig,
    kind: ImplKind,
) -> Result<BatchReport> {
    validate_labels(items)?;
    if kind == ImplKind::BatchDag {
        return run_batch_dag(items, work_root, config, ReadyOrder::default());
    }
    let mut events = Vec::with_capacity(items.len());
    let mut total = Duration::ZERO;
    for item in items {
        let work = work_root.join(&item.label);
        let ctx = RunContext::new(&item.input_dir, &work, config.clone())?;
        let report = run_pipeline_labeled(&ctx, kind, &item.label)?;
        total += report.total;
        events.push(report);
    }
    Ok(BatchReport {
        events,
        total,
        dag: None,
    })
}

/// Processes a whole batch as **one cross-event super-DAG**: the per-event
/// dependency graphs are unioned ([`SuperDag::union`], nodes namespaced by
/// event label, no cross-event edges, one work directory per event) and
/// submitted to the shared worker pool in a single scheduler call, so small
/// events fill the idle tails of big ones.
///
/// In measured timing mode the nodes of *all* events genuinely run
/// concurrently, dispatched by `order` (critical-path priority by
/// default). In simulated mode the same node closures run inline, event
/// by event, and record one graph of timed vertices (loop chunks and the
/// segments between them) that is replayed on the configured thread
/// count. Either way the attached [`BatchDagReport`] decomposes the batch
/// speedup deterministically from one set of durations.
///
/// Products are byte-identical to a per-event sequential run: the schedule
/// changes *when* each process runs, never what it writes.
pub fn run_batch_dag(
    items: &[BatchItem],
    work_root: &Path,
    config: &PipelineConfig,
    order: ReadyOrder,
) -> Result<BatchReport> {
    validate_labels(items)?;
    let started = Instant::now();
    let mut ctxs = Vec::with_capacity(items.len());
    let mut shapes = Vec::with_capacity(items.len());
    for item in items {
        let ctx = RunContext::new(&item.input_dir, work_root.join(&item.label), config.clone())?;
        shapes.push(measure_input_shape(&ctx)?);
        ctxs.push(ctx);
    }
    let labels: Vec<String> = items.iter().map(|i| i.label.clone()).collect();
    let super_dag = SuperDag::union(&labels);
    let plan = PlanGraph::dag(&super_dag);
    let per = super_dag.per_event().nodes().len();

    // Publish the live frontier for /statusz and postmortem capture; the
    // guard retires it on every exit path, including unwinds.
    let node_event: Vec<usize> = super_dag.nodes().iter().map(|n| n.event).collect();
    let progress = progress::install(labels.clone(), node_event);
    let _progress_guard = progress::Guard;
    arp_diag::info(|| {
        format!(
            "batch start: {} events, {} super-DAG nodes, {} order",
            items.len(),
            super_dag.len(),
            order.label()
        )
    });

    // Super-DAG node-state accounting: admitted up front, pending drains
    // node by node, an event retires when its last node completes. The
    // enabled flag is sampled once so admission and retirement stay
    // balanced even if collection is toggled mid-run.
    let metrics_on = arp_metrics::enabled();
    if metrics_on {
        crate::metrics::events_admitted().add(items.len() as u64);
        crate::metrics::nodes_pending().add(super_dag.len() as i64);
    }
    let remaining: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(per)).collect();

    // Node weight for the fairness knob: an event's data points, a static
    // proxy for its per-node cost, so ranks measure remaining *work*, not
    // just remaining depth.
    let priority: Vec<u64> = match order {
        ReadyOrder::CriticalPath => super_dag
            .downward_ranks(|e, _| Duration::from_nanos(shapes[e].1.max(1) as u64))
            .iter()
            .map(|d| d.as_nanos() as u64)
            .collect(),
        ReadyOrder::Submission => Vec::new(),
    };
    let events: Vec<Event<'_>> = (0..items.len())
        .map(|e| Event {
            ctx: &ctxs[e],
            label: &labels[e],
            bytes: shapes[e].1 as u64 * 8,
        })
        .collect();
    // A node that ends, skipped or not, reaches a terminal state, so the
    // pending gauge drains either way.
    let observe = |i: usize, state: NodeState| {
        progress.set(i, state);
        if metrics_on && state != NodeState::Running {
            crate::metrics::nodes_completed().inc();
            crate::metrics::nodes_pending().sub(1);
            if remaining[plan.nodes[i].event].fetch_sub(1, Ordering::Relaxed) == 1 {
                crate::metrics::events_retired().inc();
            }
        }
    };
    // Simulated batches run the nodes inline, lowest ready index first
    // (event by event), and record them as one graph. A failure skips the
    // nodes after it, so earlier events finish and later ones do not
    // start: the failing event's artifacts cannot be trusted, and a
    // fail-fast batch must not bury its error under more events of work.
    let (outcome, recorded) = sim::record(config.timing, || {
        run_plan(
            &plan,
            &events,
            Cat::DagNode,
            &priority,
            &observe,
            run_process,
        )
    });
    let schedule = outcome.map_err(|(i, e)| PipelineError::Node {
        label: super_dag.node_label(i),
        source: Box::new(e),
    })?;

    if config.emit_rotd {
        for ctx in &ctxs {
            process::rotdgen::generate_rotd(ctx, true)?;
        }
    }

    // A measured batch is one vertex per node, timed on the pool; a
    // simulated one is the recorded graph. Both are analysed by the same
    // replays: each event alone and the union.
    let (graph, threads) = match (config.timing, recorded) {
        (TimingModel::Simulated { threads }, Some(graph)) => (graph, threads),
        _ => (
            measured_graph(&plan, &schedule),
            arp_par::ThreadPool::global().threads(),
        ),
    };
    let mut events = Vec::with_capacity(items.len());
    let mut event_makespans = Vec::with_capacity(items.len());
    for e in 0..items.len() {
        let event_graph = graph.subgraph(|i| {
            let node = plan.nodes[i];
            (node.event == e).then_some(node.process.into())
        });
        let (dag, replay) = sim::dag_schedule_report(&event_graph, threads);
        event_makespans.push(dag.dag_makespan);
        events.push(RunReport {
            implementation: ImplKind::BatchDag,
            event: labels[e].clone(),
            v1_files: shapes[e].0,
            data_points: shapes[e].1,
            // No per-event wall time exists when events overlap; report
            // what the event costs scheduled alone on the same threads.
            total: dag.dag_makespan,
            processes: sim::process_spans(
                &event_graph,
                &replay,
                super_dag.per_event().nodes().iter().copied(),
            ),
            stages: Vec::new(),
            dag: Some(dag),
            pool: None,
            dsp_backend: config.dsp_backend.to_string(),
        });
    }

    // Clamp like the per-event report: back-to-back events are always a
    // valid schedule, so the union must never report a slowdown.
    let baseline: Duration = event_makespans.iter().sum();
    let batch_makespan = graph.replay(threads).makespan().min(baseline);
    let critical_path_len = events
        .iter()
        .filter_map(|r| r.dag.as_ref())
        .map(|d| d.critical_path_len)
        .max()
        .unwrap_or(Duration::ZERO);
    let dag = BatchDagReport {
        event_makespans,
        batch_makespan,
        node_total: graph.total(),
        critical_path_len,
        threads,
        order,
        lane_makespan: batch_makespan,
    };
    // Simulated runs report the virtual batch makespan (that is the whole
    // point of the mode); measured runs report the real wall time.
    let total = match config.timing {
        TimingModel::Simulated { .. } => dag.batch_makespan,
        TimingModel::Measured => started.elapsed(),
    };
    Ok(BatchReport {
        events,
        total,
        dag: Some(dag),
    })
}

/// Discovers batch items under a root directory: every subdirectory that
/// contains at least one `.v1` file becomes an item (sorted by name).
pub fn discover_batch(root: &Path) -> Result<Vec<BatchItem>> {
    let mut items = Vec::new();
    let entries = std::fs::read_dir(root).map_err(|e| PipelineError::io(root, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| PipelineError::io(root, e))?;
        if !entry.file_type().map(|t| t.is_dir()).unwrap_or(false) {
            continue;
        }
        let dir = entry.path();
        let has_v1 = std::fs::read_dir(&dir)
            .map_err(|e| PipelineError::io(&dir, e))?
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().ends_with(".v1"));
        if has_v1 {
            items.push(BatchItem {
                label: entry.file_name().to_string_lossy().into_owned(),
                input_dir: dir,
            });
        }
    }
    items.sort_by(|a, b| a.label.cmp(&b.label));
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage_two_events(base: &Path) -> Vec<BatchItem> {
        let mut items = Vec::new();
        for (i, label) in ["ev-a", "ev-b"].iter().enumerate() {
            let dir = base.join("batch").join(label);
            std::fs::create_dir_all(&dir).unwrap();
            let event = arp_synth::paper_event(i, 0.002);
            arp_synth::write_event_inputs(&event, &dir).unwrap();
            items.push(BatchItem {
                label: label.to_string(),
                input_dir: dir,
            });
        }
        items
    }

    #[test]
    fn batch_processes_every_event() {
        let base = std::env::temp_dir().join(format!("arp-batch-{}", std::process::id()));
        let items = stage_two_events(&base);
        let report = run_batch(
            &items,
            &base.join("work"),
            &PipelineConfig::fast(),
            ImplKind::FullyParallel,
        )
        .unwrap();
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events[0].event, "ev-a");
        assert!(report.data_points() > 0);
        assert!(report.throughput() > 0.0);
        let table = report.to_table();
        assert!(table.contains("ev-b"));
        // Both work dirs exist with products.
        assert!(base.join("work/ev-a").join("max-values.txt").exists());
        assert!(base.join("work/ev-b").join("max-values.txt").exists());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn discover_finds_only_event_dirs() {
        let base = std::env::temp_dir().join(format!("arp-batch-disc-{}", std::process::id()));
        let items_in = stage_two_events(&base);
        // A distractor directory without .v1 files and a stray file.
        std::fs::create_dir_all(base.join("batch/not-an-event")).unwrap();
        std::fs::write(base.join("batch/README.txt"), "hi").unwrap();

        let found = discover_batch(&base.join("batch")).unwrap();
        assert_eq!(found.len(), items_in.len());
        assert_eq!(found[0].label, "ev-a");
        assert_eq!(found[1].label, "ev-b");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn batch_fails_fast_on_bad_event() {
        let base = std::env::temp_dir().join(format!("arp-batch-bad-{}", std::process::id()));
        let mut items = stage_two_events(&base);
        // Corrupt the second event.
        let victim_dir = &items[1].input_dir;
        let victim = std::fs::read_dir(victim_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".v1"))
            .unwrap()
            .path();
        std::fs::write(&victim, "garbage").unwrap();
        items.rotate_left(0);
        let err = run_batch(
            &items,
            &base.join("work"),
            &PipelineConfig::fast(),
            ImplKind::SequentialOptimized,
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Format(_)), "{err}");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn bad_labels_rejected() {
        let items = vec![BatchItem {
            label: "has/slash".into(),
            input_dir: PathBuf::from("/tmp"),
        }];
        let base = std::env::temp_dir().join("arp-batch-label");
        let err = run_batch(
            &items,
            &base,
            &PipelineConfig::fast(),
            ImplKind::FullyParallel,
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Config(_)));
    }

    #[test]
    fn missing_root_errors() {
        assert!(discover_batch(Path::new("/nonexistent/arp-batch")).is_err());
    }

    #[test]
    fn duplicate_labels_rejected() {
        let items = vec![
            BatchItem {
                label: "twin".into(),
                input_dir: PathBuf::from("/tmp/a"),
            },
            BatchItem {
                label: "twin".into(),
                input_dir: PathBuf::from("/tmp/b"),
            },
        ];
        let err = run_batch(
            &items,
            Path::new("/tmp/arp-batch-dup"),
            &PipelineConfig::fast(),
            ImplKind::FullyParallel,
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Config(_)), "{err}");
    }

    fn fake_event_report(event: &str, points: usize, total_ms: u64) -> RunReport {
        RunReport {
            implementation: ImplKind::SequentialOptimized,
            event: event.into(),
            v1_files: 3,
            data_points: points,
            total: Duration::from_millis(total_ms),
            processes: vec![],
            stages: vec![],
            dag: None,
            pool: None,
            dsp_backend: "auto".into(),
        }
    }

    #[test]
    fn to_table_has_aggregate_row() {
        let report = BatchReport {
            events: vec![
                fake_event_report("ev-a", 30_000, 1_500),
                fake_event_report("ev-b", 10_000, 500),
            ],
            total: Duration::from_millis(1_000),
            dag: None,
        };
        let table = report.to_table();
        // One aggregate "batch" row summing shape over the batch wall time…
        assert!(
            table.contains("batch                   6      40000      1.000"),
            "{table}"
        );
        // …and the throughput/speedup line: 40k points in 1s, 2s per-event
        // sum over a 1s batch.
        assert!(
            table.contains("aggregate: 40000 points/s, 2.00x"),
            "{table}"
        );
        assert!((report.speedup() - 2.0).abs() < 1e-9);
        assert!((report.throughput() - 40_000.0).abs() < 1e-6);
    }

    #[test]
    fn zero_total_batch_guards() {
        let report = BatchReport {
            events: vec![fake_event_report("ev", 100, 10)],
            total: Duration::ZERO,
            dag: None,
        };
        assert_eq!(report.throughput(), 0.0);
        assert_eq!(report.speedup(), 0.0);
    }

    #[test]
    fn dag_report_decomposes_speedup() {
        let d = BatchDagReport {
            event_makespans: vec![Duration::from_millis(60), Duration::from_millis(40)],
            batch_makespan: Duration::from_millis(80),
            node_total: Duration::from_millis(200),
            critical_path_len: Duration::from_millis(50),
            threads: 4,
            order: ReadyOrder::CriticalPath,
            lane_makespan: Duration::from_millis(80),
        };
        assert_eq!(d.sequential_baseline(), Duration::from_millis(100));
        assert_eq!(d.cross_event_overlap(), Duration::from_millis(20));
        assert_eq!(d.intra_event_saving(), Duration::from_millis(100));
        assert!((d.overlap_speedup() - 1.25).abs() < 1e-9);
        assert!((d.batch_speedup() - 2.5).abs() < 1e-9);
        let table = d.to_table();
        assert!(
            table.contains("4 threads (critical-path ready order)"),
            "{table}"
        );
        assert!(
            table.contains("cross-event overlap saves 0.020s"),
            "{table}"
        );
        assert!(!table.contains("lane"), "{table}");
    }

    #[test]
    fn batch_dag_overlaps_events_in_simulated_time() {
        let base = std::env::temp_dir().join(format!("arp-batch-dag-{}", std::process::id()));
        let items = stage_two_events(&base);
        let mut config = PipelineConfig::fast();
        config.timing = TimingModel::Simulated { threads: 8 };
        // run_batch must route BatchDag to the super-DAG scheduler.
        let report = run_batch(&items, &base.join("work"), &config, ImplKind::BatchDag).unwrap();
        assert_eq!(report.events.len(), 2);
        assert!(report
            .events
            .iter()
            .all(|r| r.implementation == ImplKind::BatchDag));
        let dag = report.dag.as_ref().expect("super-DAG analysis");
        assert_eq!(dag.threads, 8);
        assert_eq!(dag.order, ReadyOrder::CriticalPath);
        assert_eq!(dag.event_makespans.len(), 2);
        // The acceptance bar: unioning events overlaps them, so the batch
        // makespan beats the per-event DAG loop…
        assert!(
            dag.cross_event_overlap() > Duration::ZERO,
            "batch {:?} vs baseline {:?}",
            dag.batch_makespan,
            dag.sequential_baseline()
        );
        // …but never beats the longest critical path.
        assert!(dag.batch_makespan >= dag.critical_path_len);
        assert_eq!(report.total, dag.batch_makespan);
        // Products were written for both events.
        assert!(base.join("work/ev-a").join("max-values.txt").exists());
        assert!(base.join("work/ev-b").join("max-values.txt").exists());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn simulated_batch_counts_every_vertex_once() {
        let base = std::env::temp_dir().join(format!("arp-batch-dag1-{}", std::process::id()));
        let items = stage_two_events(&base);
        for threads in [1, 2, 8] {
            let mut config = PipelineConfig::fast();
            config.timing = TimingModel::Simulated { threads };
            let work = base.join(format!("work-{threads}"));
            let report = run_batch_dag(&items, &work, &config, ReadyOrder::CriticalPath).unwrap();
            let dag = report.dag.as_ref().expect("super-DAG analysis");
            if threads == 1 {
                assert_eq!(dag.batch_makespan, dag.node_total);
                assert_eq!(dag.sequential_baseline(), dag.node_total);
            }
            assert!(
                dag.batch_makespan * threads as u32 >= dag.node_total,
                "{threads}"
            );
            assert!(dag.batch_makespan >= dag.critical_path_len, "{threads}");
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn batch_dag_measured_runs_concurrently() {
        let base = std::env::temp_dir().join(format!("arp-batch-dagm-{}", std::process::id()));
        let items = stage_two_events(&base);
        let report = run_batch_dag(
            &items,
            &base.join("work"),
            &PipelineConfig::fast(),
            ReadyOrder::Submission,
        )
        .unwrap();
        let dag = report.dag.as_ref().expect("super-DAG analysis");
        assert_eq!(dag.order, ReadyOrder::Submission);
        assert!(!report.total.is_zero());
        assert!(report.throughput() > 0.0);
        assert!(base.join("work/ev-a").join("max-values.txt").exists());
        assert!(base.join("work/ev-b").join("max-values.txt").exists());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn pool_has_one_kind_of_worker_and_the_lane_stand_ins_hold() {
        let base = std::env::temp_dir().join(format!("arp-batch-one-{}", std::process::id()));
        let items = stage_two_events(&base);
        let report = run_batch_dag(
            &items,
            &base.join("work"),
            &PipelineConfig::fast(),
            ReadyOrder::CriticalPath,
        )
        .unwrap();
        std::fs::remove_dir_all(&base).unwrap();
        let dag = report.dag.as_ref().expect("super-DAG analysis");
        assert_eq!(dag.lane_makespan, dag.batch_makespan);

        // The pool the batch ran on names only its `arp-par-*` workers.
        let pool = arp_par::ThreadPool::global();
        let names: Vec<String> = pool.deque_depths().into_iter().map(|d| d.0).collect();
        let want: Vec<String> = (0..pool.threads())
            .map(|k| format!("arp-par-{k}"))
            .collect();
        assert_eq!(names, want);
        assert_eq!(pool.io_threads(), 0);
        let s = pool.stats();
        assert_eq!(
            (s.steals_io, s.cross_lane_steals, s.io_ready_peak),
            (0, 0, 0)
        );
        assert_eq!(arp_par::ThreadPool::with_io(2, 0).threads(), 2);
        let wide = std::panic::catch_unwind(|| arp_par::ThreadPool::with_io(1, 1));
        assert!(wide.is_err(), "a nonzero I/O width must be refused");
    }

    #[test]
    fn batch_dag_fails_fast_on_bad_event() {
        let base = std::env::temp_dir().join(format!("arp-batch-dagbad-{}", std::process::id()));
        let items = stage_two_events(&base);
        let victim = std::fs::read_dir(&items[1].input_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".v1"))
            .unwrap()
            .path();
        std::fs::write(&victim, "garbage").unwrap();
        let err = run_batch(
            &items,
            &base.join("work"),
            &PipelineConfig::fast(),
            ImplKind::BatchDag,
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Format(_)), "{err}");
        std::fs::remove_dir_all(&base).unwrap();
    }
}

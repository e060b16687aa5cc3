//! The five pipeline implementations and the one runner they share.
//!
//! * [`ImplKind::SequentialOriginal`] — all twenty processes in numeric
//!   order, sequentially (§III);
//! * [`ImplKind::SequentialOptimized`] — the same minus the redundant
//!   processes #6, #12, #14 (§IV);
//! * [`ImplKind::PartiallyParallel`] — the eleven-stage plan with stages I,
//!   II, VI, X, XI parallel (§V);
//! * [`ImplKind::FullyParallel`] — all stages parallel except VII, with
//!   stages IV, V, VIII running through the temp-folder staging protocol
//!   (§VI);
//! * [`ImplKind::DagParallel`] — no stages at all: the artifact-dependency
//!   graph of [`crate::dag::ProcessDag`] is scheduled directly, each
//!   process starting the moment its predecessors complete (beyond the
//!   paper, which stops at the barrier-synchronized plan).
//!
//! Each implementation is a graph of process nodes, built by
//! [`crate::plan`]: a chain, the stage plan with its barriers, or the DAG.
//! One runner, `run_plan`, runs every graph, and the batch's union of
//! graphs too ([`crate::batch::run_batch_dag`]). It runs a serial chain
//! and every simulated run inline on the caller, and anything else on the
//! pool's DAG scheduler.
//!
//! All five produce **identical artifacts** in the work directory; they
//! differ only in ordering, parallelism, and (for the original) the
//! redundant work. The integration suite asserts this equivalence.

use crate::config::TimingModel;
use crate::context::RunContext;
use crate::error::{PipelineError, Result};
use crate::plan::{PlanGraph, PlanNode, STAGE_TABLE};
use crate::process;
use crate::process::filter::CorrectionPass;
use crate::report::{ImplKind, RunReport, StageTiming};
use crate::sim::{self, Graph};
use arp_par::Replay;
use arp_trace::Cat;
use parking_lot::Mutex;
use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Node key of the RotD extension's vertices in a recorded run (one past
/// the last process number).
const ROTD_NODE: usize = 20;

/// Runs one node's process. `parallel` enables its internal loop
/// parallelism; `staged` routes the Fortran-binary processes (#4, #7, #13)
/// through the temp-folder protocol.
pub(crate) fn run_process(ctx: &RunContext, node: &PlanNode) -> Result<()> {
    let (parallel, staged) = (node.parallel, node.staged);
    match node.process {
        0 => process::flags::init_flags(ctx),
        1 => process::gather::gather_inputs(ctx, parallel),
        2 => process::filterinit::init_filter_params(ctx),
        3 => process::separate::separate_components(ctx, parallel),
        4 => {
            if staged {
                process::filter::correct_signals_staged(ctx, CorrectionPass::Default, parallel)
            } else {
                process::filter::correct_signals(ctx, CorrectionPass::Default, parallel)
            }
        }
        5 => process::metainit::init_main_metadata(ctx),
        6 => process::plots::plot_uncorrected(ctx, parallel),
        7 => {
            if staged {
                process::fourier::fourier_transform_staged(ctx, parallel)
            } else {
                process::fourier::fourier_transform(ctx, parallel)
            }
        }
        8 => process::metainit::init_fourier_graph(ctx),
        9 => process::plots::plot_fourier_spectrum(ctx, parallel),
        10 => process::analyze::analyze_fourier(ctx, parallel),
        11 => process::flags::reinit_flags(ctx),
        12 => process::separate::separate_components(ctx, parallel),
        13 => {
            if staged {
                process::filter::correct_signals_staged(ctx, CorrectionPass::Definitive, parallel)
            } else {
                process::filter::correct_signals(ctx, CorrectionPass::Definitive, parallel)
            }
        }
        14 => process::metainit::init_main_metadata(ctx),
        15 => process::plots::plot_accelerograph(ctx, parallel),
        16 => process::respspec::response_spectrum_calc(ctx, parallel),
        17 => process::metainit::init_response_graph(ctx),
        18 => process::plots::plot_response_spectrum(ctx, parallel),
        19 => process::gemgen::generate_gem_files(ctx, parallel),
        p => Err(PipelineError::Config(format!("unknown process {p}"))),
    }
}

/// Attaches pipeline attribution (`"{event}/#{p}"`, process id, event
/// label, bytes) to the innermost open trace span; free when tracing is
/// off.
fn annotate_node(p: u8, event: &str, bytes: u64) {
    arp_trace::annotate(|a| {
        a.name = format!("{event}/#{p}");
        a.process = Some(p);
        a.event = event.to_string();
        a.bytes = bytes;
    });
    // One attribution on the thread's lane serves every reader: later log
    // records, a panic's incident, and the worker view. Cleared when the
    // node finishes; set only while a reader is on, so the all-off path
    // allocates nothing.
    if arp_diag::attributing() {
        arp_diag::set_context(
            Some(event.to_string()),
            Some(p),
            Some(format!("{event}/#{p}")),
        );
        arp_diag::debug(|| "node started".to_string());
    }
}

/// Fault injection for the failure tests: the node labelled
/// `<event>/#<process>` panics when the `ARP_INJECT_PANIC` environment
/// variable names it. Read per node, so a harness can target any node of
/// any implementation without rebuilding.
fn injected_panic(event: &str, p: u8) -> bool {
    std::env::var_os("ARP_INJECT_PANIC").is_some_and(|v| v == format!("{event}/#{p}").as_str())
}

/// One event a plan runs on.
pub(crate) struct Event<'a> {
    pub(crate) ctx: &'a RunContext,
    /// The label the event's nodes are attributed to (`<label>/#<p>`).
    pub(crate) label: &'a str,
    /// The event's acceleration payload (`data_points × 8`).
    pub(crate) bytes: u64,
}

/// A node's state as [`run_plan`] reports it: the batch's live frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeState {
    /// Not started yet (the runner never reports it).
    Pending,
    Running,
    Completed,
    Failed,
    /// Not run because a lower-index node failed.
    Skipped,
}

/// The node runner: runs every node of `plan` as `work(ctx, node)` on its
/// event's context, and returns the schedule it ran: each node's start
/// and finish from the start of the run, in node order.
///
/// Where it runs: inline on the caller, in index order, when timing is
/// simulated (each node recorded between its predecessors' exits) or the
/// plan is a serial chain, so sequential runs never start the pool; on
/// [`arp_par::ThreadPool::run_dag`] otherwise, dispatched by `priority`
/// (empty for index order).
///
/// Each node gets its attribution on a trace span of category `span`: its
/// own [`Cat::Process`] span, or the [`Cat::DagNode`] span the scheduler
/// opens around it. A panic, including one `ARP_INJECT_PANIC` asks for,
/// becomes [`PipelineError::Panic`]. A node is skipped once a lower-index
/// node has failed, and the error of the lowest failing index is
/// returned with that index. Every plan numbers its nodes topologically,
/// so that error does not depend on timing, and a failure never skips a
/// node that precedes it. `observe` sees each node start and end.
pub(crate) fn run_plan<W>(
    plan: &PlanGraph,
    events: &[Event<'_>],
    span: Cat,
    priority: &[u64],
    observe: &(dyn Fn(usize, NodeState) + Sync),
    work: W,
) -> std::result::Result<Replay, (usize, PipelineError)>
where
    W: Fn(&RunContext, &PlanNode) -> Result<()> + Sync,
{
    let measured = events
        .iter()
        .all(|e| e.ctx.config.timing == TimingModel::Measured);
    let inline = !measured || plan.is_serial();
    let run_start = Instant::now();
    let times = Mutex::new(vec![(Duration::ZERO, Duration::ZERO); plan.nodes.len()]);
    let lowest_failed = AtomicUsize::new(usize::MAX);
    let errors = Mutex::new(Vec::new());
    let run_node = |i: usize| {
        if lowest_failed.load(Ordering::Relaxed) < i {
            observe(i, NodeState::Skipped);
            return;
        }
        observe(i, NodeState::Running);
        let node = &plan.nodes[i];
        let event = &events[node.event];
        let _span = (inline || span == Cat::Process).then(|| arp_trace::begin(span));
        annotate_node(node.process, event.label, event.bytes);
        let t0 = run_start.elapsed();
        // The flight recorder's panic hook has captured its bundle by the
        // time the payload lands here.
        let outcome = sim::node(i, || {
            catch_unwind(AssertUnwindSafe(|| {
                if injected_panic(event.label, node.process) {
                    panic!(
                        "injected panic at {}/#{} (ARP_INJECT_PANIC)",
                        event.label, node.process
                    );
                }
                work(event.ctx, node)
            }))
            .unwrap_or_else(|payload| Err(PipelineError::Panic(arp_diag::panic_message(&*payload))))
        });
        let elapsed = run_start.elapsed() - t0;
        arp_diag::clear_context();
        // Every node of every implementation ends here, so this one hook
        // feeds the per-process duration histograms.
        if arp_metrics::enabled() {
            crate::metrics::process_duration(node.process).record(elapsed.as_nanos() as u64);
        }
        match outcome {
            Ok(()) => {
                times.lock()[i] = (t0, t0 + elapsed);
                observe(i, NodeState::Completed);
            }
            Err(e) => {
                arp_diag::error(|| format!("node {}/#{} failed: {e}", event.label, node.process));
                lowest_failed.fetch_min(i, Ordering::Relaxed);
                errors.lock().push((i, e));
                observe(i, NodeState::Failed);
            }
        }
    };
    if inline {
        // Never stops early: a skipped node still reports its state.
        let _ = sim::run_inline(&plan.preds, |i| {
            run_node(i);
            Ok::<(), ()>(())
        });
    } else {
        let run_node = &run_node;
        let tasks = (0..plan.nodes.len())
            .map(|i| Box::new(move || run_node(i)) as arp_par::BorrowedTask<'_>)
            .collect();
        arp_par::ThreadPool::global().run_dag(tasks, &plan.preds, priority);
    }
    match errors.into_inner().into_iter().min_by_key(|(i, _)| *i) {
        Some(failure) => Err(failure),
        None => {
            let (start, finish) = times.into_inner().into_iter().unzip();
            Ok(Replay { start, finish })
        }
    }
}

/// Each stage's time in `schedule`: from the first start to the last
/// finish of its processes' vertices (`graph` keyed by process number).
fn stage_spans(graph: &Graph, schedule: &Replay) -> Vec<StageTiming> {
    STAGE_TABLE
        .iter()
        .map(|stage| StageTiming {
            stage: stage.id,
            elapsed: graph.span(schedule, |o| stage.processes.iter().any(|&p| o == p.into())),
        })
        .collect()
}

/// The graph a measured run is analysed on: one vertex per node, timed
/// on the pool and keyed by its node index.
pub(crate) fn measured_graph(plan: &PlanGraph, schedule: &Replay) -> Graph {
    Graph {
        durations: (0..plan.nodes.len())
            .map(|i| schedule.finish[i] - schedule.start[i])
            .collect(),
        preds: plan.preds.clone(),
        owner: (0..plan.nodes.len()).collect(),
    }
}

/// Measures the shape of the input event: `(v1_files, data_points)`.
/// Data points are counted as acceleration samples per station (each
/// station file declares its component length in its first `BEGIN ACC`
/// header).
///
/// Files are streamed line by line and reading stops at the first header,
/// so only a station file's preamble is ever pulled from disk. A station
/// file with no parseable `BEGIN ACC` header is an error: every downstream
/// process relies on that declaration, so a malformed input must surface
/// here rather than as a zero-point station in the report.
pub fn measure_input_shape(ctx: &RunContext) -> Result<(usize, usize)> {
    let names = crate::context::list_v1_station_files(&ctx.input_dir)?;
    let mut points = 0usize;
    for name in &names {
        let path = ctx.input_dir.join(name);
        let file = std::fs::File::open(&path).map_err(|e| PipelineError::io(&path, e))?;
        let mut header = None;
        let mut line_no = 0usize;
        for line in std::io::BufReader::new(file).lines() {
            let line = line.map_err(|e| PipelineError::io(&path, e))?;
            line_no += 1;
            let mut parts = line.split_whitespace();
            if parts.next() == Some("BEGIN") && parts.next() == Some("ACC") {
                header = parts.next().and_then(|w| w.parse::<usize>().ok());
                break;
            }
        }
        match header {
            Some(n) => points += n,
            None => {
                return Err(PipelineError::Format(arp_formats::FormatError::Syntax {
                    line: line_no,
                    message: format!(
                        "{}: no parseable `BEGIN ACC <count>` header",
                        path.display()
                    ),
                }))
            }
        }
    }
    Ok((names.len(), points))
}

/// Runs the pipeline with the selected implementation, returning the timing
/// report. The work directory receives every artifact.
pub fn run_pipeline(ctx: &RunContext, kind: ImplKind) -> Result<RunReport> {
    run_pipeline_labeled(ctx, kind, "unlabeled")
}

/// As [`run_pipeline`], attaching an event label to the report.
pub fn run_pipeline_labeled(ctx: &RunContext, kind: ImplKind, event: &str) -> Result<RunReport> {
    run_recorded(ctx, kind, event).map(|(report, _)| report)
}

/// As [`run_pipeline_labeled`], also returning the graph a simulated run
/// recorded, its vertices keyed by process number.
fn run_recorded(
    ctx: &RunContext,
    kind: ImplKind,
    event: &str,
) -> Result<(RunReport, Option<Graph>)> {
    let (v1_files, data_points) = measure_input_shape(ctx)?;
    let bytes = data_points as u64 * 8;
    // Throughput accounting works on completed runs: input shape up front,
    // work-directory growth once the run finishes. The directory walk is
    // once per event and only while metrics collection is on.
    let work_bytes_before =
        arp_metrics::enabled().then(|| crate::metrics::dir_bytes(&ctx.work_dir));
    // Only a pool that already exists is read: a sequential run never
    // starts the workers.
    let pool_stats = || arp_par::ThreadPool::global_if_started().map(|p| p.stats());
    let pool_before = pool_stats().unwrap_or_default();
    let plan = PlanGraph::of(kind);
    let is_dag = matches!(kind, ImplKind::DagParallel | ImplKind::BatchDag);
    // DAG nodes carry their attribution on the scheduler's span, as in a
    // batch; the paper's implementations attribute a process span.
    let span = if is_dag { Cat::DagNode } else { Cat::Process };
    let started = Instant::now();
    let (outcome, recorded) = sim::record(ctx.config.timing, || -> Result<_> {
        let events = [Event {
            ctx,
            label: event,
            bytes,
        }];
        let schedule =
            run_plan(&plan, &events, span, &[], &|_, _| {}, run_process).map_err(|(_, e)| e)?;
        if ctx.config.emit_rotd {
            let parallel = !plan.is_serial();
            sim::node(plan.nodes.len(), || {
                process::rotdgen::generate_rotd(ctx, parallel)
            })?;
        }
        Ok(schedule)
    });
    let mut schedule = outcome?;
    let mut total = started.elapsed();
    // Keyed by process number from here on.
    let graph = recorded
        .unwrap_or_else(|| measured_graph(&plan, &schedule))
        .subgraph(|o| Some(plan.nodes.get(o).map_or(ROTD_NODE, |n| n.process.into())));
    // Measured runs read every figure off the schedule they ran. Simulated
    // runs ran every construct inline and recorded one graph; its replay
    // on the virtual processors gives every figure.
    let threads = match ctx.config.timing {
        TimingModel::Simulated { threads } => {
            schedule = graph.replay(threads);
            total = schedule.makespan();
            Some(threads)
        }
        TimingModel::Measured => None,
    };
    let mut order: Vec<u8> = plan.nodes.iter().map(|n| n.process).collect();
    order.sort_unstable();
    let processes = sim::process_spans(&graph, &schedule, order);
    let stages = match kind {
        ImplKind::PartiallyParallel | ImplKind::FullyParallel => stage_spans(&graph, &schedule),
        _ => Vec::new(),
    };
    let dag = is_dag.then(|| {
        // Read here only: a sequential run never starts the pool.
        let threads = threads.unwrap_or_else(|| arp_par::ThreadPool::global().threads());
        let plan = graph.subgraph(|o| (o != ROTD_NODE).then_some(o));
        sim::dag_schedule_report(&plan, threads).0
    });
    let pool_delta = pool_stats().unwrap_or_default().delta_since(&pool_before);
    let touched_pool = pool_delta.jobs_on_workers > 0
        || pool_delta.jobs_helped > 0
        || pool_delta.loops_completed > 0
        || pool_delta.dags_completed > 0;
    if let Some(before) = work_bytes_before {
        crate::metrics::bytes_in().add(bytes);
        crate::metrics::files_processed().add(v1_files as u64);
        let after = crate::metrics::dir_bytes(&ctx.work_dir);
        crate::metrics::bytes_out().add(after.saturating_sub(before));
    }
    let report = RunReport {
        implementation: kind,
        event: event.to_string(),
        v1_files,
        data_points,
        total,
        processes,
        stages,
        dag,
        pool: touched_pool.then_some(pool_delta),
        dsp_backend: ctx.config.dsp_backend.to_string(),
    };
    Ok((report, threads.map(|_| graph)))
}

/// Measures per-stage timings of a *sequential* execution following the
/// eleven-stage ordering — the "Sequential Original" bars of the paper's
/// Fig. 11 (per-stage sequential baseline): the stages' processes as one
/// chain.
pub fn run_stages_sequential(ctx: &RunContext) -> Result<Vec<StageTiming>> {
    let plan = PlanGraph::chain(STAGE_TABLE.iter().flat_map(|s| s.processes.iter().copied()));
    let events = [Event {
        ctx,
        label: "unlabeled",
        bytes: 0,
    }];
    let schedule =
        run_plan(&plan, &events, Cat::Process, &[], &|_, _| {}, run_process).map_err(|(_, e)| e)?;
    let graph = measured_graph(&plan, &schedule).subgraph(|i| Some(plan.nodes[i].process.into()));
    Ok(stage_spans(&graph, &schedule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::plan::StageId;
    use std::path::Path;

    fn prepare(tag: &str, scale: f64) -> (std::path::PathBuf, std::path::PathBuf) {
        let base = std::env::temp_dir().join(format!("arp-exec-{tag}-{}", std::process::id()));
        let input = base.join("in");
        std::fs::create_dir_all(&input).unwrap();
        let event = arp_synth::paper_event(0, scale);
        arp_synth::write_event_inputs(&event, &input).unwrap();
        (base, input)
    }

    #[test]
    fn sequential_original_runs_all_twenty() {
        let (base, input) = prepare("seq", 0.002);
        let ctx = RunContext::new(&input, base.join("w"), PipelineConfig::fast()).unwrap();
        let report = run_pipeline_labeled(&ctx, ImplKind::SequentialOriginal, "ev0").unwrap();
        assert_eq!(report.processes.len(), 20);
        assert_eq!(report.v1_files, 5);
        assert!(report.data_points > 0);
        assert!(report.stages.is_empty());
        assert_eq!(report.event, "ev0");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn optimized_skips_redundant_processes() {
        let (base, input) = prepare("opt", 0.002);
        let ctx = RunContext::new(&input, base.join("w"), PipelineConfig::fast()).unwrap();
        let report = run_pipeline(&ctx, ImplKind::SequentialOptimized).unwrap();
        assert_eq!(report.processes.len(), 17);
        for t in &report.processes {
            assert!(!matches!(t.process.0, 6 | 12 | 14));
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn parallel_implementations_record_stage_timings() {
        let (base, input) = prepare("par", 0.002);
        for kind in [ImplKind::PartiallyParallel, ImplKind::FullyParallel] {
            let ctx = RunContext::new(
                &input,
                base.join(format!("w-{:?}", kind)),
                PipelineConfig::fast(),
            )
            .unwrap();
            let report = run_pipeline(&ctx, kind).unwrap();
            assert_eq!(report.stages.len(), 11);
            assert_eq!(report.processes.len(), 17);
            assert!(report.stages.iter().any(|s| s.stage == StageId::IX));
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn measure_input_shape_counts_points() {
        let (base, input) = prepare("shape", 0.002);
        let ctx = RunContext::new(&input, base.join("w"), PipelineConfig::fast()).unwrap();
        let (files, points) = measure_input_shape(&ctx).unwrap();
        assert_eq!(files, 5);
        let expected = arp_synth::paper_event(0, 0.002).total_data_points();
        assert_eq!(points, expected);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn dag_parallel_runs_without_stages_and_reports_schedule() {
        let (base, input) = prepare("dag", 0.002);
        let ctx = RunContext::new(&input, base.join("w"), PipelineConfig::fast()).unwrap();
        let report = run_pipeline(&ctx, ImplKind::DagParallel).unwrap();
        assert_eq!(report.processes.len(), 17);
        for t in &report.processes {
            assert!(!matches!(t.process.0, 6 | 12 | 14));
        }
        assert!(
            report.stages.is_empty(),
            "the DAG path has no stage barriers"
        );
        let dag = report.dag.expect("DagParallel must attach a DagReport");
        assert!(!dag.critical_path.is_empty());
        assert!(dag.critical_path_len <= dag.dag_makespan);
        assert!(dag.dag_makespan <= dag.barrier_makespan);
        assert!(dag.barrier_makespan <= dag.node_total);
        assert!(dag.threads >= 1);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn dag_parallel_simulated_beats_or_matches_barrier_plan() {
        let mut cfg = PipelineConfig::fast();
        cfg.timing = TimingModel::Simulated { threads: 17 };
        let (base, input) = prepare("dagsim", 0.002);
        let ctx = RunContext::new(&input, base.join("w"), cfg).unwrap();
        let report = run_pipeline(&ctx, ImplKind::DagParallel).unwrap();
        let dag = report.dag.unwrap();
        assert_eq!(dag.threads, 17);
        assert!(dag.dag_makespan <= dag.barrier_makespan);
        assert_eq!(
            dag.barrier_saving() + dag.stage_saving(),
            dag.node_total - dag.dag_makespan,
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn simulated_totals_replay_the_recorded_vertices_once() {
        let (base, input) = prepare("sim1", 0.002);
        for kind in ImplKind::ALL {
            for threads in [1, 4] {
                let mut cfg = PipelineConfig::fast();
                cfg.timing = TimingModel::Simulated { threads };
                let work = base.join(format!("w-{kind:?}-{threads}"));
                let ctx = RunContext::new(&input, work, cfg).unwrap();
                let (report, graph) = run_recorded(&ctx, kind, "ev0").unwrap();
                let recorded = graph.expect("simulated runs record").total();
                if threads == 1 {
                    // One virtual processor: no construct overlaps any
                    // other, so the run costs exactly what it recorded.
                    assert_eq!(report.total, recorded, "{kind:?}");
                } else {
                    assert!(report.total <= recorded, "{kind:?}");
                    assert!(report.total * threads as u32 >= recorded, "{kind:?}");
                }
                if let Some(dag) = report.dag {
                    assert_eq!(dag.node_total, recorded, "{kind:?}");
                    assert!(dag.critical_path_len <= dag.dag_makespan, "{kind:?}");
                }
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn task_stages_run_their_station_loops_on_the_team() {
        // Stations long enough that plotting, not opening files, sets the
        // three tasks' costs.
        let (base, input) = prepare("tasks", 0.25);
        let mut cfg = PipelineConfig::fast();
        cfg.timing = TimingModel::Simulated { threads: 2 };
        let ctx = RunContext::new(&input, base.join("w"), cfg).unwrap();
        let (report, graph) = run_recorded(&ctx, ImplKind::FullyParallel, "ev0").unwrap();
        let graph = graph.expect("simulated runs record");
        let owned = |p: usize| -> Vec<usize> {
            (0..graph.owner.len())
                .filter(|&v| graph.owner[v] == p)
                .collect()
        };
        // Each of stage XI's tasks records its entry segment, one parallel
        // branch per station and its exit segment.
        for p in [9, 15, 18] {
            let vs = owned(p);
            assert_eq!(vs.len(), report.v1_files + 2, "#{p}: {vs:?}");
            let (entry, exit) = (vs[0], vs[vs.len() - 1]);
            let branches = &vs[1..vs.len() - 1];
            for &b in branches {
                assert_eq!(graph.preds[b], vec![entry], "#{p}");
            }
            assert_eq!(graph.preds[exit], branches, "#{p}");
        }
        // The other tasks' workers help with #9's stations, so the stage
        // ends before #9 alone would on one processor.
        let replay = graph.replay(2);
        let stage_xi = graph.span(&replay, |o| matches!(o, 9 | 15 | 18));
        let serial_9: Duration = owned(9).iter().map(|&v| graph.durations[v]).sum();
        assert!(
            stage_xi < serial_9,
            "stage XI {stage_xi:?} on two processors, #9 alone {serial_9:?}"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    /// `n` independent parallel nodes of one event.
    fn independent(n: u8) -> PlanGraph {
        PlanGraph {
            nodes: (0..n)
                .map(|process| PlanNode {
                    event: 0,
                    process,
                    parallel: true,
                    staged: false,
                })
                .collect(),
            preds: vec![Vec::new(); n as usize],
        }
    }

    /// One context per timing model: the measured one runs plans on the
    /// pool, the simulated one inline.
    fn both_timings(base: &Path) -> Vec<RunContext> {
        [TimingModel::Measured, TimingModel::Simulated { threads: 2 }]
            .into_iter()
            .enumerate()
            .map(|(k, timing)| {
                let mut cfg = PipelineConfig::fast();
                cfg.timing = timing;
                RunContext::new(base, base.join(format!("w{k}")), cfg).unwrap()
            })
            .collect()
    }

    #[test]
    fn nodes_run_on_the_pool_and_inline() {
        let (base, _) = prepare("nodes", 0.002);
        for ctx in both_timings(&base) {
            let count = AtomicUsize::new(0);
            let events = [Event {
                ctx: &ctx,
                label: "t",
                bytes: 0,
            }];
            let schedule = run_plan(
                &independent(7),
                &events,
                Cat::DagNode,
                &[],
                &|_, _| {},
                |_, _| {
                    count.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(schedule.start.len(), 7);
            assert!((0..7).all(|i| schedule.start[i] <= schedule.finish[i]));
            assert_eq!(count.load(Ordering::Relaxed), 7, "{:?}", ctx.config.timing);
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn the_lowest_failing_node_is_reported() {
        // Node 1 fails first. On the pool the nodes run at once, and node 0
        // precedes node 1, so it still runs and its error comes back.
        let (base, _) = prepare("nodeerr", 0.002);
        for ctx in both_timings(&base) {
            let events = [Event {
                ctx: &ctx,
                label: "t",
                bytes: 0,
            }];
            let (i, err) = run_plan(
                &independent(3),
                &events,
                Cat::DagNode,
                &[],
                &|_, _| {},
                |_, n| match n.process {
                    0 => {
                        std::thread::sleep(Duration::from_millis(20));
                        Err(PipelineError::Config("node 0 died".into()))
                    }
                    1 => Err(PipelineError::Config("node 1 died".into())),
                    _ => Ok(()),
                },
            )
            .unwrap_err();
            assert_eq!(i, 0, "{:?}: {err}", ctx.config.timing);
            assert!(err.to_string().contains("node 0 died"), "{err}");
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn a_panic_is_a_typed_error_and_skips_only_later_nodes() {
        // Node 2 panics at once. Node 1 follows node 0, which on the pool
        // waits until node 2's failure is recorded, so node 1 starts after
        // it and still runs: only a lower-index failure skips a node. Node 3
        // follows node 2 and is skipped.
        let (base, _) = prepare("nodepanic", 0.002);
        let mut plan = independent(4);
        plan.preds[1] = vec![0];
        plan.preds[3] = vec![2];
        for ctx in both_timings(&base) {
            let events = [Event {
                ctx: &ctx,
                label: "t",
                bytes: 0,
            }];
            let (failed, recorded) = std::sync::mpsc::channel();
            let recorded = Mutex::new(recorded);
            let states = Mutex::new(vec![NodeState::Pending; 4]);
            let observe = |i: usize, state: NodeState| {
                states.lock()[i] = state;
                if state == NodeState::Failed {
                    failed.send(()).unwrap();
                }
            };
            let on_pool = ctx.config.timing == TimingModel::Measured;
            let (i, err) = run_plan(&plan, &events, Cat::DagNode, &[], &observe, |_, n| {
                match n.process {
                    // Inline, node 0 runs before node 2. The timeout only
                    // keeps a one-thread pool from hanging.
                    0 if on_pool => {
                        let _ = recorded.lock().recv_timeout(Duration::from_secs(10));
                    }
                    2 => panic!("node 2 blew up"),
                    _ => {}
                }
                Ok(())
            })
            .unwrap_err();
            assert_eq!(i, 2);
            assert!(
                matches!(&err, PipelineError::Panic(m) if m.contains("node 2 blew up")),
                "{err}"
            );
            use NodeState::{Completed, Failed, Skipped};
            assert_eq!(
                states.into_inner(),
                vec![Completed, Completed, Failed, Skipped],
                "{:?}",
                ctx.config.timing
            );
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn pool_stats_attach_when_the_shared_pool_is_used() {
        let (base, input) = prepare("dagstats", 0.002);
        let ctx = RunContext::new(&input, base.join("w"), PipelineConfig::fast()).unwrap();
        let report = run_pipeline(&ctx, ImplKind::DagParallel).unwrap();
        let pool = report.pool.expect("measured DAG runs dispatch on the pool");
        assert!(
            pool.dag_dispatches >= 17,
            "dispatches: {}",
            pool.dag_dispatches
        );
        assert!(pool.dags_completed >= 1);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn measure_input_shape_rejects_headerless_station() {
        let (base, input) = prepare("badshape", 0.002);
        std::fs::write(
            input.join("zz_bad.v1"),
            "station preamble\nno header here\n",
        )
        .unwrap();
        let ctx = RunContext::new(&input, base.join("w"), PipelineConfig::fast()).unwrap();
        let err = measure_input_shape(&ctx).unwrap_err();
        assert!(
            err.to_string().contains("BEGIN ACC"),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn stages_sequential_covers_all_stages() {
        let (base, input) = prepare("stageseq", 0.002);
        let ctx = RunContext::new(&input, base.join("w"), PipelineConfig::fast()).unwrap();
        let stages = run_stages_sequential(&ctx).unwrap();
        assert_eq!(stages.len(), 11);
        assert!(stages.iter().map(|s| s.elapsed).sum::<Duration>() > Duration::ZERO);
        std::fs::remove_dir_all(&base).unwrap();
    }
}

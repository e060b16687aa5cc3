//! The five pipeline implementations.
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
//! All five produce **identical artifacts** in the work directory; they
//! differ only in ordering, parallelism, and (for the original) the
//! redundant work. The integration suite asserts this equivalence.
//!
//! A sixth kind, [`ImplKind::BatchDag`], schedules whole *batches*: it
//! lives in [`crate::batch::run_batch_dag`], which unions the per-event
//! DAGs into one super-graph. On a single event it degenerates to
//! [`ImplKind::DagParallel`] here.

use crate::config::TimingModel;
use crate::context::RunContext;
use crate::dag::ProcessDag;
use crate::error::{PipelineError, Result};
use crate::plan::{StageId, Strategy, STAGE_TABLE};
use crate::process::filter::CorrectionPass;
use crate::process::{self, ProcessId};
use crate::report::{ImplKind, ProcessTiming, RunReport, StageTiming};
use crate::sim::{self, Graph};
use parking_lot::Mutex;
use std::io::BufRead;
use std::time::{Duration, Instant};

/// Node key of the RotD extension's vertices in a recorded run (one past
/// the last process number).
const ROTD_NODE: usize = 20;

/// Runs one process by number. `parallel` enables its internal loop
/// parallelism; `staged` routes the Fortran-binary processes (#4, #7, #13)
/// through the temp-folder protocol. Crate-visible so the batch super-DAG
/// executor can drive nodes of many events through one scheduler call.
pub(crate) fn run_process(ctx: &RunContext, p: u8, parallel: bool, staged: bool) -> Result<()> {
    // Every executor funnels through here, so this one hook feeds the
    // per-process duration histograms for all five implementations. The
    // clock is read only while metrics collection is on.
    let t0 = arp_metrics::enabled().then(Instant::now);
    let result = run_process_inner(ctx, p, parallel, staged);
    if let Some(t0) = t0 {
        crate::metrics::process_duration(p).record(t0.elapsed().as_nanos() as u64);
    }
    result
}

fn run_process_inner(ctx: &RunContext, p: u8, parallel: bool, staged: bool) -> Result<()> {
    match p {
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
        _ => Err(PipelineError::Config(format!("unknown process {p}"))),
    }
}

/// As [`run_process`], wrapped in a [`arp_trace::Cat::Process`] span — the
/// trace attribution for processes executed *in place* (the sequential and
/// staged executors; DAG-scheduled nodes get their span from the pool and
/// only annotate it, see [`annotate_node`]) — and recorded as node `p` in
/// simulated timing. `bytes` is the event's acceleration payload
/// (`data_points × 8`).
pub(crate) fn run_process_span(
    ctx: &RunContext,
    p: u8,
    parallel: bool,
    staged: bool,
    event: &str,
    bytes: u64,
) -> Result<()> {
    let _span = arp_trace::begin(arp_trace::Cat::Process);
    annotate_node(p, event, bytes);
    let result = sim::node(p.into(), || run_process(ctx, p, parallel, staged));
    arp_diag::clear_context();
    result
}

/// Attaches pipeline attribution (`"{event}/#{p}"`, process id, event
/// label, bytes) to the innermost open trace span. DAG node tasks call this
/// from inside the span the pool scheduler opened around them, overwriting
/// its generic `node-i` name; free when tracing is off.
pub(crate) fn annotate_node(p: u8, event: &str, bytes: u64) {
    arp_trace::annotate(|a| {
        a.name = format!("{event}/#{p}");
        a.process = Some(p);
        a.event = event.to_string();
        a.bytes = bytes;
    });
    // One attribution on the thread's lane serves every reader: later log
    // records, a panic's incident, and the worker view. Cleared when the
    // node's executor finishes; set only while a reader is on, so the
    // all-off path allocates nothing.
    if arp_diag::attributing() {
        arp_diag::set_context(
            Some(event.to_string()),
            Some(p),
            Some(format!("{event}/#{p}")),
        );
        arp_diag::debug(|| "node started".to_string());
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
/// recorded.
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
    let started = Instant::now();
    let (outcome, graph) = sim::record(ctx.config.timing, || -> Result<_> {
        let plan = match kind {
            ImplKind::SequentialOriginal => (run_sequential(ctx, true, event, bytes)?, Vec::new()),
            ImplKind::SequentialOptimized => {
                (run_sequential(ctx, false, event, bytes)?, Vec::new())
            }
            ImplKind::PartiallyParallel => run_staged_plan(ctx, |s| s.partial, event, bytes)?,
            ImplKind::FullyParallel => run_staged_plan(ctx, |s| s.full, event, bytes)?,
            // A batch of one event has no cross-event overlap to exploit;
            // the super-DAG scheduler degenerates to the per-event DAG plan.
            ImplKind::DagParallel | ImplKind::BatchDag => {
                (run_dag_plan(ctx, event, bytes)?, Vec::new())
            }
        };
        if ctx.config.emit_rotd {
            let parallel = matches!(
                kind,
                ImplKind::FullyParallel
                    | ImplKind::PartiallyParallel
                    | ImplKind::DagParallel
                    | ImplKind::BatchDag
            );
            sim::node(ROTD_NODE, || process::rotdgen::generate_rotd(ctx, parallel))?;
        }
        Ok(plan)
    });
    let (mut processes, mut stages) = outcome?;
    let is_dag = matches!(kind, ImplKind::DagParallel | ImplKind::BatchDag);
    // Measured runs report wall times. Simulated runs ran every construct
    // inline and recorded one graph; its replay on the virtual processors
    // gives every figure.
    let (total, dag) = match (ctx.config.timing, &graph) {
        (TimingModel::Simulated { threads }, Some(graph)) => {
            let replay = graph.replay(threads);
            processes = sim::process_spans(graph, &replay, processes.iter().map(|t| t.process.0));
            for st in &mut stages {
                let info = crate::plan::stage_info(st.stage);
                st.elapsed = graph.span(&replay, |o| info.processes.iter().any(|&p| o == p.into()));
            }
            let dag = is_dag.then(|| {
                let plan = graph.subgraph(|o| (o != ROTD_NODE).then_some(o));
                sim::dag_schedule_report(&plan, threads).0
            });
            (replay.makespan(), dag)
        }
        _ => {
            let dag = is_dag.then(|| {
                // One vertex per node, timed on the pool.
                let dag = ProcessDag::optimized();
                let graph = Graph {
                    durations: processes.iter().map(|t| t.elapsed).collect(),
                    preds: node_preds(&dag),
                    owner: dag.nodes().iter().map(|&p| p.into()).collect(),
                };
                let threads = arp_par::ThreadPool::global().threads();
                sim::dag_schedule_report(&graph, threads).0
            });
            (started.elapsed(), dag)
        }
    };
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
    Ok((report, graph))
}

/// Sequential chain in numeric process order; `include_redundant` selects
/// the original (20-process) vs optimized (17-process) variant.
fn run_sequential(
    ctx: &RunContext,
    include_redundant: bool,
    event: &str,
    bytes: u64,
) -> Result<Vec<ProcessTiming>> {
    let mut timings = Vec::new();
    for p in 0u8..20 {
        if !include_redundant && matches!(p, 6 | 12 | 14) {
            continue;
        }
        let t0 = Instant::now();
        run_process_span(ctx, p, false, false, event, bytes)?;
        timings.push(ProcessTiming {
            process: ProcessId(p),
            elapsed: t0.elapsed(),
        });
    }
    Ok(timings)
}

/// Executes the eleven-stage plan with per-stage strategies.
fn run_staged_plan(
    ctx: &RunContext,
    strategy_of: impl Fn(&crate::plan::StageInfo) -> Strategy,
    event: &str,
    bytes: u64,
) -> Result<(Vec<ProcessTiming>, Vec<StageTiming>)> {
    let process_timings: Mutex<Vec<ProcessTiming>> = Mutex::new(Vec::new());
    let mut stage_timings = Vec::with_capacity(STAGE_TABLE.len());
    let run = |p: u8, parallel: bool, staged: bool| -> Result<()> {
        let t0 = Instant::now();
        run_process_span(ctx, p, parallel, staged, event, bytes)?;
        process_timings.lock().push(ProcessTiming {
            process: ProcessId(p),
            elapsed: t0.elapsed(),
        });
        Ok(())
    };

    for stage in &STAGE_TABLE {
        let strategy = strategy_of(stage);
        let t0 = Instant::now();
        match strategy {
            Strategy::Sequential => {
                for &p in stage.processes {
                    run(p, false, false)?;
                }
            }
            // One task per process, each running its own station loop on
            // the team: a task that finishes early helps the others' loops
            // instead of idling at the stage's join.
            Strategy::Tasks => {
                let tasks: Vec<Box<dyn FnOnce() -> Result<()> + Send + '_>> = stage
                    .processes
                    .iter()
                    .map(|&p| {
                        let run = &run;
                        Box::new(move || run(p, true, false))
                            as Box<dyn FnOnce() -> Result<()> + Send + '_>
                    })
                    .collect();
                ctx.tasks(tasks)?;
            }
            Strategy::Loop | Strategy::StagedLoop => {
                for &p in stage.processes {
                    run(p, true, strategy == Strategy::StagedLoop)?;
                }
            }
        }
        stage_timings.push(StageTiming {
            stage: stage.id,
            elapsed: t0.elapsed(),
        });
    }

    let mut timings = process_timings.into_inner();
    timings.sort_by_key(|t| t.process);
    Ok((timings, stage_timings))
}

/// Inner-loop mode of a DAG node, inherited from the stage the process
/// occupies in the fully parallel plan: `Loop` stages parallelize the
/// process's station loop, `StagedLoop` stages additionally route it
/// through the temp-folder protocol, and `Tasks`/`Sequential` stages run
/// the process body sequentially (its parallelism comes from overlapping
/// with other nodes). The staged plan runs a task stage's loops on the
/// team instead; a DAG node does not, because a node waiting on a nested
/// loop helps with any queued job, other nodes included.
pub(crate) fn dag_node_mode(p: u8) -> (bool, bool) {
    match crate::plan::stage_of(p).map(|stage| stage.full) {
        Some(Strategy::Loop) => (true, false),
        Some(Strategy::StagedLoop) => (true, true),
        Some(Strategy::Sequential | Strategy::Tasks) | None => (false, false),
    }
}

/// Index-based predecessor lists of `dag`, aligned with its nodes.
pub(crate) fn node_preds(dag: &ProcessDag) -> Vec<Vec<usize>> {
    let nodes = dag.nodes();
    let index_of = |p: u8| nodes.iter().position(|&q| q == p).expect("node in dag");
    nodes
        .iter()
        .map(|&p| dag.preds(p).iter().map(|&q| index_of(q)).collect())
        .collect()
}

/// Executes the optimized process set by scheduling the artifact-dependency
/// graph directly — no stage barriers. Returns the per-process wall times
/// in process order.
///
/// In measured mode the nodes genuinely run concurrently on the shared
/// worker pool (inner loops still follow the configured backend); in
/// simulated mode they run inline in numeric order, recorded between their
/// predecessors ([`sim::run_dag`]).
fn run_dag_plan(ctx: &RunContext, event: &str, bytes: u64) -> Result<Vec<ProcessTiming>> {
    let dag = ProcessDag::optimized();
    let timings: Mutex<Vec<ProcessTiming>> = Mutex::new(Vec::new());
    let failures: Mutex<Vec<(u8, PipelineError)>> = Mutex::new(Vec::new());
    let tasks: Vec<arp_par::BorrowedTask<'_>> = dag
        .nodes()
        .iter()
        .map(|&p| {
            let timings = &timings;
            let failures = &failures;
            Box::new(move || {
                // After any failure, downstream nodes are skipped: their
                // input artifacts cannot be trusted.
                if !failures.lock().is_empty() {
                    return;
                }
                annotate_node(p, event, bytes);
                let (parallel, staged) = dag_node_mode(p);
                let t0 = Instant::now();
                let outcome = sim::node(p.into(), || run_process(ctx, p, parallel, staged));
                arp_diag::clear_context();
                match outcome {
                    Ok(()) => timings.lock().push(ProcessTiming {
                        process: ProcessId(p),
                        elapsed: t0.elapsed(),
                    }),
                    Err(e) => failures.lock().push((p, e)),
                }
            }) as arp_par::BorrowedTask<'_>
        })
        .collect();
    sim::run_dag(ctx.config.timing, tasks, &node_preds(&dag), &[]);

    let mut fails = failures.into_inner();
    fails.sort_by_key(|(p, _)| *p);
    if let Some((_, e)) = fails.into_iter().next() {
        return Err(e);
    }
    let mut timings = timings.into_inner();
    timings.sort_by_key(|t| t.process);
    Ok(timings)
}

/// Measures per-stage timings of a *sequential* execution following the
/// eleven-stage ordering — the "Sequential Original" bars of the paper's
/// Fig. 11 (per-stage sequential baseline).
pub fn run_stages_sequential(ctx: &RunContext) -> Result<Vec<StageTiming>> {
    let mut stage_timings = Vec::with_capacity(STAGE_TABLE.len());
    for stage in &STAGE_TABLE {
        let t0 = Instant::now();
        for &p in stage.processes {
            run_process(ctx, p, false, false)?;
        }
        stage_timings.push(StageTiming {
            stage: stage.id,
            elapsed: t0.elapsed(),
        });
    }
    Ok(stage_timings)
}

/// Convenience: total wall time of a report's stages (sanity checks).
pub fn stages_total(stages: &[StageTiming]) -> Duration {
    stages.iter().map(|s| s.elapsed).sum()
}

/// Convenience: find a stage's time in a timing list.
pub fn stage_elapsed(stages: &[StageTiming], id: StageId) -> Option<Duration> {
    stages.iter().find(|s| s.stage == id).map(|s| s.elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;

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
            assert!(stage_elapsed(&report.stages, StageId::IX).is_some());
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
        assert!(stages_total(&stages) > Duration::ZERO);
        std::fs::remove_dir_all(&base).unwrap();
    }
}

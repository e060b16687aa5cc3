//! # arp-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§VII):
//!
//! * [`table1`] — Table I: per-event wall times of the implementations
//!   (the paper's four plus the DAG scheduler) and the overall speedup;
//! * [`fig11`] — Fig. 11: per-stage sequential vs fully-parallel times for
//!   the largest event;
//! * [`fig12_svg`] — Fig. 12: grouped bars of the five implementations per
//!   event;
//! * [`fig13`] / [`fig13_svg`] — Fig. 13: speedup and throughput vs problem
//!   size;
//! * [`batch_experiment`] — beyond the paper: the six events processed as
//!   one cross-event super-DAG vs a per-event DAG loop.
//!
//! The `report` binary drives these from the command line; the Criterion
//! benches reuse the same building blocks at reduced scale.

#![warn(missing_docs)]

use arp_core::report::StageTiming;
use arp_core::{
    run_pipeline_labeled, run_stages_sequential, ImplKind, PipelineConfig, PipelineError,
    RunContext, RunReport, StageId,
};
use arp_synth::{paper_event, write_event_inputs, EventSpec, PAPER_EVENT_SHAPES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Results of running one event under every implementation.
#[derive(Debug, Clone)]
pub struct EventRun {
    /// Event label (Table I row name).
    pub label: String,
    /// Number of V1 files.
    pub v1_files: usize,
    /// Total data points.
    pub data_points: usize,
    /// Wall time per implementation.
    pub times: BTreeMap<&'static str, Duration>,
    /// Full reports per implementation.
    pub reports: Vec<RunReport>,
}

impl EventRun {
    /// Wall time of one implementation.
    pub fn time_of(&self, kind: ImplKind) -> Duration {
        self.times[kind.label()]
    }

    /// Overall speedup: Sequential Original vs Fully Parallelized
    /// (Table I's right-most column).
    pub fn speedup(&self) -> f64 {
        let seq = self.time_of(ImplKind::SequentialOriginal).as_secs_f64();
        let par = self.time_of(ImplKind::FullyParallel).as_secs_f64();
        if par > 0.0 {
            seq / par
        } else {
            0.0
        }
    }

    /// Data points per second of the fully parallelized run.
    pub fn throughput(&self) -> f64 {
        let par = self.time_of(ImplKind::FullyParallel).as_secs_f64();
        if par > 0.0 {
            self.data_points as f64 / par
        } else {
            0.0
        }
    }

    /// Speedup of the DAG scheduler over Sequential Original (the column
    /// the paper does not have: what barrier-free scheduling adds).
    pub fn dag_speedup(&self) -> f64 {
        let seq = self.time_of(ImplKind::SequentialOriginal).as_secs_f64();
        let dag = self.time_of(ImplKind::DagParallel).as_secs_f64();
        if dag > 0.0 {
            seq / dag
        } else {
            0.0
        }
    }

    /// The schedule analysis of this event's DAG run, if one was recorded.
    pub fn dag_report(&self) -> Option<&arp_core::DagReport> {
        self.reports
            .iter()
            .find(|r| r.implementation == ImplKind::DagParallel)
            .and_then(|r| r.dag.as_ref())
    }
}

/// Scratch directory for harness runs.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("arp-bench-{tag}-{}", std::process::id()))
}

/// Stages an event's input files into a fresh directory.
pub fn stage_event_inputs(event: &EventSpec, tag: &str) -> Result<PathBuf, PipelineError> {
    let dir = scratch(&format!("in-{tag}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| PipelineError::io(&dir, e))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| PipelineError::io(&dir, e))?;
    write_event_inputs(event, &dir)?;
    Ok(dir)
}

/// Runs one event under one implementation in a fresh work directory,
/// returning the report. The work directory is deleted afterwards.
pub fn run_once(
    input_dir: &Path,
    config: &PipelineConfig,
    kind: ImplKind,
    label: &str,
) -> Result<RunReport, PipelineError> {
    let work = scratch(&format!(
        "w-{label}-{}",
        kind.label().replace([' ', '.'], "")
    ));
    if work.exists() {
        std::fs::remove_dir_all(&work).map_err(|e| PipelineError::io(&work, e))?;
    }
    let ctx = RunContext::new(input_dir, &work, config.clone())?;
    let report = run_pipeline_labeled(&ctx, kind, label)?;
    std::fs::remove_dir_all(&work).map_err(|e| PipelineError::io(&work, e))?;
    Ok(report)
}

/// Runs one event under all five implementations.
pub fn run_event_all_impls(
    event: &EventSpec,
    config: &PipelineConfig,
    label: &str,
) -> Result<EventRun, PipelineError> {
    run_event_all_impls_reps(event, config, label, 1)
}

/// As [`run_event_all_impls`], repeating each measurement `reps` times and
/// keeping the median total (reduces filesystem-cache noise).
pub fn run_event_all_impls_reps(
    event: &EventSpec,
    config: &PipelineConfig,
    label: &str,
    reps: usize,
) -> Result<EventRun, PipelineError> {
    let reps = reps.max(1);
    let input_dir = stage_event_inputs(event, label)?;
    let mut times = BTreeMap::new();
    let mut reports = Vec::with_capacity(4);
    let mut v1_files = 0;
    let mut data_points = 0;
    for kind in ImplKind::ALL {
        let mut samples = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let report = run_once(&input_dir, config, kind, label)?;
            samples.push(report.total);
            last = Some(report);
        }
        samples.sort();
        let median = samples[samples.len() / 2];
        let mut report = last.expect("reps >= 1");
        report.total = median;
        v1_files = report.v1_files;
        data_points = report.data_points;
        times.insert(kind.label(), median);
        reports.push(report);
    }
    std::fs::remove_dir_all(&input_dir).map_err(|e| PipelineError::io(&input_dir, e))?;
    Ok(EventRun {
        label: label.to_string(),
        v1_files,
        data_points,
        times,
        reports,
    })
}

/// Runs the full six-event Table I experiment at the given scale.
pub fn table1(scale: f64, config: &PipelineConfig) -> Result<Vec<EventRun>, PipelineError> {
    table1_reps(scale, config, 1)
}

/// As [`table1`] with `reps` repetitions per measurement (median kept).
pub fn table1_reps(
    scale: f64,
    config: &PipelineConfig,
    reps: usize,
) -> Result<Vec<EventRun>, PipelineError> {
    let mut rows = Vec::with_capacity(PAPER_EVENT_SHAPES.len());
    for (i, &(label, _, _, _)) in PAPER_EVENT_SHAPES.iter().enumerate() {
        let event = paper_event(i, scale);
        rows.push(run_event_all_impls_reps(&event, config, label, reps)?);
    }
    Ok(rows)
}

/// Formats Table I as fixed-width text (same columns as the paper).
pub fn format_table1(rows: &[EventRun]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}\n",
        "Event",
        "V1 Files",
        "Points",
        "Seq.Ori.",
        "Seq.Opt.",
        "Part.Par.",
        "Full.Par.",
        "DAG.Par.",
        "SpeedUp",
        "DAG.Up"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>8} {:>10} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>7.2}x {:>7.2}x\n",
            r.label,
            r.v1_files,
            r.data_points,
            r.time_of(ImplKind::SequentialOriginal).as_secs_f64(),
            r.time_of(ImplKind::SequentialOptimized).as_secs_f64(),
            r.time_of(ImplKind::PartiallyParallel).as_secs_f64(),
            r.time_of(ImplKind::FullyParallel).as_secs_f64(),
            r.time_of(ImplKind::DagParallel).as_secs_f64(),
            r.speedup(),
            r.dag_speedup()
        ));
    }
    out
}

/// Formats the DAG schedule analysis per event: where each event's speedup
/// comes from (stage-internal parallelism vs. barrier removal) and the
/// critical path that bounds it.
pub fn format_dag_decomposition(rows: &[EventRun]) -> String {
    let mut out =
        String::from("DAG schedule decomposition (replays of the run's own recorded graph):\n");
    out.push_str(&format!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}  critical path\n",
        "Event", "NodeSum", "Barrier", "DAG", "CP floor"
    ));
    for r in rows {
        let Some(d) = r.dag_report() else {
            out.push_str(&format!("{:<12} (no DAG report)\n", r.label));
            continue;
        };
        let path: Vec<String> = d
            .critical_path
            .iter()
            .map(|p| format!("#{}", p.0))
            .collect();
        out.push_str(&format!(
            "{:<12} {:>10.4} {:>10.4} {:>10.4} {:>10.4}  {}\n",
            r.label,
            d.node_total.as_secs_f64(),
            d.barrier_makespan.as_secs_f64(),
            d.dag_makespan.as_secs_f64(),
            d.critical_path_len.as_secs_f64(),
            path.join("->")
        ));
    }
    out
}

/// Emits Table I as CSV.
pub fn table1_csv(rows: &[EventRun]) -> String {
    let mut out = String::from(
        "event,v1_files,data_points,seq_ori_s,seq_opt_s,part_par_s,full_par_s,dag_par_s,speedup,dag_speedup\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.4},{:.4}\n",
            r.label,
            r.v1_files,
            r.data_points,
            r.time_of(ImplKind::SequentialOriginal).as_secs_f64(),
            r.time_of(ImplKind::SequentialOptimized).as_secs_f64(),
            r.time_of(ImplKind::PartiallyParallel).as_secs_f64(),
            r.time_of(ImplKind::FullyParallel).as_secs_f64(),
            r.time_of(ImplKind::DagParallel).as_secs_f64(),
            r.speedup(),
            r.dag_speedup()
        ));
    }
    out
}

/// Fig. 11 data: per-stage `(sequential, fully parallel)` times for one
/// event (the paper uses the largest, index 5).
pub struct Fig11 {
    /// Event label.
    pub label: String,
    /// Stage timings of the sequential execution (11 stages).
    pub sequential: Vec<StageTiming>,
    /// Stage timings of the fully parallel execution.
    pub parallel: Vec<StageTiming>,
}

impl Fig11 {
    /// Per-stage speedups `(stage, seq, par, speedup)`.
    pub fn speedups(&self) -> Vec<(StageId, f64, f64, f64)> {
        self.sequential
            .iter()
            .zip(&self.parallel)
            .map(|(s, p)| {
                let sq = s.elapsed.as_secs_f64();
                let pr = p.elapsed.as_secs_f64();
                (s.stage, sq, pr, if pr > 0.0 { sq / pr } else { 0.0 })
            })
            .collect()
    }

    /// Fraction of total sequential time spent in a stage.
    pub fn sequential_fraction(&self, id: StageId) -> f64 {
        let total: f64 = self
            .sequential
            .iter()
            .map(|s| s.elapsed.as_secs_f64())
            .sum();
        let stage = self
            .sequential
            .iter()
            .find(|s| s.stage == id)
            .map(|s| s.elapsed.as_secs_f64())
            .unwrap_or(0.0);
        if total > 0.0 {
            stage / total
        } else {
            0.0
        }
    }
}

/// Runs the Fig. 11 experiment: per-stage times, sequential vs fully
/// parallel, for the chosen paper event.
pub fn fig11(
    event_index: usize,
    scale: f64,
    config: &PipelineConfig,
) -> Result<Fig11, PipelineError> {
    fig11_reps(event_index, scale, config, 1)
}

/// As [`fig11`], repeating each measurement `reps` times and keeping the
/// per-stage median.
pub fn fig11_reps(
    event_index: usize,
    scale: f64,
    config: &PipelineConfig,
    reps: usize,
) -> Result<Fig11, PipelineError> {
    let reps = reps.max(1);
    let label = PAPER_EVENT_SHAPES[event_index].0;
    let event = paper_event(event_index, scale);
    let input_dir = stage_event_inputs(&event, &format!("fig11-{label}"))?;

    let median_stages = |samples: Vec<Vec<StageTiming>>| -> Vec<StageTiming> {
        let stages = samples[0].len();
        (0..stages)
            .map(|k| {
                let mut times: Vec<Duration> = samples.iter().map(|run| run[k].elapsed).collect();
                times.sort();
                StageTiming {
                    stage: samples[0][k].stage,
                    elapsed: times[times.len() / 2],
                }
            })
            .collect()
    };

    // Sequential per-stage baseline (median of reps runs).
    let mut seq_samples = Vec::with_capacity(reps);
    for r in 0..reps {
        let work_seq = scratch(&format!("fig11-seq-{r}"));
        let _ = std::fs::remove_dir_all(&work_seq);
        let ctx = RunContext::new(&input_dir, &work_seq, config.clone())?;
        seq_samples.push(run_stages_sequential(&ctx)?);
        std::fs::remove_dir_all(&work_seq).map_err(|e| PipelineError::io(&work_seq, e))?;
    }
    let sequential = median_stages(seq_samples);

    // Fully parallel runs (median of reps).
    let mut par_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let report = run_once(&input_dir, config, ImplKind::FullyParallel, label)?;
        par_samples.push(report.stages);
    }
    let parallel = median_stages(par_samples);

    std::fs::remove_dir_all(&input_dir).map_err(|e| PipelineError::io(&input_dir, e))?;

    Ok(Fig11 {
        label: label.to_string(),
        sequential,
        parallel,
    })
}

/// Runs a throwaway small pipeline to warm caches and the allocator before
/// measurement.
pub fn warmup(config: &PipelineConfig) -> Result<(), PipelineError> {
    let event = paper_event(0, 0.002);
    let input_dir = stage_event_inputs(&event, "warmup")?;
    let _ = run_once(&input_dir, config, ImplKind::SequentialOptimized, "warmup")?;
    std::fs::remove_dir_all(&input_dir).map_err(|e| PipelineError::io(&input_dir, e))?;
    Ok(())
}

/// Formats Fig. 11 as a text table.
pub fn format_fig11(f: &Fig11) -> String {
    let mut out = format!(
        "Per-stage timings, event {} (sequential vs fully parallel)\n{:<6} {:>12} {:>12} {:>9} {:>8}\n",
        f.label, "Stage", "Seq (s)", "Par (s)", "Speedup", "Seq %"
    );
    let total: f64 = f.sequential.iter().map(|s| s.elapsed.as_secs_f64()).sum();
    for (stage, seq, par, speedup) in f.speedups() {
        out.push_str(&format!(
            "{:<6} {:>12.4} {:>12.4} {:>8.2}x {:>7.1}%\n",
            stage.label(),
            seq,
            par,
            speedup,
            if total > 0.0 {
                100.0 * seq / total
            } else {
                0.0
            }
        ));
    }
    out
}

/// Renders Fig. 12 (grouped bars per event) as SVG.
pub fn fig12_svg(rows: &[EventRun]) -> String {
    let chart = arp_plot::GroupedBarChart {
        title: "Execution time per event and implementation".into(),
        y_label: "Time (s)".into(),
        groups: rows.iter().map(|r| r.label.clone()).collect(),
        series: ImplKind::ALL
            .iter()
            .map(|&k| {
                (
                    k.label().to_string(),
                    rows.iter().map(|r| r.time_of(k).as_secs_f64()).collect(),
                )
            })
            .collect(),
    };
    chart.to_svg(760.0, 420.0)
}

/// Fig. 13 series: per event `(data_points, speedup, throughput)`.
pub fn fig13(rows: &[EventRun]) -> Vec<(usize, f64, f64)> {
    rows.iter()
        .map(|r| (r.data_points, r.speedup(), r.throughput()))
        .collect()
}

/// Formats Fig. 13 as CSV.
pub fn fig13_csv(rows: &[EventRun]) -> String {
    let mut out = String::from("data_points,speedup,points_per_second\n");
    for (points, speedup, tput) in fig13(rows) {
        out.push_str(&format!("{points},{speedup:.4},{tput:.1}\n"));
    }
    out
}

/// Renders Fig. 13 (speedup and throughput vs problem size) as SVG.
pub fn fig13_svg(rows: &[EventRun]) -> String {
    let series = fig13(rows);
    let xs: Vec<f64> = series.iter().map(|&(p, _, _)| p as f64).collect();
    let speedups: Vec<f64> = series.iter().map(|&(_, s, _)| s).collect();
    let tputs: Vec<f64> = series.iter().map(|&(_, _, t)| t).collect();
    let panels = vec![
        arp_plot::LineChart::new("Overall speedup vs problem size")
            .labels("Data points per event", "Speedup (x)")
            .with_series(arp_plot::Series::from_xy("speedup", &xs, &speedups)),
        arp_plot::LineChart::new("Throughput vs problem size")
            .labels("Data points per event", "Data points / s")
            .with_series(arp_plot::Series::from_xy("throughput", &xs, &tputs)),
    ];
    arp_plot::Figure::new(panels).to_svg()
}

/// Scaling experiment — the paper's §VII-C claim that "execution time is
/// linearly proportional to the total amount of data points". Runs one
/// event at several data scales and returns `(data_points, seconds)` pairs
/// for the chosen implementation.
pub fn scaling_experiment(
    event_index: usize,
    scales: &[f64],
    config: &PipelineConfig,
    kind: ImplKind,
) -> Result<Vec<(usize, f64)>, PipelineError> {
    let label = PAPER_EVENT_SHAPES[event_index].0;
    let mut rows = Vec::with_capacity(scales.len());
    for (k, &scale) in scales.iter().enumerate() {
        let event = paper_event(event_index, scale);
        let input_dir = stage_event_inputs(&event, &format!("scal-{label}-{k}"))?;
        let report = run_once(&input_dir, config, kind, label)?;
        std::fs::remove_dir_all(&input_dir).map_err(|e| PipelineError::io(&input_dir, e))?;
        rows.push((report.data_points, report.total.as_secs_f64()));
    }
    Ok(rows)
}

/// Least-squares fit of `time = a + b·points`; returns `(a, b, r²)`.
pub fn linear_fit(rows: &[(usize, f64)]) -> (f64, f64, f64) {
    let n = rows.len() as f64;
    if rows.len() < 2 {
        return (0.0, 0.0, 0.0);
    }
    let sx: f64 = rows.iter().map(|(p, _)| *p as f64).sum();
    let sy: f64 = rows.iter().map(|(_, t)| *t).sum();
    let sxx: f64 = rows.iter().map(|(p, _)| (*p as f64).powi(2)).sum();
    let sxy: f64 = rows.iter().map(|(p, t)| *p as f64 * t).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return (sy / n, 0.0, 0.0);
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    // R² against the fit.
    let mean_y = sy / n;
    let ss_tot: f64 = rows.iter().map(|(_, t)| (t - mean_y).powi(2)).sum();
    let ss_res: f64 = rows
        .iter()
        .map(|(p, t)| (t - (a + b * *p as f64)).powi(2))
        .sum();
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    (a, b, r2)
}

/// Results of the batch experiment: the same paper events processed twice,
/// once by a per-event DAG loop (events strictly in sequence, each
/// internally parallel) and once as one cross-event super-DAG
/// ([`arp_core::run_batch_dag`]). The difference isolates what scheduling
/// the whole batch as a single graph buys.
#[derive(Debug)]
pub struct BatchExperiment {
    /// Data-point scale the events were synthesized at.
    pub scale: f64,
    /// Per-event DAG loop: the sequential-across-events baseline.
    pub loop_report: arp_core::BatchReport,
    /// Cross-event super-DAG run (critical-path ready order).
    pub dag_report: arp_core::BatchReport,
    /// Span trace of the measured scheduler-health pass: per-worker
    /// utilization and queue-wait percentiles (the scheduler-health
    /// columns of `BENCH_batch.json`). Always recorded on the real worker
    /// pool — for simulated-timing configs a dedicated measured run is
    /// added, so the rows name actual pool threads (`arp-par-*` plus the
    /// helping caller) instead of collapsing onto the caller thread.
    pub trace: arp_trace::TraceSummary,
    /// Live-metrics digest of the pool's queue-wait histogram over the
    /// scheduler-health pass (`None` if nothing was recorded).
    pub queue_wait: Option<HistDigest>,
    /// Live-metrics digest of the pool's execute-time histogram.
    pub execute: Option<HistDigest>,
    /// Relative wall-time cost of arming the diagnostics ring on a
    /// measured super-DAG run (`diag/plain − 1`; negative = within
    /// noise). Gated at ≤1% by `report compare`.
    pub diag_overhead: f64,
    /// Attribution profile of the same scheduler-health trace: per-kernel
    /// exclusive self-time, the realized critical path's composition, the
    /// accounting identity (gated by `report compare`), and what-if
    /// speedup curves replayed through the deterministic scheduler.
    pub profile: arp_trace::profile::Profile,
    /// Format-layer residency comparison: peak reader bytes-in-flight,
    /// whole-file vs streaming, over the largest paper event.
    pub reader_peak: ReaderPeak,
    /// Scalar-vs-SIMD DSP backend comparison: per-kernel micro throughput,
    /// the measured whole-batch saving of `--dsp-backend simd` over
    /// `scalar`, and the saving the profile's what-if curves *predicted*
    /// for the measured kernel speedups.
    pub simd: SimdExperiment,
}

/// One DSP kernel measured under both backends (`--dsp-backend`), seconds
/// per call on a fixed synthetic input. Backends are bitwise-identical, so
/// the ratio is pure throughput.
#[derive(Debug, Clone)]
pub struct SimdKernelRow {
    /// Kernel tag (`fir_convolve`, `fir_apply_fft`, `frequency_gain`,
    /// `fft_radix2`, `respspec_nj`).
    pub kernel: &'static str,
    /// Elements processed per call (for throughput context).
    pub elements: usize,
    /// Seconds per call, scalar backend.
    pub scalar_s: f64,
    /// Seconds per call, SIMD backend.
    pub simd_s: f64,
}

impl SimdKernelRow {
    /// Scalar-to-SIMD speedup (`> 1` = SIMD faster).
    pub fn speedup(&self) -> f64 {
        if self.simd_s > 0.0 {
            self.scalar_s / self.simd_s
        } else {
            0.0
        }
    }

    fn json(&self) -> String {
        format!(
            "    {{\"kernel\": {}, \"elements\": {}, \"scalar_s\": {:.9}, \"simd_s\": {:.9}, \"speedup\": {:.4}}}",
            arp_trace::json::escape(self.kernel),
            self.elements,
            self.scalar_s,
            self.simd_s,
            self.speedup()
        )
    }
}

/// Results of the SIMD-backend experiment: what the blocked kernels buy at
/// micro scale (per kernel) and at batch scale (whole super-DAG run), next
/// to what the critical-path profiler's what-if curves predicted a kernel
/// speedup of that size would buy.
#[derive(Debug, Clone)]
pub struct SimdExperiment {
    /// Per-kernel micro rows.
    pub kernels: Vec<SimdKernelRow>,
    /// Measured super-DAG batch wall time, `--dsp-backend scalar`
    /// (mean of the two bracketing scalar runs).
    pub batch_scalar_s: f64,
    /// Measured super-DAG batch wall time, `--dsp-backend simd`.
    pub batch_simd_s: f64,
    /// Batch saving the what-if curves predict for the measured per-kernel
    /// speedups: Σ over profiled kernels of the curve interpolated at that
    /// kernel's measured micro speedup. `0` when no curve maps.
    pub predicted_saving: f64,
}

impl SimdExperiment {
    /// Measured whole-batch saving, `1 − simd/scalar` (positive = SIMD
    /// batch faster).
    pub fn measured_saving(&self) -> f64 {
        if self.batch_scalar_s > 0.0 {
            1.0 - self.batch_simd_s / self.batch_scalar_s
        } else {
            0.0
        }
    }

    /// Largest per-kernel speedup — the headline the compare gate holds:
    /// the SIMD backend must keep beating scalar on at least one kernel.
    pub fn best_kernel_speedup(&self) -> f64 {
        self.kernels
            .iter()
            .map(SimdKernelRow::speedup)
            .fold(0.0, f64::max)
    }

    fn json(&self) -> String {
        let rows: Vec<String> = self.kernels.iter().map(SimdKernelRow::json).collect();
        format!(
            "{{\n  \"kernels\": [\n{}\n  ],\n  \"best_kernel_speedup\": {:.4},\n  \
             \"batch_scalar_s\": {:.6},\n  \"batch_simd_s\": {:.6},\n  \
             \"measured_saving\": {:.4},\n  \"predicted_saving\": {:.4}\n  }}",
            rows.join(",\n"),
            self.best_kernel_speedup(),
            self.batch_scalar_s,
            self.batch_simd_s,
            self.measured_saving(),
            self.predicted_saving
        )
    }
}

/// Seconds per call of `f`: one warmup call, then doubling iteration
/// counts until the timed block covers ≥10 ms.
fn time_call<F: FnMut()>(mut f: F) -> f64 {
    f();
    let mut iters = 1usize;
    loop {
        let start = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        let secs = start.elapsed().as_secs_f64();
        if secs >= 0.01 || iters >= 1 << 22 {
            return secs / iters as f64;
        }
        iters *= 2;
    }
}

/// Linear interpolation of a what-if curve's predicted saving at the
/// measured kernel `speedup`. The curve starts implicitly at `(1.0, 0.0)`
/// (no speedup saves nothing); beyond the last point the saving plateaus
/// (the kernel has left the critical path).
fn interp_what_if_saving(curve: &arp_trace::profile::WhatIfCurve, speedup: f64) -> f64 {
    if speedup <= 1.0 {
        return 0.0;
    }
    let (mut x0, mut y0) = (1.0, 0.0);
    for p in &curve.points {
        if speedup <= p.speedup {
            let span = p.speedup - x0;
            if span <= 0.0 {
                return p.saving;
            }
            return y0 + (p.saving - y0) * (speedup - x0) / span;
        }
        (x0, y0) = (p.speedup, p.saving);
    }
    y0
}

/// Runs the SIMD-backend experiment: micro-times each vectorized kernel
/// under both backends, replays the measured speedups through `profile`'s
/// what-if curves (prediction), and measures the real batch saving by
/// running the super-DAG batch with `--dsp-backend scalar` vs `simd`
/// (scalar–simd–scalar, bracketing scalar runs averaged so monotone host
/// drift cancels to first order).
pub fn simd_experiment(
    items: &[arp_core::BatchItem],
    measured_config: &PipelineConfig,
    profile: &arp_trace::profile::Profile,
) -> Result<SimdExperiment, PipelineError> {
    use arp_dsp::backend::DspBackend;
    use arp_dsp::fir::{frequency_gain_with, BandPass, FirFilter};
    use arp_dsp::respspec::{response_spectrum_with, ResponseMethod};
    use arp_dsp::window::WindowKind;

    let dt = 0.01;
    let n = 4096usize;
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 13 % 101) as f64 - 50.0) * 0.1)
        .collect();
    let filt = FirFilter::band_pass(
        BandPass::new(1.0, 3.0, 20.0, 24.0).unwrap(),
        dt,
        WindowKind::Hamming,
    )?;
    let coeffs = filt.coeffs().to_vec();
    let periods: Vec<f64> = (1..=16).map(|i| 0.05 * i as f64).collect();
    let pair = |mut f: Box<dyn FnMut(DspBackend)>| -> (f64, f64) {
        (
            time_call(|| f(DspBackend::Scalar)),
            time_call(|| f(DspBackend::Simd)),
        )
    };
    let mut kernels = Vec::new();
    let mut push = |kernel: &'static str, elements: usize, (scalar_s, simd_s): (f64, f64)| {
        kernels.push(SimdKernelRow {
            kernel,
            elements,
            scalar_s,
            simd_s,
        });
    };
    push(
        "fir_convolve",
        n,
        pair(Box::new(|b| {
            std::hint::black_box(filt.apply_with(&x, b));
        })),
    );
    push(
        "fir_apply_fft",
        n,
        pair(Box::new(|b| {
            std::hint::black_box(filt.apply_fft_with(&x, b));
        })),
    );
    push(
        "frequency_gain",
        coeffs.len(),
        pair(Box::new(|b| {
            std::hint::black_box(frequency_gain_with(&coeffs, 7.3, dt, b));
        })),
    );
    push(
        "fft_radix2",
        n,
        pair(Box::new(|_| {
            std::hint::black_box(arp_dsp::fft::rfft(&x));
        })),
    );
    push(
        "respspec_nj",
        n * periods.len(),
        pair(Box::new(|b| {
            std::hint::black_box(
                response_spectrum_with(&x, dt, &periods, 0.05, ResponseMethod::NigamJennings, b)
                    .unwrap(),
            );
        })),
    );

    // Predicted batch saving: each profiled kernel's what-if curve,
    // interpolated at the measured micro speedup of the DSP kernel that
    // dominates it (#4/#13 filter → FFT-based FIR apply, #7 fourier →
    // rfft, #16 respspec → the Nigam–Jennings recurrence). Savings of
    // disjoint kernels add to first order on the replayed makespan.
    let speedup_of = |kernel: &str| {
        kernels
            .iter()
            .find(|k| k.kernel == kernel)
            .map_or(1.0, SimdKernelRow::speedup)
    };
    let predicted_saving = profile
        .what_if
        .iter()
        .map(|curve| {
            let measured = match curve.process {
                4 | 13 => speedup_of("fir_apply_fft"),
                7 => speedup_of("fft_radix2"),
                16 => speedup_of("respspec_nj"),
                _ => return 0.0,
            };
            interp_what_if_saving(curve, measured)
        })
        .sum();

    // Measured batch saving: the same super-DAG batch under each backend,
    // scalar runs bracketing the SIMD run.
    let work = scratch("batch-simd-w");
    let run = |backend: DspBackend| -> Result<f64, PipelineError> {
        if work.exists() {
            std::fs::remove_dir_all(&work).map_err(|e| PipelineError::io(&work, e))?;
        }
        let mut config = measured_config.clone();
        config.dsp_backend = backend;
        let report =
            arp_core::run_batch_dag(items, &work, &config, arp_core::ReadyOrder::CriticalPath)?;
        Ok(report.total.as_secs_f64())
    };
    let scalar_a = run(DspBackend::Scalar)?;
    let batch_simd_s = run(DspBackend::Simd)?;
    let scalar_b = run(DspBackend::Scalar)?;
    if work.exists() {
        std::fs::remove_dir_all(&work).map_err(|e| PipelineError::io(&work, e))?;
    }
    Ok(SimdExperiment {
        kernels,
        batch_scalar_s: (scalar_a + scalar_b) / 2.0,
        batch_simd_s,
        predicted_saving,
    })
}

/// Peak resident bytes-in-flight of the format layer while parsing every
/// station file of one event, measured two ways: the whole-file path
/// (`read_file` + `from_text`, the pre-streaming behaviour) and the
/// streaming path (`Scanner::open` with its bounded 64 KiB buffer). The
/// gap is what the streaming readers buy: residency stops scaling with
/// file size.
#[derive(Debug, Clone)]
pub struct ReaderPeak {
    /// Event the files belong to (the largest paper event).
    pub event: String,
    /// Data-point scale the files were synthesized at (floored at 0.05 so
    /// the largest station file exceeds the streaming buffer).
    pub scale: f64,
    /// Station files parsed.
    pub files: usize,
    /// Peak bytes-in-flight of the whole-file path.
    pub whole_bytes: u64,
    /// Peak bytes-in-flight of the streaming path.
    pub stream_bytes: u64,
}

impl ReaderPeak {
    /// Fractional residency reduction, `1 − stream/whole`.
    pub fn reduction(&self) -> f64 {
        if self.whole_bytes == 0 {
            return 0.0;
        }
        1.0 - self.stream_bytes as f64 / self.whole_bytes as f64
    }

    fn json(&self) -> String {
        format!(
            "{{\"event\": {}, \"scale\": {}, \"files\": {}, \"whole_bytes\": {}, \"stream_bytes\": {}, \"reduction\": {:.4}}}",
            arp_trace::json::escape(&self.event),
            self.scale,
            self.files,
            self.whole_bytes,
            self.stream_bytes,
            self.reduction()
        )
    }
}

/// Measures [`ReaderPeak`] on the largest paper event. The requested scale
/// is floored at 0.05: below that every station file fits inside the
/// streaming buffer and both paths report the same residency.
pub fn reader_peak_experiment(scale: f64) -> Result<ReaderPeak, PipelineError> {
    use arp_formats::stats;
    let scale = scale.max(0.05);
    let index = PAPER_EVENT_SHAPES.len() - 1;
    let label = PAPER_EVENT_SHAPES[index].0;
    let event = paper_event(index, scale);
    let input_dir = stage_event_inputs(&event, "reader-peak")?;
    let mut files: Vec<PathBuf> = std::fs::read_dir(&input_dir)
        .map_err(|e| PipelineError::io(&input_dir, e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "v1"))
        .collect();
    files.sort();

    // Whole-file path: the file's full text is resident for the parse.
    stats::reset_peak();
    for path in &files {
        let text = arp_formats::fsio::read_file(path)?;
        let _ = arp_formats::V1StationFile::from_text(&text)?;
    }
    let whole_bytes = stats::peak();

    // Streaming path: only the scanner's bounded buffer is resident.
    stats::reset_peak();
    for path in &files {
        let _ = arp_formats::V1StationFile::read(path)?;
    }
    let stream_bytes = stats::peak();

    std::fs::remove_dir_all(&input_dir).map_err(|e| PipelineError::io(&input_dir, e))?;
    Ok(ReaderPeak {
        event: label.to_string(),
        scale,
        files: files.len(),
        whole_bytes,
        stream_bytes,
    })
}

/// Percentile digest of one live-metrics histogram, in seconds. The
/// quantiles come from the log-linear buckets, so each carries the
/// registry's ≤1/16 relative bucketing error.
#[derive(Debug, Clone, Copy)]
pub struct HistDigest {
    /// Samples recorded.
    pub count: u64,
    /// Median, seconds.
    pub p50_s: f64,
    /// 95th percentile, seconds.
    pub p95_s: f64,
    /// 99th percentile, seconds.
    pub p99_s: f64,
}

impl HistDigest {
    /// Digests a snapshot; `None` when the histogram recorded nothing
    /// (empty distributions have no percentiles).
    pub fn from_snapshot(s: &arp_metrics::HistogramSnapshot) -> Option<HistDigest> {
        Some(HistDigest {
            count: s.count,
            p50_s: s.quantile(0.50)?,
            p95_s: s.quantile(0.95)?,
            p99_s: s.quantile(0.99)?,
        })
    }

    fn json(&self) -> String {
        format!(
            "{{\"count\": {}, \"p50_s\": {:.6}, \"p95_s\": {:.6}, \"p99_s\": {:.6}}}",
            self.count, self.p50_s, self.p95_s, self.p99_s
        )
    }
}

impl BatchExperiment {
    /// Wall-time speedup of the super-DAG run over the per-event loop.
    pub fn measured_speedup(&self) -> f64 {
        if self.dag_report.total.is_zero() {
            return 0.0;
        }
        self.loop_report.total.as_secs_f64() / self.dag_report.total.as_secs_f64()
    }
}

/// Runs the batch experiment on the first `n_events` paper events at the
/// given scale (the recipe uses all six).
pub fn batch_experiment(
    scale: f64,
    config: &PipelineConfig,
    n_events: usize,
) -> Result<BatchExperiment, PipelineError> {
    let n_events = n_events.clamp(1, PAPER_EVENT_SHAPES.len());
    let root = scratch("batch-in");
    if root.exists() {
        std::fs::remove_dir_all(&root).map_err(|e| PipelineError::io(&root, e))?;
    }
    let mut items = Vec::with_capacity(n_events);
    for (i, &(label, _, _, _)) in PAPER_EVENT_SHAPES.iter().take(n_events).enumerate() {
        let dir = root.join(label);
        std::fs::create_dir_all(&dir).map_err(|e| PipelineError::io(&dir, e))?;
        write_event_inputs(&paper_event(i, scale), &dir)?;
        items.push(arp_core::BatchItem {
            label: label.to_string(),
            input_dir: dir,
        });
    }
    let loop_work = scratch("batch-loop-w");
    let dag_work = scratch("batch-dag-w");
    let health_work = scratch("batch-health-w");
    for w in [&loop_work, &dag_work, &health_work] {
        if w.exists() {
            std::fs::remove_dir_all(w).map_err(|e| PipelineError::io(w, e))?;
        }
    }
    let loop_report = arp_core::run_batch(&items, &loop_work, config, ImplKind::DagParallel)?;
    // The scheduler-health columns (per-worker utilization, queue-wait and
    // execute-time percentiles) must come from a run on the *real* worker
    // pool: a simulated-timing run executes every node sequentially on the
    // caller thread, so tracing it would collapse all spans onto one
    // "main" lane (with busy time exceeding the virtual makespan) and
    // leave the pool's histograms empty. When the requested config is
    // already measured, a single instrumented run serves both purposes;
    // when it is simulated, the virtual-makespan run happens first,
    // uninstrumented, and a measured health pass follows.
    use arp_core::config::TimingModel;
    let measured = matches!(config.timing, TimingModel::Measured);
    let sim_result = (!measured).then(|| {
        arp_core::run_batch_dag(
            &items,
            &dag_work,
            config,
            arp_core::ReadyOrder::CriticalPath,
        )
    });
    // Both collectors stay within the <1% budget (see
    // `trace_overhead_experiment`). The registry is reset first so the
    // digests cover the health run alone.
    let metrics_before = arp_metrics::enabled();
    arp_metrics::reset();
    arp_metrics::set_enabled(true);
    let session = arp_trace::TraceSession::start();
    let health_result = if measured {
        arp_core::run_batch_dag(
            &items,
            &dag_work,
            config,
            arp_core::ReadyOrder::CriticalPath,
        )
    } else {
        let mut health_config = config.clone();
        health_config.timing = TimingModel::Measured;
        arp_core::run_batch_dag(
            &items,
            &health_work,
            &health_config,
            arp_core::ReadyOrder::CriticalPath,
        )
    };
    let health_trace = session.finish();
    let trace = health_trace.summary();
    arp_metrics::set_enabled(metrics_before);
    let queue_wait = HistDigest::from_snapshot(&arp_par::metrics::queue_wait().snapshot());
    let execute = HistDigest::from_snapshot(&arp_par::metrics::execute_time().snapshot());
    // Fold the same health trace into the attribution profile: per-kernel
    // self-time, realized critical path, and what-if curves replayed on
    // the pool's real worker count.
    let profile = arp_core::profile_trace_what_if(
        &health_trace,
        arp_par::ThreadPool::global().threads(),
        arp_core::WHAT_IF_TOP_K,
        &arp_core::WHAT_IF_SPEEDUPS,
    )
    .map_err(arp_core::PipelineError::Config)?;
    let dag_report = match sim_result {
        Some(sim) => {
            health_result?;
            sim?
        }
        None => health_result?,
    };
    // Diagnostics budget check: the measured super-DAG run with the
    // structured-log ring armed (what `--diag on` enables), sandwiched
    // between two uninstrumented twins (A-B-A) so monotone host drift and
    // warm-up cancel to first order in the plain average. Three sandwiches,
    // median ratio: a single transient stall on a shared CI host can swing
    // one ratio by tens of percent either way.
    let diag_work = scratch("batch-diag-w");
    let mut measured_config = config.clone();
    measured_config.timing = TimingModel::Measured;
    let mut ratios = Vec::with_capacity(3);
    for _ in 0..3 {
        let mut totals = [0.0f64; 3];
        for (slot, diag_on) in [(0, false), (1, true), (2, false)] {
            if diag_work.exists() {
                std::fs::remove_dir_all(&diag_work)
                    .map_err(|e| PipelineError::io(&diag_work, e))?;
            }
            arp_diag::set_ring_enabled(diag_on);
            let result = arp_core::run_batch_dag(
                &items,
                &diag_work,
                &measured_config,
                arp_core::ReadyOrder::CriticalPath,
            );
            arp_diag::set_ring_enabled(false);
            totals[slot] = result?.total.as_secs_f64();
        }
        let plain_mean = (totals[0] + totals[2]) / 2.0;
        ratios.push(if plain_mean <= 0.0 {
            0.0
        } else {
            totals[1] / plain_mean - 1.0
        });
    }
    let diag_overhead = median(&ratios);
    // The SIMD-backend comparison reuses the staged inputs and the profile's
    // what-if curves, so it runs before the input root is torn down.
    let simd = simd_experiment(&items, &measured_config, &profile)?;
    for dir in [&root, &loop_work, &dag_work, &health_work, &diag_work] {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| PipelineError::io(dir, e))?;
        }
    }
    let reader_peak = reader_peak_experiment(scale)?;
    Ok(BatchExperiment {
        scale,
        loop_report,
        dag_report,
        trace,
        queue_wait,
        execute,
        diag_overhead,
        profile,
        reader_peak,
        simd,
    })
}

/// Instrumentation-overhead measurement: the same cross-event super-DAG
/// batch run `reps` times in each of four modes — uninstrumented, inside
/// a trace session, with live metrics collection on, and with the
/// diagnostics ring armed — as `reps` back-to-back quadruples. The
/// acceptance budget is ≤1% per collector at scale 0.05.
#[derive(Debug)]
pub struct TraceOverhead {
    /// Data-point scale of the staged events.
    pub scale: f64,
    /// Repetitions per mode.
    pub reps: usize,
    /// Best untraced wall time, seconds.
    pub untraced_s: f64,
    /// Best traced wall time, seconds.
    pub traced_s: f64,
    /// Best metrics-enabled wall time, seconds.
    pub metrics_s: f64,
    /// Best diagnostics-armed wall time, seconds.
    pub diag_s: f64,
    /// Per-quadruple relative overhead `traced/untraced − 1`, one entry per rep.
    pub pair_overheads: Vec<f64>,
    /// Per-quadruple relative overhead `metrics/untraced − 1`, one entry per rep.
    pub metrics_overheads: Vec<f64>,
    /// Per-quadruple relative overhead `diag/untraced − 1`, one entry per rep.
    pub diag_overheads: Vec<f64>,
    /// Spans the traced runs recorded (per run).
    pub spans: usize,
}

impl TraceOverhead {
    /// Relative overhead of the best times, `traced/untraced − 1`
    /// (negative = within noise).
    pub fn overhead_fraction(&self) -> f64 {
        if self.untraced_s <= 0.0 {
            return 0.0;
        }
        self.traced_s / self.untraced_s - 1.0
    }

    /// Median of the per-quadruple tracing overheads — the headline number.
    /// The modes of each quadruple run back to back (order rotating between
    /// quadruples), so slow drift of the host cancels inside a quadruple
    /// instead of biasing one mode, and the median discards quadruples hit
    /// by interference.
    pub fn median_overhead(&self) -> f64 {
        median(&self.pair_overheads)
    }

    /// Median of the per-quadruple metrics overheads (same discipline).
    pub fn median_metrics_overhead(&self) -> f64 {
        median(&self.metrics_overheads)
    }

    /// Median of the per-quadruple diagnostics overheads (same discipline).
    pub fn median_diag_overhead(&self) -> f64 {
        median(&self.diag_overheads)
    }

    /// Relative overhead of the best metrics-enabled time,
    /// `metrics/untraced − 1`.
    pub fn metrics_overhead_fraction(&self) -> f64 {
        if self.untraced_s <= 0.0 {
            return 0.0;
        }
        self.metrics_s / self.untraced_s - 1.0
    }

    /// Relative overhead of the best diagnostics-armed time,
    /// `diag/untraced − 1`.
    pub fn diag_overhead_fraction(&self) -> f64 {
        if self.untraced_s <= 0.0 {
            return 0.0;
        }
        self.diag_s / self.untraced_s - 1.0
    }
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Runs the instrumentation-overhead experiment on the six paper events:
/// `reps` back-to-back untraced/traced/metrics/diag quadruples of the
/// super-DAG batch run, the order within each quadruple rotating so
/// warm-up bias cancels. Reports the best wall time per mode and the
/// per-quadruple overhead ratios (see [`TraceOverhead::median_overhead`],
/// [`TraceOverhead::median_metrics_overhead`], and
/// [`TraceOverhead::median_diag_overhead`]).
pub fn trace_overhead_experiment(
    scale: f64,
    config: &PipelineConfig,
    reps: usize,
) -> Result<TraceOverhead, PipelineError> {
    let reps = reps.max(1);
    let root = scratch("trace-ovh-in");
    if root.exists() {
        std::fs::remove_dir_all(&root).map_err(|e| PipelineError::io(&root, e))?;
    }
    let mut items = Vec::new();
    for (i, &(label, _, _, _)) in PAPER_EVENT_SHAPES.iter().enumerate() {
        let dir = root.join(label);
        std::fs::create_dir_all(&dir).map_err(|e| PipelineError::io(&dir, e))?;
        write_event_inputs(&paper_event(i, scale), &dir)?;
        items.push(arp_core::BatchItem {
            label: label.to_string(),
            input_dir: dir,
        });
    }
    let work = scratch("trace-ovh-w");
    // Modes: 0 uninstrumented, 1 trace session, 2 live metrics, 3 the
    // diagnostics ring (structured logging armed, as `--diag on` does).
    let run = |mode: usize| -> Result<(f64, usize), PipelineError> {
        if work.exists() {
            std::fs::remove_dir_all(&work).map_err(|e| PipelineError::io(&work, e))?;
        }
        let session = (mode == 1).then(arp_trace::TraceSession::start);
        if mode == 2 {
            arp_metrics::set_enabled(true);
        }
        if mode == 3 {
            arp_diag::set_ring_enabled(true);
        }
        let result =
            arp_core::run_batch_dag(&items, &work, config, arp_core::ReadyOrder::CriticalPath);
        if mode == 2 {
            arp_metrics::set_enabled(false);
        }
        if mode == 3 {
            arp_diag::set_ring_enabled(false);
        }
        let spans = session.map_or(0, |s| s.finish().spans.len());
        Ok((result?.total.as_secs_f64(), spans))
    };
    let mut untraced_s = f64::INFINITY;
    let mut traced_s = f64::INFINITY;
    let mut metrics_s = f64::INFINITY;
    let mut diag_s = f64::INFINITY;
    let mut pair_overheads = Vec::with_capacity(reps);
    let mut metrics_overheads = Vec::with_capacity(reps);
    let mut diag_overheads = Vec::with_capacity(reps);
    let mut spans = 0;
    const ORDERS: [[usize; 4]; 4] = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]];
    for rep in 0..reps {
        // Rotate mode order between quadruples so warm-up bias cancels.
        let mut t = [0.0f64; 4];
        for &mode in &ORDERS[rep % ORDERS.len()] {
            let (secs, n) = run(mode)?;
            t[mode] = secs;
            if mode == 1 {
                spans = n;
            }
        }
        untraced_s = untraced_s.min(t[0]);
        traced_s = traced_s.min(t[1]);
        metrics_s = metrics_s.min(t[2]);
        diag_s = diag_s.min(t[3]);
        if t[0] > 0.0 {
            pair_overheads.push(t[1] / t[0] - 1.0);
            metrics_overheads.push(t[2] / t[0] - 1.0);
            diag_overheads.push(t[3] / t[0] - 1.0);
        }
    }
    for dir in [&root, &work] {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| PipelineError::io(dir, e))?;
        }
    }
    Ok(TraceOverhead {
        scale,
        reps,
        untraced_s,
        traced_s,
        metrics_s,
        diag_s,
        pair_overheads,
        metrics_overheads,
        diag_overheads,
        spans,
    })
}

/// Formats the overhead experiment for the terminal and EXPERIMENTS.md.
pub fn format_trace_overhead(t: &TraceOverhead) -> String {
    format!(
        "instrumentation overhead at scale {} ({} quadrupled reps, {} spans/run):\n  \
         tracing: median overhead {:+.2}%   \
         best-of: untraced {:.3}s  traced {:.3}s  ({:+.2}%)\n  \
         metrics: median overhead {:+.2}%   \
         best-of: untraced {:.3}s  metrics {:.3}s  ({:+.2}%)\n  \
         diag:    median overhead {:+.2}%   \
         best-of: untraced {:.3}s  diag {:.3}s  ({:+.2}%)\n",
        t.scale,
        t.reps,
        t.spans,
        t.median_overhead() * 100.0,
        t.untraced_s,
        t.traced_s,
        t.overhead_fraction() * 100.0,
        t.median_metrics_overhead() * 100.0,
        t.untraced_s,
        t.metrics_s,
        t.metrics_overhead_fraction() * 100.0,
        t.median_diag_overhead() * 100.0,
        t.untraced_s,
        t.diag_s,
        t.diag_overhead_fraction() * 100.0
    )
}

/// Formats the batch experiment: per-event comparison rows, then the
/// super-DAG speedup decomposition.
pub fn format_batch_experiment(b: &BatchExperiment) -> String {
    let mut out = format!(
        "Batch experiment, {} events at scale {} (per-event DAG loop vs cross-event super-DAG):\n\
         {:<12} {:>8} {:>10} {:>12} {:>12}\n",
        b.loop_report.events.len(),
        b.scale,
        "Event",
        "V1 Files",
        "Points",
        "Loop (s)",
        "Alone (s)"
    );
    let makespans = b
        .dag_report
        .dag
        .as_ref()
        .map(|d| d.event_makespans.as_slice())
        .unwrap_or(&[]);
    for (i, r) in b.loop_report.events.iter().enumerate() {
        out.push_str(&format!(
            "{:<12} {:>8} {:>10} {:>12.3} {:>12.3}\n",
            r.event,
            r.v1_files,
            r.data_points,
            r.total.as_secs_f64(),
            makespans.get(i).map_or(0.0, |d| d.as_secs_f64()),
        ));
    }
    out.push_str(&format!(
        "per-event loop total {:>10.3}s\nsuper-DAG total      {:>10.3}s  ({:.2}x)\n",
        b.loop_report.total.as_secs_f64(),
        b.dag_report.total.as_secs_f64(),
        b.measured_speedup(),
    ));
    if let Some(dag) = &b.dag_report.dag {
        out.push_str(&dag.to_table());
    }
    out.push_str(&b.trace.render());
    for (name, d) in [("queue-wait", &b.queue_wait), ("execute", &b.execute)] {
        if let Some(d) = d {
            out.push_str(&format!(
                "metrics {name:<10} {:>6} samples  p50 {:>9.1} us  p95 {:>9.1} us  p99 {:>9.1} us\n",
                d.count,
                d.p50_s * 1e6,
                d.p95_s * 1e6,
                d.p99_s * 1e6
            ));
        }
    }
    let p = &b.profile;
    out.push_str(&format!(
        "profile: Σ self {:.3}s vs Σ worker busy {:.3}s (gap {:.2}%), \
         realized critical path {:.3}s\n",
        p.self_total_ns as f64 / 1e9,
        p.worker_busy_ns as f64 / 1e9,
        p.accounting_error() * 100.0,
        p.cp_ns as f64 / 1e9,
    ));
    let composition: Vec<String> = p
        .kernels
        .iter()
        .filter(|k| k.cp_ns > 0)
        .map(|k| format!("#{:02} {} {:.1}%", k.process, k.name, k.cp_share * 100.0))
        .collect();
    out.push_str(&format!(
        "critical-path composition: {}\n",
        composition.join(" | ")
    ));
    for c in &p.what_if {
        let points: Vec<String> = c
            .points
            .iter()
            .map(|pt| format!("{}x → {:+.1}%", pt.speedup, -pt.saving * 100.0))
            .collect();
        out.push_str(&format!(
            "what-if #{:02} {}: {}\n",
            c.process,
            c.name,
            points.join(", ")
        ));
    }
    let rp = &b.reader_peak;
    out.push_str(&format!(
        "reader peak bytes-in-flight, event {} at scale {} ({} files): \
         whole-file {} B vs streaming {} B ({:.0}% lower)\n",
        rp.event,
        rp.scale,
        rp.files,
        rp.whole_bytes,
        rp.stream_bytes,
        rp.reduction() * 100.0
    ));
    out.push_str("simd backend (scalar vs blocked kernels, bitwise-identical output):\n");
    for k in &b.simd.kernels {
        out.push_str(&format!(
            "  {:<16} {:>8} elems  scalar {:>10.1} us  simd {:>10.1} us  ({:.2}x)\n",
            k.kernel,
            k.elements,
            k.scalar_s * 1e6,
            k.simd_s * 1e6,
            k.speedup()
        ));
    }
    out.push_str(&format!(
        "  batch: scalar {:.3}s vs simd {:.3}s — measured saving {:+.1}% \
         (what-if curves predicted {:+.1}%)\n",
        b.simd.batch_scalar_s,
        b.simd.batch_simd_s,
        b.simd.measured_saving() * 100.0,
        b.simd.predicted_saving * 100.0
    ));
    out
}

/// Emits the batch experiment as JSON (hand-rolled; the workspace vendors
/// no JSON serializer).
pub fn batch_json(b: &BatchExperiment) -> String {
    let dag = b.dag_report.dag.as_ref();
    let makespans = dag.map(|d| d.event_makespans.as_slice()).unwrap_or(&[]);
    let mut events = String::new();
    for (i, r) in b.loop_report.events.iter().enumerate() {
        if i > 0 {
            events.push_str(",\n");
        }
        events.push_str(&format!(
            "    {{\"label\": {}, \"v1_files\": {}, \"data_points\": {}, \"loop_s\": {:.6}, \"alone_makespan_s\": {:.6}}}",
            arp_trace::json::escape(&r.event),
            r.v1_files,
            r.data_points,
            r.total.as_secs_f64(),
            makespans.get(i).map_or(0.0, |d| d.as_secs_f64()),
        ));
    }
    let mut lanes = String::new();
    for (i, lane) in b.trace.lanes.iter().enumerate() {
        if i > 0 {
            lanes.push_str(",\n");
        }
        lanes.push_str(&format!(
            "    {{\"worker\": {}, \"spans\": {}, \"busy_s\": {:.6}, \"utilization\": {:.4}}}",
            arp_trace::json::escape(&lane.name),
            lane.spans,
            lane.busy.as_secs_f64(),
            lane.utilization,
        ));
    }
    let digest = |d: &Option<HistDigest>| d.as_ref().map_or("null".to_string(), HistDigest::json);
    let p = &b.profile;
    let s = |ns: u64| ns as f64 / 1e9;
    let cp: Vec<String> = p
        .kernels
        .iter()
        .filter(|k| k.cp_ns > 0)
        .map(|k| {
            format!(
                "      {{\"process\": {}, \"kernel\": {}, \"cp_s\": {:.6}, \"cp_share\": {:.4}}}",
                k.process,
                arp_trace::json::escape(&k.name),
                s(k.cp_ns),
                k.cp_share
            )
        })
        .collect();
    let what_if: Vec<String> = p
        .what_if
        .iter()
        .map(|c| {
            let points: Vec<String> = c
                .points
                .iter()
                .map(|pt| {
                    format!(
                        "{{\"speedup\": {}, \"predicted_s\": {:.6}, \"saving\": {:.4}}}",
                        pt.speedup,
                        s(pt.predicted_ns),
                        pt.saving
                    )
                })
                .collect();
            format!(
                "      {{\"process\": {}, \"kernel\": {}, \"points\": [{}]}}",
                c.process,
                arp_trace::json::escape(&c.name),
                points.join(", ")
            )
        })
        .collect();
    let profile = format!(
        "{{\n    \"self_total_s\": {:.6},\n    \"worker_busy_s\": {:.6},\n    \
         \"accounting_error\": {:.6},\n    \"cp_s\": {:.6},\n    \"replay_base_s\": {:.6},\n    \
         \"critical_path\": [\n{}\n    ],\n    \"what_if\": [\n{}\n    ]\n  }}",
        s(p.self_total_ns),
        s(p.worker_busy_ns),
        p.accounting_error(),
        s(p.cp_ns),
        s(p.replay_base_ns),
        cp.join(",\n"),
        what_if.join(",\n"),
    );
    format!(
        "{{\n  \"scale\": {},\n  \"threads\": {},\n  \"order\": {},\n  \"events\": [\n{}\n  ],\n  \
         \"per_event_loop_s\": {:.6},\n  \"super_dag_s\": {:.6},\n  \"measured_speedup\": {:.4},\n  \
         \"node_total_s\": {:.6},\n  \"sequential_baseline_s\": {:.6},\n  \"batch_makespan_s\": {:.6},\n  \
         \"cross_event_overlap_s\": {:.6},\n  \"overlap_speedup\": {:.4},\n  \"batch_speedup\": {:.4},\n  \
         \"trace_spans\": {},\n  \"mean_utilization\": {:.4},\n  \"queue_wait_us\": \
         {{\"mean\": {:.3}, \"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}},\n  \
         \"metrics\": {{\"queue_wait\": {}, \"execute\": {}}},\n  \
         \"diag_overhead\": {:.6},\n  \
         \"profile\": {},\n  \
         \"reader_peak\": {},\n  \
         \"simd\": {},\n  \
         \"workers\": [\n{}\n  ]\n}}\n",
        b.scale,
        dag.map_or(0, |d| d.threads),
        arp_trace::json::escape(dag.map_or("", |d| d.order.label())),
        events,
        b.loop_report.total.as_secs_f64(),
        b.dag_report.total.as_secs_f64(),
        b.measured_speedup(),
        dag.map_or(0.0, |d| d.node_total.as_secs_f64()),
        dag.map_or(0.0, |d| d.sequential_baseline().as_secs_f64()),
        dag.map_or(0.0, |d| d.batch_makespan.as_secs_f64()),
        dag.map_or(0.0, |d| d.cross_event_overlap().as_secs_f64()),
        dag.map_or(0.0, |d| d.overlap_speedup()),
        dag.map_or(0.0, |d| d.batch_speedup()),
        b.trace.spans,
        b.trace.mean_utilization(),
        b.trace.queue_wait_mean_us,
        b.trace.queue_wait_p50_us,
        b.trace.queue_wait_p90_us,
        b.trace.queue_wait_p99_us,
        b.trace.queue_wait_max_us,
        digest(&b.queue_wait),
        digest(&b.execute),
        b.diag_overhead,
        profile,
        b.reader_peak.json(),
        b.simd.json(),
        lanes,
    )
}

/// One metric compared by [`compare_batch_json`]. `regression` is signed
/// so that positive always means *worse* (slower makespan, lower
/// utilization, lower speedup), whatever the metric's polarity.
#[derive(Debug)]
pub struct CompareRow {
    /// JSON key the row was read from.
    pub metric: &'static str,
    /// Value in the baseline file.
    pub old: f64,
    /// Value in the candidate file.
    pub new: f64,
    /// Relative regression (positive = worse).
    pub regression: f64,
    /// Whether the regression exceeds the gate's tolerance.
    pub failed: bool,
}

/// Outcome of the bench regression gate (see [`compare_batch_json`]).
#[derive(Debug)]
pub struct CompareReport {
    /// Per-metric comparison rows.
    pub rows: Vec<CompareRow>,
    /// Tolerance the gate ran with (fraction, e.g. `0.10`).
    pub tolerance: f64,
    /// Whether absolute-seconds metrics were skipped.
    pub relative_only: bool,
}

impl CompareReport {
    /// True when any gated metric regressed beyond tolerance.
    pub fn failed(&self) -> bool {
        self.rows.iter().any(|r| r.failed)
    }

    /// Renders the comparison table with a PASS/FAIL verdict per row.
    pub fn render(&self) -> String {
        let mut out = format!(
            "bench regression gate (tolerance {:.0}%{}):\n{:<20} {:>12} {:>12} {:>9}  verdict\n",
            self.tolerance * 100.0,
            if self.relative_only {
                ", relative metrics only"
            } else {
                ""
            },
            "metric",
            "baseline",
            "candidate",
            "change"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<20} {:>12.4} {:>12.4} {:>+8.1}%  {}\n",
                r.metric,
                r.old,
                r.new,
                r.regression * 100.0,
                if r.failed { "FAIL" } else { "ok" }
            ));
        }
        out
    }
}

/// The bench regression gate: compares two `BENCH_batch.json` files
/// (baseline vs candidate) and fails any metric that regressed by more
/// than `tolerance`.
///
/// Gated metrics: `super_dag_s` (the batch makespan — lower is better),
/// `mean_utilization` and `measured_speedup` (higher is better).
/// `relative_only` keeps only the machine-stable one (utilization):
/// absolute seconds are machine-dependent, and the measured speedup swings
/// with host noise at small scales, so cross-machine gates (CI comparing
/// against a checked-in baseline) should not fail on either. Keys no gate
/// reads are ignored.
///
/// `diag_overhead` is gated against the *budget*, not the baseline: the
/// candidate's diagnostics cost must stay within ≤1% (plus the gate's
/// tolerance as noise headroom — bench-scale runs are jittery). The row
/// is skipped when the candidate predates the field, so older baselines
/// still compare. Relative by construction, so it survives
/// `relative_only`.
///
/// `profile.accounting_error` is likewise gated against an absolute bound
/// (Σ per-kernel self-time must equal Σ per-worker busy time to within
/// 0.1%): the profile fold is exact by construction, so any gap means the
/// attribution layer lost or double-counted work. Skipped when the
/// candidate predates the profile block.
///
/// An explicitly `null` digest under `"metrics"` (in either file) is an
/// error, not a silent pass: it means the instrumented scheduler-health
/// run recorded nothing, so the file cannot vouch for the scheduler at
/// all. Key and digest failures print the baseline and candidate values
/// side by side.
pub fn compare_batch_json(
    old: &str,
    new: &str,
    tolerance: f64,
    relative_only: bool,
) -> Result<CompareReport, String> {
    let old = arp_trace::json::parse(old).map_err(|e| format!("baseline: {e}"))?;
    let new = arp_trace::json::parse(new).map_err(|e| format!("candidate: {e}"))?;
    // Failure messages quote BOTH files' values side by side, so a broken
    // gate run names what each file actually holds instead of making the
    // operator diff two JSON documents by hand.
    let brief = |v: Option<&arp_trace::json::Value>| -> String {
        use arp_trace::json::Value;
        match v {
            None => "absent".into(),
            Some(Value::Null) => "null".into(),
            Some(Value::Bool(b)) => b.to_string(),
            Some(Value::Num(x)) => format!("{x}"),
            Some(Value::Str(s)) => format!("{s:?}"),
            Some(Value::Arr(_)) => "[…]".into(),
            Some(Value::Obj(_)) => "{…}".into(),
        }
    };
    let digest_of = |file: &arp_trace::json::Value, key: &str| -> String {
        brief(file.get("metrics").and_then(|m| m.get(key)))
    };
    for (which, file) in [("baseline", &old), ("candidate", &new)] {
        if let Some(metrics) = file.get("metrics") {
            for key in ["queue_wait", "execute"] {
                if metrics.get(key) == Some(&arp_trace::json::Value::Null) {
                    return Err(format!(
                        "{which}: metrics.{key} is null — the instrumented run recorded no \
                         samples (baseline: {}, candidate: {}); regenerate the file with \
                         `report -- batch`",
                        digest_of(&old, key),
                        digest_of(&new, key),
                    ));
                }
            }
        }
    }
    let pair = |key: &'static str| -> Result<(f64, f64), String> {
        let get = |v: &arp_trace::json::Value| v.get(key).and_then(|x| x.as_f64());
        match (get(&old), get(&new)) {
            (Some(o), Some(n)) => Ok((o, n)),
            _ => Err(format!(
                "missing numeric field {key:?} — baseline: {}, candidate: {}",
                brief(old.get(key)),
                brief(new.get(key)),
            )),
        }
    };
    // (key, lower_is_better, machine-dependent)
    const GATES: [(&str, bool, bool); 3] = [
        ("super_dag_s", true, true),
        ("mean_utilization", false, false),
        ("measured_speedup", false, true),
    ];
    let mut rows = Vec::new();
    for (metric, lower_is_better, machine_dependent) in GATES {
        if relative_only && machine_dependent {
            continue;
        }
        let (o, n) = pair(metric)?;
        let regression = if o.abs() < 1e-12 {
            0.0
        } else if lower_is_better {
            n / o - 1.0
        } else {
            1.0 - n / o
        };
        rows.push(CompareRow {
            metric,
            old: o,
            new: n,
            regression,
            failed: regression > tolerance,
        });
    }
    // The diagnostics gate is an absolute budget (≤1% + tolerance as
    // noise headroom), compared against the candidate only; skipped when
    // the candidate file predates the field.
    if let Some(n) = new.get("diag_overhead").and_then(|x| x.as_f64()) {
        let o = old
            .get("diag_overhead")
            .and_then(|x| x.as_f64())
            .unwrap_or(0.0);
        rows.push(CompareRow {
            metric: "diag_overhead",
            old: o,
            new: n,
            regression: n,
            failed: n > 0.01 + tolerance,
        });
    }
    // The accounting-identity gate: the candidate's profile must attribute
    // every recorded nanosecond — Σ per-kernel self-time ≡ Σ per-worker
    // busy time. The exclusive fold makes the identity exact by
    // construction, so the bound only absorbs the JSON fields' decimal
    // rounding; any real gap means the fold lost or double-counted work.
    // Absolute and machine-independent, so it survives `relative_only`;
    // skipped when the candidate predates the profile block.
    if let Some(n) = new
        .get("profile")
        .and_then(|p| p.get("accounting_error"))
        .and_then(|x| x.as_f64())
    {
        let o = old
            .get("profile")
            .and_then(|p| p.get("accounting_error"))
            .and_then(|x| x.as_f64())
            .unwrap_or(0.0);
        rows.push(CompareRow {
            metric: "accounting_error",
            old: o,
            new: n,
            regression: n,
            failed: n > 1e-3,
        });
    }
    // The SIMD gate holds the backend's headline: the best per-kernel
    // scalar-to-SIMD speedup. It fails when the candidate's SIMD kernels
    // stop beating scalar outright (best ≤ 1, an absolute sign-style
    // bound) or when the speedup collapses vs the baseline beyond
    // tolerance. A same-host throughput ratio, so it survives
    // `relative_only`; skipped when the candidate predates the block.
    if let Some(n) = new
        .get("simd")
        .and_then(|s| s.get("best_kernel_speedup"))
        .and_then(|x| x.as_f64())
    {
        let o = old
            .get("simd")
            .and_then(|s| s.get("best_kernel_speedup"))
            .and_then(|x| x.as_f64())
            .unwrap_or(n);
        let regression = if o.abs() < 1e-12 { 0.0 } else { 1.0 - n / o };
        rows.push(CompareRow {
            metric: "simd_best_speedup",
            old: o,
            new: n,
            regression,
            failed: n <= 1.0 || regression > tolerance,
        });
    }
    Ok(CompareReport {
        rows,
        tolerance,
        relative_only,
    })
}

/// Thread-count sweep: overall speedup of the fully parallelized pipeline
/// at each virtual processor count (the Amdahl curve the paper's Fig. 13
/// gestures at). The sequential baseline and every point are medians of
/// `reps` runs, taken in rounds: each round runs the baseline once and
/// every thread count once, so host drift reaches every point alike
/// instead of whichever point ran while the host was slow. Returns
/// `(threads, speedup)` pairs.
pub fn thread_sweep(
    event_index: usize,
    scale: f64,
    base_config: &PipelineConfig,
    thread_counts: &[usize],
    reps: usize,
) -> Result<Vec<(usize, f64)>, PipelineError> {
    use arp_core::config::TimingModel;
    let reps = reps.max(1);
    let label = PAPER_EVENT_SHAPES[event_index].0;
    let event = paper_event(event_index, scale);
    let input_dir = stage_event_inputs(&event, &format!("sweep-{label}"))?;

    let secs = |kind: ImplKind, threads: usize| -> Result<f64, PipelineError> {
        let mut config = base_config.clone();
        config.timing = TimingModel::Simulated { threads };
        Ok(run_once(&input_dir, &config, kind, label)?
            .total
            .as_secs_f64())
    };
    let mut base_samples = Vec::with_capacity(reps);
    let mut samples = vec![Vec::with_capacity(reps); thread_counts.len()];
    for _ in 0..reps {
        base_samples.push(secs(ImplKind::SequentialOriginal, 1)?);
        for (point, &threads) in samples.iter_mut().zip(thread_counts) {
            point.push(secs(ImplKind::FullyParallel, threads)?);
        }
    }
    let base_secs = median(&base_samples);
    let results = thread_counts
        .iter()
        .zip(&samples)
        .map(|(&threads, point)| (threads, base_secs / median(point).max(1e-12)))
        .collect();
    std::fs::remove_dir_all(&input_dir).map_err(|e| PipelineError::io(&input_dir, e))?;
    Ok(results)
}

/// Formats a thread sweep as CSV.
pub fn sweep_csv(rows: &[(usize, f64)]) -> String {
    let mut out = String::from("threads,speedup\n");
    for (t, s) in rows {
        out.push_str(&format!("{t},{s:.4}\n"));
    }
    out
}

/// Amdahl check: estimates the serial fraction from the Fig. 11 data and
/// returns `(serial share, predicted speedup)` for `threads` processors.
pub fn amdahl_prediction(f: &Fig11, threads: usize) -> (f64, f64) {
    let seq_total: f64 = f.sequential.iter().map(|s| s.elapsed.as_secs_f64()).sum();
    let par_total: f64 = f.parallel.iter().map(|s| s.elapsed.as_secs_f64()).sum();
    if seq_total <= 0.0 || threads <= 1 {
        return (1.0, 1.0);
    }
    let speedup = seq_total / par_total.max(1e-12);
    let p = threads as f64;
    // Solve Amdahl for the serial fraction s: speedup = 1 / (s + (1-s)/p).
    let s = ((1.0 / speedup) - 1.0 / p) / (1.0 - 1.0 / p);
    let s = s.clamp(0.0, 1.0);
    let predicted = 1.0 / (s + (1.0 - s) / p);
    (s, predicted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> PipelineConfig {
        PipelineConfig::fast()
    }

    #[test]
    fn run_event_all_impls_produces_five_reports() {
        let event = paper_event(0, 0.002);
        let run = run_event_all_impls(&event, &tiny_config(), "tiny").unwrap();
        assert_eq!(run.reports.len(), 5);
        assert_eq!(run.v1_files, 5);
        assert!(run.data_points > 0);
        assert!(run.speedup() > 0.0);
        assert!(run.dag_speedup() > 0.0);
        assert!(run.throughput() > 0.0);
        let text = format_table1(std::slice::from_ref(&run));
        assert!(text.contains("tiny"));
        assert!(text.contains("DAG.Par."));
        let csv = table1_csv(std::slice::from_ref(&run));
        assert!(csv.lines().count() == 2);
        assert!(csv.starts_with("event,") && csv.contains("dag_par_s"));
        let decomp = format_dag_decomposition(std::slice::from_ref(&run));
        assert!(decomp.contains("critical path"));
        assert!(decomp.contains("->"), "{decomp}");
    }

    #[test]
    fn fig11_produces_eleven_stage_rows() {
        let f = fig11(0, 0.002, &tiny_config()).unwrap();
        assert_eq!(f.sequential.len(), 11);
        assert_eq!(f.parallel.len(), 11);
        let rows = f.speedups();
        assert_eq!(rows.len(), 11);
        let frac: f64 = StageId::ALL.iter().map(|&s| f.sequential_fraction(s)).sum();
        assert!((frac - 1.0).abs() < 1e-9);
        let text = format_fig11(&f);
        assert!(text.contains("IX"));
    }

    #[test]
    fn figure_emitters_produce_svg() {
        let event = paper_event(0, 0.002);
        let run = run_event_all_impls(&event, &tiny_config(), "svg").unwrap();
        let rows = vec![run];
        assert!(fig12_svg(&rows).starts_with("<svg"));
        assert!(fig13_svg(&rows).starts_with("<svg"));
        assert!(fig13_csv(&rows).contains("data_points"));
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let rows: Vec<(usize, f64)> = (1..10)
            .map(|k| (k * 100, 0.5 + 0.002 * (k * 100) as f64))
            .collect();
        let (a, b, r2) = linear_fit(&rows);
        assert!((a - 0.5).abs() < 1e-9);
        assert!((b - 0.002).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
        // Degenerate inputs don't panic.
        assert_eq!(linear_fit(&[]), (0.0, 0.0, 0.0));
        assert_eq!(linear_fit(&[(5, 1.0)]), (0.0, 0.0, 0.0));
        let same_x = [(10usize, 1.0), (10usize, 3.0)];
        let (a, b, _) = linear_fit(&same_x);
        assert_eq!(b, 0.0);
        assert!((a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn batch_experiment_compares_schedules() {
        use arp_core::config::TimingModel;
        let mut config = tiny_config();
        config.timing = TimingModel::Simulated { threads: 8 };
        let b = batch_experiment(0.002, &config, 2).unwrap();
        assert_eq!(b.loop_report.events.len(), 2);
        assert_eq!(b.dag_report.events.len(), 2);
        let dag = b.dag_report.dag.as_ref().expect("super-DAG analysis");
        assert!(dag.cross_event_overlap() > Duration::ZERO);
        let text = format_batch_experiment(&b);
        assert!(text.contains("per-event loop total"), "{text}");
        assert!(text.contains("super-DAG"), "{text}");
        let json = batch_json(&b);
        assert!(json.contains("\"events\": ["), "{json}");
        assert!(json.contains("\"overlap_speedup\""), "{json}");
        assert!(json.contains("\"order\": \"critical-path\""), "{json}");
        // Two event rows, one per label.
        assert_eq!(json.matches("\"label\":").count(), 2);
        // The scheduler-health pass runs on the real pool even though the
        // requested config is simulated: worker rows name actual pool
        // threads with busy time bounded by the trace wall time, and the
        // live-metrics digests are populated, never null.
        assert!(
            b.trace.lanes.iter().any(|l| l.name.starts_with("arp-par-")),
            "no pool-thread lane in {:?}",
            b.trace.lanes.iter().map(|l| &l.name).collect::<Vec<_>>()
        );
        for lane in &b.trace.lanes {
            assert!(
                lane.utilization <= 1.0 + 1e-9,
                "worker {} busier than the wall: {}",
                lane.name,
                lane.utilization
            );
        }
        assert!(b.queue_wait.is_some(), "queue-wait digest missing");
        assert!(b.execute.is_some(), "execute digest missing");
        assert!(!json.contains(": null"), "null digest leaked: {json}");
        // The attribution profile rides on the same health trace: the
        // accounting identity holds, what-if curves are present, and the
        // JSON carries the critical-path composition + sensitivity keys.
        b.profile.validate(1e-3).unwrap();
        assert!(!b.profile.what_if.is_empty(), "no what-if curves");
        assert!(b.profile.cp_ns > 0);
        assert!(json.contains("\"profile\""), "{json}");
        assert!(json.contains("\"accounting_error\""), "{json}");
        assert!(json.contains("\"critical_path\""), "{json}");
        assert!(json.contains("\"what_if\""), "{json}");
        assert!(text.contains("critical-path composition"), "{text}");
        assert!(text.contains("what-if #"), "{text}");
        // The streaming readers must beat the whole-file path on residency:
        // the experiment floors its scale so files exceed the 64 KiB buffer.
        assert!(json.contains("\"reader_peak\""), "{json}");
        assert!(text.contains("reader peak bytes-in-flight"), "{text}");
        assert!(
            b.reader_peak.stream_bytes < b.reader_peak.whole_bytes,
            "streaming {} B not below whole-file {} B",
            b.reader_peak.stream_bytes,
            b.reader_peak.whole_bytes
        );
        assert!(b.reader_peak.reduction() > 0.0);
        // The SIMD block rides along: five kernel rows, batch times from
        // real (measured-timing) runs, and the JSON keys the compare gate
        // reads.
        assert_eq!(b.simd.kernels.len(), 5);
        for k in &b.simd.kernels {
            assert!(k.scalar_s > 0.0 && k.simd_s > 0.0, "{k:?}");
        }
        // `best_kernel_speedup > 1` is a release-build property (the blocked
        // kernels only vectorize under opt); here we pin structure, and the
        // CI simd-smoke gate pins the floor on the release binary.
        assert!(b.simd.best_kernel_speedup() > 0.0, "{:?}", b.simd);
        assert!(b.simd.batch_scalar_s > 0.0 && b.simd.batch_simd_s > 0.0);
        assert!(json.contains("\"simd\""), "{json}");
        assert!(json.contains("\"best_kernel_speedup\""), "{json}");
        assert!(json.contains("\"measured_saving\""), "{json}");
        assert!(json.contains("\"predicted_saving\""), "{json}");
        assert!(text.contains("simd backend"), "{text}");
    }

    #[test]
    fn what_if_interpolation_clamps_and_interpolates() {
        use arp_trace::profile::{WhatIfCurve, WhatIfPoint};
        let point = |speedup: f64, saving: f64| WhatIfPoint {
            speedup,
            predicted_ns: 0,
            saving,
            bottleneck: String::new(),
        };
        let curve = WhatIfCurve {
            process: 16,
            name: "respspec".into(),
            points: vec![point(1.5, 0.10), point(2.0, 0.15), point(4.0, 0.20)],
        };
        // Below 1× saves nothing; the curve starts implicitly at (1, 0).
        assert_eq!(interp_what_if_saving(&curve, 0.8), 0.0);
        assert_eq!(interp_what_if_saving(&curve, 1.0), 0.0);
        // Midway between (1, 0) and (1.5, 0.10).
        assert!((interp_what_if_saving(&curve, 1.25) - 0.05).abs() < 1e-12);
        // Exactly on and between points.
        assert!((interp_what_if_saving(&curve, 1.5) - 0.10).abs() < 1e-12);
        assert!((interp_what_if_saving(&curve, 3.0) - 0.175).abs() < 1e-12);
        // Beyond the last point the saving plateaus.
        assert!((interp_what_if_saving(&curve, 16.0) - 0.20).abs() < 1e-12);
    }

    #[test]
    fn compare_gate_simd_speedup() {
        let base = r#"{"super_dag_s": 10.0, "mean_utilization": 0.80, "measured_speedup": 2.0}"#;
        // A healthy SIMD block passes in both modes.
        let good = r#"{"super_dag_s": 10.0, "mean_utilization": 0.80, "measured_speedup": 2.0,
                       "simd": {"best_kernel_speedup": 2.4}}"#;
        for relative_only in [false, true] {
            let report = compare_batch_json(good, good, 0.10, relative_only).unwrap();
            assert!(!report.failed(), "{}", report.render());
            assert!(report.rows.iter().any(|r| r.metric == "simd_best_speedup"));
        }
        // SIMD no longer beating scalar fails at any tolerance.
        let lost = r#"{"super_dag_s": 10.0, "mean_utilization": 0.80, "measured_speedup": 2.0,
                       "simd": {"best_kernel_speedup": 0.9}}"#;
        let report = compare_batch_json(good, lost, 100.0, true).unwrap();
        assert!(report.failed(), "{}", report.render());
        // A collapse vs the baseline beyond tolerance fails even above 1×.
        let collapsed = r#"{"super_dag_s": 10.0, "mean_utilization": 0.80, "measured_speedup": 2.0,
                            "simd": {"best_kernel_speedup": 1.3}}"#;
        assert!(compare_batch_json(good, collapsed, 0.10, true)
            .unwrap()
            .failed());
        assert!(!compare_batch_json(good, collapsed, 0.60, true)
            .unwrap()
            .failed());
        // A candidate predating the block gates nothing.
        assert!(!compare_batch_json(good, base, 0.10, false)
            .unwrap()
            .failed());
    }

    #[test]
    fn compare_gate_passes_and_fails() {
        let old = r#"{"super_dag_s": 10.0, "mean_utilization": 0.80, "measured_speedup": 2.0}"#;
        // 5% slower, slightly better utilization: inside the 10% gate.
        let ok = r#"{"super_dag_s": 10.5, "mean_utilization": 0.82, "measured_speedup": 2.0}"#;
        let report = compare_batch_json(old, ok, 0.10, false).unwrap();
        assert!(!report.failed(), "{}", report.render());
        assert_eq!(report.rows.len(), 3);

        // 25% slower makespan: fails the absolute gate, passes relative-only.
        let slow = r#"{"super_dag_s": 12.5, "mean_utilization": 0.80, "measured_speedup": 2.0}"#;
        let report = compare_batch_json(old, slow, 0.10, false).unwrap();
        assert!(report.failed());
        assert!(report.render().contains("FAIL"));
        let report = compare_batch_json(old, slow, 0.10, true).unwrap();
        assert!(!report.failed(), "relative-only must skip super_dag_s");
        assert_eq!(report.rows.len(), 1);

        // Utilization collapse fails even relative-only.
        let bad = r#"{"super_dag_s": 10.0, "mean_utilization": 0.50, "measured_speedup": 2.0}"#;
        assert!(compare_batch_json(old, bad, 0.10, true).unwrap().failed());

        // Missing fields and malformed JSON are errors, not panics.
        assert!(compare_batch_json(old, "{}", 0.10, false).is_err());
        assert!(compare_batch_json("not json", ok, 0.10, false).is_err());
    }

    #[test]
    fn compare_gate_null_digests() {
        let old = r#"{"super_dag_s": 10.0, "mean_utilization": 0.80, "measured_speedup": 2.0}"#;
        // Explicit null digests are an error in either file: they mean the
        // instrumented run recorded nothing.
        let nulled = r#"{"super_dag_s": 10.0, "mean_utilization": 0.80, "measured_speedup": 2.0,
                         "metrics": {"queue_wait": null, "execute": {"count": 1}}}"#;
        let err = compare_batch_json(old, nulled, 0.10, false).unwrap_err();
        assert!(err.contains("queue_wait"), "{err}");
        assert!(err.contains("candidate"), "{err}");
        let err = compare_batch_json(nulled, old, 0.10, false).unwrap_err();
        assert!(err.contains("baseline"), "{err}");
        // Populated digests sail through.
        let healthy = r#"{"super_dag_s": 10.0, "mean_utilization": 0.80, "measured_speedup": 2.0,
                          "metrics": {"queue_wait": {"count": 5}, "execute": {"count": 5}}}"#;
        assert!(!compare_batch_json(healthy, healthy, 0.10, false)
            .unwrap()
            .failed());
    }

    #[test]
    fn compare_gate_accounting_identity_and_side_by_side() {
        let base = r#"{"super_dag_s": 10.0, "mean_utilization": 0.80, "measured_speedup": 2.0}"#;
        // A healthy identity passes; a broken one fails at any tolerance
        // (the bound is absolute, not relative to the baseline).
        let good = r#"{"super_dag_s": 10.0, "mean_utilization": 0.80, "measured_speedup": 2.0,
                       "profile": {"accounting_error": 0.0}}"#;
        assert!(!compare_batch_json(base, good, 0.10, false)
            .unwrap()
            .failed());
        let broken = r#"{"super_dag_s": 10.0, "mean_utilization": 0.80, "measured_speedup": 2.0,
                         "profile": {"accounting_error": 0.05}}"#;
        let report = compare_batch_json(base, broken, 100.0, true).unwrap();
        assert!(report.failed(), "{}", report.render());
        let row = report
            .rows
            .iter()
            .find(|r| r.metric == "accounting_error")
            .unwrap();
        assert!(row.failed);
        // A candidate predating the profile block gates nothing.
        assert!(!compare_batch_json(base, base, 0.10, false)
            .unwrap()
            .failed());

        // Missing-key failures quote both files' values side by side.
        let typed = r#"{"super_dag_s": true, "mean_utilization": 0.80, "measured_speedup": 2.0}"#;
        let err = compare_batch_json(base, typed, 0.10, false).unwrap_err();
        assert!(err.contains("baseline: 10"), "{err}");
        assert!(err.contains("candidate: true"), "{err}");
        let err = compare_batch_json(base, "{}", 0.10, false).unwrap_err();
        assert!(err.contains("candidate: absent"), "{err}");
        // Null-digest failures do too.
        let nulled = r#"{"super_dag_s": 10.0, "mean_utilization": 0.80, "measured_speedup": 2.0,
                         "metrics": {"queue_wait": null, "execute": {"count": 1}}}"#;
        let err = compare_batch_json(base, nulled, 0.10, false).unwrap_err();
        assert!(err.contains("baseline: absent"), "{err}");
        assert!(err.contains("candidate: null"), "{err}");
    }

    #[test]
    fn hist_digest_empty_is_none() {
        let empty = arp_metrics::HistogramSnapshot {
            counts: vec![0; arp_metrics::BUCKET_COUNT],
            count: 0,
            sum: 0,
            scale: 1e9,
        };
        assert!(HistDigest::from_snapshot(&empty).is_none());
    }

    #[test]
    fn sweep_csv_format() {
        let csv = sweep_csv(&[(1, 1.0), (8, 2.5)]);
        assert!(csv.starts_with("threads,speedup"));
        assert!(csv.contains("8,2.5000"));
    }

    #[test]
    fn amdahl_prediction_bounds() {
        let f = fig11(0, 0.002, &tiny_config()).unwrap();
        let (s, predicted) = amdahl_prediction(&f, 8);
        assert!((0.0..=1.0).contains(&s));
        assert!((1.0..=8.0).contains(&predicted));
    }
}

//! Timed runs: the workload's operation in a closed loop, one operation
//! in flight, every collector off, every operation's output checked.

use crate::check::{self, check_products};
use crate::inputs::{Fixture, Workload};
use crate::metrics::Metrics;
use crate::pipeline;
use crate::query::{brute_force, check_mix, mix, run_mix};
use crate::sys;
use arp_core::{discover_batch, measure_input_shape, PipelineConfig, RunContext};
use arp_formats::Query;
use arp_par::ThreadPool;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up repetitions timed before the first operation and again after
/// each one, so that `setup_s`, their median, samples the whole run.
const SETUP_REPS_PER_ROUND: usize = 9;
/// Operations every timed run makes, however long they take.
const MIN_OPS: u64 = 3;

/// A run's metrics and operation counts.
pub struct Outcome {
    /// The measured metrics.
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed their output check.
    pub failed: u64,
}

/// One timed operation.
struct Sample {
    wall: Duration,
    cpu: Duration,
    peak_rss_kb: u64,
    points: usize,
    records: usize,
}

/// Times the fixture's workload for `budget` of operation time.
pub fn run(fx: &Fixture, root: &Path, budget: Duration) -> Result<Outcome, String> {
    match fx.workload {
        Workload::ArchiveBatch | Workload::QuakeResponse => pipeline_loop(fx, root, budget),
        Workload::ProductQuery => query_loop(fx, root, budget),
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The directory `root/<name>/<index>` for one operation's outputs, after
/// the filesystem has written back all earlier work. Every operation gets
/// a directory of its own and nothing is deleted until the run ends:
/// deleting a product tree on ext4 slows file creation in the operations
/// that follow (on a 2-vCPU virtual machine, archive-batch operations grew
/// from 3.3 s to 4.5-5 s when each tree was deleted before the next one).
pub fn fresh_dir(root: &Path, name: &str, index: usize) -> Result<PathBuf, String> {
    sys::sync_filesystem(root)?;
    Ok(root.join(name).join(index.to_string()))
}

/// One repetition of the program's set-up before the first process runs:
/// pool start, batch discovery (archive) or context creation, and
/// `measure_input_shape` per event. Returns the pool, to be dropped after
/// the repetition's time is taken.
fn pipeline_setup(fx: &Fixture, scratch: &Path) -> Result<ThreadPool, String> {
    let global = ThreadPool::global();
    let pool = ThreadPool::with_io(global.threads(), global.io_threads());
    let items = match fx.workload {
        Workload::QuakeResponse => fx.items.clone(),
        _ => discover_batch(&fx.dir).map_err(|e| e.to_string())?,
    };
    for item in &items {
        let ctx = RunContext::new(
            &item.input_dir,
            scratch.join(&item.label),
            PipelineConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        measure_input_shape(&ctx).map_err(|e| e.to_string())?;
    }
    Ok(pool)
}

fn pipeline_loop(fx: &Fixture, root: &Path, budget: Duration) -> Result<Outcome, String> {
    let reference = root.join("ref");
    pipeline::reference(fx, &reference)?;
    let scratch = root.join("setup");
    let config = PipelineConfig::default();
    let setup = || pipeline_setup(fx, &scratch);
    let mut op_index = 0;
    timed_loop(budget, setup, || {
        op_index += 1;
        let work = fresh_dir(root, "run", op_index)?;
        sys::reset_peak_rss()?;
        let call = pipeline::call(fx, &work, &config)?;
        let sample = Sample {
            wall: call.wall,
            cpu: call.cpu,
            peak_rss_kb: sys::peak_rss_kb()?,
            points: fx.points,
            records: fx.records,
        };
        let passed = check::report("products", &check_products(&fx.items, &reference, &work)?);
        Ok((sample, passed))
    })
}

fn query_loop(fx: &Fixture, root: &Path, budget: Duration) -> Result<Outcome, String> {
    let products = root.join("products");
    pipeline::call(fx, &products, &PipelineConfig::default())?;
    let problems = check::verify_products(&fx.items, &products)?;
    if !problems.is_empty() {
        return Err(format!(
            "product tree fails verify_run: {}",
            problems.join("; ")
        ));
    }
    let dirs: Vec<PathBuf> = fx.items.iter().map(|i| products.join(&i.label)).collect();
    let mix = mix(&fx.specs[0].stations[0].code);
    let (expected, records_per_pass) = brute_force(&mix, &dirs)?;
    eprintln!(
        "mix: {} records per scan; hits per query: {}",
        records_per_pass,
        mix.iter()
            .zip(&expected)
            .map(|(q, hits)| format!("{} {}", q.name, hits.len()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let setup = || {
        dirs.iter()
            .map(|dir| Query::new(dir).candidate_files().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()
    };
    let mut op_index = 0;
    timed_loop(budget, setup, || {
        op_index += 1;
        let emit = fresh_dir(root, "emit", op_index)?;
        sys::reset_peak_rss()?;
        let cpu0 = sys::process_cpu();
        let t0 = Instant::now();
        let run = run_mix(&mix, &dirs, &emit)?;
        let wall = t0.elapsed();
        let sample = Sample {
            wall,
            cpu: sys::process_cpu() - cpu0,
            peak_rss_kb: sys::peak_rss_kb()?,
            points: run.points,
            records: records_per_pass * mix.len(),
        };
        let passed = check::report("query mix", &check_mix(&mix, &run, &expected));
        Ok((sample, passed))
    })
}

/// Times [`SETUP_REPS_PER_ROUND`] repetitions of `setup` into `times`.
/// What a repetition returns is dropped after its time is taken.
fn time_setup<T>(
    setup: &mut impl FnMut() -> Result<T, String>,
    times: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..SETUP_REPS_PER_ROUND {
        let t0 = Instant::now();
        let kept = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        drop(kept);
    }
    Ok(())
}

/// Runs `op` until `budget` of operation wall time is spent (at least
/// [`MIN_OPS`] times), timing set-up repetitions between operations, and
/// reduces the samples to the end-to-end metrics. An operation that
/// errors ends the loop.
fn timed_loop<T>(
    budget: Duration,
    mut setup: impl FnMut() -> Result<T, String>,
    mut op: impl FnMut() -> Result<(Sample, bool), String>,
) -> Result<Outcome, String> {
    let mut samples = Vec::new();
    let mut setup_times = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut spent = Duration::ZERO;
    time_setup(&mut setup, &mut setup_times)?;
    while attempted < MIN_OPS || spent < budget {
        attempted += 1;
        match op() {
            Ok((sample, passed)) => {
                spent += sample.wall;
                failed += u64::from(!passed);
                samples.push(sample);
                time_setup(&mut setup, &mut setup_times)?;
            }
            Err(e) => {
                eprintln!("operation {attempted} failed: {e}");
                failed += 1;
                break;
            }
        }
    }
    let mut metrics = Metrics::default();
    if !samples.is_empty() {
        let per_op =
            |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        metrics.set(
            "points_per_s",
            per_op(&|s| s.points as f64 / s.wall.as_secs_f64()),
        );
        metrics.set("event_latency_s", per_op(&|s| s.wall.as_secs_f64()));
        metrics.set(
            "records_per_s",
            per_op(&|s| s.records as f64 / s.wall.as_secs_f64()),
        );
        metrics.set("cpu_s", per_op(&|s| s.cpu.as_secs_f64()));
        metrics.set("setup_s", median(&setup_times));
        metrics.set(
            "peak_rss_mb",
            per_op(&|s| s.peak_rss_kb as f64 * 1024.0 / 1e6),
        );
    }
    eprintln!(
        "timed: {} operation(s), {:.3} s measured; wall per op: {}",
        samples.len(),
        spent.as_secs_f64(),
        samples
            .iter()
            .map(|s| format!("{:.3}", s.wall.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    Ok(Outcome {
        metrics,
        attempted,
        failed,
    })
}

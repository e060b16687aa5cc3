//! Wall-clock benchmark of the arp pipeline.
//!
//! ```text
//! perfbench --workload archive-batch|quake-response|product-query
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's inputs from the seed, then either times the
//! workload's operation in a closed loop for `S` seconds of operation time
//! with every collector off (`--trace 0`, end-to-end metrics) or runs the
//! traced passes that build the per-layer ledger (`--trace 1`). Every
//! output is checked. The last line printed is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! nonzero when any check failed. Work files live under `.bench_work/` in
//! the current directory and are removed at exit. See README.md.

mod check;
mod inputs;
mod ledger;
mod metrics;
mod pipeline;
mod query;
mod sys;
mod timed;

use inputs::{Fixture, Workload};
use metrics::{result_line, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Removes the run's work directory on every exit path, and has the
/// filesystem finish the deletion before the process exits.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let removed = check::remove_dir(&self.0).and_then(|()| {
            sys::sync_filesystem(self.0.parent().expect("work directory has a parent"))
        });
        if let Err(e) = removed {
            eprintln!("perfbench: cannot remove {}: {e}", self.0.display());
        }
    }
}

/// Runs the benchmark; returns the result line and whether every check
/// passed.
fn run(args: &Args) -> Result<(String, bool), String> {
    let started = std::time::Instant::now();
    let w = args.workload;
    let base = Path::new(".bench_work");
    let root = base.join(format!(
        "{}-seed{}-{}",
        w.name(),
        args.seed,
        std::process::id()
    ));
    check::remove_dir(&root)?;
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let _cleanup = WorkDir(root.clone());

    let fx = Fixture::generate(w, args.seed, 1.0, &root.join("in"))?;
    let pool = arp_par::ThreadPool::global();
    println!(
        "env: workload={} seed={} available_parallelism={} pool_threads={} pool_io_threads={} \
         dsp_backend={} work_fs={} commit={}",
        w.name(),
        args.seed,
        sys::available_parallelism(),
        pool.threads(),
        pool.io_threads(),
        arp_core::PipelineConfig::default().dsp_backend.resolve(),
        sys::filesystem_type(&root),
        sys::commit()
    );
    println!(
        "inputs: seed={} events={} stations={} samples={} digest={:016x}",
        args.seed,
        fx.items.len(),
        fx.records / 3,
        fx.points,
        fx.digest
    );

    let (outcome, catalogue) = if args.trace {
        let spans = base
            .join("spans")
            .join(format!("{}-seed{}.jsonl", w.name(), args.seed));
        let outcome = ledger::run(&fx, &root, &spans)?;
        println!("spans: {}", spans.display());
        (outcome, PER_LAYER)
    } else {
        let budget = Duration::from_secs(args.seconds);
        (timed::run(&fx, &root, budget)?, END_TO_END)
    };
    print!("{}", outcome.metrics.table(catalogue));
    eprintln!("run: {:.1} s in all", started.elapsed().as_secs_f64());
    let correct = outcome.failed == 0;
    let json = outcome.metrics.to_json(catalogue)?;
    Ok((
        result_line(correct, outcome.attempted, outcome.failed, &json),
        correct,
    ))
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

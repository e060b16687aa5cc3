//! `report` — regenerates the paper's tables and figures.
//!
//! ```text
//! report <command> [--scale X] [--full] [--duhamel] [--out DIR] [--event N]
//!
//! commands:
//!   table1   Table I  — per-event times of all five implementations
//!            (the paper's four plus the DAG scheduler) and the DAG
//!            schedule decomposition
//!   fig11    Fig. 11  — per-stage seq vs full-par times (largest event)
//!   fig12    Fig. 12  — grouped bars per event (SVG + CSV)
//!   fig13    Fig. 13  — speedup & throughput vs problem size (SVG + CSV)
//!   amdahl   Amdahl check — measured vs predicted speedup
//!   sweep    speedup vs virtual processor count (1..16)
//!   scaling  execution time vs data points (linearity check, §VII-C)
//!   batch    six-event cross-event super-DAG vs per-event DAG loop
//!            (writes BENCH_batch.json, including measured per-worker
//!            utilization, queue-wait percentiles from the span trace,
//!            and the diagnostics-ring overhead ratio)
//!   trace-overhead
//!            instrumentation cost check: the six-event super-DAG batch run
//!            uninstrumented vs traced vs live-metrics vs diagnostics-armed,
//!            best of --reps each (budget: ≤1% per collector)
//!   compare OLD.json NEW.json
//!            bench regression gate: diff two BENCH_batch.json files and
//!            exit nonzero when the candidate regressed beyond --tolerance
//!            (also enforces the ≤1% diagnostics budget on the candidate's
//!            diag_overhead when the field is present)
//!   all      run everything
//!
//! options:
//!   --scale X    data-point scale relative to the paper (default 0.05)
//!   --full       paper-size run (scale 1.0) — takes a long time
//!   --duhamel    use the legacy O(D²)-per-period response-spectrum kernel
//!   --out DIR    where CSV/SVG artifacts go (default ./report-out)
//!   --event N    event index for fig11/amdahl (default 5, the largest)
//!   --threads P  virtual processors for the simulated schedule (default 8,
//!                the paper's testbed core count)
//!   --measured   use real wall-clock parallel timing instead of the
//!                simulated schedule (only meaningful on multi-core hosts)
//!   --reps N     repetitions per measurement, median kept (default 1)
//!   --tolerance N
//!                compare: allowed regression percent (default 10)
//!   --relative-only
//!                compare: gate only machine-stable metrics (utilization),
//!                skipping absolute seconds and noise-prone speedups
//! ```

use arp_bench as bench;
use arp_core::config::TimingModel;
use arp_core::PipelineConfig;
use arp_dsp::respspec::ResponseMethod;
use std::path::PathBuf;

struct Options {
    command: String,
    scale: f64,
    duhamel: bool,
    out: PathBuf,
    event: usize,
    threads: usize,
    measured: bool,
    reps: usize,
    /// Positional file arguments (the two BENCH_*.json paths of `compare`).
    files: Vec<PathBuf>,
    tolerance: f64,
    relative_only: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command; try `report all`")?;
    let mut opts = Options {
        command,
        scale: 0.05,
        duhamel: false,
        out: PathBuf::from("report-out"),
        event: 5,
        threads: 8,
        measured: false,
        reps: 1,
        files: Vec::new(),
        tolerance: 0.10,
        relative_only: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                opts.scale = v.parse().map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--full" => opts.scale = 1.0,
            "--duhamel" => opts.duhamel = true,
            "--out" => {
                opts.out = PathBuf::from(args.next().ok_or("--out needs a value")?);
            }
            "--event" => {
                let v = args.next().ok_or("--event needs a value")?;
                opts.event = v.parse().map_err(|e| format!("bad --event: {e}"))?;
                if opts.event > 5 {
                    return Err("--event must be 0..=5".into());
                }
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                opts.threads = v.parse().map_err(|e| format!("bad --threads: {e}"))?;
                if opts.threads == 0 {
                    return Err("--threads must be >= 1".into());
                }
            }
            "--measured" => opts.measured = true,
            "--reps" => {
                let v = args.next().ok_or("--reps needs a value")?;
                opts.reps = v.parse().map_err(|e| format!("bad --reps: {e}"))?;
                if opts.reps == 0 {
                    return Err("--reps must be >= 1".into());
                }
            }
            "--tolerance" => {
                let v = args.next().ok_or("--tolerance needs a value")?;
                let pct: f64 = v.parse().map_err(|e| format!("bad --tolerance: {e}"))?;
                if !(0.0..=100.0).contains(&pct) {
                    return Err("--tolerance must be a percent in 0..=100".into());
                }
                opts.tolerance = pct / 100.0;
            }
            "--relative-only" => opts.relative_only = true,
            other if !other.starts_with("--") => opts.files.push(PathBuf::from(other)),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if opts.scale <= 0.0 {
        return Err("--scale must be positive".into());
    }
    Ok(opts)
}

fn config_for(opts: &Options) -> PipelineConfig {
    let mut config = PipelineConfig::default();
    if opts.duhamel {
        config.response_method = ResponseMethod::Duhamel;
    }
    config.timing = if opts.measured {
        TimingModel::Measured
    } else {
        TimingModel::Simulated {
            threads: opts.threads,
        }
    };
    config
}

fn save(out_dir: &PathBuf, name: &str, contents: &str) {
    std::fs::create_dir_all(out_dir).expect("create output dir");
    let path = out_dir.join(name);
    std::fs::write(&path, contents).expect("write artifact");
    println!("  wrote {}", path.display());
}

fn run_table_experiments(opts: &Options, config: &PipelineConfig) -> Vec<bench::EventRun> {
    eprintln!(
        "running Table I experiment at scale {} ({} kernel, {})...",
        opts.scale,
        if opts.duhamel {
            "Duhamel"
        } else {
            "Nigam-Jennings"
        },
        if opts.measured {
            "measured wall-clock".to_string()
        } else {
            format!("simulated {}-thread schedule", opts.threads)
        }
    );
    bench::warmup(config).expect("warmup failed");
    bench::table1_reps(opts.scale, config, opts.reps).expect("table1 run failed")
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: report <table1|fig11|fig12|fig13|amdahl|scaling|sweep|batch|trace-overhead|compare|all> [--scale X] [--full] [--duhamel] [--out DIR] [--event N]");
            std::process::exit(2);
        }
    };
    let config = config_for(&opts);

    let needs_table = matches!(opts.command.as_str(), "table1" | "fig12" | "fig13" | "all");
    let rows = if needs_table {
        Some(run_table_experiments(&opts, &config))
    } else {
        None
    };

    match opts.command.as_str() {
        "table1" => {
            let rows = rows.as_ref().unwrap();
            println!("\nTABLE I (reproduced, scale {}):\n", opts.scale);
            print!("{}", bench::format_table1(rows));
            println!();
            print!("{}", bench::format_dag_decomposition(rows));
            save(&opts.out, "table1.csv", &bench::table1_csv(rows));
        }
        "fig11" => {
            bench::warmup(&config).expect("warmup failed");
            let f = bench::fig11_reps(opts.event, opts.scale, &config, opts.reps)
                .expect("fig11 run failed");
            println!("\nFIG. 11 (reproduced, scale {}):\n", opts.scale);
            print!("{}", bench::format_fig11(&f));
            println!(
                "\nstage IX sequential share: {:.1}% (paper: 57.2%)",
                100.0 * f.sequential_fraction(arp_core::StageId::IX)
            );
        }
        "fig12" => {
            let rows = rows.as_ref().unwrap();
            save(&opts.out, "fig12.svg", &bench::fig12_svg(rows));
            save(&opts.out, "fig12.csv", &bench::table1_csv(rows));
        }
        "fig13" => {
            let rows = rows.as_ref().unwrap();
            println!("\nFIG. 13 (reproduced):\n\n{}", bench::fig13_csv(rows));
            save(&opts.out, "fig13.svg", &bench::fig13_svg(rows));
            save(&opts.out, "fig13.csv", &bench::fig13_csv(rows));
        }
        "amdahl" => {
            bench::warmup(&config).expect("warmup failed");
            let f = bench::fig11_reps(opts.event, opts.scale, &config, opts.reps)
                .expect("fig11 run failed");
            let threads = if opts.measured {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            } else {
                opts.threads
            };
            let (serial, predicted) = bench::amdahl_prediction(&f, threads);
            let seq: f64 = f.sequential.iter().map(|s| s.elapsed.as_secs_f64()).sum();
            let par: f64 = f.parallel.iter().map(|s| s.elapsed.as_secs_f64()).sum();
            println!("Amdahl check ({threads} threads):");
            println!("  measured stage-sum speedup: {:.2}x", seq / par.max(1e-12));
            println!("  implied serial fraction:    {:.1}%", serial * 100.0);
            println!("  Amdahl-predicted speedup:   {predicted:.2}x");
        }
        "scaling" => {
            bench::warmup(&config).expect("warmup failed");
            let scales = [0.01, 0.02, 0.04, 0.08, 0.16];
            let rows = bench::scaling_experiment(
                opts.event,
                &scales,
                &config,
                arp_core::ImplKind::FullyParallel,
            )
            .expect("scaling run failed");
            println!("\nExecution time vs data points (event {}):\n", opts.event);
            println!("{:<12} {:>10}", "points", "time (s)");
            for (p, t) in &rows {
                println!("{p:<12} {t:>10.4}");
            }
            let (a, b, r2) = bench::linear_fit(&rows);
            println!(
                "\nlinear fit: time = {a:.4} + {:.3e}·points   (R² = {r2:.4})",
                b
            );
            println!("paper claim (§VII-C): execution time is linear in data points.");
        }
        "sweep" => {
            bench::warmup(&config).expect("warmup failed");
            let counts = [1usize, 2, 4, 8, 12, 16];
            let rows = bench::thread_sweep(opts.event, opts.scale, &config, &counts, opts.reps)
                .expect("sweep failed");
            println!("\nSpeedup vs virtual processors (event {}):\n", opts.event);
            println!("{:<10} {:>8}", "threads", "speedup");
            for (t, s) in &rows {
                println!("{t:<10} {s:>7.2}x");
            }
            save(&opts.out, "sweep.csv", &bench::sweep_csv(&rows));
        }
        "batch" => {
            bench::warmup(&config).expect("warmup failed");
            eprintln!(
                "running batch experiment at scale {} ({})...",
                opts.scale,
                if opts.measured {
                    "measured wall-clock".to_string()
                } else {
                    format!("simulated {}-thread schedule", opts.threads)
                }
            );
            let b = bench::batch_experiment(opts.scale, &config, 6).expect("batch run failed");
            println!();
            print!("{}", bench::format_batch_experiment(&b));
            save(&opts.out, "BENCH_batch.json", &bench::batch_json(&b));
        }
        "trace-overhead" => {
            bench::warmup(&config).expect("warmup failed");
            eprintln!(
                "measuring instrumentation overhead at scale {} ({} reps per mode)...",
                opts.scale, opts.reps
            );
            let t = bench::trace_overhead_experiment(opts.scale, &config, opts.reps)
                .expect("overhead run failed");
            println!();
            print!("{}", bench::format_trace_overhead(&t));
        }
        "compare" => {
            if opts.files.len() != 2 {
                eprintln!(
                    "usage: report compare OLD.json NEW.json [--tolerance PCT] [--relative-only]"
                );
                std::process::exit(2);
            }
            let read = |p: &PathBuf| {
                std::fs::read_to_string(p).unwrap_or_else(|e| {
                    eprintln!("error: {}: {e}", p.display());
                    std::process::exit(2);
                })
            };
            let old = read(&opts.files[0]);
            let new = read(&opts.files[1]);
            let report = bench::compare_batch_json(&old, &new, opts.tolerance, opts.relative_only)
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                });
            print!("{}", report.render());
            if report.failed() {
                eprintln!("regression gate FAILED");
                std::process::exit(1);
            }
            println!("regression gate passed");
        }
        "all" => {
            let rows = rows.as_ref().unwrap();
            println!("\nTABLE I (reproduced, scale {}):\n", opts.scale);
            print!("{}", bench::format_table1(rows));
            println!();
            print!("{}", bench::format_dag_decomposition(rows));
            save(&opts.out, "table1.csv", &bench::table1_csv(rows));
            save(&opts.out, "fig12.svg", &bench::fig12_svg(rows));
            save(&opts.out, "fig13.svg", &bench::fig13_svg(rows));
            save(&opts.out, "fig13.csv", &bench::fig13_csv(rows));
            let f = bench::fig11_reps(opts.event, opts.scale, &config, opts.reps)
                .expect("fig11 run failed");
            println!("\nFIG. 11 (reproduced):\n");
            print!("{}", bench::format_fig11(&f));
            println!(
                "\nstage IX sequential share: {:.1}% (paper: 57.2%)",
                100.0 * f.sequential_fraction(arp_core::StageId::IX)
            );
        }
        other => {
            eprintln!("unknown command {other:?}");
            std::process::exit(2);
        }
    }
}

//! `arp` — command-line front end to the pipeline.
//!
//! ```text
//! arp generate --out DIR [--event N] [--scale X]    synthesize V1 inputs
//! arp run --in DIR --work DIR [--impl NAME]         run the pipeline
//! arp verify --in DIR --work DIR                    verify a completed run
//! arp inspect --work DIR --station CODE             summarize one station
//! arp query --dir DIR [filters] [--format F]        filtered record scan
//! ```
//!
//! `--impl` is one of `seq-original`, `seq-optimized`, `partial`, `full`,
//! `dag` (default `full`). `arp run --stats on` additionally prints the
//! worker-pool counters the run produced (and, for `--impl dag`, the
//! schedule analysis: critical path and barrier vs. DAG makespans).
//!
//! `arp batch --root DIR --work DIR [--impl NAME] [--order cp|fifo]`
//! processes every event directory under `--root`. For `batch`,
//! `--impl dag` selects the cross-event super-DAG scheduler: all events'
//! dependency graphs are unioned and submitted to the worker pool in one
//! call, so small events fill the idle tails of big ones. `--order` picks
//! the ready-queue ordering (`cp` critical-path priority, the default, or
//! `fifo` submission order).
//!
//! Both `run` and `batch` accept `--dsp-backend auto|scalar|simd`: the
//! kernel implementation the DSP layer uses (FIR convolution and the
//! response-spectrum recurrence; the FFT runs one form under both). `auto`
//! (the default) resolves to the blocked `simd` kernels; `scalar` forces the
//! reference loops. Both backends are bitwise-identical — the flag trades
//! speed, never results — and the chosen backend is recorded in the run
//! report.
//!
//! Both `run` and `batch` accept trace sinks: `--trace out.json` writes a
//! Chrome Trace Event file (load it in Perfetto or `chrome://tracing`),
//! `--trace-svg out.svg` a per-worker Gantt, `--trace-csv out.csv` a flat
//! span table. Any of them also prints the per-worker utilization and
//! queue-wait summary. `arp trace-check --file out.json` validates a trace
//! file against the Chrome Trace Event schema — spans *and* counter tracks
//! (the CI smoke job runs it).
//!
//! Profiling: `arp profile --input trace.json` folds a recorded batch
//! trace into per-kernel self-time and critical-path-share tables, plus
//! Coz-style what-if speedup curves (each kernel's recorded durations are
//! scaled and replayed through the deterministic scheduling simulator).
//! `--root DIR --work DIR` instead runs a fresh instrumented dag batch.
//! `--json`, `--folded`, and `--svg` export the profile JSON, collapsed
//! folded stacks (`flamegraph.pl`-compatible), and a flame/icicle SVG;
//! `arp profile --check profile.json` validates an export, including the
//! accounting identity (Σ kernel self-time ≡ Σ worker busy time).
//!
//! Live metrics: `--metrics-addr 127.0.0.1:9102` on `run`/`batch` enables
//! collection and serves Prometheus text exposition at `/metrics` (plus
//! `/healthz` and the live `/statusz` pipeline view: per-event super-DAG
//! progress, per-worker running node / lane / steal counts, pool totals)
//! from a background thread; `127.0.0.1:0` picks a free port and the
//! resolved address is printed. `--metrics-hold SECS` keeps the endpoint
//! alive after the workload so scrapers can catch short runs.
//! `arp metrics` prints the full catalog snapshot; `--fetch ADDR` scrapes
//! a running endpoint and `--check FILE` validates a saved exposition.
//!
//! Diagnostics: `--log-level trace|debug|info|warn|error|off` sets the
//! console log level (default `warn`; structured records go to stderr).
//! `--diag on` (or `--diag-dir DIR`, which implies it) on `run`/`batch`
//! arms the **flight recorder**: ring-buffered structured logging plus a
//! panic/failure hook, so a worker panic or batch abort freezes a
//! `postmortem-<run-id>/` bundle (log tail as JSONL, metrics snapshot,
//! trace tail, per-worker state, live super-DAG frontier) under the diag
//! dir. `arp postmortem BUNDLE` renders a bundle as a human-readable
//! incident report; `arp diag-check --file LOG.jsonl | --bundle DIR`
//! validates diagnostics artifacts (CI runs it on forced-failure bundles).
//!
//! Each command reads a fixed set of flags (`flags_read`); any other
//! flag is refused before the command starts, so a typo or a retired flag
//! never runs silently with the default.

use arp_core::{
    event_summary, run_pipeline_labeled, summary_csv, verify_run, ImplKind, PipelineConfig,
    ReadyOrder, RunContext,
};
use arp_formats::iter::RecordKind;
use arp_formats::query::Query;
use arp_formats::{names, Component, Filter, MaxValues, RFile, RecordEncoder, V2File};
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {arg:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn impl_kind(name: &str) -> Result<ImplKind, String> {
    match name {
        "seq-original" => Ok(ImplKind::SequentialOriginal),
        "seq-optimized" => Ok(ImplKind::SequentialOptimized),
        "partial" => Ok(ImplKind::PartiallyParallel),
        "full" => Ok(ImplKind::FullyParallel),
        "dag" => Ok(ImplKind::DagParallel),
        other => Err(format!(
            "unknown implementation {other:?} (use seq-original|seq-optimized|partial|full|dag)"
        )),
    }
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = PathBuf::from(flags.get("out").ok_or("generate needs --out DIR")?);
    let event_index: usize = flags.get("event").map_or(Ok(0), |v| {
        v.parse().map_err(|e| format!("bad --event: {e}"))
    })?;
    if event_index > 5 {
        return Err("--event must be 0..=5".into());
    }
    let scale: f64 = flags.get("scale").map_or(Ok(0.05), |v| {
        v.parse().map_err(|e| format!("bad --scale: {e}"))
    })?;
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let event = arp_synth::paper_event(event_index, scale);
    let files = arp_synth::write_event_inputs(&event, &out).map_err(|e| e.to_string())?;
    println!(
        "generated event {} ({} stations, {} data points) into {}",
        event.id,
        files.len(),
        event.total_data_points(),
        out.display()
    );
    Ok(())
}

/// Builds the pipeline configuration a command runs with, applying
/// `--dsp-backend auto|scalar|simd` (default `auto`).
fn pipeline_config(flags: &HashMap<String, String>) -> Result<PipelineConfig, String> {
    let mut config = PipelineConfig::default();
    if let Some(raw) = flags.get("dsp-backend") {
        config.dsp_backend = raw.parse::<arp_dsp::DspBackend>()?;
    }
    Ok(config)
}

fn make_context(flags: &HashMap<String, String>) -> Result<RunContext, String> {
    let input = flags.get("in").ok_or("needs --in DIR")?;
    let work = flags.get("work").ok_or("needs --work DIR")?;
    RunContext::new(input, work, pipeline_config(flags)?).map_err(|e| e.to_string())
}

/// Forces every layer's metric catalog into the registry, so snapshots
/// list all instruments rather than only the ones a code path touched.
fn register_all_metrics() {
    arp_par::metrics::register();
    arp_core::metrics::register();
}

/// Handles `--metrics-addr ADDR` (and its companion `--metrics-hold SECS`):
/// enables metrics collection, registers the full catalog, and starts the
/// background `/metrics` + `/healthz` endpoint. Returns how long to keep
/// the process alive after the workload so scrapers can still reach the
/// endpoint (`127.0.0.1:0` picks a free port; the resolved address is
/// printed for scripts to grep).
fn start_metrics(flags: &HashMap<String, String>) -> Result<Option<std::time::Duration>, String> {
    let Some(addr) = flags.get("metrics-addr") else {
        if flags.contains_key("metrics-hold") {
            return Err("--metrics-hold needs --metrics-addr".into());
        }
        return Ok(None);
    };
    let hold: u64 = flags.get("metrics-hold").map_or(Ok(0), |v| {
        v.parse().map_err(|e| format!("bad --metrics-hold: {e}"))
    })?;
    arp_metrics::set_enabled(true);
    register_all_metrics();
    // The `/statusz` view needs the per-worker registry live.
    arp_diag::workers::set_tracking(true);
    arp_metrics::http::set_statusz_provider(Box::new(statusz_body));
    let local =
        arp_metrics::http::serve(addr).map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
    println!("metrics: serving http://{local}/metrics");
    Ok(Some(std::time::Duration::from_secs(hold)))
}

/// Assembles the live `/statusz` body: the in-flight batch's per-event
/// DAG frontier (`null` between batches), every worker's current node /
/// steal count with the longest-running in-flight nodes, the pool's
/// cumulative counters, and each worker deque's live depth.
fn statusz_body() -> String {
    let frontier = arp_core::frontier_json().unwrap_or_else(|| "null".to_string());
    let workers = arp_diag::workers::to_json(8);
    let pool = arp_par::ThreadPool::global();
    let s = pool.stats();
    let deques: Vec<String> = pool
        .deque_depths()
        .into_iter()
        .map(|(worker, depth, _)| format!("{{\"worker\":\"{worker}\",\"depth\":{depth}}}"))
        .collect();
    format!(
        "{{\n\"frontier\": {frontier},\n\"workers\": {workers},\n\"pool\": {{\"jobs_on_workers\":{},\"jobs_helped\":{},\"steal_attempts\":{},\"steals\":{},\"panics_caught\":{}}},\n\"deques\": [{}]\n}}\n",
        s.jobs_on_workers,
        s.jobs_helped,
        s.steal_attempts,
        s.steals_compute,
        s.panics_caught,
        deques.join(",")
    )
}

/// Handles `--log-level`, `--diag on|off`, and `--diag-dir DIR`: sets the
/// console log level, and — when diagnostics are on — arms the flight
/// recorder (ring logging + worker tracking + the panic hook) with the
/// bundle sources this binary can capture. Returns whether the recorder
/// was armed, so the workload's error path can write an abort bundle.
fn start_diag(flags: &HashMap<String, String>) -> Result<bool, String> {
    if let Some(level) = flags.get("log-level") {
        if level == "off" {
            arp_diag::set_console_level(None);
        } else {
            let parsed = arp_diag::Level::parse(level).ok_or_else(|| {
                format!("bad --log-level {level:?} (use trace|debug|info|warn|error|off)")
            })?;
            arp_diag::set_console_level(Some(parsed));
        }
    }
    let on = match flags.get("diag").map(|s| s.as_str()) {
        Some("on") => true,
        Some("off") => false,
        None => flags.contains_key("diag-dir"),
        Some(other) => return Err(format!("bad --diag {other:?} (use on|off)")),
    };
    if !on {
        return Ok(false);
    }
    let dir = flags
        .get("diag-dir")
        .or_else(|| flags.get("work"))
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    // Everything this process can freeze into a bundle: the Prometheus
    // snapshot, the active trace session's tail (absent when untraced),
    // and the live super-DAG frontier (absent between batches).
    arp_diag::recorder::add_source("metrics.prom", || Some(arp_metrics::gather()));
    arp_diag::recorder::add_source("trace.csv", || arp_trace::snapshot().map(|t| t.to_csv()));
    arp_diag::recorder::add_source("frontier.json", arp_core::frontier_json);
    let run_id = format!(
        "{}-{}",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        std::process::id()
    );
    arp_diag::recorder::arm(&run_id, &dir);
    println!(
        "diag: flight recorder armed (run {run_id}, bundles under {})",
        dir.display()
    );
    Ok(true)
}

/// After the workload: keep the metrics endpoint reachable for `--metrics-hold`.
fn hold_metrics(hold: Option<std::time::Duration>) {
    if let Some(hold) = hold.filter(|h| !h.is_zero()) {
        println!("metrics: holding endpoint open for {hold:?}");
        std::thread::sleep(hold);
    }
}

/// The trace sinks a command was asked for (`--trace`, `--trace-svg`,
/// `--trace-csv`). When any is present the workload runs inside a
/// [`arp_trace::TraceSession`] and the drained trace is written to each
/// requested file.
struct TraceSinks {
    chrome: Option<PathBuf>,
    svg: Option<PathBuf>,
    csv: Option<PathBuf>,
}

impl TraceSinks {
    fn from_flags(flags: &HashMap<String, String>) -> TraceSinks {
        TraceSinks {
            chrome: flags.get("trace").map(PathBuf::from),
            svg: flags.get("trace-svg").map(PathBuf::from),
            csv: flags.get("trace-csv").map(PathBuf::from),
        }
    }

    /// Starts a session iff any sink was requested.
    fn session(&self) -> Option<arp_trace::TraceSession> {
        (self.chrome.is_some() || self.svg.is_some() || self.csv.is_some())
            .then(arp_trace::TraceSession::start)
    }

    /// Writes every requested sink and prints the scheduler-health summary.
    fn write(&self, trace: &arp_trace::Trace) -> Result<(), String> {
        let save = |path: &PathBuf, content: String| -> Result<(), String> {
            std::fs::write(path, content).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("wrote {}", path.display());
            Ok(())
        };
        if let Some(path) = &self.chrome {
            save(path, trace.to_chrome_json())?;
        }
        if let Some(path) = &self.svg {
            save(path, arp_core::worker_timeline_svg(trace))?;
        }
        if let Some(path) = &self.csv {
            save(path, trace.to_csv())?;
        }
        print!("{}", trace.summary().render());
        if !trace.lane_violations().is_empty() {
            arp_diag::warn(|| "trace has overlapping spans within a lane".to_string());
        }
        Ok(())
    }
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    let kind = impl_kind(flags.get("impl").map_or("full", |s| s.as_str()))?;
    let ctx = make_context(flags)?;
    let diag = start_diag(flags)?;
    let hold = start_metrics(flags)?;
    let sinks = TraceSinks::from_flags(flags);
    let session = sinks.session();
    let result = run_pipeline_labeled(&ctx, kind, "cli");
    if diag {
        if let Err(e) = &result {
            // A panic already wrote its bundle from the hook; this covers
            // ordinary failures (and is a no-op after a hook capture).
            arp_diag::recorder::write_postmortem(&format!("run failed: {e}"));
        }
    }
    let trace = session.map(|s| s.finish());
    let report = result.map_err(|e| e.to_string())?;
    println!(
        "{}: {} V1 files, {} data points, {:?} ({:.0} points/s, dsp {})",
        report.implementation.label(),
        report.v1_files,
        report.data_points,
        report.total,
        report.throughput(),
        report.dsp_backend
    );
    for stage in &report.stages {
        println!("  stage {:<5} {:?}", stage.stage.label(), stage.elapsed);
    }
    if let Some(dag) = &report.dag {
        let path: Vec<String> = dag
            .critical_path
            .iter()
            .map(|p| format!("#{}", p.0))
            .collect();
        println!(
            "  critical path {} ({:?} floor on {} threads)",
            path.join(" -> "),
            dag.critical_path_len,
            dag.threads
        );
        println!(
            "  makespan {:?} dag vs {:?} barrier plan (barriers cost {:?}; stage parallelism saves {:?})",
            dag.dag_makespan,
            dag.barrier_makespan,
            dag.barrier_saving(),
            dag.stage_saving()
        );
    }
    if flags.get("stats").is_some_and(|v| v != "off") {
        match &report.pool {
            Some(pool) => {
                println!(
                    "  pool: {} dispatched, {} helped by caller, {} loops, {} dag dispatches (ready peak {}), {} dags",
                    pool.jobs_on_workers,
                    pool.jobs_helped,
                    pool.loops_completed,
                    pool.dag_dispatches,
                    pool.dag_ready_peak,
                    pool.dags_completed
                );
                println!(
                    "  stealing: {} attempts, {} stolen",
                    pool.steal_attempts, pool.steals_compute
                );
            }
            None => println!("  pool: not used by this run"),
        }
    }
    if let Some(trace) = &trace {
        sinks.write(trace)?;
    }
    if diag {
        arp_diag::recorder::disarm();
    }
    hold_metrics(hold);
    Ok(())
}

fn cmd_verify(flags: &HashMap<String, String>) -> Result<(), String> {
    let ctx = make_context(flags)?;
    let issues = verify_run(&ctx).map_err(|e| e.to_string())?;
    if issues.is_empty() {
        let stations = ctx.stations().map_err(|e| e.to_string())?;
        println!(
            "verified: complete run for {} stations ({} artifacts)",
            stations.len(),
            arp_core::expected_artifacts(&stations).len()
        );
        Ok(())
    } else {
        for issue in &issues {
            eprintln!("{issue}");
        }
        Err(format!("{} issue(s) found", issues.len()))
    }
}

fn cmd_inspect(flags: &HashMap<String, String>) -> Result<(), String> {
    let work = PathBuf::from(flags.get("work").ok_or("inspect needs --work DIR")?);
    let station = flags.get("station").ok_or("inspect needs --station CODE")?;

    println!("station {station}:");
    for comp in Component::ALL {
        let v2 = V2File::read(&work.join(names::v2_component(station, comp)))
            .map_err(|e| e.to_string())?;
        println!(
            "  {} {:>6} samples @ {:>5.0} sps | band {:.3}-{:.1} Hz | PGA {:8.3} cm/s2 PGV {:7.4} cm/s PGD {:7.4} cm",
            comp.code(),
            v2.data.len(),
            1.0 / v2.header.dt,
            v2.band.fpl,
            v2.band.fph,
            v2.peaks.pga,
            v2.peaks.pgv,
            v2.peaks.pgd
        );
        let r = RFile::read(&work.join(names::r_component(station, comp)))
            .map_err(|e| e.to_string())?;
        if let Some(spec) = r.at_damping(0.05) {
            let (idx, peak) = spec
                .sa
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, v)| (i, *v))
                .unwrap_or((0, 0.0));
            println!(
                "     SA(5%) peak {:8.2} cm/s2 at T = {:.2} s",
                peak, spec.periods[idx]
            );
        }
    }
    if let Ok(mv) = MaxValues::read(&work.join(MaxValues::FILE_NAME)) {
        let n = mv.entries.iter().filter(|e| &e.station == station).count();
        println!("  max-values entries for this station: {n}");
    }
    Ok(())
}

fn cmd_batch(flags: &HashMap<String, String>) -> Result<(), String> {
    let root = PathBuf::from(flags.get("root").ok_or("batch needs --root DIR")?);
    let work = PathBuf::from(flags.get("work").ok_or("batch needs --work DIR")?);
    // For whole batches, `dag` means the cross-event super-DAG scheduler,
    // not a per-event DAG loop.
    let kind = match impl_kind(flags.get("impl").map_or("full", |s| s.as_str()))? {
        ImplKind::DagParallel => ImplKind::BatchDag,
        other => other,
    };
    let order = match flags.get("order").map(|s| s.as_str()) {
        None | Some("cp") => ReadyOrder::CriticalPath,
        Some("fifo") => ReadyOrder::Submission,
        Some(other) => return Err(format!("unknown --order {other:?} (use cp|fifo)")),
    };
    let items = arp_core::discover_batch(&root).map_err(|e| e.to_string())?;
    if items.is_empty() {
        return Err(format!(
            "no event directories with .v1 files under {}",
            root.display()
        ));
    }
    println!("processing {} events...", items.len());
    let config = pipeline_config(flags)?;
    let diag = start_diag(flags)?;
    let hold = start_metrics(flags)?;
    let sinks = TraceSinks::from_flags(flags);
    let session = sinks.session();
    let result = if kind == ImplKind::BatchDag {
        arp_core::run_batch_dag(&items, &work, &config, order)
    } else {
        arp_core::run_batch(&items, &work, &config, kind)
    };
    if diag {
        if let Err(e) = &result {
            // A panic already wrote its bundle from the hook; this covers
            // ordinary failures (and is a no-op after a hook capture).
            arp_diag::recorder::write_postmortem(&format!("batch failed: {e}"));
        }
    }
    let trace = session.map(|s| s.finish());
    let report = result.map_err(|e| e.to_string())?;
    print!("{}", report.to_table());
    if let Some(trace) = &trace {
        sinks.write(trace)?;
    }
    if diag {
        arp_diag::recorder::disarm();
    }
    hold_metrics(hold);
    Ok(())
}

/// `arp profile` — critical-path attribution with what-if speedup curves.
///
/// ```text
/// arp profile --input TRACE.json [--threads N]
/// arp profile --root DIR --work DIR [--threads N]
/// arp profile --check PROFILE.json [--tolerance X]
/// ```
///
/// The first form folds a recorded `--trace` file (Chrome Trace Event
/// format) into the attribution profile; the second runs a fresh
/// instrumented super-DAG batch and profiles it; the third validates an
/// exported profile JSON (internal consistency plus the self-time ≡
/// worker-busy accounting identity within `--tolerance`, default 1%).
/// `--top K` picks how many kernels get what-if curves; `--json`,
/// `--folded`, and `--svg` write the profile JSON, collapsed folded
/// stacks, and the flame (icicle) SVG.
fn cmd_profile(flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(path) = flags.get("check") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let profile =
            arp_trace::profile::Profile::parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
        let tolerance: f64 = flags.get("tolerance").map_or(Ok(0.01), |v| {
            v.parse().map_err(|e| format!("bad --tolerance: {e}"))
        })?;
        profile
            .validate(tolerance)
            .map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: valid profile — {} kernel(s) over {} event(s), {} what-if curve(s), \
             accounting error {:.4}%",
            profile.kernels.len(),
            profile.events.len(),
            profile.what_if.len(),
            profile.accounting_error() * 100.0
        );
        return Ok(());
    }
    let top_k: usize = flags.get("top").map_or(Ok(arp_core::WHAT_IF_TOP_K), |v| {
        v.parse().map_err(|e| format!("bad --top: {e}"))
    })?;
    let flag_usize = |key: &str| -> Result<Option<usize>, String> {
        flags
            .get(key)
            .map(|v| v.parse().map_err(|e| format!("bad --{key}: {e}")))
            .transpose()
    };
    let (trace, threads) = if let Some(path) = flags.get("input") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let trace = arp_trace::from_chrome_json(&text).map_err(|e| format!("{path}: {e}"))?;
        // Replay width: the flag wins; otherwise the pool workers the trace
        // recorded (`arp-par-*`; the helping caller is not one of them).
        let workers = trace
            .lanes
            .iter()
            .filter(|l| l.starts_with("arp-par-"))
            .count();
        let threads = flag_usize("threads")?.unwrap_or(workers.max(1));
        (trace, threads)
    } else {
        let root = flags.get("root").ok_or(
            "profile needs --input TRACE.json, --check PROFILE.json, or --root DIR --work DIR",
        )?;
        let work = PathBuf::from(flags.get("work").ok_or("profile --root needs --work DIR")?);
        let items = arp_core::discover_batch(&PathBuf::from(root)).map_err(|e| e.to_string())?;
        if items.is_empty() {
            return Err(format!("no event directories with .v1 files under {root}"));
        }
        println!(
            "profiling a fresh dag batch over {} event(s)...",
            items.len()
        );
        let session = arp_trace::TraceSession::start();
        let result = arp_core::run_batch_dag(
            &items,
            &work,
            &PipelineConfig::default(),
            ReadyOrder::CriticalPath,
        );
        let trace = session.finish();
        result.map_err(|e| e.to_string())?;
        let threads =
            flag_usize("threads")?.unwrap_or_else(|| arp_par::ThreadPool::global().threads());
        (trace, threads)
    };
    let profile =
        arp_core::profile_trace_what_if(&trace, threads, top_k, &arp_core::WHAT_IF_SPEEDUPS)
            .map_err(|e| e.to_string())?;
    let save = |path: &String, content: String| -> Result<(), String> {
        std::fs::write(path, content).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
        Ok(())
    };
    if let Some(path) = flags.get("json") {
        save(path, profile.to_json())?;
    }
    if let Some(path) = flags.get("folded") {
        save(path, profile.folded())?;
    }
    if let Some(path) = flags.get("svg") {
        let flame = arp_plot::FlameGraph::from_folded(&profile.folded())?;
        let title = format!(
            "arp profile — {} event(s), wall {:.1} ms",
            profile.events.len(),
            profile.wall_ns as f64 / 1e6
        );
        save(path, flame.to_svg(1000.0, &title))?;
    }
    print!("{}", profile.render());
    Ok(())
}

/// `arp diag-check` — validates diagnostics artifacts. `--file LOG.jsonl`
/// strictly parses a structured-log export (every line a record, strictly
/// increasing sequence numbers); `--bundle DIR` validates a postmortem
/// bundle (required files present, log parses, frontier well-formed).
fn cmd_diag_check(flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(path) = flags.get("file") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let n = arp_diag::validate_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: valid diagnostics log — {n} record(s)");
        return Ok(());
    }
    if let Some(dir) = flags.get("bundle") {
        let summary = arp_diag::recorder::check_bundle(std::path::Path::new(dir))?;
        println!("{summary}");
        return Ok(());
    }
    Err("diag-check needs --file LOG.jsonl or --bundle DIR".into())
}

/// `arp postmortem BUNDLE` — renders a flight-recorder bundle as a
/// human-readable incident report: the failure reason, the failing node
/// and its event/worker, that worker's last log records, the slowest
/// in-flight nodes, and per-event progress at capture time.
fn cmd_postmortem(flags: &HashMap<String, String>, positional: Option<&str>) -> Result<(), String> {
    let dir = positional
        .map(str::to_string)
        .or_else(|| flags.get("bundle").cloned())
        .ok_or("postmortem needs a bundle directory (arp postmortem DIR)")?;
    let report = arp_diag::recorder::render_report(std::path::Path::new(&dir))?;
    print!("{report}");
    Ok(())
}

/// Validates a Chrome-trace file written by `--trace` against the Trace
/// Event schema and reports what it contains.
fn cmd_trace_check(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = PathBuf::from(flags.get("file").ok_or("trace-check needs --file FILE")?);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let check =
        arp_trace::validate_chrome_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if check.complete == 0 {
        return Err(format!("{}: no complete (X) span events", path.display()));
    }
    let trace =
        arp_trace::from_chrome_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let violations = trace.lane_violations();
    if !violations.is_empty() {
        return Err(format!(
            "{}: spans overlap within a lane:\n  {}",
            path.display(),
            violations.join("\n  ")
        ));
    }
    println!(
        "{}: valid Chrome trace — {} events ({} spans) on {} worker lanes, {} counter samples on {} tracks",
        path.display(),
        check.events,
        check.complete,
        check.lanes,
        check.counter_events,
        check.counter_tracks
    );
    Ok(())
}

/// `arp metrics` — Prometheus text-exposition tooling. With no flags,
/// prints a snapshot of this process's full metric catalog (all zeros in a
/// fresh process; the naming and format are the point). `--check FILE`
/// strictly parses a scraped exposition file, `--fetch ADDR` scrapes a
/// running `--metrics-addr` endpoint over plain TCP and validates the body
/// — so CI needs no external HTTP client. `--path /statusz` redirects the
/// fetch to another route on the same endpoint (printed raw, no exposition
/// check, since `/statusz` serves JSON).
fn cmd_metrics(flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(path) = flags.get("check") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let samples =
            arp_metrics::expo::parse_exposition(&text).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: valid Prometheus exposition — {} samples",
            samples.len()
        );
        return Ok(());
    }
    if let Some(addr) = flags.get("fetch") {
        let path = flags.get("path").map_or("/metrics", String::as_str);
        let body = fetch_http(addr, path)?;
        if path != "/metrics" {
            // /statusz and friends serve JSON, not Prometheus exposition.
            print!("{body}");
            return Ok(());
        }
        let samples =
            arp_metrics::expo::parse_exposition(&body).map_err(|e| format!("{addr}: {e}"))?;
        print!("{body}");
        eprintln!(
            "{addr}: valid Prometheus exposition — {} samples",
            samples.len()
        );
        return Ok(());
    }
    register_all_metrics();
    print!("{}", arp_metrics::gather());
    Ok(())
}

/// Minimal HTTP/1.1 GET against a `--metrics-addr` endpoint.
fn fetch_http(addr: &str, path: &str) -> Result<String, String> {
    use std::io::{Read, Write};
    let err = |e: std::io::Error| format!("{addr}: {e}");
    let mut stream = std::net::TcpStream::connect(addr).map_err(err)?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .map_err(err)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(err)?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(err)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200 ") {
        return Err(format!("{addr}: {status}"));
    }
    Ok(body.to_string())
}

/// Builds the filter list for `arp query` from its flags.
fn query_filters(flags: &HashMap<String, String>) -> Result<Vec<Filter>, String> {
    let mut filters = Vec::new();
    if let Some(kind) = flags.get("kind") {
        filters.push(Filter::Kind(
            RecordKind::from_short_name(kind).map_err(|e| e.to_string())?,
        ));
    }
    if let Some(event) = flags.get("event") {
        filters.push(Filter::Event(event.clone()));
    }
    if let Some(station) = flags.get("station") {
        filters.push(Filter::Station(station.clone()));
    }
    if let Some(comp) = flags.get("component") {
        let comp = match comp.chars().collect::<Vec<_>>().as_slice() {
            [c] => Component::from_code(*c),
            _ => Component::from_name(comp),
        }
        .map_err(|e| e.to_string())?;
        filters.push(Filter::Component(comp));
    }
    let bound = |key: &str| -> Result<Option<f64>, String> {
        flags
            .get(key)
            .map(|v| v.parse().map_err(|e| format!("bad --{key}: {e}")))
            .transpose()
    };
    let (min_pga, max_pga) = (bound("min-pga")?, bound("max-pga")?);
    if min_pga.is_some() || max_pga.is_some() {
        filters.push(Filter::pga_range(min_pga, max_pga));
    }
    let (period_min, period_max) = (bound("period-min")?, bound("period-max")?);
    if period_min.is_some() || period_max.is_some() {
        filters.push(Filter::period_band(period_min, period_max));
    }
    Ok(filters)
}

/// `arp query` — filtered streaming scan over a work directory's products.
///
/// ```text
/// arp query --dir WORK [--kind v1s|v1c|v2|f|r] [--event ID] [--station CODE]
///           [--component l|t|v] [--min-pga X] [--max-pga X]
///           [--period-min X] [--period-max X]
///           [--format table|csv|paths] [--emit DIR]
/// ```
///
/// Records stream through the filters one at a time — non-matching record
/// bodies are skipped without parsing, so querying a large work directory
/// never loads whole files. Every other file is parsed ahead on a second
/// thread; rows still come in file order. `--emit DIR` re-encodes every
/// match into `DIR` under its canonical file name (byte-identical to the
/// source records). A closed stdout (`| head`) ends the scan with exit 0.
fn cmd_query(flags: &HashMap<String, String>) -> Result<(), String> {
    let dir = PathBuf::from(flags.get("dir").ok_or("query needs --dir DIR")?);
    let format = flags.get("format").map_or("table", |s| s.as_str());
    if !matches!(format, "table" | "csv" | "paths") {
        return Err(format!("unknown --format {format:?} (use table|csv|paths)"));
    }
    let emit = flags.get("emit").map(PathBuf::from);
    let filters = query_filters(flags)?;
    let iter = Query::new(&dir)
        .filters(filters)
        .run()
        .map_err(|e| e.to_string())?;

    // A reader that closes the pipe (`arp query ... | head`) ends the scan
    // quietly: returning drops the iterator, which stops its reader thread.
    let listening = |written: std::io::Result<()>| match written {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(format!("writing to stdout: {e}")),
    };
    let mut out = std::io::stdout().lock();
    if format == "csv"
        && !listening(writeln!(
            out,
            "kind,station,event,component,points,pga,file"
        ))?
    {
        return Ok(());
    }
    let mut matches = 0usize;
    let mut errors = 0usize;
    for item in iter {
        let hit = match item {
            Ok(hit) => hit,
            Err(e) => {
                errors += 1;
                arp_diag::warn(|| e.to_string());
                continue;
            }
        };
        matches += 1;
        let rec = &hit.record;
        let comp = rec.component().map_or("-".into(), |c| c.code().to_string());
        let pga = rec.pga().map_or("-".into(), |v| format!("{v:.3}"));
        let row = match format {
            "paths" => writeln!(out, "{}", hit.path.display()),
            "csv" => writeln!(
                out,
                "{},{},{},{},{},{},{}",
                rec.kind().short_name(),
                rec.station(),
                rec.event_id(),
                comp,
                rec.data_points(),
                pga,
                hit.path.display()
            ),
            _ => writeln!(
                out,
                "{:<4} {:<6} {:<10} {:<2} {:>8} {:>10}  {}",
                rec.kind().short_name(),
                rec.station(),
                rec.event_id(),
                comp,
                rec.data_points(),
                pga,
                hit.path.display()
            ),
        };
        if !listening(row)? {
            return Ok(());
        }
        if let Some(emit_dir) = &emit {
            let mut enc = RecordEncoder::create(&emit_dir.join(rec.file_name()))
                .map_err(|e| e.to_string())?;
            enc.write_record(rec).map_err(|e| e.to_string())?;
            enc.finish().map_err(|e| e.to_string())?;
        }
    }
    eprintln!(
        "query: {matches} record(s) matched{}",
        if errors > 0 {
            format!(", {errors} file(s) skipped with errors")
        } else {
            String::new()
        }
    );
    if let Some(emit_dir) = &emit {
        eprintln!("query: re-encoded matches into {}", emit_dir.display());
    }
    if matches == 0 && errors > 0 {
        return Err("no records matched and some files failed to parse".into());
    }
    Ok(())
}

fn cmd_summary(flags: &HashMap<String, String>) -> Result<(), String> {
    let ctx = make_context(flags)?;
    let rows = event_summary(&ctx).map_err(|e| e.to_string())?;
    let csv = summary_csv(&rows);
    match flags.get("csv") {
        Some(path) => {
            std::fs::write(path, &csv).map_err(|e| e.to_string())?;
            println!("wrote {} rows to {path}", rows.len());
        }
        None => print!("{csv}"),
    }
    Ok(())
}

/// The flags `arp <command>` reads, or `None` for an unknown command.
/// `run` and `batch` also read the trace, metrics and diagnostics flags.
fn flags_read(command: &str) -> Option<Vec<&'static str>> {
    const WATCH: [&str; 8] = [
        "trace",
        "trace-svg",
        "trace-csv",
        "metrics-addr",
        "metrics-hold",
        "log-level",
        "diag",
        "diag-dir",
    ];
    let own: &[&str] = match command {
        "generate" => &["out", "event", "scale"],
        "run" => &["in", "work", "dsp-backend", "impl", "stats"],
        "verify" => &["in", "work", "dsp-backend"],
        "inspect" => &["work", "station"],
        "query" => &[
            "dir",
            "format",
            "emit",
            "kind",
            "event",
            "station",
            "component",
            "min-pga",
            "max-pga",
            "period-min",
            "period-max",
        ],
        "summary" => &["in", "work", "dsp-backend", "csv"],
        "batch" => &["root", "work", "dsp-backend", "impl", "order"],
        "profile" => &[
            "check",
            "tolerance",
            "top",
            "input",
            "threads",
            "root",
            "work",
            "json",
            "folded",
            "svg",
        ],
        "trace-check" => &["file"],
        "metrics" => &["check", "fetch", "path"],
        "diag-check" => &["file", "bundle"],
        "postmortem" => &["bundle"],
        _ => return None,
    };
    let mut read = own.to_vec();
    if matches!(command, "run" | "batch") {
        read.extend(WATCH);
    }
    Some(read)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!(
            "usage: arp <generate|run|verify|inspect|query|summary|batch|profile|trace-check|metrics|diag-check|postmortem> [--flags]"
        );
        return ExitCode::from(2);
    };
    // `arp postmortem <bundle>` takes its bundle directory positionally.
    let positional = (command == "postmortem" && args.get(1).is_some_and(|a| !a.starts_with("--")))
        .then(|| args[1].clone());
    let flag_args = if positional.is_some() {
        &args[2..]
    } else {
        &args[1..]
    };
    let flags = match parse_flags(flag_args) {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(read) = flags_read(command) {
        if let Some(flag) = flags.keys().filter(|k| !read.contains(&k.as_str())).min() {
            eprintln!(
                "error: arp {command} has no flag --{flag} (it reads --{})",
                read.join(", --")
            );
            return ExitCode::from(2);
        }
    }
    let result = match command.as_str() {
        "generate" => cmd_generate(&flags),
        "run" => cmd_run(&flags),
        "verify" => cmd_verify(&flags),
        "inspect" => cmd_inspect(&flags),
        "query" => cmd_query(&flags),
        "summary" => cmd_summary(&flags),
        "batch" => cmd_batch(&flags),
        "profile" => cmd_profile(&flags),
        "trace-check" => cmd_trace_check(&flags),
        "metrics" => cmd_metrics(&flags),
        "diag-check" => cmd_diag_check(&flags),
        "postmortem" => cmd_postmortem(&flags, positional.as_deref()),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

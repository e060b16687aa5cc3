//! The traced run and its per-layer ledger.
//!
//! The benchmark calls each layer's public functions one at a time and
//! records a span around every call (spans stay in memory and are written
//! out when the run ends):
//!
//! 1. process pass: each event's 17 processes in `ProcessDag::optimized()`
//!    order through `arp_core::process::*`, sequential and direct, then the
//!    staged entry points of #4, #7 and #13 on the same inputs;
//! 2. kernel pass: each component through the DSP calls of #4, #7, #10,
//!    #13 and #16;
//! 3. format pass: every product file read and re-encoded by kind, and the
//!    query mix run through `RecordReader::with_filters`;
//! 4. schedule numbers from the spans, the pool counters, the untimed
//!    `seq-optimized` runs and one simulated-mode run, plus the trace-on
//!    and diag-on A-B-A brackets of the workload's operation.

use crate::check::{self, check_products};
use crate::inputs::{tree_files, Fixture, Workload};
use crate::metrics::Metrics;
use crate::pipeline::{self, Call};
use crate::query::{brute_force, check_mix, mix, product_files, run_mix};
use crate::sys;
use crate::timed::{fresh_dir, median, Outcome};
use arp_core::process::filter::CorrectionPass;
use arp_core::process::{
    analyze, filter, filterinit, flags, fourier, gather, gemgen, metainit, plots, respspec,
    separate,
};
use arp_core::{PipelineConfig, ProcessDag, ProcessId, ProcessKind, RunContext, PROCESS_TABLE};
use arp_dsp::baseline::{remove_baseline, Baseline};
use arp_dsp::fir::{BandPass, FirFilter};
use arp_dsp::inflection::find_filter_corners;
use arp_dsp::peaks::peak_values;
use arp_dsp::respspec::response_spectrum_with;
use arp_dsp::spectrum::fourier_spectrum_with;
use arp_dsp::window::cosine_taper;
use arp_formats::iter::read_records;
use arp_formats::{names, Component, MotionTriple, RecordEncoder, RecordReader, V1ComponentFile};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Layer names spans carry.
pub const LAYER_PROCESS: &str = "arp-core::process";
/// The staged (temp-folder) entry points of #4, #7 and #13.
pub const LAYER_STAGEDIR: &str = "arp-core::stagedir";
/// DSP kernels.
pub const LAYER_DSP: &str = "arp-dsp";
/// Record parse and encode.
pub const LAYER_FORMATS: &str = "arp-formats";
/// Filtered record scans.
pub const LAYER_QUERY: &str = "arp-formats::query";
/// Grouping spans of the benchmark itself (event, component).
pub const LAYER_BENCH: &str = "bench";

/// Largest `|bench.span_overhead_ratio|` at which the process pass still
/// accounts for the untraced sequential run. Single sequential runs of a
/// few seconds vary by up to about 15% on a shared host.
pub const LEDGER_BOUND: f64 = 0.3;

/// Taper fraction of the correction kernel of #4 and #13.
const TAPER_FRACTION: f64 = 0.05;

/// Files the staging protocol copies in and moves back per station:
/// #4 and #13 copy three V1 components and the filter parameters and move
/// back three V2 files; #7 copies three V2 files and moves back three F
/// files.
const STAGED_FILES_PER_STATION: u64 = 7 + 6 + 7;

/// Event, station and component a span belongs to (empty when none).
#[derive(Debug, Clone, Default)]
pub struct Ids {
    event: String,
    station: String,
    component: String,
}

impl Ids {
    fn event(event: &str) -> Ids {
        Ids {
            event: event.to_string(),
            ..Ids::default()
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    name: String,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    ids: Ids,
    /// Work the call did, in the unit its metric divides by (samples,
    /// sample-periods, bytes); 0 when none applies.
    work: u64,
}

impl Span {
    fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// In-memory span recorder.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        ids: &Ids,
        work: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            ids: ids.clone(),
            work,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.now();
        let out = f(self);
        self.spans[index].end_ns = self.now();
        self.open.pop();
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans of `layer` whose name is `name` (any name when `None`).
    fn of<'a>(&'a self, layer: &'a str, name: Option<&'a str>) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && name.is_none_or(|n| s.name == n))
    }

    /// Total duration, total work and count of the matching spans.
    fn total(&self, layer: &str, name: Option<&str>) -> (Duration, u64, u64) {
        self.of(layer, name)
            .fold((Duration::ZERO, 0, 0), |(d, w, c), s| {
                (d + s.duration(), w + s.work, c + 1)
            })
    }

    /// Mean duration in `unit` seconds per unit of work of the matching
    /// spans (per call when `per_call`).
    fn rate(&self, layer: &str, name: &str, unit: f64, per_call: bool) -> f64 {
        let (d, work, calls) = self.total(layer, Some(name));
        d.as_secs_f64() / unit / if per_call { calls } else { work } as f64
    }

    /// Bytes per second (in MB/s) of the matching spans, whose work is bytes.
    fn mb_per_s(&self, layer: &str, name: &str) -> f64 {
        let (d, bytes, _) = self.total(layer, Some(name));
        bytes as f64 / 1e6 / d.as_secs_f64()
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self, workload: &str, seed: u64) -> String {
        use arp_trace::json::escape;
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                     \"parent\": {}, \"workload\": \"{workload}\", \"seed\": {seed}, \
                     \"event\": {}, \"station\": {}, \"component\": {}, \"work\": {}}}\n",
                    escape(&s.name),
                    s.layer,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    escape(&s.ids.event),
                    escape(&s.ids.station),
                    escape(&s.ids.component),
                    s.work
                )
            })
            .collect()
    }
}

/// Runs process `p` through its public entry point, sequential and direct.
fn run_process(ctx: &RunContext, p: u8) -> arp_core::Result<()> {
    match p {
        0 => flags::init_flags(ctx),
        1 => gather::gather_inputs(ctx, false),
        2 => filterinit::init_filter_params(ctx),
        3 => separate::separate_components(ctx, false),
        4 => filter::correct_signals(ctx, CorrectionPass::Default, false),
        5 => metainit::init_main_metadata(ctx),
        7 => fourier::fourier_transform(ctx, false),
        8 => metainit::init_fourier_graph(ctx),
        9 => plots::plot_fourier_spectrum(ctx, false),
        10 => analyze::analyze_fourier(ctx, false),
        11 => flags::reinit_flags(ctx),
        13 => filter::correct_signals(ctx, CorrectionPass::Definitive, false),
        15 => plots::plot_accelerograph(ctx, false),
        16 => respspec::response_spectrum_calc(ctx, false),
        17 => metainit::init_response_graph(ctx),
        18 => plots::plot_response_spectrum(ctx, false),
        19 => gemgen::generate_gem_files(ctx, false),
        _ => unreachable!("process #{p} is not in the optimized DAG"),
    }
}

/// Runs the staged (temp-folder) entry point of #4, #7 or #13.
fn run_staged(ctx: &RunContext, p: u8) -> arp_core::Result<()> {
    match p {
        4 => filter::correct_signals_staged(ctx, CorrectionPass::Default, false),
        7 => fourier::fourier_transform_staged(ctx, false),
        13 => filter::correct_signals_staged(ctx, CorrectionPass::Definitive, false),
        _ => unreachable!("process #{p} has no staged entry point"),
    }
}

/// Process pass over every event; returns the per-event process self
/// times (indexed by process number).
fn process_pass(
    rec: &mut Recorder,
    fx: &Fixture,
    work: &Path,
) -> Result<Vec<[Duration; 20]>, String> {
    let order = ProcessDag::optimized().topological_order()?;
    let mut self_times = Vec::with_capacity(fx.items.len());
    for item in &fx.items {
        let ids = Ids::event(&item.label);
        let ctx = RunContext::new(
            &item.input_dir,
            work.join(&item.label),
            PipelineConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let mut times = [Duration::ZERO; 20];
        rec.span(LAYER_BENCH, "event", &ids, 0, |rec| -> Result<(), String> {
            for &p in &order {
                rec.span(LAYER_PROCESS, &format!("#{p}"), &ids, 0, |_| {
                    run_process(&ctx, p)
                })
                .map_err(|e| format!("{} #{p}: {e}", item.label))?;
                // A process span has no children: its duration is its self time.
                times[p as usize] = rec.spans.last().expect("span just recorded").duration();
            }
            Ok(())
        })?;
        for p in [4, 7, 13] {
            rec.span(LAYER_STAGEDIR, &format!("#{p}"), &ids, 0, |_| {
                run_staged(&ctx, p)
            })
            .map_err(|e| format!("{} staged #{p}: {e}", item.label))?;
        }
        self_times.push(times);
    }
    Ok(self_times)
}

/// Baseline, taper, FIR design and apply, peaks and integration: the
/// correction kernel of #4 and #13.
fn correct(
    rec: &mut Recorder,
    ids: &Ids,
    acc: &[f64],
    dt: f64,
    band: BandPass,
    config: &PipelineConfig,
) -> Result<MotionTriple, String> {
    let n = acc.len() as u64;
    let mut acc = acc.to_vec();
    rec.span(LAYER_DSP, "dsp.baseline_taper", ids, n, |_| {
        remove_baseline(&mut acc, Baseline::Linear)?;
        cosine_taper(&mut acc, TAPER_FRACTION);
        Ok::<_, arp_dsp::DspError>(())
    })
    .map_err(|e| e.to_string())?;
    let fir = rec
        .span(LAYER_DSP, "dsp.fir_design", ids, 1, |_| {
            FirFilter::band_pass_with_max_taps(band, dt, config.window, config.max_fir_taps)
        })
        .map_err(|e| e.to_string())?;
    let acc = rec.span(LAYER_DSP, "dsp.fir_apply", ids, n, |_| {
        fir.apply_fft_with(&acc, config.dsp_backend)
    });
    rec.span(LAYER_DSP, "dsp.peaks", ids, n, |_| {
        black_box(peak_values(&acc, dt))
    })
    .map_err(|e| e.to_string())?;
    rec.span(LAYER_DSP, "dsp.integrate", ids, n, |_| {
        MotionTriple::from_acceleration(acc, dt)
    })
    .map_err(|e| e.to_string())
}

/// Kernel pass over every component the process pass separated.
fn kernel_pass(rec: &mut Recorder, fx: &Fixture, work: &Path) -> Result<(), String> {
    let config = PipelineConfig::default();
    let periods = config.periods();
    for item in &fx.items {
        let ctx = RunContext::new(&item.input_dir, work.join(&item.label), config.clone())
            .map_err(|e| e.to_string())?;
        for station in ctx.stations().map_err(|e| e.to_string())? {
            for comp in Component::ALL {
                let ids = Ids {
                    event: item.label.clone(),
                    station: station.clone(),
                    component: comp.code().to_string(),
                };
                let v1 = V1ComponentFile::read(&ctx.artifact(&names::v1_component(&station, comp)))
                    .map_err(|e| e.to_string())?;
                let (acc, dt) = (&v1.data.acc, v1.header.dt);
                let n = acc.len() as u64;
                rec.span(
                    LAYER_BENCH,
                    "component",
                    &ids,
                    n,
                    |rec| -> Result<(), String> {
                        let default = correct(rec, &ids, acc, dt, config.default_band, &config)?;
                        let spectrum = rec
                            .span(LAYER_DSP, "dsp.spectrum", &ids, n, |_| {
                                fourier_spectrum_with(&default.acc, dt, config.dsp_backend)
                            })
                            .map_err(|e| e.to_string())?;
                        let corners = rec
                            .span(LAYER_DSP, "dsp.inflection", &ids, 1, |_| {
                                find_filter_corners(&spectrum, &config.inflection)
                            })
                            .map_err(|e| e.to_string())?;
                        let band = config
                            .default_band
                            .with_low_corners(corners.fsl, corners.fpl)
                            .map_err(|e| e.to_string())?;
                        let definitive = correct(rec, &ids, acc, dt, band, &config)?;
                        for &z in &config.dampings {
                            let work = n * periods.len() as u64;
                            rec.span(LAYER_DSP, "dsp.respspec", &ids, work, |_| {
                                black_box(response_spectrum_with(
                                    &definitive.acc,
                                    dt,
                                    &periods,
                                    z,
                                    config.response_method,
                                    config.dsp_backend,
                                ))
                            })
                            .map_err(|e| e.to_string())?;
                        }
                        Ok(())
                    },
                )?;
            }
        }
    }
    Ok(())
}

/// Format pass: reads and re-encodes every record file by kind; returns
/// re-encodes that are not byte-identical to their source.
fn format_pass(rec: &mut Recorder, fx: &Fixture, work: &Path) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    for item in &fx.items {
        for file in product_files(&work.join(&item.label))? {
            let ext = file.extension().and_then(|e| e.to_str()).unwrap_or("");
            let source = std::fs::read(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let len = source.len() as u64;
            let ids = Ids::event(&item.label);
            let records = rec
                .span(
                    LAYER_FORMATS,
                    &format!("formats.read.{ext}"),
                    &ids,
                    len,
                    |_| read_records(&file),
                )
                .map_err(|e| e.to_string())?;
            let encoded = rec
                .span(LAYER_FORMATS, "formats.encode", &ids, len, |_| {
                    let mut enc = RecordEncoder::new(Vec::with_capacity(source.len()));
                    for r in &records {
                        enc.write_record(r)?;
                    }
                    enc.finish()
                })
                .map_err(|e| e.to_string())?;
            if let Some(first) = records.first() {
                let n = rec.spans.len();
                for span in &mut rec.spans[n - 2..] {
                    span.ids.station = first.station().to_string();
                    span.ids.component = first
                        .component()
                        .map_or(String::new(), |c| c.code().to_string());
                }
            }
            if encoded != source {
                problems.push(format!("re-encode of {} differs", file.display()));
            }
        }
    }
    Ok(problems)
}

/// Scanned, skipped and matched record counts of the query mix over the
/// product tree, through `RecordReader::with_filters`.
fn query_counts(rec: &mut Recorder, fx: &Fixture, work: &Path) -> Result<(u64, u64, u64), String> {
    let mix = mix(&fx.specs[0].stations[0].code);
    let (mut scanned, mut skipped, mut matched) = (0, 0, 0);
    for q in &mix {
        for item in &fx.items {
            let ids = Ids::event(&item.label);
            for file in product_files(&work.join(&item.label))? {
                rec.span(LAYER_QUERY, q.name, &ids, 0, |_| -> Result<(), String> {
                    let mut reader = RecordReader::open(&file)
                        .map_err(|e| e.to_string())?
                        .with_filters(q.filters.clone());
                    for r in reader.by_ref() {
                        r.map_err(|e| e.to_string())?;
                        matched += 1;
                    }
                    scanned += reader.records_scanned() as u64;
                    skipped += reader.records_skipped() as u64;
                    Ok(())
                })?;
            }
        }
    }
    Ok((scanned, skipped, matched))
}

/// Collector state of one call of an A-B-A bracket.
#[derive(Clone, Copy)]
enum Armed {
    Plain,
    Trace,
    Diag,
}

/// The calls of the bracket around the workload's operation.
const BRACKET: [Armed; 5] = [
    Armed::Plain,
    Armed::Trace,
    Armed::Plain,
    Armed::Diag,
    Armed::Plain,
];

/// Traced run: the four passes and the per-layer metrics.
pub fn run(fx: &Fixture, root: &Path, spans_out: &Path) -> Result<Outcome, String> {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |what: &str, problems: Vec<String>| {
        attempted += 1;
        failed += u64::from(!check::report(what, &problems));
    };
    let mut m = Metrics::default();
    let reference = root.join("ref");
    pipeline::reference(fx, &reference)?;

    // 1. Process pass, bracketed by the two untraced seq-optimized runs it
    // is compared with (the reference run above is the first, cold one).
    let seq_before = pipeline::reference(fx, &root.join("seq-before"))?;
    let mut rec = Recorder::default();
    let traced = root.join("traced");
    let self_times = process_pass(&mut rec, fx, &traced)?;
    tally(
        "process pass products",
        check_products(&fx.items, &reference, &traced)?,
    );
    let seq_after = pipeline::reference(fx, &root.join("seq-after"))?;
    let seq_optimized = (seq_before + seq_after) / 2;
    m.set("bench.seq_optimized_s", seq_optimized.as_secs_f64());
    let process_s = rec.total(LAYER_PROCESS, None).0.as_secs_f64();
    let event_s = rec.total(LAYER_BENCH, Some("event")).0.as_secs_f64();
    m.set("ledger.process_s", process_s);
    m.set(
        "bench.span_overhead_ratio",
        event_s / seq_optimized.as_secs_f64() - 1.0,
    );
    let serial = |p: u8| self_times.iter().map(|t| t[p as usize]).sum::<Duration>();
    for (name, p) in [
        ("process.p01_gather_s", 1),
        ("process.p03_separate_s", 3),
        ("process.p04_filter_default_s", 4),
        ("process.p07_fourier_s", 7),
        ("process.p09_plot_fourier_s", 9),
        ("process.p10_fsl_fpl_s", 10),
        ("process.p13_filter_definitive_s", 13),
        ("process.p15_plot_acc_s", 15),
        ("process.p16_respspec_s", 16),
        ("process.p18_plot_respspec_s", 18),
        ("process.p19_gem_s", 19),
    ] {
        m.set(name, serial(p).as_secs_f64());
    }
    let light: Duration = PROCESS_TABLE
        .iter()
        .filter(|info| info.kind == ProcessKind::Light)
        .map(|info| serial(info.id.0))
        .sum();
    m.set("process.light_s", light.as_secs_f64());
    m.set(
        "process.p10_serial_share",
        serial(10).as_secs_f64() / process_s,
    );
    let mut staged_overhead = 0.0;
    for p in [4u8, 7, 13] {
        let staged = rec.total(LAYER_STAGEDIR, Some(&format!("#{p}"))).0;
        staged_overhead += staged.as_secs_f64() - serial(p).as_secs_f64();
    }
    m.set("stagedir.overhead_s", staged_overhead);
    let stations: u64 = fx.specs.iter().map(|s| s.v1_file_count() as u64).sum();
    m.set(
        "stagedir.files_moved",
        (stations * STAGED_FILES_PER_STATION) as f64,
    );

    // 2. Kernel pass.
    kernel_pass(&mut rec, fx, &traced)?;
    m.set(
        "dsp.fir_design_us",
        rec.rate(LAYER_DSP, "dsp.fir_design", 1e-6, true),
    );
    m.set(
        "dsp.fir_apply_ns_per_sample",
        rec.rate(LAYER_DSP, "dsp.fir_apply", 1e-9, false),
    );
    m.set(
        "dsp.integrate_ns_per_sample",
        rec.rate(LAYER_DSP, "dsp.integrate", 1e-9, false),
    );
    m.set(
        "dsp.spectrum_ns_per_sample",
        rec.rate(LAYER_DSP, "dsp.spectrum", 1e-9, false),
    );
    m.set(
        "dsp.inflection_us_per_spectrum",
        rec.rate(LAYER_DSP, "dsp.inflection", 1e-6, true),
    );
    m.set(
        "dsp.respspec_ns_per_sample_period",
        rec.rate(LAYER_DSP, "dsp.respspec", 1e-9, false),
    );

    // 3. Format pass and query counts.
    arp_formats::stats::reset_peak();
    tally("re-encoded records", format_pass(&mut rec, fx, &traced)?);
    m.set(
        "formats.reader_peak_bytes",
        arp_formats::stats::peak() as f64,
    );
    for (metric, ext) in [
        ("formats.v1_read_mb_s", "v1"),
        ("formats.v2_read_mb_s", "v2"),
        ("formats.f_read_mb_s", "f"),
        ("formats.r_read_mb_s", "r"),
    ] {
        m.set(
            metric,
            rec.mb_per_s(LAYER_FORMATS, &format!("formats.read.{ext}")),
        );
    }
    m.set(
        "formats.encode_mb_s",
        rec.mb_per_s(LAYER_FORMATS, "formats.encode"),
    );
    let (mut files, mut bytes) = (0u64, 0u64);
    for item in &fx.items {
        let dir = traced.join(&item.label);
        for rel in tree_files(&dir)? {
            files += 1;
            bytes += std::fs::metadata(dir.join(rel))
                .map_err(|e| e.to_string())?
                .len();
        }
    }
    m.set("formats.files_written", files as f64);
    m.set("formats.bytes_written", bytes as f64);
    let (scanned, skipped, matched) = query_counts(&mut rec, fx, &traced)?;
    m.set("query.records_scanned", scanned as f64);
    m.set("query.body_skip_ratio", skipped as f64 / scanned as f64);
    m.set("query.match_ratio", matched as f64 / scanned as f64);

    let attributed = rec.total(LAYER_DSP, None).0 + rec.total(LAYER_FORMATS, None).0;
    m.set(
        "ledger.unattributed_ratio",
        1.0 - attributed.as_secs_f64() / process_s,
    );

    // 4. The workload's operation: plain, trace-on, plain, diag-on, plain.
    let config = PipelineConfig::default();
    let (walls, first_call) = match fx.workload {
        Workload::ArchiveBatch | Workload::QuakeResponse => {
            let mut walls = Vec::new();
            let mut first: Option<Call> = None;
            for (k, armed) in BRACKET.into_iter().enumerate() {
                let aba = fresh_dir(root, "aba", k)?;
                let call = with_collector(armed, || pipeline::call(fx, &aba, &config))?;
                tally(
                    "A-B-A products",
                    check_products(&fx.items, &reference, &aba)?,
                );
                walls.push(call.wall.as_secs_f64());
                first.get_or_insert(call);
            }
            (walls, first.expect("five calls ran"))
        }
        Workload::ProductQuery => {
            let products = root.join("products");
            let build = pipeline::call(fx, &products, &config)?;
            tally(
                "set-up build products",
                check_products(&fx.items, &reference, &products)?,
            );
            let dirs: Vec<PathBuf> = fx.items.iter().map(|i| products.join(&i.label)).collect();
            let mix = mix(&fx.specs[0].stations[0].code);
            let (expected, _) = brute_force(&mix, &dirs)?;
            let mut walls = Vec::new();
            for (k, armed) in BRACKET.into_iter().enumerate() {
                let aba = fresh_dir(root, "aba", k)?;
                let t0 = Instant::now();
                let run = with_collector(armed, || run_mix(&mix, &dirs, &aba))?;
                walls.push(t0.elapsed().as_secs_f64());
                tally("A-B-A query mix", check_mix(&mix, &run, &expected));
            }
            (walls, build)
        }
    };
    let trace_base = (walls[0] + walls[2]) / 2.0;
    let diag_base = (walls[2] + walls[4]) / 2.0;
    m.set("trace.base_s", trace_base);
    m.set("trace.overhead_ratio", walls[1] / trace_base - 1.0);
    m.set("diag.base_s", diag_base);
    m.set("diag.overhead_ratio", walls[3] / diag_base - 1.0);

    // Schedule numbers: the pipeline call measured (median of the plain
    // calls; product-query's set-up build) against its bounds.
    let measured = match fx.workload {
        Workload::ProductQuery => first_call.wall.as_secs_f64(),
        _ => median(&[walls[0], walls[2], walls[4]]),
    };
    let cores = sys::available_parallelism() as f64;
    let dag = ProcessDag::optimized();
    let critical_path = self_times
        .iter()
        .map(|t| dag.critical_path(|ProcessId(p)| t[p as usize]).length)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    let serial_s: f64 = self_times
        .iter()
        .flat_map(|t| t.iter())
        .map(Duration::as_secs_f64)
        .sum();
    let bound = critical_path.max(serial_s / cores);
    m.set("sched.measured_s", measured);
    m.set("sched.serial_s", serial_s);
    m.set("sched.critical_path_s", critical_path);
    m.set("sched.bound_s", bound);
    m.set("sched.gap_s", measured - bound);
    m.set(
        "sched.speedup_vs_serial",
        seq_optimized.as_secs_f64() / measured,
    );
    m.set(
        "sched.p10_in_call_s",
        first_call.process_time(10).as_secs_f64(),
    );
    let pool = &first_call.pool;
    m.set(
        "par.cpu_per_wall",
        first_call.cpu.as_secs_f64() / first_call.wall.as_secs_f64(),
    );
    m.set("par.dag_dispatches", pool.dag_dispatches as f64);
    m.set("par.loops_completed", pool.loops_completed as f64);
    m.set("par.jobs_helped", pool.jobs_helped as f64);
    m.set("par.steals", (pool.steals_compute + pool.steals_io) as f64);
    m.set("par.cross_lane_steals", pool.cross_lane_steals as f64);
    m.set(
        "par.ready_peak",
        pool.dag_ready_peak.max(pool.io_ready_peak) as f64,
    );

    // The simulator's prediction for the same inputs.
    let sim_work = root.join("sim");
    let sim = pipeline::call(fx, &sim_work, &pipeline::simulated_config())?;
    tally(
        "simulated-mode products",
        check_products(&fx.items, &reference, &sim_work)?,
    );
    let predicted = sim
        .predicted
        .expect("simulated calls predict")
        .as_secs_f64();
    m.set("sim.predicted_s", predicted);
    m.set("sim.error", predicted / measured - 1.0);

    let ledger = ledger_problems(&m);
    tally("ledger", ledger);
    m.set("failed_ratio", failed as f64 / attempted as f64);

    std::fs::create_dir_all(spans_out.parent().expect("span file has a directory"))
        .map_err(|e| e.to_string())?;
    std::fs::write(spans_out, rec.to_jsonl(fx.workload.name(), fx.seed))
        .map_err(|e| format!("{}: {e}", spans_out.display()))?;
    print_summary(&m);
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
    })
}

/// Runs `f` with the trace session or the diagnostics ring armed.
fn with_collector<T>(armed: Armed, f: impl FnOnce() -> T) -> T {
    match armed {
        Armed::Plain => f(),
        Armed::Trace => {
            let session = arp_trace::TraceSession::start();
            let out = f();
            black_box(session.finish());
            out
        }
        Armed::Diag => {
            arp_diag::set_ring_enabled(true);
            let out = f();
            arp_diag::set_ring_enabled(false);
            black_box(arp_diag::drain());
            out
        }
    }
}

/// Whether the ledger adds up: the traced process pass accounts for the
/// untraced sequential run within [`LEDGER_BOUND`], and the kernel and
/// format spans account for no more than the process spans.
pub fn ledger_problems(m: &Metrics) -> Vec<String> {
    let mut problems = Vec::new();
    let overhead = m.get("bench.span_overhead_ratio").unwrap_or(f64::NAN);
    if !(-LEDGER_BOUND..=LEDGER_BOUND).contains(&overhead) {
        problems.push(format!(
            "process pass differs from the untraced seq-optimized run by {:+.1}% (bound {:.0}%)",
            overhead * 100.0,
            LEDGER_BOUND * 100.0
        ));
    }
    let unattributed = m.get("ledger.unattributed_ratio").unwrap_or(f64::NAN);
    if !(0.0..1.0).contains(&unattributed) {
        problems.push(format!(
            "kernel and format spans cover {:.1}% of the process spans",
            (1.0 - unattributed) * 100.0
        ));
    }
    problems
}

/// The measured rows beside the simulator's prediction and the #10 view.
fn print_summary(m: &Metrics) {
    let v = |n: &str| m.get(n).unwrap_or(f64::NAN);
    println!(
        "measured vs predicted: sched.measured_s {:.3} s (wall clock) | sim.predicted_s {:.3} s \
         (arp-par::sim replay, a prediction) | sim.error {:+.3}",
        v("sched.measured_s"),
        v("sim.predicted_s"),
        v("sim.error")
    );
    println!(
        "#10 FSL/FPL: {:.3} s sequential self time = {:.1}% of {:.3} s serial; {:.3} s inside the \
         measured call; par.jobs_helped {}",
        v("process.p10_fsl_fpl_s"),
        v("process.p10_serial_share") * 100.0,
        v("ledger.process_s"),
        v("sched.p10_in_call_s"),
        v("par.jobs_helped")
    );
    println!(
        "ledger: {:.1}% of {:.3} s process time unattributed to kernel or format spans",
        v("ledger.unattributed_ratio") * 100.0,
        v("ledger.process_s")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{scratch_dir, serial_test};
    use crate::metrics::PER_LAYER;

    #[test]
    fn spans_nest_and_totals_add_up() {
        let mut rec = Recorder::default();
        let ids = Ids::event("E");
        rec.span(LAYER_BENCH, "event", &ids, 0, |rec| {
            rec.span(LAYER_PROCESS, "#4", &ids, 0, |rec| {
                rec.span(LAYER_DSP, "dsp.fir_apply", &ids, 100, |_| {});
                rec.span(LAYER_DSP, "dsp.fir_apply", &ids, 50, |_| {});
            });
        });
        let parents: Vec<Option<usize>> = rec.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(1)]);
        let (d, work, calls) = rec.total(LAYER_DSP, Some("dsp.fir_apply"));
        assert_eq!((work, calls), (150, 2));
        assert!(d <= rec.total(LAYER_PROCESS, None).0);
        assert!(rec.total(LAYER_PROCESS, None).0 <= rec.total(LAYER_BENCH, None).0);
        assert_eq!(rec.to_jsonl("w", 1).lines().count(), 4);
    }

    #[test]
    fn ledger_adds_up_within_its_bound() {
        let _serial = serial_test();
        let dir = scratch_dir("ledger");
        let fx = Fixture::generate(Workload::QuakeResponse, 5, 0.1, &dir.join("in")).unwrap();
        let spans = dir.join("spans.jsonl");
        let out = run(&fx, &dir.join("run"), &spans).unwrap();
        assert_eq!(ledger_problems(&out.metrics), Vec::<String>::new());
        assert_eq!(out.failed, 0, "every traced output check passes");
        out.metrics.to_json(PER_LAYER).unwrap();
        let text = std::fs::read_to_string(&spans).unwrap();
        for line in text.lines() {
            let span = arp_trace::json::parse(line).unwrap();
            for key in ["name", "layer", "workload", "event", "station", "component"] {
                assert!(
                    span.get(key).and_then(|v| v.as_str()).is_some(),
                    "{key} in {line}"
                );
            }
            assert!(span.get("seed").and_then(|v| v.as_u64()) == Some(5));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

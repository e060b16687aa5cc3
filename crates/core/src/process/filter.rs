//! Processes #4 and #13 — band-pass correction of the signals.
//!
//! Both processes share one kernel: baseline removal, cosine tapering, the
//! Hamming windowed-sinc band-pass, re-integration to velocity/displacement,
//! and peak ("max values") extraction. They differ only in the band:
//!
//! * **#4** applies the *default* corners from the filter-params file;
//! * **#13** applies the event-specific `FSL`/`FPL` corners that process
//!   #10 recovered from the velocity Fourier spectra.
//!
//! In the fully parallelized implementation these run through the
//! temp-folder staging protocol ([`crate::stagedir`]) because the original
//! Fortran binaries could not be made thread-safe — see
//! [`correct_signals_staged`].

use crate::config::PipelineConfig;
use crate::context::RunContext;
use crate::error::{PipelineError, Result};
use crate::stagedir::{run_staged, StagedKernel};
use arp_dsp::baseline::{remove_baseline, Baseline};
use arp_dsp::fir::{BandPass, FftFilter, FirFilter};
use arp_dsp::peaks::peak_values;
use arp_dsp::require_finite;
use arp_dsp::window::cosine_taper;
use arp_formats::{
    names, Component, FilterParams, MaxEntry, MaxValues, MotionTriple, V1ComponentFile, V2File,
};
use parking_lot::Mutex;
use std::path::Path;

/// Fraction of the record tapered before filtering (standard Vol.2 choice).
const TAPER_FRACTION: f64 = 0.05;

/// Which band the correction pass uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectionPass {
    /// Process #4: the default band for every station.
    Default,
    /// Process #13: per-station corners from the Fourier analysis.
    Definitive,
}

/// The band-pass filter of the last component corrected, kept for the
/// next one. A station's components share `dt`, and under #4 their band
/// too, so the FIR design and its tap spectrum are built once per station
/// and serve all three convolutions.
#[derive(Default)]
struct StationFilter(Option<(BandPass, FftFilter)>);

impl StationFilter {
    /// The filter for `band` at `dt`, designed unless the last one matches.
    fn get(&mut self, band: BandPass, dt: f64, config: &PipelineConfig) -> Result<&mut FftFilter> {
        let reuse = matches!(&self.0, Some((b, f)) if *b == band && f.filter().dt() == dt);
        if !reuse {
            let design =
                FirFilter::band_pass_with_max_taps(band, dt, config.window, config.max_fir_taps)?;
            self.0 = Some((band, FftFilter::new(design)));
        }
        Ok(&mut self.0.as_mut().expect("designed above").1)
    }
}

/// Applies the correction kernel to one component file.
fn correct_component(
    v1: &V1ComponentFile,
    band: BandPass,
    filter: &mut StationFilter,
    config: &PipelineConfig,
) -> Result<V2File> {
    let dt = v1.header.dt;
    let mut acc = v1.data.acc.clone();
    remove_baseline(&mut acc, Baseline::Linear)?;
    cosine_taper(&mut acc, TAPER_FRACTION);
    let acc = filter.get(band, dt, config)?.apply(&acc);
    let peaks = peak_values(&acc, dt)?;
    let data = MotionTriple::from_acceleration(acc, dt)?;
    Ok(V2File {
        header: v1.header.clone(),
        component: v1.component,
        band,
        peaks,
        data,
    })
}

/// Resolves the band for one station/component under a pass.
fn band_for(
    pass: CorrectionPass,
    params: &FilterParams,
    station: &str,
    comp_index: usize,
) -> Result<BandPass> {
    match pass {
        CorrectionPass::Default => Ok(params.default_band),
        CorrectionPass::Definitive => {
            let corners = params
                .corners_for(station)
                .and_then(|s| s.corners.get(comp_index))
                .copied();
            match corners {
                Some((fsl, fpl)) => params
                    .default_band
                    .with_low_corners(fsl, fpl)
                    .map_err(Into::into),
                // No corners recorded (clean record): keep the default band.
                None => Ok(params.default_band),
            }
        }
    }
}

/// Corrects all components of one station in `dir`, returning the peak
/// entries in component order. This is the unit of work the staging
/// protocol ships into a temp folder.
///
/// A component whose corrected acceleration, velocity or displacement is
/// not finite (a record whose samples overflow the filter) stops the run
/// with a [`PipelineError::Component`] naming its V1 file in the work
/// directory, before its V2 file is written.
fn correct_station_in_dir(
    dir: &Path,
    station: &str,
    pass: CorrectionPass,
    ctx: &RunContext,
) -> Result<Vec<MaxEntry>> {
    let params = FilterParams::read(&dir.join(FilterParams::FILE_NAME))?;
    let mut filter = StationFilter::default();
    let mut entries = Vec::with_capacity(3);
    for (ci, comp) in Component::ALL.iter().enumerate() {
        let v1_name = names::v1_component(station, *comp);
        let v1 = V1ComponentFile::read(&dir.join(&v1_name))?;
        let band = band_for(pass, &params, station, ci)?;
        let v2 = correct_component(&v1, band, &mut filter, &ctx.config)?;
        let data = &v2.data;
        [&data.acc, &data.vel, &data.disp]
            .into_iter()
            .try_for_each(|trace| require_finite(trace))
            .map_err(|source| PipelineError::Component {
                path: ctx.artifact(&v1_name),
                component: *comp,
                source,
            })?;
        entries.push(MaxEntry {
            station: station.to_string(),
            component: *comp,
            pga: v2.peaks.pga,
            pgv: v2.peaks.pgv,
            pgd: v2.peaks.pgd,
        });
        v2.write(&dir.join(names::v2_component(station, *comp)))?;
    }
    Ok(entries)
}

/// Runs process #4 (`pass = Default`) or #13 (`pass = Definitive`) directly
/// in the work directory, optionally with the per-station loop parallel.
pub fn correct_signals(ctx: &RunContext, pass: CorrectionPass, parallel: bool) -> Result<()> {
    let stations = ctx.stations()?;
    let collected: Vec<Mutex<Vec<MaxEntry>>> = (0..stations.len())
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    let body = |i: usize| -> Result<()> {
        let entries = correct_station_in_dir(&ctx.work_dir, &stations[i], pass, ctx)?;
        *collected[i].lock() = entries;
        Ok(())
    };
    if parallel {
        ctx.par_for(stations.len(), body)?;
    } else {
        ctx.seq_for(stations.len(), body)?;
    }
    write_max_values(ctx, collected)
}

/// Runs process #4/#13 through the temp-folder staging protocol of §VI-C:
/// inputs are linked into per-station temporary folders, the kernel runs
/// concurrently inside each folder, and outputs are moved back.
pub fn correct_signals_staged(
    ctx: &RunContext,
    pass: CorrectionPass,
    parallel: bool,
) -> Result<()> {
    let stations = ctx.stations()?;
    let collected: Vec<Mutex<Vec<MaxEntry>>> = (0..stations.len())
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    let tag = match pass {
        CorrectionPass::Default => "p04",
        CorrectionPass::Definitive => "p13",
    };
    let kernel = StagedKernel {
        tag,
        inputs: &|station: &str| {
            let mut files: Vec<String> = Component::ALL
                .iter()
                .map(|&c| names::v1_component(station, c))
                .collect();
            files.push(FilterParams::FILE_NAME.to_string());
            files
        },
        outputs: &|station: &str| {
            Component::ALL
                .iter()
                .map(|&c| names::v2_component(station, c))
                .collect()
        },
        run: &|dir: &Path, i: usize, station: &str| {
            let entries = correct_station_in_dir(dir, station, pass, ctx)?;
            *collected[i].lock() = entries;
            Ok(())
        },
    };
    run_staged(ctx, &stations, parallel, &kernel)?;
    write_max_values(ctx, collected)
}

/// Writes the accumulated peak values in station order — deterministic
/// regardless of which thread corrected which station.
fn write_max_values(ctx: &RunContext, collected: Vec<Mutex<Vec<MaxEntry>>>) -> Result<()> {
    let entries: Vec<MaxEntry> = collected.into_iter().flat_map(|m| m.into_inner()).collect();
    MaxValues { entries }.write(&ctx.artifact(MaxValues::FILE_NAME))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::process::{filterinit, gather, separate};
    use arp_synth::{paper_event, write_event_inputs};

    fn prepare(tag: &str) -> (std::path::PathBuf, RunContext) {
        let base = std::env::temp_dir().join(format!("arp-filt-{tag}-{}", std::process::id()));
        let input = base.join("in");
        std::fs::create_dir_all(&input).unwrap();
        let event = paper_event(0, 0.004);
        write_event_inputs(&event, &input).unwrap();
        let ctx = RunContext::new(&input, base.join("w"), PipelineConfig::fast()).unwrap();
        gather::gather_inputs(&ctx, false).unwrap();
        filterinit::init_filter_params(&ctx).unwrap();
        separate::separate_components(&ctx, false).unwrap();
        (base, ctx)
    }

    #[test]
    fn default_pass_writes_v2_and_max_values() {
        let (base, ctx) = prepare("default");
        correct_signals(&ctx, CorrectionPass::Default, false).unwrap();
        let stations = ctx.stations().unwrap();
        for s in &stations {
            for c in Component::ALL {
                let v2 = V2File::read(&ctx.artifact(&names::v2_component(s, c))).unwrap();
                assert_eq!(v2.band, ctx.config.default_band);
                assert!(v2.peaks.pga > 0.0);
            }
        }
        let mv = MaxValues::read(&ctx.artifact(MaxValues::FILE_NAME)).unwrap();
        assert_eq!(mv.entries.len(), stations.len() * 3);
        // Entries grouped by station in station order.
        for (k, e) in mv.entries.iter().enumerate() {
            assert_eq!(e.station, stations[k / 3]);
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn parallel_matches_sequential_byte_for_byte() {
        let (base, ctx) = prepare("par");
        correct_signals(&ctx, CorrectionPass::Default, false).unwrap();
        let s0 = ctx.stations().unwrap()[0].clone();
        let seq_text =
            std::fs::read_to_string(ctx.artifact(&names::v2_component(&s0, Component::Vertical)))
                .unwrap();
        let seq_mv = std::fs::read_to_string(ctx.artifact(MaxValues::FILE_NAME)).unwrap();

        correct_signals(&ctx, CorrectionPass::Default, true).unwrap();
        let par_text =
            std::fs::read_to_string(ctx.artifact(&names::v2_component(&s0, Component::Vertical)))
                .unwrap();
        let par_mv = std::fs::read_to_string(ctx.artifact(MaxValues::FILE_NAME)).unwrap();

        assert_eq!(seq_text, par_text);
        assert_eq!(seq_mv, par_mv);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn staged_matches_direct() {
        let (base, ctx) = prepare("staged");
        correct_signals(&ctx, CorrectionPass::Default, false).unwrap();
        let s0 = ctx.stations().unwrap()[0].clone();
        let direct = std::fs::read_to_string(
            ctx.artifact(&names::v2_component(&s0, Component::Longitudinal)),
        )
        .unwrap();

        correct_signals_staged(&ctx, CorrectionPass::Default, true).unwrap();
        let staged = std::fs::read_to_string(
            ctx.artifact(&names::v2_component(&s0, Component::Longitudinal)),
        )
        .unwrap();
        assert_eq!(direct, staged);
        // No temp folders left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&ctx.work_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn staged_run_leaves_its_linked_inputs_as_they_were() {
        use std::os::unix::fs::MetadataExt;
        let (base, ctx) = prepare("links");
        let mut inputs = vec![FilterParams::FILE_NAME.to_string()];
        for s in ctx.stations().unwrap() {
            inputs.extend(Component::ALL.iter().map(|&c| names::v1_component(&s, c)));
        }
        let read = |name: &String| std::fs::read(ctx.artifact(name)).unwrap();
        let before: Vec<Vec<u8>> = inputs.iter().map(read).collect();
        correct_signals_staged(&ctx, CorrectionPass::Default, true).unwrap();
        for (name, bytes) in inputs.iter().zip(&before) {
            assert_eq!(&read(name), bytes, "{name} changed");
            let links = std::fs::metadata(ctx.artifact(name)).unwrap().nlink();
            assert_eq!(links, 1, "{name} still linked from a staging folder");
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn definitive_pass_uses_station_corners() {
        let (base, ctx) = prepare("corners");
        // Record corners for the first station only.
        let stations = ctx.stations().unwrap();
        let mut fp = FilterParams::read(&ctx.artifact(FilterParams::FILE_NAME)).unwrap();
        fp.stations.push(arp_formats::StationCorners {
            station: stations[0].clone(),
            corners: vec![(0.15, 0.30), (0.2, 0.4), (0.1, 0.2)],
        });
        fp.write(&ctx.artifact(FilterParams::FILE_NAME)).unwrap();

        correct_signals(&ctx, CorrectionPass::Definitive, false).unwrap();
        let with_corners = V2File::read(
            &ctx.artifact(&names::v2_component(&stations[0], Component::Longitudinal)),
        )
        .unwrap();
        assert!((with_corners.band.fsl - 0.15).abs() < 1e-9);
        assert!((with_corners.band.fpl - 0.30).abs() < 1e-9);
        // Station without corners falls back to the default band.
        let fallback = V2File::read(
            &ctx.artifact(&names::v2_component(&stations[1], Component::Longitudinal)),
        )
        .unwrap();
        assert_eq!(fallback.band, ctx.config.default_band);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn correction_reduces_baseline_drift() {
        // A ramp baseline must be gone after correction.
        let (base, ctx) = prepare("drift");
        let stations = ctx.stations().unwrap();
        correct_signals(&ctx, CorrectionPass::Default, false).unwrap();
        let v2 = V2File::read(
            &ctx.artifact(&names::v2_component(&stations[0], Component::Longitudinal)),
        )
        .unwrap();
        let n = v2.data.acc.len();
        let mean: f64 = v2.data.acc.iter().sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05 * v2.peaks.pga, "mean {mean}");
        std::fs::remove_dir_all(&base).unwrap();
    }
}

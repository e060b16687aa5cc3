//! Process #7 — Fourier transformation.
//!
//! For every corrected component (`<s><c>.v2`) computes the Fourier
//! amplitude spectra of acceleration, velocity, and displacement, writing
//! `<s><c>.f`. In the fully parallelized implementation this runs through
//! the temp-folder staging protocol (§VI-D), one folder per station.

use crate::context::RunContext;
use crate::error::Result;
use crate::stagedir::{run_staged, StagedKernel};
use arp_dsp::fft::FftPlan;
use arp_dsp::spectrum::fourier_spectrum_planned;
use arp_formats::{names, Component, FFile, V2File};
use std::path::Path;

/// Transforms all components of one station inside `dir`. The components
/// share their length, so one FFT plan serves all three.
fn fourier_station_in_dir(dir: &Path, station: &str) -> Result<()> {
    let mut plan: Option<FftPlan> = None;
    for comp in Component::ALL {
        let v2 = V2File::read(&dir.join(names::v2_component(station, comp)))?;
        let n = v2.data.acc.len();
        let plan = match plan {
            Some(ref p) if p.len() == n => p,
            _ => plan.insert(FftPlan::forward(n)),
        };
        let spectrum = fourier_spectrum_planned(&v2.data.acc, v2.header.dt, plan)?;
        let f = FFile {
            station: station.to_string(),
            event_id: v2.header.event_id.clone(),
            component: comp,
            dt: v2.header.dt,
            spectrum,
        };
        f.write(&dir.join(names::f_component(station, comp)))?;
    }
    Ok(())
}

/// Runs process #7 directly in the work directory.
pub fn fourier_transform(ctx: &RunContext, parallel: bool) -> Result<()> {
    let stations = ctx.stations()?;
    let body = |i: usize| fourier_station_in_dir(&ctx.work_dir, &stations[i]);
    if parallel {
        ctx.par_for(stations.len(), body)
    } else {
        ctx.seq_for(stations.len(), body)
    }
}

/// Runs process #7 through the temp-folder staging protocol.
pub fn fourier_transform_staged(ctx: &RunContext, parallel: bool) -> Result<()> {
    let stations = ctx.stations()?;
    let kernel = StagedKernel {
        tag: "p07",
        inputs: &|station: &str| {
            Component::ALL
                .iter()
                .map(|&c| names::v2_component(station, c))
                .collect()
        },
        outputs: &|station: &str| {
            Component::ALL
                .iter()
                .map(|&c| names::f_component(station, c))
                .collect()
        },
        run: &|dir: &Path, _i: usize, station: &str| fourier_station_in_dir(dir, station),
    };
    run_staged(ctx, &stations, parallel, &kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::process::{filter, filterinit, gather, separate};

    fn prepare(tag: &str) -> (std::path::PathBuf, RunContext) {
        let base = std::env::temp_dir().join(format!("arp-fft-{tag}-{}", std::process::id()));
        let input = base.join("in");
        std::fs::create_dir_all(&input).unwrap();
        let event = arp_synth::paper_event(0, 0.003);
        arp_synth::write_event_inputs(&event, &input).unwrap();
        let ctx = RunContext::new(&input, base.join("w"), PipelineConfig::fast()).unwrap();
        gather::gather_inputs(&ctx, false).unwrap();
        filterinit::init_filter_params(&ctx).unwrap();
        separate::separate_components(&ctx, false).unwrap();
        filter::correct_signals(&ctx, filter::CorrectionPass::Default, false).unwrap();
        (base, ctx)
    }

    #[test]
    fn writes_f_files_for_every_component() {
        let (base, ctx) = prepare("basic");
        fourier_transform(&ctx, false).unwrap();
        for s in ctx.stations().unwrap() {
            for c in Component::ALL {
                let f = FFile::read(&ctx.artifact(&names::f_component(&s, c))).unwrap();
                assert_eq!(f.component, c);
                assert!(f.spectrum.len() > 10);
                // Velocity spectrum strictly derived from acceleration.
                assert!(f.spectrum.velocity[1] > 0.0);
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn staged_and_direct_agree() {
        let (base, ctx) = prepare("staged");
        fourier_transform(&ctx, false).unwrap();
        let s0 = ctx.stations().unwrap()[0].clone();
        let direct =
            std::fs::read_to_string(ctx.artifact(&names::f_component(&s0, Component::Transversal)))
                .unwrap();
        fourier_transform_staged(&ctx, true).unwrap();
        let staged =
            std::fs::read_to_string(ctx.artifact(&names::f_component(&s0, Component::Transversal)))
                .unwrap();
        assert_eq!(direct, staged);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn requires_v2_files() {
        let base = std::env::temp_dir().join(format!("arp-fft-miss-{}", std::process::id()));
        let ctx = RunContext::new(base.join("in"), base.join("w"), PipelineConfig::fast()).unwrap();
        arp_formats::FileList::new("v1list", vec!["GHOST.v1".into()])
            .unwrap()
            .write(&ctx.artifact(crate::process::gather::V1LIST))
            .unwrap();
        assert!(fourier_transform(&ctx, false).is_err());
        std::fs::remove_dir_all(&base).unwrap();
    }
}

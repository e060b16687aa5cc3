//! Process #10 — obtain FSL & FPL values.
//!
//! For each station, reads the three Fourier-spectrum files and locates the
//! inflection point of each component's velocity spectrum (periods > 1 s,
//! early-termination search — see [`arp_dsp::inflection`]). The recovered
//! corners are appended to the filter-params file for process #13.
//!
//! The paper's Stage VI parallelizes the *inner* three-component loop
//! (`#pragma omp parallel for` over `j = 0..3` in `AnalyzeFourier`), which
//! is what `parallel = true` reproduces here.

use crate::context::RunContext;
use crate::error::Result;
use arp_dsp::inflection::find_filter_corners;
use arp_formats::{names, Component, FFile, FilterParams, StationCorners};
use parking_lot::Mutex;

/// Runs process #10.
pub fn analyze_fourier(ctx: &RunContext, parallel: bool) -> Result<()> {
    let stations = ctx.stations()?;
    let mut results: Vec<StationCorners> = Vec::with_capacity(stations.len());

    for station in &stations {
        let corners: Vec<Mutex<Option<(f64, f64)>>> = (0..Component::ALL.len())
            .map(|_| Mutex::new(None))
            .collect();
        let body = |j: usize| -> Result<()> {
            let comp = Component::ALL[j];
            let f = FFile::read(&ctx.artifact(&names::f_component(station, comp)))?;
            let found = find_filter_corners(&f.spectrum, &ctx.config.inflection)?;
            *corners[j].lock() = Some((found.fsl, found.fpl));
            Ok(())
        };
        ctx.for_each(Component::ALL.len(), parallel, body)?;
        results.push(StationCorners {
            station: station.clone(),
            corners: corners
                .into_iter()
                .map(|m| m.into_inner().expect("component corner missing"))
                .collect(),
        });
    }

    let mut params = FilterParams::read(&ctx.artifact(FilterParams::FILE_NAME))?;
    params.stations = results;
    params.write(&ctx.artifact(FilterParams::FILE_NAME))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::process::{filter, filterinit, fourier, gather, separate};

    fn prepare(tag: &str) -> (std::path::PathBuf, RunContext) {
        let base = std::env::temp_dir().join(format!("arp-an-{tag}-{}", std::process::id()));
        let input = base.join("in");
        std::fs::create_dir_all(&input).unwrap();
        let event = arp_synth::paper_event(0, 0.003);
        arp_synth::write_event_inputs(&event, &input).unwrap();
        let ctx = RunContext::new(&input, base.join("w"), PipelineConfig::fast()).unwrap();
        gather::gather_inputs(&ctx, false).unwrap();
        filterinit::init_filter_params(&ctx).unwrap();
        separate::separate_components(&ctx, false).unwrap();
        filter::correct_signals(&ctx, filter::CorrectionPass::Default, false).unwrap();
        fourier::fourier_transform(&ctx, false).unwrap();
        (base, ctx)
    }

    #[test]
    fn records_corners_for_every_station_and_component() {
        let (base, ctx) = prepare("basic");
        analyze_fourier(&ctx, false).unwrap();
        let params = FilterParams::read(&ctx.artifact(FilterParams::FILE_NAME)).unwrap();
        let stations = ctx.stations().unwrap();
        assert_eq!(params.stations.len(), stations.len());
        for sc in &params.stations {
            assert_eq!(sc.corners.len(), 3);
            for &(fsl, fpl) in &sc.corners {
                assert!(fsl > 0.0 && fpl > fsl, "bad corners ({fsl}, {fpl})");
                assert!(fpl <= 1.0 + 1e-9, "corner above the 1-s period bound");
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let (base, ctx) = prepare("par");
        analyze_fourier(&ctx, false).unwrap();
        let seq = std::fs::read_to_string(ctx.artifact(FilterParams::FILE_NAME)).unwrap();
        // Re-initialize and re-run in parallel.
        filterinit::init_filter_params(&ctx).unwrap();
        analyze_fourier(&ctx, true).unwrap();
        let par = std::fs::read_to_string(ctx.artifact(FilterParams::FILE_NAME)).unwrap();
        assert_eq!(seq, par);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn missing_f_files_error() {
        let base = std::env::temp_dir().join(format!("arp-an-miss-{}", std::process::id()));
        let ctx = RunContext::new(base.join("in"), base.join("w"), PipelineConfig::fast()).unwrap();
        arp_formats::FileList::new("v1list", vec!["GHOST.v1".into()])
            .unwrap()
            .write(&ctx.artifact(crate::process::gather::V1LIST))
            .unwrap();
        assert!(analyze_fourier(&ctx, false).is_err());
        std::fs::remove_dir_all(&base).unwrap();
    }
}

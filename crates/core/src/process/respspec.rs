//! Process #16 — response spectrum calculation.
//!
//! The pipeline's dominant cost (57.2% of the sequential time in the paper's
//! Fig. 11; sequential complexity `O(9000 · N · D²)` with the legacy
//! Duhamel kernel). For each of the `3N` corrected components, the elastic
//! response spectra for every configured damping ratio are computed and
//! stored in `<s><c>.r`.
//!
//! Parallelization (§VI-B) is a Fortran `OMP DO` over the `3N` component
//! files — reproduced here as a flat parallel loop over (station,
//! component) pairs using all available processors.

use crate::context::RunContext;
use crate::error::Result;
use arp_dsp::respspec::response_spectra_with;
use arp_formats::{names, Component, RFile, V2File};

/// Runs process #16.
pub fn response_spectrum_calc(ctx: &RunContext, parallel: bool) -> Result<()> {
    let stations = ctx.stations()?;
    let periods = ctx.config.periods();
    // Flat 3N iteration space, exactly like the paper's `do i=1,<3N>`.
    let total = stations.len() * Component::ALL.len();
    let body = |k: usize| -> Result<()> {
        let station = &stations[k / 3];
        let comp = Component::ALL[k % 3];
        let v2 = V2File::read(&ctx.artifact(&names::v2_component(station, comp)))?;
        let spectra = response_spectra_with(
            &v2.data.acc,
            v2.header.dt,
            &periods,
            &ctx.config.dampings,
            ctx.config.response_method,
            ctx.config.dsp_backend,
        )?;
        let r = RFile {
            station: station.clone(),
            event_id: v2.header.event_id.clone(),
            component: comp,
            spectra,
        };
        r.write(&ctx.artifact(&names::r_component(station, comp)))?;
        Ok(())
    };
    ctx.for_each(total, parallel, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::process::{filter, filterinit, gather, separate};

    fn prepare(tag: &str) -> (std::path::PathBuf, RunContext) {
        let base = std::env::temp_dir().join(format!("arp-rs-{tag}-{}", std::process::id()));
        let input = base.join("in");
        std::fs::create_dir_all(&input).unwrap();
        let event = arp_synth::paper_event(0, 0.002);
        arp_synth::write_event_inputs(&event, &input).unwrap();
        let ctx = RunContext::new(&input, base.join("w"), PipelineConfig::fast()).unwrap();
        gather::gather_inputs(&ctx, false).unwrap();
        filterinit::init_filter_params(&ctx).unwrap();
        separate::separate_components(&ctx, false).unwrap();
        filter::correct_signals(&ctx, filter::CorrectionPass::Default, false).unwrap();
        (base, ctx)
    }

    #[test]
    fn writes_r_files_with_configured_dampings() {
        let (base, ctx) = prepare("basic");
        response_spectrum_calc(&ctx, false).unwrap();
        for s in ctx.stations().unwrap() {
            for c in Component::ALL {
                let r = RFile::read(&ctx.artifact(&names::r_component(&s, c))).unwrap();
                assert_eq!(r.spectra.len(), ctx.config.dampings.len());
                assert_eq!(r.spectra[0].periods.len(), ctx.config.period_count);
                // Responses are positive for a real record.
                assert!(r.spectra[0].sa.iter().all(|&v| v >= 0.0));
                assert!(r.spectra[0].sa.iter().any(|&v| v > 0.0));
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn parallel_matches_sequential() {
        let (base, ctx) = prepare("par");
        response_spectrum_calc(&ctx, false).unwrap();
        let s0 = ctx.stations().unwrap()[0].clone();
        let seq =
            std::fs::read_to_string(ctx.artifact(&names::r_component(&s0, Component::Vertical)))
                .unwrap();
        response_spectrum_calc(&ctx, true).unwrap();
        let par =
            std::fs::read_to_string(ctx.artifact(&names::r_component(&s0, Component::Vertical)))
                .unwrap();
        assert_eq!(seq, par);
        std::fs::remove_dir_all(&base).unwrap();
    }
}

//! Process #19 — GEM file generation.
//!
//! From each station's V2/R file pair, eighteen GEM product files are
//! written: for each component, the corrected time series of acceleration,
//! velocity, and displacement (`GEM2A/2V/2D`), and the 5%-damped response
//! spectrum ordinates of the same quantities (`GEMRA/RV/RD`).
//!
//! The paper's Stage X parallelizes this as a flat loop over `2N` entries
//! (one V2 group and one R group per station), using all available
//! processors — `SetDataApart(files[i], isR)`. That structure is reproduced
//! here.

use crate::context::RunContext;
use crate::error::Result;
use arp_formats::gem::{GemFile, GemSource};
use arp_formats::{names, Component, Quantity, RFile, V2File};

/// Damping ratio whose spectra feed the `GEMR*` files.
const GEM_DAMPING: f64 = 0.05;

/// Writes the nine time-series GEM files for one station.
fn set_data_apart_v2(ctx: &RunContext, station: &str) -> Result<()> {
    for comp in Component::ALL {
        let v2 = V2File::read(&ctx.artifact(&names::v2_component(station, comp)))?;
        let t: Vec<f64> = (0..v2.data.len())
            .map(|i| i as f64 * v2.header.dt)
            .collect();
        for q in Quantity::ALL {
            let gem = GemFile::new(
                station,
                v2.header.event_id.clone(),
                comp,
                GemSource::TimeSeries,
                q,
                t.clone(),
                v2.data.get(q).to_vec(),
            )?;
            gem.write(&ctx.artifact(&gem.file_name()))?;
        }
    }
    Ok(())
}

/// Writes the nine response-spectrum GEM files for one station.
fn set_data_apart_r(ctx: &RunContext, station: &str) -> Result<()> {
    for comp in Component::ALL {
        let r = RFile::read(&ctx.artifact(&names::r_component(station, comp)))?;
        let spec = r
            .at_damping(GEM_DAMPING)
            .expect("validated RFile has at least one spectrum");
        for q in Quantity::ALL {
            let values = match q {
                Quantity::Acceleration => spec.sa.clone(),
                Quantity::Velocity => spec.sv.clone(),
                Quantity::Displacement => spec.sd.clone(),
            };
            let gem = GemFile::new(
                station,
                r.event_id.clone(),
                comp,
                GemSource::ResponseSpectrum,
                q,
                spec.periods.clone(),
                values,
            )?;
            gem.write(&ctx.artifact(&gem.file_name()))?;
        }
    }
    Ok(())
}

/// Runs process #19: the flat `2N` loop of the paper's `GenerateGEMFiles`.
pub fn generate_gem_files(ctx: &RunContext, parallel: bool) -> Result<()> {
    let stations = ctx.stations()?;
    let total = stations.len() * 2;
    let body = |i: usize| -> Result<()> {
        let station = &stations[i / 2];
        let is_r = i % 2 == 1;
        if is_r {
            set_data_apart_r(ctx, station)
        } else {
            set_data_apart_v2(ctx, station)
        }
    };
    ctx.for_each(total, parallel, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::context::RunContext;
    use crate::process::{filter, filterinit, gather, respspec, separate};

    fn prepare(tag: &str) -> (std::path::PathBuf, RunContext) {
        let base = std::env::temp_dir().join(format!("arp-gem-{tag}-{}", std::process::id()));
        let input = base.join("in");
        std::fs::create_dir_all(&input).unwrap();
        let event = arp_synth::paper_event(0, 0.002);
        arp_synth::write_event_inputs(&event, &input).unwrap();
        let ctx = RunContext::new(&input, base.join("w"), PipelineConfig::fast()).unwrap();
        gather::gather_inputs(&ctx, false).unwrap();
        filterinit::init_filter_params(&ctx).unwrap();
        separate::separate_components(&ctx, false).unwrap();
        filter::correct_signals(&ctx, filter::CorrectionPass::Default, false).unwrap();
        respspec::response_spectrum_calc(&ctx, false).unwrap();
        (base, ctx)
    }

    #[test]
    fn writes_eighteen_gem_files_per_station() {
        let (base, ctx) = prepare("count");
        generate_gem_files(&ctx, false).unwrap();
        for s in ctx.stations().unwrap() {
            let mut count = 0;
            for comp in Component::ALL {
                for from_r in [false, true] {
                    for q in Quantity::ALL {
                        let name = names::gem(&s, comp, from_r, q);
                        let gem = GemFile::read(&ctx.artifact(&name)).unwrap();
                        assert!(gem.peak >= 0.0);
                        assert!(!gem.values.is_empty());
                        count += 1;
                    }
                }
            }
            assert_eq!(count, 18);
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn time_series_gem_matches_v2_trace() {
        let (base, ctx) = prepare("match");
        generate_gem_files(&ctx, true).unwrap();
        let s = ctx.stations().unwrap()[0].clone();
        let v2 =
            V2File::read(&ctx.artifact(&names::v2_component(&s, Component::Vertical))).unwrap();
        let gem = GemFile::read(&ctx.artifact(&names::gem(
            &s,
            Component::Vertical,
            false,
            Quantity::Velocity,
        )))
        .unwrap();
        assert_eq!(gem.values.len(), v2.data.vel.len());
        for (a, b) in gem.values.iter().zip(v2.data.vel.iter()) {
            assert!((a - b).abs() <= 1e-12 * b.abs().max(1e-12));
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn spectrum_gem_uses_five_percent_damping() {
        let (base, ctx) = prepare("damp");
        generate_gem_files(&ctx, false).unwrap();
        let s = ctx.stations().unwrap()[0].clone();
        let r =
            RFile::read(&ctx.artifact(&names::r_component(&s, Component::Longitudinal))).unwrap();
        let expected = r.at_damping(0.05).unwrap();
        let gem = GemFile::read(&ctx.artifact(&names::gem(
            &s,
            Component::Longitudinal,
            true,
            Quantity::Acceleration,
        )))
        .unwrap();
        assert_eq!(gem.values.len(), expected.sa.len());
        std::fs::remove_dir_all(&base).unwrap();
    }
}

//! Processes #6, #9, #15, #18 — plot generation.
//!
//! Real PostScript documents are produced, as in the original pipeline:
//!
//! * **#6** — `<s>.ps` from the *uncorrected* V1 traces (redundant: its
//!   output is overwritten by #15 and never consumed; dropped by the
//!   optimized version);
//! * **#9** — `<s>f.ps`, log-log Fourier spectra from the F files;
//! * **#15** — `<s>.ps`, corrected accelerogram panels from the V2 files;
//! * **#18** — `<s>r.ps`, log-log response spectra from the R files.
//!
//! Stage XI of the paper runs #9, #15, #18 as three concurrent OpenMP tasks;
//! the staged executors express that with
//! [`crate::context::RunContext::tasks`], each task running its station
//! loop on the same team.

use crate::context::RunContext;
use crate::error::{PipelineError, Result};
use arp_formats::{names, Component, FFile, RFile, V1StationFile, V2File};
use arp_plot::{Figure, LineChart, Scale, Series};

fn time_axis(n: usize, dt: f64) -> Vec<f64> {
    (0..n).map(|i| i as f64 * dt).collect()
}

fn write_ps(ctx: &RunContext, name: &str, fig: &Figure) -> Result<()> {
    let path = ctx.artifact(name);
    std::fs::write(&path, fig.to_postscript()).map_err(|e| PipelineError::io(&path, e))
}

/// Builds the acc/vel/disp stacked figure for one component triple.
fn motion_figure(title: &str, dt: f64, triple: &arp_formats::MotionTriple) -> Figure {
    let t = time_axis(triple.len(), dt);
    let panels = vec![
        LineChart::new(format!("{title} — acceleration"))
            .labels("Time (s)", "cm/s2")
            .with_series(Series::from_xy("acc", &t, &triple.acc)),
        LineChart::new(format!("{title} — velocity"))
            .labels("Time (s)", "cm/s")
            .with_series(Series::from_xy("vel", &t, &triple.vel)),
        LineChart::new(format!("{title} — displacement"))
            .labels("Time (s)", "cm")
            .with_series(Series::from_xy("disp", &t, &triple.disp)),
    ];
    Figure::new(panels)
}

/// Process #6: plot the uncorrected signals (first component of each V1).
pub fn plot_uncorrected(ctx: &RunContext, parallel: bool) -> Result<()> {
    let stations = ctx.stations()?;
    let body = |i: usize| -> Result<()> {
        let station = &stations[i];
        let v1 = V1StationFile::read(&ctx.artifact(&names::v1_station(station)))?;
        let (comp, triple) = &v1.components[0];
        let fig = motion_figure(
            &format!("{station} {} (uncorrected)", comp.name()),
            v1.header.dt,
            triple,
        );
        write_ps(ctx, &names::plot_acc(station), &fig)
    };
    if parallel {
        ctx.par_for(stations.len(), body)
    } else {
        ctx.seq_for(stations.len(), body)
    }
}

/// Process #15: plot the corrected accelerograph (three components stacked,
/// acceleration traces, plus the longitudinal vel/disp panels).
pub fn plot_accelerograph(ctx: &RunContext, parallel: bool) -> Result<()> {
    let stations = ctx.stations()?;
    let body = |i: usize| -> Result<()> {
        let station = &stations[i];
        let v2 =
            V2File::read(&ctx.artifact(&names::v2_component(station, Component::Longitudinal)))?;
        let fig = motion_figure(
            &format!("{station} LONGITUDINAL (corrected)"),
            v2.header.dt,
            &v2.data,
        );
        write_ps(ctx, &names::plot_acc(station), &fig)
    };
    if parallel {
        ctx.par_for(stations.len(), body)
    } else {
        ctx.seq_for(stations.len(), body)
    }
}

/// Process #9: plot the Fourier spectra (`<s>f.ps`, log-log, three
/// quantities per component).
pub fn plot_fourier_spectrum(ctx: &RunContext, parallel: bool) -> Result<()> {
    let stations = ctx.stations()?;
    let body = |i: usize| -> Result<()> {
        let station = &stations[i];
        let mut panels = Vec::with_capacity(3);
        for comp in Component::ALL {
            let f = FFile::read(&ctx.artifact(&names::f_component(station, comp)))?;
            let periods: Vec<f64> = f.spectrum.periods();
            let chart = LineChart::new(format!("{station} {} Fourier spectra", comp.name()))
                .labels("Period (s)", "amplitude")
                .scales(Scale::Log10, Scale::Log10)
                .with_series(Series::from_xy(
                    "acceleration",
                    &periods,
                    &f.spectrum.acceleration,
                ))
                .with_series(Series::from_xy("velocity", &periods, &f.spectrum.velocity))
                .with_series(Series::from_xy(
                    "displacement",
                    &periods,
                    &f.spectrum.displacement,
                ));
            panels.push(chart);
        }
        write_ps(ctx, &names::plot_fourier(station), &Figure::new(panels))
    };
    if parallel {
        ctx.par_for(stations.len(), body)
    } else {
        ctx.seq_for(stations.len(), body)
    }
}

/// Process #18: plot the response spectra (`<s>r.ps`, log-log SA/SV/SD at
/// the first configured damping).
pub fn plot_response_spectrum(ctx: &RunContext, parallel: bool) -> Result<()> {
    let stations = ctx.stations()?;
    let body = |i: usize| -> Result<()> {
        let station = &stations[i];
        let mut panels = Vec::with_capacity(3);
        for comp in Component::ALL {
            let r = RFile::read(&ctx.artifact(&names::r_component(station, comp)))?;
            let s = &r.spectra[0];
            let chart = LineChart::new(format!(
                "{station} {} response spectrum (damping {:.0}%)",
                comp.name(),
                s.damping * 100.0
            ))
            .labels("Period (s)", "response")
            .scales(Scale::Log10, Scale::Log10)
            .with_series(Series::from_xy("SA", &s.periods, &s.sa))
            .with_series(Series::from_xy("SV", &s.periods, &s.sv))
            .with_series(Series::from_xy("SD", &s.periods, &s.sd));
            panels.push(chart);
        }
        write_ps(ctx, &names::plot_response(station), &Figure::new(panels))
    };
    if parallel {
        ctx.par_for(stations.len(), body)
    } else {
        ctx.seq_for(stations.len(), body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::process::{filter, filterinit, fourier, gather, respspec, separate};

    fn prepare(tag: &str) -> (std::path::PathBuf, RunContext) {
        let base = std::env::temp_dir().join(format!("arp-plot-{tag}-{}", std::process::id()));
        let input = base.join("in");
        std::fs::create_dir_all(&input).unwrap();
        let event = arp_synth::paper_event(0, 0.002);
        arp_synth::write_event_inputs(&event, &input).unwrap();
        let ctx = RunContext::new(&input, base.join("w"), PipelineConfig::fast()).unwrap();
        gather::gather_inputs(&ctx, false).unwrap();
        filterinit::init_filter_params(&ctx).unwrap();
        separate::separate_components(&ctx, false).unwrap();
        filter::correct_signals(&ctx, filter::CorrectionPass::Default, false).unwrap();
        fourier::fourier_transform(&ctx, false).unwrap();
        respspec::response_spectrum_calc(&ctx, false).unwrap();
        (base, ctx)
    }

    #[test]
    fn all_plot_processes_produce_postscript() {
        let (base, ctx) = prepare("all");
        plot_uncorrected(&ctx, false).unwrap();
        plot_fourier_spectrum(&ctx, true).unwrap();
        plot_accelerograph(&ctx, false).unwrap();
        plot_response_spectrum(&ctx, true).unwrap();
        for s in ctx.stations().unwrap() {
            for name in [
                names::plot_acc(&s),
                names::plot_fourier(&s),
                names::plot_response(&s),
            ] {
                let text = std::fs::read_to_string(ctx.artifact(&name)).unwrap();
                assert!(text.starts_with("%!PS-Adobe"), "{name} not PostScript");
                assert!(text.len() > 500, "{name} suspiciously small");
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn process_15_overwrites_process_6_output() {
        let (base, ctx) = prepare("overwrite");
        plot_uncorrected(&ctx, false).unwrap();
        let s0 = ctx.stations().unwrap()[0].clone();
        let before = std::fs::read_to_string(ctx.artifact(&names::plot_acc(&s0))).unwrap();
        assert!(before.contains("uncorrected"));
        plot_accelerograph(&ctx, false).unwrap();
        let after = std::fs::read_to_string(ctx.artifact(&names::plot_acc(&s0))).unwrap();
        assert!(after.contains("corrected"));
        assert!(!after.contains("uncorrected"));
        std::fs::remove_dir_all(&base).unwrap();
    }
}

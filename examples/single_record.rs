//! Single-record walk-through: every DSP step the pipeline applies to one
//! component, with SVG figures mirroring the paper's Figs. 2–4.
//!
//! ```text
//! cargo run --release --example single_record
//! ```

use arp_dsp::baseline::{remove_baseline, Baseline};
use arp_dsp::fir::{BandPass, FirFilter};
use arp_dsp::inflection::{find_filter_corners, InflectionConfig};
use arp_dsp::integrate::acc_to_vel_disp;
use arp_dsp::peaks::{intensity_measures, peak_values};
use arp_dsp::respspec::{response_spectrum, standard_periods, ResponseMethod};
use arp_dsp::spectrum::fourier_spectrum;
use arp_dsp::window::{cosine_taper, WindowKind};
use arp_formats::Component;
use arp_plot::{Figure, LineChart, Scale, Series};
use arp_synth::{generate_component, EventSpec, SourceModel, StationSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Synthesize one longitudinal component: M5.8 at 20 km, 100 sps, 80 s.
    let station = StationSpec {
        code: "SSLB".into(),
        distance_km: 20.0,
        dt: 0.01,
        npts: 8000,
        site: arp_synth::SiteClass::StiffSoil,
    };
    let event = EventSpec {
        id: "DEMO".into(),
        origin_time: "2019-07-31T03:04:05Z".into(),
        source: SourceModel {
            magnitude: 5.8,
            ..Default::default()
        },
        stations: vec![station.clone()],
        seed: 7,
    };
    let raw = generate_component(&event.source, &station, Component::Longitudinal, event.seed);
    let dt = station.dt;
    println!(
        "raw record: {} samples at {} sps",
        raw.len(),
        (1.0 / dt) as u32
    );

    // Step 1 — baseline correction and tapering (process #4 preamble).
    let mut acc = raw.clone();
    remove_baseline(&mut acc, Baseline::Linear)?;
    cosine_taper(&mut acc, 0.05);

    // Step 2 — default Hamming band-pass (process #4).
    let default_filter = FirFilter::band_pass(BandPass::DEFAULT, dt, WindowKind::Hamming)?;
    let acc_default = default_filter.apply_fft(&acc);

    // Step 3 — Fourier spectra (process #7) and FPL/FSL corners (process #10).
    let spectrum = fourier_spectrum(&acc_default, dt)?;
    let corners = find_filter_corners(&spectrum, &InflectionConfig::default())?;
    println!(
        "velocity-spectrum inflection at T = {:.2} s  ->  FSL = {:.3} Hz, FPL = {:.3} Hz",
        corners.inflection_period, corners.fsl, corners.fpl
    );

    // Step 4 — definitive correction with the recovered corners (process #13).
    let band = BandPass::DEFAULT.with_low_corners(corners.fsl, corners.fpl)?;
    let filter = FirFilter::band_pass(band, dt, WindowKind::Hamming)?;
    let corrected = filter.apply_fft(&acc);
    let (vel, disp) = acc_to_vel_disp(&corrected, dt)?;

    let peaks = peak_values(&corrected, dt)?;
    let im = intensity_measures(&corrected, dt)?;
    println!(
        "peaks: PGA {:.2} cm/s² (t={:.1}s)  PGV {:.3} cm/s  PGD {:.4} cm",
        peaks.pga, peaks.pga_time, peaks.pgv, peaks.pgd
    );
    println!(
        "intensity: Arias {:.4} cm/s  D5-95 {:.1} s  CAV {:.1} cm/s  aRMS {:.2} cm/s²",
        im.arias, im.duration_595, im.cav, im.arms
    );

    // Step 5 — response spectra (process #16).
    let periods = standard_periods();
    let rs = response_spectrum(
        &corrected,
        dt,
        &periods,
        0.05,
        ResponseMethod::NigamJennings,
    )?;
    let psa = rs.psa();
    let (pk, _) = psa
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    println!(
        "5%-damped PSA peaks at T = {:.2} s with {:.1} cm/s²",
        rs.periods[pk], psa[pk]
    );

    // Figures (paper Figs. 2-4 analogues) as SVG.
    let out = std::env::temp_dir().join(format!("arp-single-record-{}", std::process::id()));
    std::fs::create_dir_all(&out)?;
    let t: Vec<f64> = (0..corrected.len()).map(|i| i as f64 * dt).collect();

    let fig2 = Figure::new(vec![
        LineChart::new("Corrected acceleration")
            .labels("Time (s)", "cm/s2")
            .with_series(Series::from_xy("acc", &t, &corrected)),
        LineChart::new("Velocity")
            .labels("Time (s)", "cm/s")
            .with_series(Series::from_xy("vel", &t, &vel)),
        LineChart::new("Displacement")
            .labels("Time (s)", "cm")
            .with_series(Series::from_xy("disp", &t, &disp)),
    ]);
    std::fs::write(out.join("fig2-accelerogram.svg"), fig2.to_svg())?;

    let periods_axis = spectrum.periods();
    let fig3 = Figure::new(vec![LineChart::new(
        "Fourier spectra (velocity inflection sets FPL/FSL)",
    )
    .labels("Period (s)", "amplitude")
    .scales(Scale::Log10, Scale::Log10)
    .with_series(Series::from_xy(
        "acceleration",
        &periods_axis,
        &spectrum.acceleration,
    ))
    .with_series(Series::from_xy(
        "velocity",
        &periods_axis,
        &spectrum.velocity,
    ))
    .with_series(Series::from_xy(
        "displacement",
        &periods_axis,
        &spectrum.displacement,
    ))]);
    std::fs::write(out.join("fig3-fourier.svg"), fig3.to_svg())?;

    let fig4 = Figure::new(vec![LineChart::new("Response spectrum (5% damping)")
        .labels("Period (s)", "response")
        .scales(Scale::Log10, Scale::Log10)
        .with_series(Series::from_xy("SA", &rs.periods, &rs.sa))
        .with_series(Series::from_xy("SV", &rs.periods, &rs.sv))
        .with_series(Series::from_xy("SD", &rs.periods, &rs.sd))]);
    std::fs::write(out.join("fig4-response.svg"), fig4.to_svg())?;

    println!("\nwrote figures to {}", out.display());
    // Leave nothing behind in the temp directory.
    std::fs::remove_dir_all(&out)?;
    println!("removed {}", out.display());
    Ok(())
}

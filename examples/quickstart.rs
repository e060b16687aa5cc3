//! Quickstart: synthesize a seismic event, run the fully parallelized
//! pipeline on it, and inspect the products.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use arp_core::{run_pipeline_labeled, ImplKind, PipelineConfig, RunContext};
use arp_formats::{names, Component, MaxValues, RFile, V2File};
use arp_synth::{paper_event, write_event_inputs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthesize the paper's smallest event (Nov'18: 5 stations) at 2%
    //    of its data volume so the example runs in seconds.
    let event = paper_event(0, 0.02);
    let base = std::env::temp_dir().join(format!("arp-quickstart-{}", std::process::id()));
    let input_dir = base.join("inputs");
    std::fs::create_dir_all(&input_dir)?;
    let files = write_event_inputs(&event, &input_dir)?;
    println!(
        "synthesized {} V1 station files ({} data points)",
        files.len(),
        event.total_data_points()
    );

    // 2. Run the fully parallelized pipeline.
    let work_dir = base.join("work");
    let ctx = RunContext::new(&input_dir, &work_dir, PipelineConfig::default())?;
    let report = run_pipeline_labeled(&ctx, ImplKind::FullyParallel, &event.id)?;
    println!(
        "pipeline finished in {:?} ({:.0} points/s)",
        report.total,
        report.throughput()
    );

    // 3. Inspect the products.
    let max_values = MaxValues::read(&ctx.artifact(MaxValues::FILE_NAME))?;
    println!("\npeak ground motion per component:");
    for e in &max_values.entries {
        println!(
            "  {:<5} {}  PGA {:8.3} cm/s²  PGV {:7.4} cm/s  PGD {:7.4} cm",
            e.station,
            e.component.code(),
            e.pga,
            e.pgv,
            e.pgd
        );
    }

    let station = &ctx.stations()?[0];
    let v2 = V2File::read(&ctx.artifact(&names::v2_component(station, Component::Longitudinal)))?;
    println!(
        "\nstation {station}: definitive band-pass corners fsl={:.3} fpl={:.3} Hz",
        v2.band.fsl, v2.band.fpl
    );

    let r = RFile::read(&ctx.artifact(&names::r_component(station, Component::Longitudinal)))?;
    let spec = r.at_damping(0.05).expect("5% damping archived");
    let (peak_idx, peak_sa) = spec
        .sa
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    println!(
        "response spectrum peak: SA = {peak_sa:.2} cm/s² at T = {:.2} s (5% damping)",
        spec.periods[peak_idx]
    );

    println!(
        "\nall artifacts (V2/F/R/GEM/PostScript plots) were written to {}",
        work_dir.display()
    );
    // Leave nothing behind in the temp directory.
    std::fs::remove_dir_all(&base)?;
    println!("removed {}", base.display());
    Ok(())
}

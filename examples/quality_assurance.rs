//! Quality-assurance tour: the extensions built around the paper's
//! pipeline — run verification, RotD orientation-independent measures, and
//! the stage-timeline visualization.
//!
//! ```text
//! cargo run --release --example quality_assurance
//! ```

use arp_core::process::rotdgen::RotDFile;
use arp_core::{
    run_pipeline_labeled, timeline_svg, verify_run, ImplKind, PipelineConfig, RunContext,
};
use arp_synth::{paper_event, write_event_inputs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = std::env::temp_dir().join(format!("arp-qa-{}", std::process::id()));
    let input_dir = base.join("inputs");
    std::fs::create_dir_all(&input_dir)?;
    let event = paper_event(1, 0.05); // Apr'18: 5 stations, larger records
    write_event_inputs(&event, &input_dir)?;

    // Run the pipeline with the RotD extension enabled.
    let config = PipelineConfig {
        emit_rotd: true,
        ..Default::default()
    };
    let work_dir = base.join("work");
    let ctx = RunContext::new(&input_dir, &work_dir, config)?;
    let report = run_pipeline_labeled(&ctx, ImplKind::FullyParallel, &event.id)?;
    println!("pipeline finished in {:?}", report.total);

    // 1. Verify the run: every product present and parseable.
    let issues = verify_run(&ctx)?;
    if issues.is_empty() {
        let stations = ctx.stations()?;
        println!(
            "verification: complete ({} artifacts across {} stations)",
            arp_core::expected_artifacts(&stations).len(),
            stations.len()
        );
    } else {
        for issue in &issues {
            eprintln!("verification issue: {issue}");
        }
        return Err(format!("{} verification issues", issues.len()).into());
    }

    // 2. RotD50/RotD100: orientation-independent spectral ordinates.
    println!("\nRotD spectral displacement (cm) at T = 1.0 s, 5% damping:");
    for station in ctx.stations()? {
        let rotd = RotDFile::read(&ctx.artifact(&RotDFile::file_name(&station)))?;
        let idx = rotd
            .periods
            .iter()
            .position(|&t| (t - 1.0).abs() < 1e-9)
            .expect("1.0 s is in the archived grid");
        println!(
            "  {station:<5} RotD50 {:8.4}   RotD100 {:8.4}   (ratio {:.2})",
            rotd.rotd50[idx],
            rotd.rotd100[idx],
            rotd.rotd100[idx] / rotd.rotd50[idx].max(1e-12)
        );
    }

    // 3. Stage timeline: where the wall time went.
    let svg_path = base.join("timeline.svg");
    std::fs::write(&svg_path, timeline_svg(&report))?;
    println!("\nwrote stage timeline to {}", svg_path.display());

    // Leave nothing behind in the temp directory.
    std::fs::remove_dir_all(&base)?;
    println!("removed {}", base.display());
    Ok(())
}

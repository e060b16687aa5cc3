//! Batch processing: the observatory's real workload — many events, one
//! summary per event, network-level statistics.
//!
//! ```text
//! cargo run --release --example batch_processing
//! ```

use arp_core::{discover_batch, event_summary, run_batch, ImplKind, PipelineConfig, RunContext};
use arp_plot::Histogram;
use arp_synth::paper_event;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = std::env::temp_dir().join(format!("arp-batch-ex-{}", std::process::id()));
    let batch_root = base.join("incoming");

    // 1. Stage three events as they would arrive from the field.
    for (i, label) in ["nov18", "apr18", "jul19"].iter().enumerate() {
        let dir = batch_root.join(label);
        std::fs::create_dir_all(&dir)?;
        arp_synth::write_event_inputs(&paper_event(i, 0.02), &dir)?;
    }

    // 2. Discover and process the whole batch.
    let items = discover_batch(&batch_root)?;
    let work_root = base.join("work");
    let report = run_batch(
        &items,
        &work_root,
        &PipelineConfig::default(),
        ImplKind::FullyParallel,
    )?;
    print!("\n{}", report.to_table());

    // 3. Per-event summaries + a network-wide PGA distribution.
    let mut all_pga = Vec::new();
    for item in &items {
        let ctx = RunContext::new(
            &item.input_dir,
            work_root.join(&item.label),
            PipelineConfig::default(),
        )?;
        let rows = event_summary(&ctx)?;
        let max_pga = rows.iter().map(|r| r.pga).fold(0.0f64, f64::max);
        println!(
            "event {:<6} {} component rows, max PGA {:8.2} cm/s²",
            item.label,
            rows.len(),
            max_pga
        );
        all_pga.extend(rows.iter().map(|r| r.pga));
    }

    let hist = Histogram::from_samples(
        "Network PGA distribution (all events, all components)",
        "PGA (cm/s2)",
        &all_pga,
        12,
    );
    let (mode_bin, mode_count) = hist.mode_bin();
    println!(
        "\nPGA histogram: {} samples, fullest bin #{} holds {} components",
        hist.total(),
        mode_bin,
        mode_count
    );
    let out = base.join("pga-histogram.svg");
    std::fs::write(&out, hist.to_svg(640.0, 400.0))?;
    println!("wrote {}", out.display());

    // Leave nothing behind in the temp directory.
    std::fs::remove_dir_all(&base)?;
    println!("removed {}", base.display());
    Ok(())
}

//! # arp — accelerographic records processing
//!
//! Umbrella crate re-exporting the workspace: a Rust reproduction of
//! *"Parallelizing Accelerographic Records Processing"* (IPPS 2024) — the
//! strong-motion pipeline of El Salvador's Observatory of Natural Threats,
//! its sequential optimization, and its parallelization, plus every
//! substrate it depends on.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `arp-core` | the 20 processes, 11-stage plan, artifact DAG, five implementations on one node runner |
//! | [`dsp`] | `arp-dsp` | FFT, filters, spectra, response spectra, measures |
//! | [`formats`] | `arp-formats` | V1/V2/F/R/GEM and metadata file formats |
//! | [`synth`] | `arp-synth` | stochastic ground-motion generator + dataset |
//! | [`plot`] | `arp-plot` | PostScript/SVG plotting |
//! | [`par`] | `arp-par` | OpenMP-style runtime + scheduling simulator |
//! | [`trace`] | `arp-trace` | per-task span recorder, Chrome-trace export |
//!
//! ## Quick start
//!
//! ```no_run
//! use arp::core::{run_pipeline, ImplKind, PipelineConfig, RunContext};
//!
//! // Synthesize an event and run the fully parallelized pipeline on it.
//! let event = arp::synth::paper_event(0, 0.02);
//! std::fs::create_dir_all("inputs")?;
//! arp::synth::write_event_inputs(&event, std::path::Path::new("inputs"))?;
//!
//! let ctx = RunContext::new("inputs", "work", PipelineConfig::default())?;
//! let report = run_pipeline(&ctx, ImplKind::FullyParallel)?;
//! println!("{} points in {:?}", report.data_points, report.total);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The runnable entry points live in `examples/` (library walk-throughs),
//! `src/bin/arp.rs` (the CLI), and `crates/bench` (the experiment harness
//! regenerating the paper's tables and figures).

#![warn(missing_docs)]

pub use arp_core as core;
pub use arp_dsp as dsp;
pub use arp_formats as formats;
pub use arp_par as par;
pub use arp_plot as plot;
pub use arp_synth as synth;
pub use arp_trace as trace;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // Touch one item per crate so a broken re-export fails to compile.
        let _ = crate::core::PipelineConfig::default();
        let _ = crate::dsp::BandPass::DEFAULT;
        let _ = crate::formats::names::v1_station("X");
        let _ = crate::synth::PAPER_EVENT_SHAPES.len();
        let _ = crate::plot::Scale::Linear;
        let _ = crate::par::Schedule::Static;
        let _ = crate::trace::Cat::DagNode.label();
    }
}

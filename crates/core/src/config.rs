//! Pipeline configuration: numeric choices and parallel backend.

use crate::error::{PipelineError, Result};
use arp_dsp::backend::DspBackend;
use arp_dsp::fir::BandPass;
use arp_dsp::inflection::InflectionConfig;
use arp_dsp::respspec::ResponseMethod;
use arp_dsp::window::WindowKind;
use arp_par::Schedule;

/// Which parallel substrate executes parallel stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelBackend {
    /// Rayon's work-stealing pool (the idiomatic Rust choice).
    Rayon,
    /// The `arp-par` OpenMP-style pool with an explicit schedule — the
    /// faithful reproduction of the paper's OpenMP pragmas.
    OmpStyle(Schedule),
}

impl Default for ParallelBackend {
    fn default() -> Self {
        // One iteration per claim. OpenMP's default is `schedule(static)`,
        // but stations differ in length: static blocks split
        // quake-response's 19 stations 52,387 / 43,613 samples on two
        // threads, so one worker idles at every loop's join. Claiming one
        // station (or component, or staged file) at a time evens the load;
        // the products do not depend on the schedule.
        ParallelBackend::OmpStyle(Schedule::Dynamic(1))
    }
}

/// How parallel-stage wall time is obtained.
///
/// The paper's numbers come from an 8-core/12-thread testbed. On hosts with
/// fewer cores (CI containers are often single-core), real wall-clock
/// speedups are physically unobtainable, so the pipeline offers a
/// *simulated-time* mode: every construct runs inline on the calling
/// thread and each work unit (loop chunk, task, the process segments
/// between them) is recorded as a timed vertex of one graph, which
/// [`arp_par::replay`] list-schedules once on `threads` virtual
/// processors. Reported totals, process and stage times are read off that
/// replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingModel {
    /// Use real wall-clock times with the configured parallel backend.
    #[default]
    Measured,
    /// Execute inline, report times replayed on `threads` virtual
    /// processors.
    Simulated {
        /// Number of virtual processors (the paper's testbed: 8).
        threads: usize,
    },
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Default band applied by process #4.
    pub default_band: BandPass,
    /// Window used for FIR design (the paper's filters are Hamming).
    pub window: WindowKind,
    /// FPL/FSL search configuration for process #10.
    pub inflection: InflectionConfig,
    /// SDOF solver for process #16. `Duhamel` reproduces the legacy
    /// `O(D²)`-per-period kernel; `NigamJennings` is the fast variant.
    pub response_method: ResponseMethod,
    /// Number of oscillator periods in the response spectrum.
    pub period_count: usize,
    /// Damping ratios archived in `R` files.
    pub dampings: Vec<f64>,
    /// Parallel backend for parallel stages.
    pub backend: ParallelBackend,
    /// Timing model (measured wall clock vs simulated multi-core schedule).
    pub timing: TimingModel,
    /// Emit the RotD50/RotD100 extension products (`<station>.rotd`) after
    /// the definitive correction. Off by default (not part of the paper's
    /// twenty processes).
    pub emit_rotd: bool,
    /// Cap on FIR taps (keeps the default-band filter affordable on records
    /// with very fine sampling).
    pub max_fir_taps: usize,
    /// DSP kernel backend for the hot kernels (FIR convolution, FFT
    /// butterflies, response-spectrum recurrence). Scalar and SIMD produce
    /// bitwise-identical output; `Auto` resolves to SIMD.
    pub dsp_backend: DspBackend,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            default_band: BandPass::DEFAULT,
            window: WindowKind::Hamming,
            inflection: InflectionConfig::default(),
            // Nigam–Jennings by default so tests and examples are fast; the
            // bench harness flips to Duhamel for paper-faithful cost shape.
            response_method: ResponseMethod::NigamJennings,
            period_count: 91,
            dampings: arp_dsp::respspec::STANDARD_DAMPINGS.to_vec(),
            backend: ParallelBackend::default(),
            timing: TimingModel::default(),
            emit_rotd: false,
            max_fir_taps: 1201,
            dsp_backend: DspBackend::Auto,
        }
    }
}

impl PipelineConfig {
    /// A configuration sized for fast tests: fewer periods/dampings.
    pub fn fast() -> Self {
        PipelineConfig {
            period_count: 30,
            dampings: vec![0.05],
            ..Default::default()
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        self.default_band.validate().map_err(PipelineError::Dsp)?;
        if self.period_count < 2 {
            return Err(PipelineError::Config(format!(
                "period_count {} must be >= 2",
                self.period_count
            )));
        }
        if self.dampings.is_empty() {
            return Err(PipelineError::Config("no damping ratios".into()));
        }
        for &z in &self.dampings {
            if !(0.0..0.99).contains(&z) {
                return Err(PipelineError::Config(format!("damping {z} out of range")));
            }
        }
        if self.max_fir_taps < 11 {
            return Err(PipelineError::Config(format!(
                "max_fir_taps {} too small",
                self.max_fir_taps
            )));
        }
        if let TimingModel::Simulated { threads } = self.timing {
            if threads == 0 {
                return Err(PipelineError::Config("simulated thread count 0".into()));
            }
        }
        Ok(())
    }

    /// The response-spectrum period grid.
    pub fn periods(&self) -> Vec<f64> {
        arp_dsp::respspec::log_spaced_periods(0.04, 15.0, self.period_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        PipelineConfig::default().validate().unwrap();
        PipelineConfig::fast().validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let broken = [
            PipelineConfig {
                period_count: 1,
                ..Default::default()
            },
            PipelineConfig {
                dampings: vec![],
                ..Default::default()
            },
            PipelineConfig {
                dampings: vec![1.2],
                ..Default::default()
            },
            PipelineConfig {
                max_fir_taps: 3,
                ..Default::default()
            },
            PipelineConfig {
                timing: TimingModel::Simulated { threads: 0 },
                ..Default::default()
            },
        ];
        for (i, c) in broken.iter().enumerate() {
            assert!(c.validate().is_err(), "config {i} should be invalid");
        }
        let ok = PipelineConfig {
            timing: TimingModel::Simulated { threads: 8 },
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn period_grid_matches_count() {
        let c = PipelineConfig::fast();
        assert_eq!(c.periods().len(), 30);
    }

    #[test]
    fn default_backend_is_dynamic_omp() {
        assert_eq!(
            ParallelBackend::default(),
            ParallelBackend::OmpStyle(Schedule::Dynamic(1))
        );
    }
}

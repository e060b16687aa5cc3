//! DSP backend selection: scalar reference vs blocked (SIMD-shaped) kernels.
//!
//! The FIR kernels and the response spectra exist in two forms: a scalar
//! form that processes one element at a time, and a blocked form that
//! advances several independent chains at once (written so LLVM lowers the
//! lane arithmetic to packed f64 instructions). Because both forms perform
//! the exact same IEEE operations in the exact same order per output
//! element — lane arithmetic is element-wise, and Rust does not contract
//! `a * b + c` into FMA — the two backends produce **bitwise-identical**
//! `f64` results. That is the contract this module's selector exposes:
//! choosing a backend changes throughput, never output bytes.
//!
//! The selector is plumbed from the CLI (`--dsp-backend`) through
//! `PipelineConfig` into the hot kernels ([`crate::fir`],
//! [`crate::respspec`], [`crate::spectrum`]). The FFT ([`crate::fft`])
//! takes no backend: one butterfly loop serves both.

use std::fmt;
use std::str::FromStr;

/// Which kernel implementation services the DSP hot paths.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum DspBackend {
    /// Pick automatically. The blocked kernels run on every target (the
    /// response-spectrum sweep picks its AVX-512 or AVX2 form at run time
    /// and otherwise uses the build target's vectors, SSE2 on x86-64) and
    /// are bitwise-equal to scalar, so `Auto` resolves to
    /// [`DspBackend::Simd`] everywhere.
    #[default]
    Auto,
    /// One element at a time. Kept as the reference implementation and as
    /// the baseline row of the scalar-vs-SIMD ablation benches.
    Scalar,
    /// Blocked kernels: 4-lane FIR accumulators and the period-major
    /// response-spectrum sweep.
    Simd,
}

impl DspBackend {
    /// Resolves `Auto` to the concrete backend used for execution.
    #[inline]
    pub fn resolve(self) -> DspBackend {
        match self {
            DspBackend::Auto | DspBackend::Simd => DspBackend::Simd,
            DspBackend::Scalar => DspBackend::Scalar,
        }
    }

    /// True when the resolved backend is the blocked one.
    #[inline]
    pub fn is_simd(self) -> bool {
        self.resolve() == DspBackend::Simd
    }

    /// Canonical lower-case name (`auto` / `scalar` / `simd`).
    pub fn as_str(self) -> &'static str {
        match self {
            DspBackend::Auto => "auto",
            DspBackend::Scalar => "scalar",
            DspBackend::Simd => "simd",
        }
    }
}

impl fmt::Display for DspBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for DspBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(DspBackend::Auto),
            "scalar" => Ok(DspBackend::Scalar),
            "simd" => Ok(DspBackend::Simd),
            other => Err(format!(
                "unknown DSP backend '{other}' (expected auto|scalar|simd)"
            )),
        }
    }
}

/// Lane width of the blocked FIR kernels. All 4-lane code in this crate
/// blocks by this constant so the scalar remainder loops stay in lockstep
/// with it.
pub const LANES: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_to_simd() {
        assert_eq!(DspBackend::Auto.resolve(), DspBackend::Simd);
        assert_eq!(DspBackend::Simd.resolve(), DspBackend::Simd);
        assert_eq!(DspBackend::Scalar.resolve(), DspBackend::Scalar);
        assert!(DspBackend::Auto.is_simd());
        assert!(!DspBackend::Scalar.is_simd());
    }

    #[test]
    fn round_trips_names() {
        for b in [DspBackend::Auto, DspBackend::Scalar, DspBackend::Simd] {
            assert_eq!(b.as_str().parse::<DspBackend>().unwrap(), b);
        }
        assert_eq!("SIMD".parse::<DspBackend>().unwrap(), DspBackend::Simd);
        assert!("sse9".parse::<DspBackend>().is_err());
    }
}

//! # arp-dsp — signal-processing substrate for strong-motion records
//!
//! Everything numeric the accelerographic-records pipeline needs, implemented
//! from scratch:
//!
//! * [`complex`] / [`fft`] — complex arithmetic and FFTs (radix-2 +
//!   Bluestein for arbitrary lengths), FFT convolution, per-length plans
//!   and reusable filter spectra.
//! * [`window`] / [`fir`] — window functions and the windowed-sinc
//!   "Hamming band-pass" filter of processes #4 and #13.
//! * [`baseline`] / [`integrate`] — baseline correction and trapezoidal
//!   integration from acceleration to velocity/displacement.
//! * [`spectrum`] — Fourier amplitude spectra (the `F` files of process #7).
//! * [`inflection`] — FPL/FSL corner extraction from the velocity spectrum
//!   (process #10), with the paper's early-termination search.
//! * [`peaks`] — PGA/PGV/PGD and intensity measures ("max values" files).
//! * [`respspec`] — elastic response spectra (process #16), with both the
//!   legacy `O(D²)`-per-period Duhamel kernel and the exact Nigam–Jennings
//!   recurrence.
//! * [`stats`] — statistics.
//! * [`backend`] — the [`DspBackend`] selector: the FIR kernels and the
//!   response spectra exist in a scalar and a blocked (SIMD) form that run
//!   the same operations in the same order per output, so the backends are
//!   bitwise-equal. The FFT runs one form under both.

#![warn(missing_docs)]

pub mod backend;
pub mod baseline;
pub mod complex;
pub mod error;
pub mod fft;
pub mod fir;
pub mod inflection;
pub mod integrate;
pub mod peaks;
pub mod respspec;
pub mod rotd;
pub mod spectrum;
pub mod stats;
pub mod window;

pub use backend::DspBackend;
pub use baseline::{remove_baseline, Baseline};
pub use complex::Complex;
pub use error::{require_finite, DspError};
pub use fir::{BandPass, FftFilter, FirFilter};
pub use inflection::{find_filter_corners, FilterCorners, InflectionConfig};
pub use peaks::{intensity_measures, peak_values, IntensityMeasures, PeakValues};
pub use respspec::{
    response_spectra_with, response_spectrum, response_spectrum_with, sdof_peaks, standard_periods,
    ResponseMethod, ResponseSpectrum, STANDARD_DAMPINGS,
};
pub use rotd::{rotd_sd, rotd_spectrum, RotD};
pub use spectrum::{fourier_spectrum, FourierSpectrum};
pub use window::WindowKind;

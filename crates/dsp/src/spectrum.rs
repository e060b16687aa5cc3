//! Fourier amplitude spectra of strong-motion records (the `F` files).
//!
//! Process #7 of the pipeline computes, for each corrected component, the
//! Fourier amplitude spectra of acceleration, velocity, and displacement.
//! Velocity and displacement spectra are obtained from the acceleration
//! spectrum by division by `iω` and `(iω)²` in the frequency domain, the
//! standard relationship for time-integrated signals.

use crate::backend::DspBackend;
use crate::error::{require_finite, DspError};
use crate::fft::{bin_frequency, FftPlan};

/// One-sided Fourier amplitude spectrum sampled at `n/2 + 1` frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct FourierSpectrum {
    /// Frequencies in Hz, ascending, starting at 0.
    pub frequency_hz: Vec<f64>,
    /// Acceleration amplitude spectrum (input units · s).
    pub acceleration: Vec<f64>,
    /// Velocity amplitude spectrum.
    pub velocity: Vec<f64>,
    /// Displacement amplitude spectrum.
    pub displacement: Vec<f64>,
}

impl FourierSpectrum {
    /// Number of spectral points.
    pub fn len(&self) -> usize {
        self.frequency_hz.len()
    }

    /// True if the spectrum has no points.
    pub fn is_empty(&self) -> bool {
        self.frequency_hz.is_empty()
    }

    /// Period axis (s) for points with nonzero frequency. The DC point maps
    /// to infinity and is skipped by period-domain consumers.
    pub fn periods(&self) -> Vec<f64> {
        self.frequency_hz
            .iter()
            .map(|&f| if f > 0.0 { 1.0 / f } else { f64::INFINITY })
            .collect()
    }
}

/// Computes the one-sided Fourier amplitude spectra of an acceleration trace
/// sampled at `dt` seconds.
///
/// Amplitudes are scaled by `dt` so they approximate the continuous Fourier
/// transform magnitude. Velocity/displacement follow by `1/ω`, `1/ω²`; their
/// DC values are set to 0 (the division is singular there).
pub fn fourier_spectrum(acc: &[f64], dt: f64) -> Result<FourierSpectrum, DspError> {
    fourier_spectrum_with(acc, dt, DspBackend::Auto)
}

/// As [`fourier_spectrum`] with an explicit [`DspBackend`]; every backend
/// runs the same FFT. Plans the transform afresh on each call.
pub fn fourier_spectrum_with(
    acc: &[f64],
    dt: f64,
    _backend: DspBackend,
) -> Result<FourierSpectrum, DspError> {
    validate(acc, dt)?;
    Ok(spectrum_of(acc, dt, &FftPlan::forward(acc.len())))
}

/// As [`fourier_spectrum`] with a forward [`FftPlan`] of the record's
/// length, so records of one length (a station's components) share the
/// plan's chirp and chirp transform. Bitwise-equal to
/// [`fourier_spectrum`].
///
/// A record holding `NaN` or `±inf` is a [`DspError::NonFiniteSample`];
/// a plan for another length or direction is an
/// [`DspError::InvalidArgument`].
pub fn fourier_spectrum_planned(
    acc: &[f64],
    dt: f64,
    plan: &FftPlan,
) -> Result<FourierSpectrum, DspError> {
    validate(acc, dt)?;
    if plan.len() != acc.len() || plan.is_inverse() {
        return Err(DspError::InvalidArgument(format!(
            "a record of {} samples needs a forward FFT plan of that length, got {} plan of length {}",
            acc.len(),
            if plan.is_inverse() { "an inverse" } else { "a forward" },
            plan.len()
        )));
    }
    Ok(spectrum_of(acc, dt, plan))
}

/// The spectra of a validated record.
fn spectrum_of(acc: &[f64], dt: f64, plan: &FftPlan) -> FourierSpectrum {
    let n = acc.len();
    let spec = plan.run_real(acc);
    let half = n / 2 + 1;

    let mut frequency_hz = Vec::with_capacity(half);
    let mut acceleration = Vec::with_capacity(half);
    let mut velocity = Vec::with_capacity(half);
    let mut displacement = Vec::with_capacity(half);

    #[allow(clippy::needless_range_loop)] // k is a DFT bin index, not just a position
    for k in 0..half {
        let f = bin_frequency(k, n, dt);
        let amp = spec[k].abs() * dt;
        frequency_hz.push(f);
        acceleration.push(amp);
        if k == 0 {
            velocity.push(0.0);
            displacement.push(0.0);
        } else {
            let w = 2.0 * std::f64::consts::PI * f;
            velocity.push(amp / w);
            displacement.push(amp / (w * w));
        }
    }

    FourierSpectrum {
        frequency_hz,
        acceleration,
        velocity,
        displacement,
    }
}

/// Checks the sampling interval, the length and the samples' finiteness.
fn validate(acc: &[f64], dt: f64) -> Result<(), DspError> {
    if !(dt.is_finite() && dt > 0.0) {
        return Err(DspError::InvalidSampling(dt));
    }
    if acc.len() < 2 {
        return Err(DspError::TooShort {
            needed: 2,
            got: acc.len(),
        });
    }
    require_finite(acc)
}

/// Centered moving-average smoothing with a window of `2*half_width + 1`
/// points (shrinking near the edges). `half_width == 0` returns a copy.
pub fn smooth_moving_average(x: &[f64], half_width: usize) -> Vec<f64> {
    if half_width == 0 || x.len() < 3 {
        return x.to_vec();
    }
    let n = x.len();
    let mut out = Vec::with_capacity(n);
    // Prefix sums for O(n) smoothing.
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    for &v in x {
        prefix.push(prefix.last().unwrap() + v);
    }
    for i in 0..n {
        let lo = i.saturating_sub(half_width);
        let hi = (i + half_width).min(n - 1);
        let count = (hi - lo + 1) as f64;
        out.push((prefix[hi + 1] - prefix[lo]) / count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn tone_peaks_at_its_frequency() {
        let dt = 0.01;
        let n = 4096;
        let f0 = 2.0;
        let acc: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * f0 * i as f64 * dt).sin())
            .collect();
        let spec = fourier_spectrum(&acc, dt).unwrap();
        let peak_idx = spec
            .acceleration
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((spec.frequency_hz[peak_idx] - f0).abs() < 0.05);
    }

    #[test]
    fn velocity_spectrum_is_acc_over_omega() {
        let dt = 0.005;
        let n = 1024;
        let acc: Vec<f64> = (0..n).map(|i| ((i % 37) as f64 - 18.0) * 0.1).collect();
        let spec = fourier_spectrum(&acc, dt).unwrap();
        #[allow(clippy::needless_range_loop)]
        for k in 1..spec.len() {
            let w = 2.0 * PI * spec.frequency_hz[k];
            assert!((spec.velocity[k] - spec.acceleration[k] / w).abs() < 1e-12);
            assert!((spec.displacement[k] - spec.acceleration[k] / (w * w)).abs() < 1e-12);
        }
        assert_eq!(spec.velocity[0], 0.0);
        assert_eq!(spec.displacement[0], 0.0);
    }

    #[test]
    fn spectrum_length_is_half_plus_one() {
        let dt = 0.01;
        for n in [16usize, 17, 100, 1001] {
            let acc = vec![1.0; n];
            let spec = fourier_spectrum(&acc, dt).unwrap();
            assert_eq!(spec.len(), n / 2 + 1);
            assert!(!spec.is_empty());
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(fourier_spectrum(&[1.0], 0.01).is_err());
        assert!(fourier_spectrum(&[1.0, 2.0], 0.0).is_err());
    }

    #[test]
    fn non_finite_sample_is_a_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut acc = vec![1.0; 64];
            acc[9] = bad;
            let want = DspError::NonFiniteSample { index: 9 };
            assert_eq!(fourier_spectrum(&acc, 0.01).unwrap_err(), want);
            let plan = FftPlan::forward(64);
            assert_eq!(
                fourier_spectrum_planned(&acc, 0.01, &plan).unwrap_err(),
                want
            );
        }
    }

    #[test]
    fn planned_spectrum_equals_fresh_and_checks_its_plan() {
        let acc: Vec<f64> = (0..1001)
            .map(|i| ((i * 13 % 29) as f64 - 14.0) * 0.3)
            .collect();
        let plan = FftPlan::forward(acc.len());
        assert_eq!(
            fourier_spectrum_planned(&acc, 0.005, &plan).unwrap(),
            fourier_spectrum(&acc, 0.005).unwrap()
        );
        for wrong in [FftPlan::forward(1000), FftPlan::inverse(1001)] {
            let err = fourier_spectrum_planned(&acc, 0.005, &wrong).unwrap_err();
            assert!(matches!(err, DspError::InvalidArgument(_)), "{err:?}");
        }
    }

    #[test]
    fn periods_are_reciprocal_frequencies() {
        let spec = fourier_spectrum(&vec![1.0; 64], 0.02).unwrap();
        let periods = spec.periods();
        assert!(periods[0].is_infinite());
        for (p, f) in periods.iter().zip(&spec.frequency_hz).skip(1) {
            assert!((p - 1.0 / f).abs() < 1e-12);
        }
    }

    #[test]
    fn smoothing_preserves_constant() {
        let x = vec![3.0; 50];
        let y = smooth_moving_average(&x, 4);
        assert!(y.iter().all(|&v| (v - 3.0).abs() < 1e-12));
    }

    #[test]
    fn smoothing_reduces_variance() {
        let x: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let y = smooth_moving_average(&x, 3);
        let var = |v: &[f64]| v.iter().map(|a| a * a).sum::<f64>() / v.len() as f64;
        assert!(var(&y) < 0.2 * var(&x));
    }

    #[test]
    fn smoothing_zero_width_is_identity() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(smooth_moving_average(&x, 0), x);
    }

    #[test]
    fn smoothing_matches_naive() {
        let x: Vec<f64> = (0..30).map(|i| ((i * 7) % 11) as f64).collect();
        let hw = 2;
        let fast = smooth_moving_average(&x, hw);
        #[allow(clippy::needless_range_loop)]
        for i in 0..x.len() {
            let lo = i.saturating_sub(hw);
            let hi = (i + hw).min(x.len() - 1);
            let naive: f64 = x[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64;
            assert!((fast[i] - naive).abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_like_energy_sanity() {
        // Spectrum of a unit impulse is flat at dt.
        let dt = 0.02;
        let mut acc = vec![0.0; 128];
        acc[0] = 1.0;
        let spec = fourier_spectrum(&acc, dt).unwrap();
        for v in &spec.acceleration {
            assert!((v - dt).abs() < 1e-12);
        }
    }
}

//! Windowed-sinc FIR filters — the "Hamming band-pass filter" of the paper.
//!
//! Strong-motion processing specifies its band-pass corners as four
//! frequencies: a low-stop/low-pass pair (`FSL`, `FPL`) defining the low-side
//! transition band, and a high-pass/high-stop pair defining the high side.
//! Process #4 applies a *default* band, and process #13 re-filters with the
//! event-specific `FSL`/`FPL` recovered from the velocity Fourier spectrum
//! (process #10).
//!
//! Design method: ideal band-pass impulse response truncated to `taps`
//! samples and tapered with a [`WindowKind`] (Hamming by default). The tap
//! count is derived from the narrower transition band using the standard
//! Hamming design rule (normalized transition width ≈ 3.3 / taps).

use crate::backend::{DspBackend, LANES};
use crate::error::DspError;
use crate::fft::{fft_convolve, next_pow2, TapSpectrum};
use crate::window::WindowKind;
use std::f64::consts::PI;

/// Band-pass corner frequencies in Hz.
///
/// The filter transitions from full stop to full pass between `fsl` and
/// `fpl`, and from full pass back to stop between `fph` and `fsh`:
///
/// ```text
/// gain
///  1 |        ____________
///    |       /            \
///  0 |______/              \______
///       fsl  fpl        fph  fsh    frequency
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BandPass {
    /// Low-stop frequency (Hz): below this the signal is rejected.
    pub fsl: f64,
    /// Low-pass frequency (Hz): above this (and below `fph`) the signal passes.
    pub fpl: f64,
    /// High-pass frequency (Hz): top of the passband.
    pub fph: f64,
    /// High-stop frequency (Hz): above this the signal is rejected.
    pub fsh: f64,
}

impl BandPass {
    /// The default band used by process #4 before the event-specific corners
    /// are known: 0.05–0.10 Hz low transition, 25–27 Hz high transition.
    /// These mirror typical strong-motion processing defaults (USGS/Caltech
    /// Vol.2-style long-period cut plus an anti-alias high cut).
    pub const DEFAULT: BandPass = BandPass {
        fsl: 0.05,
        fpl: 0.10,
        fph: 25.0,
        fsh: 27.0,
    };

    /// Creates a band, validating the corner ordering.
    pub fn new(fsl: f64, fpl: f64, fph: f64, fsh: f64) -> Result<Self, DspError> {
        let b = BandPass { fsl, fpl, fph, fsh };
        b.validate()?;
        Ok(b)
    }

    /// Returns the default band with the low-side corners replaced by the
    /// event-specific values from the Fourier analysis (process #10).
    pub fn with_low_corners(self, fsl: f64, fpl: f64) -> Result<Self, DspError> {
        BandPass::new(fsl, fpl, self.fph, self.fsh)
    }

    /// Checks `0 <= fsl < fpl < fph < fsh` and finiteness.
    pub fn validate(&self) -> Result<(), DspError> {
        let vals = [self.fsl, self.fpl, self.fph, self.fsh];
        if vals.iter().any(|v| !v.is_finite()) {
            return Err(DspError::InvalidBand(format!(
                "non-finite corner in {self:?}"
            )));
        }
        if !(0.0 <= self.fsl && self.fsl < self.fpl && self.fpl < self.fph && self.fph < self.fsh) {
            return Err(DspError::InvalidBand(format!(
                "corners must satisfy 0 <= fsl < fpl < fph < fsh, got {self:?}"
            )));
        }
        Ok(())
    }

    /// The narrower of the two transition bandwidths, Hz.
    pub fn min_transition(&self) -> f64 {
        (self.fpl - self.fsl).min(self.fsh - self.fph)
    }
}

/// A designed FIR filter (symmetric, linear-phase, odd tap count).
#[derive(Debug, Clone, PartialEq)]
pub struct FirFilter {
    coeffs: Vec<f64>,
    /// Sampling interval the filter was designed for (seconds).
    dt: f64,
}

impl FirFilter {
    /// Designs a windowed-sinc band-pass filter for signals sampled at
    /// interval `dt` seconds.
    ///
    /// The tap count follows the Hamming rule `taps ≈ 3.3 / (Δf · dt)` where
    /// `Δf` is the narrower transition band, clamped to `[11, max_taps]` and
    /// forced odd so the filter has an integral group delay.
    pub fn band_pass(band: BandPass, dt: f64, window: WindowKind) -> Result<Self, DspError> {
        Self::band_pass_with_max_taps(band, dt, window, 4001)
    }

    /// As [`FirFilter::band_pass`] but with an explicit cap on tap count.
    pub fn band_pass_with_max_taps(
        band: BandPass,
        dt: f64,
        window: WindowKind,
        max_taps: usize,
    ) -> Result<Self, DspError> {
        band.validate()?;
        if !(dt.is_finite() && dt > 0.0) {
            return Err(DspError::InvalidSampling(dt));
        }
        let nyquist = 0.5 / dt;
        if band.fpl >= nyquist {
            return Err(DspError::InvalidBand(format!(
                "low passband edge {} Hz is at/above Nyquist {} Hz",
                band.fpl, nyquist
            )));
        }

        // Effective band: clamp the high transition inside Nyquist, and use
        // the clamped corners *consistently* from here on (transition width,
        // cutoffs, normalization frequency all read `eff`, never `band`). A
        // record sampled more slowly than the default 27 Hz stop band simply
        // keeps everything up to Nyquist on the high side.
        let eff = if band.fsh >= nyquist {
            let fsh = nyquist * 0.999;
            let fph = (band.fph.min(fsh * 0.95)).max(band.fpl * 1.01);
            BandPass {
                fsl: band.fsl,
                fpl: band.fpl,
                fph,
                fsh,
            }
        } else {
            band
        };

        let trans = eff.min_transition().max(1e-6);
        let norm_trans = trans * dt; // transition width as fraction of fs
        let cap = max_taps.max(11);
        let mut taps = (3.3 / norm_trans).ceil() as usize;
        taps = taps.clamp(11, cap);
        if taps.is_multiple_of(2) {
            // Force an odd tap count without ever exceeding the cap: grow
            // when there is room, otherwise round down to the odd count just
            // below it (an even cap must not yield `cap + 1` taps).
            if taps < cap {
                taps += 1;
            } else {
                taps -= 1;
            }
        }

        // Cutoffs at transition-band midpoints.
        let f_lo = 0.5 * (eff.fsl + eff.fpl);
        let f_hi = 0.5 * (eff.fph + eff.fsh);
        let w_lo = 2.0 * f_lo * dt; // normalized to Nyquist=1
        let w_hi = (2.0 * f_hi * dt).min(1.0 - 1e-9);

        let m = (taps - 1) as isize / 2;
        let mut coeffs = Vec::with_capacity(taps);
        for i in -m..=m {
            // Ideal band-pass = highpass sinc difference: h[n] = w_hi sinc(w_hi n) - w_lo sinc(w_lo n)
            let h = if i == 0 {
                w_hi - w_lo
            } else {
                let x = PI * i as f64;
                ((w_hi * x).sin() - (w_lo * x).sin()) / x
            };
            let w = window.value((i + m) as usize, taps);
            coeffs.push(h * w);
        }

        // Normalize to unit gain at band center (geometric mean frequency).
        // A numerically zero gain there means the band is degenerate (the
        // designed filter passes essentially nothing at its own center);
        // returning the unnormalized near-zero filter would silently destroy
        // the signal downstream, so reject the band instead.
        let fc = (f_lo.max(1e-6) * f_hi).sqrt();
        let gain = frequency_gain(&coeffs, fc, dt);
        if gain.abs() <= 1e-12 {
            return Err(DspError::InvalidBand(format!(
                "band-center gain {gain:.3e} at {fc:.6} Hz is numerically zero; \
                 cannot normalize filter designed for {band:?} at dt={dt}"
            )));
        }
        for c in coeffs.iter_mut() {
            *c /= gain;
        }

        Ok(FirFilter { coeffs, dt })
    }

    /// Filter coefficients (odd length, symmetric).
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Number of taps.
    pub fn taps(&self) -> usize {
        self.coeffs.len()
    }

    /// Sampling interval the filter was designed for.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Magnitude response at frequency `f` Hz.
    pub fn gain_at(&self, f: f64) -> f64 {
        frequency_gain(&self.coeffs, f, self.dt).abs()
    }

    /// Applies the filter with zero-phase alignment (the linear-phase group
    /// delay of `(taps-1)/2` samples is compensated), returning an output of
    /// the same length as the input. Uses direct convolution — `O(N·taps)`.
    pub fn apply(&self, input: &[f64]) -> Vec<f64> {
        self.apply_with(input, DspBackend::Auto)
    }

    /// As [`FirFilter::apply`] with an explicit [`DspBackend`]. Scalar and
    /// SIMD backends produce bitwise-identical output.
    pub fn apply_with(&self, input: &[f64], backend: DspBackend) -> Vec<f64> {
        let full = convolve_direct_with(input, &self.coeffs, backend);
        center_slice(full, input.len(), self.coeffs.len())
    }

    /// Same as [`FirFilter::apply`] but computing the convolution via FFT —
    /// `O(N log N)`, faster for long filters. Produces the same output to
    /// within numerical tolerance.
    pub fn apply_fft(&self, input: &[f64]) -> Vec<f64> {
        self.apply_fft_with(input, DspBackend::Auto)
    }

    /// As [`FirFilter::apply_fft`]; every backend runs the same FFT. The
    /// taps are transformed afresh on each call: [`FftFilter`] keeps their
    /// spectrum for repeated use.
    pub fn apply_fft_with(&self, input: &[f64], _backend: DspBackend) -> Vec<f64> {
        if input.is_empty() {
            return Vec::new();
        }
        let full = fft_convolve(input, &self.coeffs);
        center_slice(full, input.len(), self.coeffs.len())
    }
}

/// A filter applied by FFT to several inputs. Its taps' spectrum depends
/// only on the filter and the transform size, so it is built once and
/// reused while successive inputs need the same size (a station's
/// components share their length). Each output is bitwise-equal to
/// [`FirFilter::apply_fft`]'s.
#[derive(Debug, Clone)]
pub struct FftFilter {
    filter: FirFilter,
    spectrum: Option<TapSpectrum>,
}

impl FftFilter {
    /// Wraps a designed filter; the tap spectrum is built on first use.
    pub fn new(filter: FirFilter) -> Self {
        FftFilter {
            filter,
            spectrum: None,
        }
    }

    /// The designed filter.
    pub fn filter(&self) -> &FirFilter {
        &self.filter
    }

    /// As [`FirFilter::apply_fft`], transforming the taps again only when
    /// `input` needs a different transform size than the last input.
    pub fn apply(&mut self, input: &[f64]) -> Vec<f64> {
        if input.is_empty() {
            return Vec::new();
        }
        let taps = &self.filter.coeffs;
        let spectrum = match self.spectrum.take() {
            Some(s) if s.size() == s.size_for(input.len()) => s,
            _ => TapSpectrum::new(taps, next_pow2(input.len() + taps.len() - 1)),
        };
        let full = spectrum.convolve(input);
        self.spectrum = Some(spectrum);
        center_slice(full, input.len(), taps.len())
    }
}

/// Frequency-response magnitude of a real FIR filter at frequency `f` Hz.
fn frequency_gain(coeffs: &[f64], f: f64, dt: f64) -> f64 {
    frequency_gain_with(coeffs, f, dt, DspBackend::Auto)
}

/// Frequency-response magnitude of a real FIR filter at frequency `f` Hz,
/// with an explicit [`DspBackend`].
///
/// Both backends accumulate the real/imaginary parts into four partial sums
/// (lane `l` owns taps `l, l+4, l+8, …`), reduced with the fixed tree
/// `(s0 + s1) + (s2 + s3)`. The per-lane operation sequences are identical,
/// so the backends are bitwise-equal; the SIMD form merely phrases the
/// multiply-accumulate so LLVM can keep the four lanes packed.
pub fn frequency_gain_with(coeffs: &[f64], f: f64, dt: f64, backend: DspBackend) -> f64 {
    let w = 2.0 * PI * f * dt;
    let mut re = [0.0f64; LANES];
    let mut im = [0.0f64; LANES];
    let chunks = coeffs.chunks_exact(LANES);
    let rem = chunks.remainder();
    match backend.resolve() {
        DspBackend::Scalar => {
            for (blk, ch) in chunks.enumerate() {
                for l in 0..LANES {
                    let n = (blk * LANES + l) as f64;
                    let (s, c) = (w * n).sin_cos();
                    re[l] += ch[l] * c;
                    im[l] -= ch[l] * s;
                }
            }
        }
        _ => {
            for (blk, ch) in chunks.enumerate() {
                // Trig stays scalar (libm); the mul-accumulate below is the
                // packed part. Same per-lane op order as the scalar arm.
                let mut s4 = [0.0f64; LANES];
                let mut c4 = [0.0f64; LANES];
                for l in 0..LANES {
                    let n = (blk * LANES + l) as f64;
                    let (s, c) = (w * n).sin_cos();
                    s4[l] = s;
                    c4[l] = c;
                }
                for l in 0..LANES {
                    re[l] += ch[l] * c4[l];
                    im[l] -= ch[l] * s4[l];
                }
            }
        }
    }
    let base = coeffs.len() - rem.len();
    for (l, &cf) in rem.iter().enumerate() {
        let n = (base + l) as f64;
        let (s, c) = (w * n).sin_cos();
        re[l] += cf * c;
        im[l] -= cf * s;
    }
    let re_t = (re[0] + re[1]) + (re[2] + re[3]);
    let im_t = (im[0] + im[1]) + (im[2] + im[3]);
    re_t.hypot(im_t)
}

/// Direct (time-domain) full convolution; output length `a+b-1`.
///
/// Both backends evaluate output `k` as the gather-form dot product
/// `Σ_i b_rev[i] · apad[k+i]` over a zero-padded copy of `a`, with `i`
/// ascending over the reversed taps. The SIMD path computes four consecutive
/// outputs per step — lane `l` reads the contiguous window `apad[k+l ..]` —
/// with per-output accumulation order identical to the scalar path, so the
/// backends are bitwise-equal. The scalar path is a single serial reduction
/// chain (latency-bound); the four independent SIMD accumulators are what
/// buy the throughput.
pub fn convolve_direct_with(a: &[f64], b: &[f64], backend: DspBackend) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let n = a.len();
    let m = b.len();
    let out_len = n + m - 1;

    // apad[m-1 .. m-1+n] = a, zeros elsewhere; br = reversed taps. Every
    // output then sums the full `m` taps — edge outputs just multiply into
    // the zero padding, keeping one accumulation order for all `k`.
    let mut apad = vec![0.0f64; n + 2 * (m - 1)];
    apad[m - 1..m - 1 + n].copy_from_slice(a);
    let br: Vec<f64> = b.iter().rev().copied().collect();

    let mut out = vec![0.0f64; out_len];
    match backend.resolve() {
        DspBackend::Scalar => {
            for (k, o) in out.iter_mut().enumerate() {
                let win = &apad[k..k + m];
                let mut acc = 0.0f64;
                for (x, y) in br.iter().zip(win.iter()) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
        _ => {
            let mut k = 0;
            while k + LANES <= out_len {
                let mut acc = [0.0f64; LANES];
                for (i, &x) in br.iter().enumerate() {
                    let win = &apad[k + i..k + i + LANES];
                    for l in 0..LANES {
                        acc[l] += x * win[l];
                    }
                }
                out[k..k + LANES].copy_from_slice(&acc);
                k += LANES;
            }
            // Remainder outputs: same serial per-output loop as scalar.
            for (k, o) in out.iter_mut().enumerate().skip(k) {
                let win = &apad[k..k + m];
                let mut acc = 0.0f64;
                for (x, y) in br.iter().zip(win.iter()) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
    }
    out
}

/// Extracts the group-delay-compensated central `n` samples of a full
/// convolution with a `taps`-length filter.
fn center_slice(mut full: Vec<f64>, n: usize, taps: usize) -> Vec<f64> {
    let delay = (taps - 1) / 2;
    if full.len() < delay + n {
        full.resize(delay + n, 0.0);
    }
    full.drain(..delay);
    full.truncate(n);
    full
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(f: f64, dt: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * PI * f * i as f64 * dt).sin())
            .collect()
    }

    fn rms(x: &[f64]) -> f64 {
        (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
    }

    #[test]
    fn band_validation() {
        assert!(BandPass::new(0.1, 0.2, 20.0, 25.0).is_ok());
        assert!(BandPass::new(0.2, 0.1, 20.0, 25.0).is_err()); // fsl > fpl
        assert!(BandPass::new(-0.1, 0.2, 20.0, 25.0).is_err());
        assert!(BandPass::new(0.1, 0.2, 25.0, 20.0).is_err());
        assert!(BandPass::new(f64::NAN, 0.2, 20.0, 25.0).is_err());
    }

    #[test]
    fn default_band_is_valid() {
        BandPass::DEFAULT.validate().unwrap();
    }

    #[test]
    fn with_low_corners_swaps_low_side() {
        let b = BandPass::DEFAULT.with_low_corners(0.2, 0.4).unwrap();
        assert_eq!(b.fsl, 0.2);
        assert_eq!(b.fpl, 0.4);
        assert_eq!(b.fph, BandPass::DEFAULT.fph);
    }

    #[test]
    fn design_produces_odd_symmetric_taps() {
        let f = FirFilter::band_pass(BandPass::DEFAULT, 0.01, WindowKind::Hamming).unwrap();
        let c = f.coeffs();
        assert_eq!(c.len() % 2, 1);
        for i in 0..c.len() / 2 {
            assert!(
                (c[i] - c[c.len() - 1 - i]).abs() < 1e-12,
                "asymmetric at {i}"
            );
        }
    }

    #[test]
    fn passband_tone_passes_stopband_tone_rejected() {
        let dt = 0.005; // 200 Hz
        let band = BandPass::new(0.2, 0.5, 20.0, 24.0).unwrap();
        let filt = FirFilter::band_pass(band, dt, WindowKind::Hamming).unwrap();
        let n = 8192;

        let pass = filt.apply(&tone(5.0, dt, n));
        let in_rms = rms(&tone(5.0, dt, n));
        // Interior (avoid edge transients)
        let interior = &pass[n / 4..3 * n / 4];
        assert!(
            (rms(interior) - in_rms).abs() / in_rms < 0.05,
            "passband attenuated"
        );

        let stop = filt.apply(&tone(0.05, dt, n));
        let stop_rms = rms(&stop[n / 4..3 * n / 4]);
        assert!(stop_rms < 0.05 * in_rms, "low stopband leak: {stop_rms}");

        let stop_hi = filt.apply(&tone(40.0, dt, n));
        let stop_hi_rms = rms(&stop_hi[n / 4..3 * n / 4]);
        assert!(
            stop_hi_rms < 0.05 * in_rms,
            "high stopband leak: {stop_hi_rms}"
        );
    }

    #[test]
    fn gain_profile() {
        let dt = 0.01;
        let band = BandPass::new(0.2, 0.5, 20.0, 24.0).unwrap();
        let filt = FirFilter::band_pass(band, dt, WindowKind::Hamming).unwrap();
        assert!(filt.gain_at(3.0) > 0.95);
        assert!(filt.gain_at(10.0) > 0.95);
        assert!(filt.gain_at(0.05) < 0.05);
        assert!(filt.gain_at(0.0) < 0.05);
    }

    #[test]
    fn fft_and_direct_agree() {
        let dt = 0.01;
        let filt = FirFilter::band_pass(BandPass::DEFAULT, dt, WindowKind::Hamming).unwrap();
        let x: Vec<f64> = (0..2000).map(|i| ((i * i) % 17) as f64 - 8.0).collect();
        let a = filt.apply(&x);
        let b = filt.apply_fft(&x);
        assert_eq!(a.len(), b.len());
        for (u, v) in a.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn output_length_matches_input() {
        let dt = 0.01;
        let filt = FirFilter::band_pass(BandPass::DEFAULT, dt, WindowKind::Hamming).unwrap();
        for n in [0usize, 1, 5, 100, 1000] {
            let x = vec![1.0; n];
            assert_eq!(filt.apply(&x).len(), n);
            assert_eq!(filt.apply_fft(&x).len(), n);
        }
    }

    #[test]
    fn linearity_of_filtering() {
        let dt = 0.01;
        let filt = FirFilter::band_pass(BandPass::DEFAULT, dt, WindowKind::Hamming).unwrap();
        let x = tone(1.0, dt, 500);
        let y = tone(3.0, dt, 500);
        let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| 2.0 * a + b).collect();
        let fs = filt.apply(&sum);
        let fx = filt.apply(&x);
        let fy = filt.apply(&y);
        for i in 0..500 {
            assert!((fs[i] - (2.0 * fx[i] + fy[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_band_above_nyquist() {
        let dt = 0.1; // Nyquist 5 Hz
        let band = BandPass::new(6.0, 7.0, 20.0, 25.0).unwrap();
        assert!(FirFilter::band_pass(band, dt, WindowKind::Hamming).is_err());
    }

    #[test]
    fn clamps_high_cut_to_nyquist() {
        let dt = 0.02; // Nyquist 25 Hz; DEFAULT fsh=27 exceeds it
        let filt = FirFilter::band_pass(BandPass::DEFAULT, dt, WindowKind::Hamming).unwrap();
        assert!(filt.gain_at(5.0) > 0.9);
    }

    #[test]
    fn rejects_bad_dt() {
        assert!(FirFilter::band_pass(BandPass::DEFAULT, 0.0, WindowKind::Hamming).is_err());
        assert!(FirFilter::band_pass(BandPass::DEFAULT, -0.01, WindowKind::Hamming).is_err());
        assert!(FirFilter::band_pass(BandPass::DEFAULT, f64::NAN, WindowKind::Hamming).is_err());
    }

    #[test]
    fn even_max_taps_cap_is_respected() {
        // Regression: the cap used to be applied before the force-odd
        // adjustment, so an even `max_taps` yielded `max_taps + 1` taps.
        let band = BandPass::new(0.05, 0.10, 25.0, 27.0).unwrap();
        for cap in [100usize, 101, 1200, 1201] {
            let f =
                FirFilter::band_pass_with_max_taps(band, 0.005, WindowKind::Hamming, cap).unwrap();
            assert!(f.taps() <= cap, "cap {cap} produced {} taps", f.taps());
            assert_eq!(f.taps() % 2, 1, "cap {cap} produced even tap count");
        }
    }

    #[test]
    fn degenerate_band_zero_gain_is_rejected() {
        // Regression: a band so narrow that the designed filter has
        // numerically zero gain at its own center used to skip normalization
        // silently and return a filter that annihilates the signal.
        let band = BandPass::new(1e-13, 2e-13, 3e-13, 4e-13).unwrap();
        let r = FirFilter::band_pass_with_max_taps(band, 0.01, WindowKind::Hamming, 101);
        assert!(
            matches!(r, Err(DspError::InvalidBand(_))),
            "expected InvalidBand, got {r:?}"
        );
    }

    #[test]
    fn low_sample_rate_clamped_corners_are_consistent() {
        // Regression/pin: with fsh >= Nyquist the high corners are clamped;
        // the transition width and cutoffs must all come from the clamped
        // band (one `eff` local), never a mix of raw and clamped corners.
        let dt = 0.02; // Nyquist 25 Hz < DEFAULT fsh 27 Hz -> clamp kicks in
        let f = FirFilter::band_pass(BandPass::DEFAULT, dt, WindowKind::Hamming).unwrap();
        // Narrow side is the low transition (0.05 Hz): 3.3/(0.05*0.02) =
        // 3300 taps, forced odd below the 4001 cap.
        assert_eq!(f.taps(), 3301);
        // Passband intact; clamped high stop (24.975 Hz) rolls off hard.
        assert!(f.gain_at(10.0) > 0.9);
        assert!(f.gain_at(24.99) < 0.5);
    }

    #[test]
    fn scalar_and_simd_apply_are_bitwise_identical() {
        let dt = 0.005;
        let filt = FirFilter::band_pass(BandPass::DEFAULT, dt, WindowKind::Hamming).unwrap();
        let x: Vec<f64> = (0..3000)
            .map(|i| ((i * 37) % 101) as f64 * 0.13 - 6.0)
            .collect();
        for n in [0usize, 1, 3, 4, 5, 257, 3000] {
            let a = filt.apply_with(&x[..n], DspBackend::Scalar);
            let b = filt.apply_with(&x[..n], DspBackend::Simd);
            assert_eq!(a, b, "direct apply diverged at n={n}");
            let a = filt.apply_fft_with(&x[..n], DspBackend::Scalar);
            let b = filt.apply_fft_with(&x[..n], DspBackend::Simd);
            assert_eq!(a, b, "fft apply diverged at n={n}");
        }
        let g_s = frequency_gain_with(filt.coeffs(), 1.7, dt, DspBackend::Scalar);
        let g_v = frequency_gain_with(filt.coeffs(), 1.7, dt, DspBackend::Simd);
        assert_eq!(g_s.to_bits(), g_v.to_bits());
    }

    #[test]
    fn zero_phase_alignment() {
        // A narrow pulse should stay centered after filtering (linear phase
        // compensated), not shifted by the group delay.
        let dt = 0.01;
        let filt = FirFilter::band_pass(
            BandPass::new(0.2, 0.5, 20.0, 24.0).unwrap(),
            dt,
            WindowKind::Hamming,
        )
        .unwrap();
        let n = 1001;
        let mut x = vec![0.0; n];
        x[n / 2] = 1.0;
        let y = filt.apply(&x);
        let peak = y
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap()
            .0;
        assert!(
            (peak as isize - (n / 2) as isize).abs() <= 1,
            "peak at {peak}"
        );
    }
}

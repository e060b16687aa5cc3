//! Fast Fourier transforms, implemented from scratch.
//!
//! Two engines are provided:
//!
//! * an iterative radix-2 Cooley–Tukey transform for power-of-two lengths,
//!   and
//! * Bluestein's chirp-z algorithm for arbitrary lengths, which reduces an
//!   `N`-point DFT to a circular convolution executed with the radix-2
//!   engine.
//!
//! The public entry points ([`fft`], [`ifft`], [`rfft`], [`irfft`]) accept
//! any length. Conventions: `fft` computes `X[k] = sum_n x[n] e^{-2πi nk/N}`
//! (no normalization), `ifft` applies the `1/N` factor, matching the common
//! engineering convention used by strong-motion processing codes.
//!
//! What does not depend on the data is computed once per key, never per
//! call: the radix-2 bit-reversal permutation and twiddles once per
//! process for each power-of-two size, Bluestein's chirp and its
//! transform once per [`FftPlan`] (one length and direction), and a
//! filter's spectrum once per [`TapSpectrum`] (one tap set and transform
//! size). Each cached value is the very value the per-call code computed,
//! so outputs are bit-for-bit those of a transform that recomputes
//! everything.

use crate::complex::Complex;
use std::f64::consts::PI;
use std::sync::OnceLock;

/// Returns the smallest power of two `>= n` (and `>= 1`).
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// True if `n` is a power of two (and nonzero).
#[inline]
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Per-size radix-2 tables; slot `log2(n)` holds size `n`'s, built on
/// first use and shared, read-only, by every later transform of that size.
static RADIX2: [OnceLock<Radix2>; usize::BITS as usize] =
    [const { OnceLock::new() }; usize::BITS as usize];

/// What a size-`n` radix-2 transform needs that depends on `n` alone.
struct Radix2 {
    /// Bit-reversal permutation: input `rev[i]` goes to position `i`.
    rev: Box<[usize]>,
    /// Forward and inverse twiddles.
    forward: Twiddles,
    inverse: Twiddles,
}

/// The twiddles of every stage, real and imaginary parts apart. Stage
/// `len` reads its `len/2` twiddles `e^{sign·2πi·j/len}` from
/// `[len/2 - 1 .. len - 1]`, contiguously. They are the values the
/// half-size table `tw[j] = e^{sign·2πi·j/n}` holds at stride `n/len`,
/// copied from it, so the butterflies see the bits a per-call table gave.
struct Twiddles {
    re: Box<[f64]>,
    im: Box<[f64]>,
}

impl Twiddles {
    fn new(n: usize, inverse: bool) -> Self {
        let sign = if inverse { 1.0 } else { -1.0 };
        let tw: Vec<Complex> = (0..n / 2)
            .map(|j| Complex::cis(sign * 2.0 * PI * j as f64 / n as f64))
            .collect();
        let mut stages = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            let stride = n / len;
            stages.extend((0..len / 2).map(|j| tw[j * stride]));
            len <<= 1;
        }
        Twiddles {
            re: stages.iter().map(|w| w.re).collect(),
            im: stages.iter().map(|w| w.im).collect(),
        }
    }
}

/// The cached tables of power-of-two size `n >= 2`.
fn radix2(n: usize) -> &'static Radix2 {
    debug_assert!(is_pow2(n) && n >= 2);
    RADIX2[n.trailing_zeros() as usize].get_or_init(|| {
        let shift = n.leading_zeros() + 1;
        Radix2 {
            rev: (0..n).map(|i| i.reverse_bits() >> shift).collect(),
            forward: Twiddles::new(n, false),
            inverse: Twiddles::new(n, true),
        }
    })
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// `inverse` selects the conjugate transform (without the `1/N` factor).
///
/// The data is permuted into bit-reversed order while it is split into
/// real and imaginary arrays, and every stage runs on those arrays, so the
/// butterflies vectorize without shuffles. Each butterfly is `Complex`'s
/// own arithmetic, written out per part: `v = b·w`, `a' = a + v`,
/// `b' = a − v`. Twiddles come from the size's cached table rather than
/// the serial `w *= wlen` recurrence, which chained every butterfly to
/// the previous one and accumulated rounding. Both backends run this one
/// butterfly loop.
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
fn fft_pow2_inplace(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(
        is_pow2(n),
        "fft_pow2_inplace requires power-of-two length, got {n}"
    );
    if n == 1 {
        return;
    }
    let tables = radix2(n);
    let tw = if inverse {
        &tables.inverse
    } else {
        &tables.forward
    };
    let (mut re, mut im) = (vec![0.0; n], vec![0.0; n]);
    for ((r, i), &j) in re.iter_mut().zip(im.iter_mut()).zip(tables.rev.iter()) {
        let z = data[j];
        (*r, *i) = (z.re, z.im);
    }

    let mut len = if n >= 4 {
        first_two_stages(&mut re, &mut im, &tw.re[..3], &tw.im[..3]);
        8
    } else {
        2
    };
    while len <= n {
        let half = len / 2;
        stage(
            &mut re,
            &mut im,
            &tw.re[half - 1..len - 1],
            &tw.im[half - 1..len - 1],
        );
        len <<= 1;
    }
    for (z, (&r, &i)) in data.iter_mut().zip(re.iter().zip(im.iter())) {
        *z = Complex::new(r, i);
    }
}

/// One butterfly: `v = b·w`, `a' = a + v`, `b' = a − v`, in
/// `Complex`'s operation order.
#[inline(always)]
fn butterfly(a: (f64, f64), b: (f64, f64), w: (f64, f64)) -> ((f64, f64), (f64, f64)) {
    let vr = b.0 * w.0 - b.1 * w.1;
    let vi = b.0 * w.1 + b.1 * w.0;
    ((a.0 + vr, a.1 + vi), (a.0 - vr, a.1 - vi))
}

/// Stages `len = 2` and `len = 4` in one pass over blocks of four points:
/// each point meets the same butterflies, in the same order, as in two
/// passes of [`stage`], but is loaded and stored once, and no block runs
/// a one- or two-iteration loop. `w` holds the two stages' three
/// twiddles.
#[inline(never)]
fn first_two_stages(re: &mut [f64], im: &mut [f64], wr: &[f64], wi: &[f64]) {
    let w: [(f64, f64); 3] = std::array::from_fn(|k| (wr[k], wi[k]));
    for (cr, ci) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
        let x: [(f64, f64); 4] = std::array::from_fn(|k| (cr[k], ci[k]));
        let (x0, x1) = butterfly(x[0], x[1], w[0]);
        let (x2, x3) = butterfly(x[2], x[3], w[0]);
        let (y0, y2) = butterfly(x0, x2, w[1]);
        let (y1, y3) = butterfly(x1, x3, w[2]);
        for (k, y) in [y0, y1, y2, y3].into_iter().enumerate() {
            cr[k] = y.0;
            ci[k] = y.1;
        }
    }
}

/// One radix-2 stage over the whole transform: blocks of `2·w.len()`
/// points, each pairing its halves `(a, b)` with twiddles `w`.
///
/// Not inlined: as its own function, `re` and `im` are known not to
/// overlap, so the butterflies vectorize with no run-time aliasing check
/// per block.
#[inline(never)]
fn stage(re: &mut [f64], im: &mut [f64], wr: &[f64], wi: &[f64]) {
    let half = wr.len();
    let wi = &wi[..half];
    for (cr, ci) in re
        .chunks_exact_mut(2 * half)
        .zip(im.chunks_exact_mut(2 * half))
    {
        let (ar, br) = cr.split_at_mut(half);
        let (ai, bi) = ci.split_at_mut(half);
        for j in 0..half {
            let (a, b) = butterfly((ar[j], ai[j]), (br[j], bi[j]), (wr[j], wi[j]));
            (ar[j], ai[j]) = a;
            (br[j], bi[j]) = b;
        }
    }
}

/// A transform of one length and direction, with everything that depends
/// only on those two built once: for a length that is not a power of two,
/// Bluestein's chirp and the chirp's transform. One plan serves every
/// record of its length, e.g. the three components of a station.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    inverse: bool,
    /// `None` for power-of-two lengths, which run radix-2 directly.
    bluestein: Option<Bluestein>,
}

/// Bluestein's per-length constants.
#[derive(Debug, Clone)]
struct Bluestein {
    /// Chirp `w[k] = e^{sign·iπ·k²/n}`, `k < n`.
    chirp: Vec<Complex>,
    /// Forward radix-2 transform of the conjugate chirp, wrapped and
    /// zero-padded to `m = next_pow2(2n - 1)` points.
    chirp_fft: Vec<Complex>,
}

impl Bluestein {
    fn new(n: usize, inverse: bool) -> Self {
        let sign = if inverse { 1.0 } else { -1.0 };
        // Chirp w[k] = e^{sign * i * pi * k^2 / n}; computed with k^2 mod 2n
        // to keep the argument small and accurate for large k.
        let m2 = 2 * n;
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                let kk = (k * k) % m2;
                Complex::cis(sign * PI * kk as f64 / n as f64)
            })
            .collect();

        let m = next_pow2(2 * n - 1);
        let mut b = vec![Complex::ZERO; m];
        b[0] = chirp[0].conj();
        for i in 1..n {
            let v = chirp[i].conj();
            b[i] = v;
            b[m - i] = v;
        }
        fft_pow2_inplace(&mut b, false);
        Bluestein {
            chirp,
            chirp_fft: b,
        }
    }

    /// Arbitrary-length DFT via chirp multiplication and a power-of-two
    /// circular convolution with the precomputed chirp transform.
    fn run(&self, data: &mut [Complex]) {
        let m = self.chirp_fft.len();
        let mut a = vec![Complex::ZERO; m];
        for (i, (&x, &c)) in data.iter().zip(self.chirp.iter()).enumerate() {
            a[i] = x * c;
        }
        fft_pow2_inplace(&mut a, false);
        for (x, y) in a.iter_mut().zip(self.chirp_fft.iter()) {
            *x *= *y;
        }
        fft_pow2_inplace(&mut a, true);
        let inv_m = 1.0 / m as f64;

        for (k, out) in data.iter_mut().enumerate() {
            *out = a[k].scale(inv_m) * self.chirp[k];
        }
    }
}

impl FftPlan {
    /// Plans the forward transform of length `n`.
    pub fn forward(n: usize) -> Self {
        Self::new(n, false)
    }

    /// Plans the inverse transform of length `n` (with the `1/N` factor).
    pub fn inverse(n: usize) -> Self {
        Self::new(n, true)
    }

    fn new(n: usize, inverse: bool) -> Self {
        let bluestein = (n > 0 && !is_pow2(n)).then(|| Bluestein::new(n, inverse));
        FftPlan {
            n,
            inverse,
            bluestein,
        }
    }

    /// The length this plan transforms.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for an inverse transform.
    pub fn is_inverse(&self) -> bool {
        self.inverse
    }

    /// True for the plan of the empty transform.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Transforms `data` in place.
    ///
    /// # Panics
    /// Panics if `data.len()` is not the plan's length.
    pub fn run(&self, data: &mut [Complex]) {
        assert_eq!(
            data.len(),
            self.n,
            "FftPlan of length {} got {}",
            self.n,
            data.len()
        );
        if self.n == 0 {
            return;
        }
        match &self.bluestein {
            Some(b) => b.run(data),
            None => fft_pow2_inplace(data, self.inverse),
        }
        if self.inverse {
            let inv_n = 1.0 / self.n as f64;
            for z in data.iter_mut() {
                *z = z.scale(inv_n);
            }
        }
    }

    /// Transforms a real signal, returning the full `N`-point spectrum.
    pub fn run_real(&self, input: &[f64]) -> Vec<Complex> {
        let mut data: Vec<Complex> = input.iter().map(|&x| Complex::from_re(x)).collect();
        self.run(&mut data);
        data
    }
}

/// Forward DFT of arbitrary length. Returns a new vector of the same length.
///
/// Power-of-two lengths use radix-2 directly; other lengths use Bluestein.
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let mut data = input.to_vec();
    fft_inplace(&mut data);
    data
}

/// Inverse DFT of arbitrary length (includes the `1/N` normalization).
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let mut data = input.to_vec();
    ifft_inplace(&mut data);
    data
}

/// In-place forward DFT of arbitrary length.
pub fn fft_inplace(data: &mut [Complex]) {
    FftPlan::forward(data.len()).run(data);
}

/// In-place inverse DFT of arbitrary length (includes the `1/N` factor).
pub fn ifft_inplace(data: &mut [Complex]) {
    FftPlan::inverse(data.len()).run(data);
}

/// Forward DFT of a real signal. Returns the full `N`-point complex spectrum
/// (conjugate-symmetric: `X[N-k] = conj(X[k])`).
pub fn rfft(input: &[f64]) -> Vec<Complex> {
    FftPlan::forward(input.len()).run_real(input)
}

/// Inverse DFT returning only the real parts. The imaginary residue (which is
/// numerically tiny when the input spectrum is conjugate-symmetric) is
/// discarded.
pub fn irfft(input: &[Complex]) -> Vec<f64> {
    ifft(input).into_iter().map(|z| z.re).collect()
}

/// Frequency (Hz) of DFT bin `k` for a length-`n` signal at sampling interval
/// `dt` seconds. Bins above `n/2` represent negative frequencies.
#[inline]
pub fn bin_frequency(k: usize, n: usize, dt: f64) -> f64 {
    let fs = 1.0 / dt;
    let k = k as f64;
    let n = n as f64;
    if k <= n / 2.0 {
        k * fs / n
    } else {
        (k - n) * fs / n
    }
}

/// Linear (acyclic) convolution of two real sequences via zero-padded FFT.
/// Output length is `a.len() + b.len() - 1`.
pub fn fft_convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    TapSpectrum::new(b, next_pow2(a.len() + b.len() - 1)).convolve(a)
}

/// The transform of a real tap sequence zero-padded to one power-of-two
/// size: the half of [`fft_convolve`] that depends only on the filter.
/// Built once, it convolves every input whose full convolution fits that
/// size, bitwise-equal to a fresh [`fft_convolve`] each time.
#[derive(Debug, Clone)]
pub struct TapSpectrum {
    taps: usize,
    spectrum: Vec<Complex>,
}

impl TapSpectrum {
    /// Transforms `taps` at size `m`.
    ///
    /// # Panics
    /// Panics if `taps` is empty, `m` is not a power of two or `m` is
    /// shorter than `taps`.
    pub fn new(taps: &[f64], m: usize) -> Self {
        assert!(
            !taps.is_empty() && is_pow2(m) && m >= taps.len(),
            "TapSpectrum of {} taps at size {m}",
            taps.len()
        );
        let mut spectrum = vec![Complex::ZERO; m];
        for (dst, &x) in spectrum.iter_mut().zip(taps.iter()) {
            *dst = Complex::from_re(x);
        }
        fft_pow2_inplace(&mut spectrum, false);
        TapSpectrum {
            taps: taps.len(),
            spectrum,
        }
    }

    /// The transform size.
    pub fn size(&self) -> usize {
        self.spectrum.len()
    }

    /// The size [`fft_convolve`] transforms an `n`-sample input at.
    pub fn size_for(&self, n: usize) -> usize {
        next_pow2(n + self.taps - 1)
    }

    /// Linear convolution of `a` with the taps; output length
    /// `a.len() + taps - 1`.
    ///
    /// # Panics
    /// Panics unless `a` is non-empty and `self.size_for(a.len())` is this
    /// spectrum's size.
    pub fn convolve(&self, a: &[f64]) -> Vec<f64> {
        let m = self.spectrum.len();
        assert!(
            !a.is_empty() && self.size_for(a.len()) == m,
            "input of {} samples does not convolve at size {m}",
            a.len()
        );
        let out_len = a.len() + self.taps - 1;
        let mut fa = vec![Complex::ZERO; m];
        for (dst, &x) in fa.iter_mut().zip(a.iter()) {
            *dst = Complex::from_re(x);
        }
        fft_pow2_inplace(&mut fa, false);
        for (x, y) in fa.iter_mut().zip(self.spectrum.iter()) {
            *x *= *y;
        }
        fft_pow2_inplace(&mut fa, true);
        let inv_m = 1.0 / m as f64;
        fa.truncate(out_len);
        fa.into_iter().map(|z| z.re * inv_m).collect()
    }
}

/// Naive `O(N^2)` DFT, used as a reference implementation in tests and kept
/// public so benchmarks can compare against it.
pub fn dft_naive(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &x) in input.iter().enumerate() {
                let ang = -2.0 * PI * (j * k % n) as f64 / n as f64;
                acc += x * Complex::cis(ang);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "mismatch at {i}: {x:?} vs {y:?}"
            );
        }
    }

    fn impulse(n: usize) -> Vec<Complex> {
        let mut v = vec![Complex::ZERO; n];
        v[0] = Complex::ONE;
        v
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1000), 1024);
        assert_eq!(next_pow2(1024), 1024);
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        for &n in &[1usize, 2, 4, 8, 64] {
            let x = impulse(n);
            let spec = fft(&x);
            for z in &spec {
                assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let n = 16;
        let x = vec![Complex::ONE; n];
        let spec = fft(&x);
        assert!((spec[0].re - n as f64).abs() < 1e-9);
        for z in &spec[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn fft_matches_naive_pow2() {
        let n = 32;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        assert_close(&fft(&x), &dft_naive(&x), 1e-9);
    }

    #[test]
    fn fft_matches_naive_arbitrary_lengths() {
        for &n in &[3usize, 5, 6, 7, 12, 17, 100, 243] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.31).sin(), (i as f64 * 0.11).cos()))
                .collect();
            assert_close(&fft(&x), &dft_naive(&x), 1e-8);
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        for &n in &[8usize, 13, 50, 128] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new(i as f64, (n - i) as f64 * 0.5))
                .collect();
            let back = ifft(&fft(&x));
            assert_close(&back, &x, 1e-8);
        }
    }

    #[test]
    fn rfft_symmetry() {
        let n = 24;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin() + 0.2).collect();
        let spec = rfft(&x);
        for k in 1..n {
            let a = spec[k];
            let b = spec[n - k].conj();
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
        let back = irfft(&spec);
        for (u, v) in back.iter().zip(x.iter()) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * k0 as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = rfft(&x);
        // cos tone of amplitude 1 puts N/2 in bins k0 and N-k0.
        assert!((spec[k0].abs() - n as f64 / 2.0).abs() < 1e-9);
        assert!((spec[n - k0].abs() - n as f64 / 2.0).abs() < 1e-9);
        for (k, z) in spec.iter().enumerate() {
            if k != k0 && k != n - k0 {
                assert!(z.abs() < 1e-9, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn parseval_theorem() {
        let n = 100; // non power of two -> exercises Bluestein
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.2).cos()))
            .collect();
        let spec = fft(&x);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0));
    }

    #[test]
    fn bin_frequency_layout() {
        let n = 8;
        let dt = 0.01; // fs = 100 Hz
        assert_eq!(bin_frequency(0, n, dt), 0.0);
        assert!((bin_frequency(1, n, dt) - 12.5).abs() < 1e-12);
        assert!((bin_frequency(4, n, dt) - 50.0).abs() < 1e-12);
        assert!((bin_frequency(5, n, dt) + 37.5).abs() < 1e-12);
        assert!((bin_frequency(7, n, dt) + 12.5).abs() < 1e-12);
    }

    #[test]
    fn fft_convolve_matches_direct() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [0.5, -1.0, 0.25];
        let got = fft_convolve(&a, &b);
        let mut want = vec![0.0; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                want[i + j] += x * y;
            }
        }
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    fn fft_convolve_empty() {
        assert!(fft_convolve(&[], &[1.0]).is_empty());
        assert!(fft_convolve(&[1.0], &[]).is_empty());
    }

    #[test]
    fn linearity() {
        let n = 40;
        let x: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.0)).collect();
        let y: Vec<Complex> = (0..n)
            .map(|i| Complex::new(0.0, (i * i % 7) as f64))
            .collect();
        let alpha = Complex::new(2.0, -1.0);
        let combo: Vec<Complex> = x
            .iter()
            .zip(y.iter())
            .map(|(&a, &b)| a * alpha + b)
            .collect();
        let lhs = fft(&combo);
        let fx = fft(&x);
        let fy = fft(&y);
        let rhs: Vec<Complex> = fx
            .iter()
            .zip(fy.iter())
            .map(|(&a, &b)| a * alpha + b)
            .collect();
        assert_close(&lhs, &rhs, 1e-8);
    }

    #[test]
    fn empty_input_is_noop() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
    }

    #[test]
    fn time_shift_property() {
        // x[n-1] circularly shifted has spectrum X[k] * e^{-2pi i k/N}.
        let n = 16;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.9).sin(), 0.0))
            .collect();
        let mut shifted = x.clone();
        shifted.rotate_right(1);
        let fx = fft(&x);
        let fs = fft(&shifted);
        for k in 0..n {
            let phase = Complex::cis(-2.0 * PI * k as f64 / n as f64);
            let want = fx[k] * phase;
            assert!((fs[k].re - want.re).abs() < 1e-9 && (fs[k].im - want.im).abs() < 1e-9);
        }
    }
}

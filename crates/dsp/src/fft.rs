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

use crate::backend::DspBackend;
use crate::complex::Complex;
use std::f64::consts::PI;

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

/// In-place bit-reversal permutation for power-of-two-length slices.
fn bit_reverse_permute(data: &mut [Complex]) {
    let n = data.len();
    if n <= 2 {
        return;
    }
    let shift = n.leading_zeros() + 1;
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if j > i {
            data.swap(i, j);
        }
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// `inverse` selects the conjugate transform (without the `1/N` factor).
///
/// Twiddles come from one precomputed half-size table (stage `len` uses
/// stride `n/len`) rather than the serial `w *= wlen` recurrence, which
/// chained every butterfly to the previous one and accumulated rounding.
/// Both backends run this one butterfly loop.
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
    bit_reverse_permute(data);

    // tw[j] = e^{sign·2πi·j/n}; stage `len` reads tw[j · n/len] = e^{sign·2πi·j/len}.
    let sign = if inverse { 1.0 } else { -1.0 };
    let tw: Vec<Complex> = (0..n / 2)
        .map(|j| Complex::cis(sign * 2.0 * PI * j as f64 / n as f64))
        .collect();

    let mut len = 2;
    while len <= n {
        let stride = n / len;
        for chunk in data.chunks_mut(len) {
            let (lo, hi) = chunk.split_at_mut(len / 2);
            for (j, (a, b)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                let u = *a;
                let v = *b * tw[j * stride];
                *a = u + v;
                *b = u - v;
            }
        }
        len <<= 1;
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

/// As [`fft`]; every backend runs the same scalar butterflies.
pub fn fft_with(input: &[Complex], _backend: DspBackend) -> Vec<Complex> {
    fft(input)
}

/// Inverse DFT of arbitrary length (includes the `1/N` normalization).
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let mut data = input.to_vec();
    ifft_inplace(&mut data);
    data
}

/// As [`ifft`]; every backend runs the same scalar butterflies.
pub fn ifft_with(input: &[Complex], _backend: DspBackend) -> Vec<Complex> {
    ifft(input)
}

/// In-place forward DFT of arbitrary length.
pub fn fft_inplace(data: &mut [Complex]) {
    let n = data.len();
    if n == 0 {
        return;
    }
    if is_pow2(n) {
        fft_pow2_inplace(data, false);
    } else {
        bluestein(data, false);
    }
}

/// As [`fft_inplace`]; every backend runs the same scalar butterflies.
pub fn fft_inplace_with(data: &mut [Complex], _backend: DspBackend) {
    fft_inplace(data);
}

/// In-place inverse DFT of arbitrary length (includes the `1/N` factor).
pub fn ifft_inplace(data: &mut [Complex]) {
    let n = data.len();
    if n == 0 {
        return;
    }
    if is_pow2(n) {
        fft_pow2_inplace(data, true);
    } else {
        bluestein(data, true);
    }
    let inv_n = 1.0 / n as f64;
    for z in data.iter_mut() {
        *z = z.scale(inv_n);
    }
}

/// As [`ifft_inplace`]; every backend runs the same scalar butterflies.
pub fn ifft_inplace_with(data: &mut [Complex], _backend: DspBackend) {
    ifft_inplace(data);
}

/// Bluestein's algorithm: arbitrary-length DFT via chirp multiplication and a
/// power-of-two circular convolution.
fn bluestein(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    let sign = if inverse { 1.0 } else { -1.0 };

    // Chirp w[k] = e^{sign * i * pi * k^2 / n}; computed with k^2 mod 2n to
    // keep the argument small and accurate for large k.
    let m2 = 2 * n;
    let chirp: Vec<Complex> = (0..n)
        .map(|k| {
            let kk = (k * k) % m2;
            Complex::cis(sign * PI * kk as f64 / n as f64)
        })
        .collect();

    let m = next_pow2(2 * n - 1);
    let mut a = vec![Complex::ZERO; m];
    for (i, (&x, &c)) in data.iter().zip(chirp.iter()).enumerate() {
        a[i] = x * c;
    }
    let mut b = vec![Complex::ZERO; m];
    b[0] = chirp[0].conj();
    for i in 1..n {
        let v = chirp[i].conj();
        b[i] = v;
        b[m - i] = v;
    }

    fft_pow2_inplace(&mut a, false);
    fft_pow2_inplace(&mut b, false);
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x *= *y;
    }
    fft_pow2_inplace(&mut a, true);
    let inv_m = 1.0 / m as f64;

    for (k, out) in data.iter_mut().enumerate() {
        *out = a[k].scale(inv_m) * chirp[k];
    }
}

/// Forward DFT of a real signal. Returns the full `N`-point complex spectrum
/// (conjugate-symmetric: `X[N-k] = conj(X[k])`).
pub fn rfft(input: &[f64]) -> Vec<Complex> {
    let data: Vec<Complex> = input.iter().map(|&x| Complex::from_re(x)).collect();
    fft(&data)
}

/// As [`rfft`]; every backend runs the same scalar butterflies.
pub fn rfft_with(input: &[f64], _backend: DspBackend) -> Vec<Complex> {
    rfft(input)
}

/// Inverse DFT returning only the real parts. The imaginary residue (which is
/// numerically tiny when the input spectrum is conjugate-symmetric) is
/// discarded.
pub fn irfft(input: &[Complex]) -> Vec<f64> {
    ifft(input).into_iter().map(|z| z.re).collect()
}

/// As [`irfft`]; every backend runs the same scalar butterflies.
pub fn irfft_with(input: &[Complex], _backend: DspBackend) -> Vec<f64> {
    irfft(input)
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
    let out_len = a.len() + b.len() - 1;
    let m = next_pow2(out_len);
    let mut fa = vec![Complex::ZERO; m];
    let mut fb = vec![Complex::ZERO; m];
    for (dst, &x) in fa.iter_mut().zip(a.iter()) {
        *dst = Complex::from_re(x);
    }
    for (dst, &x) in fb.iter_mut().zip(b.iter()) {
        *dst = Complex::from_re(x);
    }
    fft_pow2_inplace(&mut fa, false);
    fft_pow2_inplace(&mut fb, false);
    for (x, y) in fa.iter_mut().zip(fb.iter()) {
        *x *= *y;
    }
    fft_pow2_inplace(&mut fa, true);
    let inv_m = 1.0 / m as f64;
    fa.truncate(out_len);
    fa.into_iter().map(|z| z.re * inv_m).collect()
}

/// As [`fft_convolve`]; every backend runs the same scalar butterflies.
pub fn fft_convolve_with(a: &[f64], b: &[f64], _backend: DspBackend) -> Vec<f64> {
    fft_convolve(a, b)
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

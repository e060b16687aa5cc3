//! Bit-level checks of the planned FFT paths: cached twiddle tables,
//! per-length [`FftPlan`]s and reused [`TapSpectrum`]s must give exactly
//! the bits of a transform that recomputes everything on every call. The
//! oracle below is that per-call transform, kept verbatim as the reference.

use arp_dsp::complex::Complex;
use arp_dsp::fft::{
    fft, fft_convolve, fft_inplace, ifft, ifft_inplace, irfft, next_pow2, rfft, FftPlan,
    TapSpectrum,
};
use arp_dsp::fir::{BandPass, FftFilter, FirFilter};
use arp_dsp::window::WindowKind;
use std::f64::consts::PI;

/// The per-call transforms the plans replaced: radix-2 with its twiddle
/// table rebuilt per call and read at stride `n/len`, and Bluestein with
/// its chirp and chirp transform rebuilt per call.
mod oracle {
    use super::*;

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

    pub fn fft_pow2_inplace(data: &mut [Complex], inverse: bool) {
        let n = data.len();
        if n == 1 {
            return;
        }
        bit_reverse_permute(data);
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

    fn bluestein(data: &mut [Complex], inverse: bool) {
        let n = data.len();
        let sign = if inverse { 1.0 } else { -1.0 };
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

    pub fn fft_inplace(data: &mut [Complex]) {
        let n = data.len();
        if n == 0 {
            return;
        }
        if n.is_power_of_two() {
            fft_pow2_inplace(data, false);
        } else {
            bluestein(data, false);
        }
    }

    pub fn ifft_inplace(data: &mut [Complex]) {
        let n = data.len();
        if n == 0 {
            return;
        }
        if n.is_power_of_two() {
            fft_pow2_inplace(data, true);
        } else {
            bluestein(data, true);
        }
        let inv_n = 1.0 / n as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv_n);
        }
    }

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
}

fn complex_bits_eq(got: &[Complex], want: &[Complex], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: bin {i}: {x:?} vs {y:?}"
        );
    }
}

fn bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: index {i}: {x} vs {y}");
    }
}

/// A deterministic complex signal with mixed magnitudes and signs.
fn signal(n: usize, seed: u64) -> Vec<Complex> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    (0..n)
        .map(|i| Complex::new(next() * 900.0, next() * (1.0 + (i % 17) as f64)))
        .collect()
}

fn is_prime(n: usize) -> bool {
    n >= 2
        && (2..)
            .take_while(|d| d * d <= n)
            .all(|d| !n.is_multiple_of(d))
}

/// Lengths 1–9,000: every length to 300, then primes, powers of two and
/// 2^k ± 1, and the record lengths the benchmark's events reach.
fn lengths() -> Vec<usize> {
    let mut ns: Vec<usize> = (1..=300).collect();
    ns.extend((301..=9000).filter(|&n| is_prime(n)).step_by(40));
    ns.extend([1009, 4093, 8191, 8999]);
    for k in 9..=13 {
        ns.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
    }
    ns.extend([1000, 2048 + 300, 5052, 6000, 9000]);
    ns.sort_unstable();
    ns.dedup();
    ns
}

#[test]
fn planned_transforms_equal_per_call_transforms_bit_for_bit() {
    for n in lengths() {
        let x = signal(n, n as u64);
        let mut want = x.clone();
        oracle::fft_inplace(&mut want);

        // One forward plan, reused for two different records.
        let forward = FftPlan::forward(n);
        let mut got = x.clone();
        forward.run(&mut got);
        complex_bits_eq(&got, &want, &format!("planned forward n={n}"));
        complex_bits_eq(&fft(&x), &want, &format!("fft n={n}"));

        let y = signal(n, n as u64 + 7);
        let mut want_y = y.clone();
        oracle::fft_inplace(&mut want_y);
        let mut got_y = y;
        forward.run(&mut got_y);
        complex_bits_eq(&got_y, &want_y, &format!("reused forward n={n}"));

        let mut want_inv = want.clone();
        oracle::ifft_inplace(&mut want_inv);
        let mut got_inv = want.clone();
        FftPlan::inverse(n).run(&mut got_inv);
        complex_bits_eq(&got_inv, &want_inv, &format!("planned inverse n={n}"));
        complex_bits_eq(&ifft(&want), &want_inv, &format!("ifft n={n}"));

        let mut inplace = x.clone();
        fft_inplace(&mut inplace);
        complex_bits_eq(&inplace, &want, &format!("fft_inplace n={n}"));
        ifft_inplace(&mut inplace);
        complex_bits_eq(&inplace, &want_inv, &format!("ifft_inplace n={n}"));
    }
}

#[test]
fn real_transforms_equal_per_call_transforms_bit_for_bit() {
    for n in [2usize, 3, 17, 100, 1024, 1500, 5052] {
        let re: Vec<f64> = signal(n, 3 * n as u64).iter().map(|z| z.re).collect();
        let mut want: Vec<Complex> = re.iter().map(|&x| Complex::from_re(x)).collect();
        oracle::fft_inplace(&mut want);
        complex_bits_eq(&rfft(&re), &want, &format!("rfft n={n}"));
        complex_bits_eq(
            &FftPlan::forward(n).run_real(&re),
            &want,
            &format!("run_real n={n}"),
        );
        let mut back = want.clone();
        oracle::ifft_inplace(&mut back);
        let back: Vec<f64> = back.into_iter().map(|z| z.re).collect();
        bits_eq(&irfft(&want), &back, &format!("irfft n={n}"));
    }
}

#[test]
fn empty_plan_is_a_noop() {
    let plan = FftPlan::forward(0);
    assert!(plan.is_empty());
    let mut data: Vec<Complex> = Vec::new();
    plan.run(&mut data);
    assert!(data.is_empty());
}

#[test]
#[should_panic(expected = "FftPlan of length 8 got 9")]
fn plan_rejects_another_length() {
    FftPlan::forward(8).run(&mut [Complex::ZERO; 9]);
}

#[test]
fn reused_tap_spectrum_equals_fresh_convolution() {
    let taps: Vec<f64> = signal(1201, 11).iter().map(|z| z.re * 1e-3).collect();
    // Inputs of several lengths that share one transform size, then sizes
    // that differ: one spectrum per size, each reused.
    for m in [2048usize, 4096, 8192] {
        let spectrum = TapSpectrum::new(&taps, m);
        assert_eq!(spectrum.size(), m);
        let longest = m - taps.len() + 1;
        // The shortest input of size m is m/2 - taps + 2 samples long.
        let shortest = (m / 2 + 2).saturating_sub(taps.len()).max(1);
        for (k, n) in [longest, longest - 1, shortest, (shortest + longest) / 2]
            .into_iter()
            .enumerate()
        {
            assert_eq!(spectrum.size_for(n), m, "n={n}");
            let a: Vec<f64> = signal(n, (m + k) as u64).iter().map(|z| z.im).collect();
            let want = oracle::fft_convolve(&a, &taps);
            bits_eq(&spectrum.convolve(&a), &want, &format!("m={m} n={n}"));
            bits_eq(
                &fft_convolve(&a, &taps),
                &want,
                &format!("fft_convolve n={n}"),
            );
        }
    }
}

#[test]
fn fft_filter_equals_apply_fft_across_inputs_and_sizes() {
    let filter = FirFilter::band_pass(BandPass::DEFAULT, 0.01, WindowKind::Hamming).unwrap();
    let mut reused = FftFilter::new(filter.clone());
    // Same size twice, a larger size, back to the first, and tiny inputs.
    for (k, n) in [5052usize, 5000, 7000, 5052, 1, 3, 0, 300]
        .into_iter()
        .enumerate()
    {
        let x: Vec<f64> = signal(n, 40 + k as u64).iter().map(|z| z.re).collect();
        let want = filter.apply_fft(&x);
        bits_eq(&reused.apply(&x), &want, &format!("n={n}"));
    }
    assert_eq!(reused.filter(), &filter);
}

#[test]
#[should_panic(expected = "does not convolve at size 1024")]
fn tap_spectrum_rejects_an_input_of_another_size() {
    TapSpectrum::new(&[1.0, 2.0, 3.0], 1024).convolve(&[1.0; 2000]);
}

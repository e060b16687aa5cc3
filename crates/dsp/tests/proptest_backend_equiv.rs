//! Property tests for the scalar ↔ SIMD backend contract: for every
//! vectorized kernel, the two backends must produce **bitwise-identical**
//! results (`f64::to_bits` equality, not approximate closeness). This is
//! what makes `--dsp-backend` a pure performance knob — pipeline products
//! stay byte-identical whichever backend runs.

use arp_dsp::backend::DspBackend;
use arp_dsp::fir::{convolve_direct_with, frequency_gain_with, BandPass, FirFilter};
use arp_dsp::respspec::{response_spectra_with, response_spectrum_with, ResponseMethod};
use arp_dsp::spectrum::fourier_spectrum_with;
use arp_dsp::window::WindowKind;
use proptest::prelude::*;

const S: DspBackend = DspBackend::Scalar;
const V: DspBackend = DspBackend::Simd;

fn signal_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3, 1..max_len)
}

/// Damping ratios over the whole legal range, with undamped oscillators
/// drawn exactly.
fn damping_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0f64), 0.0f64..0.98]
}

fn bits_eq(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "index {i}: scalar {x} vs simd {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fir_apply_is_bitwise_backend_invariant(x in signal_strategy(500)) {
        let filt = FirFilter::band_pass(BandPass::DEFAULT, 0.01, WindowKind::Hamming).unwrap();
        bits_eq(&filt.apply_with(&x, S), &filt.apply_with(&x, V));
        bits_eq(&filt.apply_fft_with(&x, S), &filt.apply_fft_with(&x, V));
    }

    #[test]
    fn convolve_direct_is_bitwise_backend_invariant(
        a in signal_strategy(300),
        b in signal_strategy(80),
    ) {
        bits_eq(&convolve_direct_with(&a, &b, S), &convolve_direct_with(&a, &b, V));
    }

    #[test]
    fn frequency_gain_is_bitwise_backend_invariant(
        coeffs in signal_strategy(200),
        f in 0.01f64..40.0,
    ) {
        let scalar = frequency_gain_with(&coeffs, f, 0.01, S);
        let simd = frequency_gain_with(&coeffs, f, 0.01, V);
        prop_assert_eq!(scalar.to_bits(), simd.to_bits(), "{} vs {}", scalar, simd);
    }

    #[test]
    fn response_spectrum_is_bitwise_backend_invariant(
        acc in prop::collection::vec(-500.0f64..500.0, 2..300),
        n_periods in 1usize..101,
        damping in damping_strategy(),
        method_nj in any::<bool>(),
    ) {
        // 1..=100 periods fill up to seven 16-period blocks, with every
        // length of padded last block.
        let periods: Vec<f64> = (1..=n_periods).map(|i| 0.05 * i as f64).collect();
        // Duhamel is O(D²) per period and runs the same per-period kernel
        // under both backends, so it keeps at most 10 periods.
        let (periods, method) = if method_nj {
            (&periods[..], ResponseMethod::NigamJennings)
        } else {
            (&periods[..n_periods.min(10)], ResponseMethod::Duhamel)
        };
        let rs = response_spectrum_with(&acc, 0.01, periods, damping, method, S).unwrap();
        let rv = response_spectrum_with(&acc, 0.01, periods, damping, method, V).unwrap();
        bits_eq(&rs.sd, &rv.sd);
        bits_eq(&rs.sv, &rv.sv);
        bits_eq(&rs.sa, &rv.sa);
    }

    #[test]
    fn response_spectra_match_per_damping_scalar_spectra(
        acc in prop::collection::vec(-500.0f64..500.0, 2..300),
        n_periods in 1usize..41,
        dampings in prop::collection::vec(damping_strategy(), 1..7),
    ) {
        // All dampings in one sweep: chains of different dampings share a
        // block, and each must still equal its own scalar spectrum.
        let periods: Vec<f64> = (1..=n_periods).map(|i| 0.07 * i as f64).collect();
        let nj = ResponseMethod::NigamJennings;
        let all = response_spectra_with(&acc, 0.01, &periods, &dampings, nj, V).unwrap();
        prop_assert_eq!(all.len(), dampings.len());
        for (spectrum, &damping) in all.iter().zip(&dampings) {
            let one = response_spectrum_with(&acc, 0.01, &periods, damping, nj, S).unwrap();
            prop_assert_eq!(spectrum.damping.to_bits(), damping.to_bits());
            bits_eq(&spectrum.periods, &periods);
            bits_eq(&spectrum.sd, &one.sd);
            bits_eq(&spectrum.sv, &one.sv);
            bits_eq(&spectrum.sa, &one.sa);
        }
    }

    #[test]
    fn fourier_spectrum_is_bitwise_backend_invariant(x in signal_strategy(400)) {
        let fs = fourier_spectrum_with(&x, 0.005, S).unwrap();
        let fv = fourier_spectrum_with(&x, 0.005, V).unwrap();
        bits_eq(&fs.frequency_hz, &fv.frequency_hz);
        bits_eq(&fs.acceleration, &fv.acceleration);
        bits_eq(&fs.velocity, &fv.velocity);
        bits_eq(&fs.displacement, &fv.displacement);
    }

    #[test]
    fn auto_backend_is_bitwise_equal_to_simd(x in signal_strategy(300)) {
        // `Auto` must resolve to the same kernels as an explicit `simd`.
        let filt = FirFilter::band_pass(BandPass::DEFAULT, 0.01, WindowKind::Hamming).unwrap();
        bits_eq(&filt.apply_with(&x, DspBackend::Auto), &filt.apply_with(&x, V));
    }
}

//! Property tests for the extension modules: RotD and the Kaiser window.

use arp_dsp::respspec::{sdof_peaks, ResponseMethod};
use arp_dsp::rotd::rotd_sd;
use arp_dsp::window::{bessel_i0, WindowKind};
use proptest::prelude::*;

fn signal(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rotd_ordering_always_holds(
        a in signal(32..150),
        period in 0.2f64..3.0,
        angles in 2usize..12,
    ) {
        let b: Vec<f64> = a.iter().rev().copied().collect();
        let r = rotd_sd(&a, &b, 0.01, period, 0.05, angles, ResponseMethod::NigamJennings).unwrap();
        prop_assert!(r.rotd00 <= r.rotd50 + 1e-12);
        prop_assert!(r.rotd50 <= r.rotd100 + 1e-12);
        prop_assert!(r.rotd00 >= 0.0);
        // RotD100 bounded by the worst single-component response times sqrt(2)
        // (the rotated trace is a unit-norm combination of the components).
        let pa = sdof_peaks(&a, 0.01, period, 0.05, ResponseMethod::NigamJennings).unwrap().sd;
        let pb = sdof_peaks(&b, 0.01, period, 0.05, ResponseMethod::NigamJennings).unwrap().sd;
        prop_assert!(r.rotd100 <= (pa + pb) * 1.0000001);
    }

    #[test]
    fn bessel_i0_monotone_and_even_argument_growth(x in 0.0f64..20.0, dx in 0.01f64..5.0) {
        // I0 is increasing on [0, inf) and >= 1.
        let a = bessel_i0(x);
        let b = bessel_i0(x + dx);
        prop_assert!(a >= 1.0);
        prop_assert!(b > a);
    }

    #[test]
    fn kaiser_window_bounded_unit(beta in 0.0f64..15.0, len in 2usize..80) {
        let w = WindowKind::Kaiser(beta).samples(len);
        for v in &w {
            prop_assert!(*v >= -1e-12 && *v <= 1.0 + 1e-12);
        }
    }
}

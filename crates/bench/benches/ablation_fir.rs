//! Ablation: direct `O(N·taps)` convolution vs FFT-based `O(N log N)`
//! application of the Hamming band-pass filter — the crossover justifies the
//! pipeline's choice of the FFT path for its long default filters — plus the
//! scalar vs SIMD backend rows for the convolution and frequency-response
//! kernels (`--dsp-backend`; both backends are bitwise-identical, so these
//! rows measure pure throughput).

use arp_dsp::backend::DspBackend;
use arp_dsp::fir::{frequency_gain_with, BandPass, FirFilter};
use arp_dsp::window::WindowKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const BACKENDS: [DspBackend; 2] = [DspBackend::Scalar, DspBackend::Simd];

fn bench_fir_application(c: &mut Criterion) {
    let dt = 0.01;
    let mut group = c.benchmark_group("ablation/fir_apply");
    group.sample_size(10);

    // A narrow transition band forces many taps (the pipeline's default
    // long-period cut); a wide one keeps the filter short.
    let bands = [
        ("short_filter", BandPass::new(1.0, 3.0, 20.0, 24.0).unwrap()),
        ("long_filter", BandPass::DEFAULT),
    ];
    for (tag, band) in bands {
        let filt = FirFilter::band_pass(band, dt, WindowKind::Hamming).unwrap();
        for &n in &[2000usize, 8000] {
            let x: Vec<f64> = (0..n)
                .map(|i| ((i * 13 % 101) as f64 - 50.0) * 0.1)
                .collect();
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("{tag}_{}taps_direct", filt.taps()), n),
                &x,
                |b, x| b.iter(|| filt.apply(x)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{tag}_{}taps_fft", filt.taps()), n),
                &x,
                |b, x| b.iter(|| filt.apply_fft(x)),
            );
        }
    }
    group.finish();
}

/// Scalar vs SIMD rows for the two FIR hot kernels: direct convolution
/// (`apply`, the serial-reduction-chain kernel the 4-lane accumulators are
/// aimed at) and the frequency-response probe used by filter design.
fn bench_fir_backends(c: &mut Criterion) {
    let dt = 0.01;
    let mut group = c.benchmark_group("ablation/fir_backend");
    group.sample_size(10);

    let filt = FirFilter::band_pass(
        BandPass::new(1.0, 3.0, 20.0, 24.0).unwrap(),
        dt,
        WindowKind::Hamming,
    )
    .unwrap();
    for &n in &[2000usize, 8000] {
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 13 % 101) as f64 - 50.0) * 0.1)
            .collect();
        group.throughput(Throughput::Elements(n as u64));
        for backend in BACKENDS {
            group.bench_with_input(
                BenchmarkId::new(format!("apply_direct_{backend}"), n),
                &x,
                |b, x| b.iter(|| filt.apply_with(x, backend)),
            );
        }
    }

    let long = FirFilter::band_pass(BandPass::DEFAULT, dt, WindowKind::Hamming).unwrap();
    let coeffs: Vec<f64> = long.coeffs().to_vec();
    group.throughput(Throughput::Elements(coeffs.len() as u64));
    for backend in BACKENDS {
        group.bench_with_input(
            BenchmarkId::new(format!("frequency_gain_{backend}"), coeffs.len()),
            &coeffs,
            |b, coeffs| b.iter(|| frequency_gain_with(coeffs, 7.3, dt, backend)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fir_application, bench_fir_backends);
criterion_main!(benches);

//! Ablation: the FFT engine across input classes — power-of-two radix-2,
//! arbitrary-length Bluestein, and the naive `O(N²)` DFT reference — plus
//! the full Fourier-spectrum computation of process #7.

use arp_dsp::complex::Complex;
use arp_dsp::fft::{dft_naive, fft, rfft};
use arp_dsp::spectrum::fourier_spectrum;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn complex_signal(n: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/fft");
    group.sample_size(20);

    for &n in &[1024usize, 4096] {
        let x = complex_signal(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("radix2", n), &x, |b, x| b.iter(|| fft(x)));
    }
    for &n in &[1000usize, 4093] {
        let x = complex_signal(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("bluestein", n), &x, |b, x| {
            b.iter(|| fft(x))
        });
    }
    // Naive reference at a size where it is still measurable quickly.
    let x = complex_signal(512);
    group.bench_with_input(BenchmarkId::new("naive_dft", 512), &x, |b, x| {
        b.iter(|| dft_naive(x))
    });
    group.finish();

    let mut group = c.benchmark_group("process7/fourier_spectrum");
    group.sample_size(20);
    for &n in &[2000usize, 8000, 20000] {
        let acc: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &acc, |b, acc| {
            b.iter(|| fourier_spectrum(acc, 0.01).unwrap())
        });
        // rfft alone, to separate transform cost from spectrum assembly.
        group.bench_with_input(BenchmarkId::new("rfft_only", n), &acc, |b, acc| {
            b.iter(|| rfft(acc))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fft);
criterion_main!(benches);

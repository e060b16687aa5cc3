//! Ablation: the legacy Duhamel kernel (`O(D²)` per period) vs the exact
//! Nigam–Jennings recurrence (`O(D)` per period). Demonstrates the paper's
//! stated sequential complexity of process #16 and quantifies what its
//! "advanced optimization" future work would buy.

use arp_dsp::backend::DspBackend;
use arp_dsp::respspec::{response_spectrum_with, sdof_peaks, ResponseMethod};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn record(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 * 0.01;
            (2.0 * std::f64::consts::PI * 1.3 * t).sin() * (-((t - 5.0) / 4.0f64).powi(2)).exp()
        })
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/respspec_kernel");
    group.sample_size(10);
    for &n in &[250usize, 500, 1000, 2000] {
        let acc = record(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("duhamel", n), &acc, |b, acc| {
            b.iter(|| sdof_peaks(acc, 0.01, 0.5, 0.05, ResponseMethod::Duhamel).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("nigam_jennings", n), &acc, |b, acc| {
            b.iter(|| sdof_peaks(acc, 0.01, 0.5, 0.05, ResponseMethod::NigamJennings).unwrap())
        });
    }
    group.finish();
}

/// Scalar vs SIMD backend rows for the full spectrum (`--dsp-backend`):
/// the SIMD backend advances sixteen independent (period, damping) SDOF
/// recurrences per step, hiding the per-period serial dependency chain that
/// bounds the scalar Nigam–Jennings kernel.
fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/respspec_backend");
    group.sample_size(10);
    let periods: Vec<f64> = (1..=64).map(|i| 0.05 * i as f64).collect();
    // Records sized so one iteration stays sub-second: Duhamel is O(D²)
    // per period, Nigam–Jennings O(D).
    for (tag, method, n) in [
        ("duhamel", ResponseMethod::Duhamel, 500usize),
        ("nigam_jennings", ResponseMethod::NigamJennings, 2000),
    ] {
        let acc = record(n);
        group.throughput(Throughput::Elements((acc.len() * periods.len()) as u64));
        for backend in [DspBackend::Scalar, DspBackend::Simd] {
            group.bench_with_input(
                BenchmarkId::new(format!("{tag}_{backend}"), periods.len()),
                &acc,
                |b, acc| {
                    b.iter(|| {
                        response_spectrum_with(acc, 0.01, &periods, 0.05, method, backend).unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_backends);
criterion_main!(benches);

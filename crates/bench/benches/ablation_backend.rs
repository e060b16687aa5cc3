//! Ablation: the `arp-par` OpenMP-style pool under its three schedules
//! against a sequential loop, on a compute-bound loop. On multi-core hosts
//! this compares real scaling; on single-core CI it quantifies the pure
//! dispatch overhead of each schedule.

use arp_par::{Schedule, ThreadPool};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::atomic::{AtomicU64, Ordering};

fn work_unit(i: usize) -> u64 {
    let mut acc = i as u64;
    for k in 0..400u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
    }
    acc
}

fn bench_backends(c: &mut Criterion) {
    let n = 4096usize;
    let pool = ThreadPool::new(
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4),
    );

    let mut group = c.benchmark_group("ablation/backend");
    group.sample_size(20);

    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for i in 0..n {
                sum = sum.wrapping_add(work_unit(i));
            }
            sum
        })
    });

    for schedule in [Schedule::Static, Schedule::Dynamic(64), Schedule::Guided(8)] {
        group.bench_with_input(
            BenchmarkId::new("arp_par", format!("{schedule:?}")),
            &schedule,
            |b, &schedule| {
                b.iter(|| {
                    let sum = AtomicU64::new(0);
                    pool.parallel_for(0..n, schedule, |i| {
                        sum.fetch_add(work_unit(i), Ordering::Relaxed);
                    });
                    sum.into_inner()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);

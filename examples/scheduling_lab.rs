//! Scheduling laboratory: the `arp-par` OpenMP-style runtime and its
//! deterministic simulator, side by side.
//!
//! Demonstrates (1) real parallel loops under static/dynamic/guided
//! schedules, (2) task scopes whose tasks run their own parallel loops, and
//! (3) the virtual-time replay used by the pipeline's simulated-timing
//! mode: a loop cut into the chunks the pool would claim, a process whose
//! loop sits between serial segments, and a task list schedule.
//!
//! ```text
//! cargo run --release --example scheduling_lab
//! ```

use arp_par::{replay, Schedule, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn busy_work(units: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..units * 20_000 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

/// Virtual wall time of `units` on `threads` processors when cut into the
/// chunks `schedule` claims: one independent vertex per chunk.
fn chunked_makespan(units: &[Duration], threads: usize, schedule: Schedule) -> Duration {
    let (mut chunks, mut lo) = (Vec::new(), 0);
    while lo < units.len() {
        let hi = lo + schedule.chunk(units.len(), lo, threads);
        chunks.push(units[lo..hi].iter().sum());
        lo = hi;
    }
    replay(&chunks, &vec![Vec::new(); chunks.len()], threads).makespan()
}

fn main() {
    let pool = ThreadPool::new(4);
    println!("pool with {} worker threads\n", pool.threads());

    // 1. Real parallel loops: skewed work under each schedule.
    println!("-- real parallel_for over 64 skewed units --");
    for schedule in [Schedule::Static, Schedule::Dynamic(1), Schedule::Guided(1)] {
        let sink = AtomicU64::new(0);
        let t0 = Instant::now();
        pool.parallel_for(0..64, schedule, |i| {
            // Unit 0 is 30x heavier than the rest (skew favors dynamic).
            let units = if i == 0 { 30 } else { 1 };
            sink.fetch_add(busy_work(units), Ordering::Relaxed);
        });
        println!("{schedule:?}: {:?}", t0.elapsed());
    }

    // 2. Task scope: the paper's Stage XI, three heterogeneous plot tasks.
    //    As in the staged plan, each task runs its own 19-station loop on
    //    the team, so the workers of the tasks that finish first help with
    //    the stations of the one still running.
    println!("\n-- task scope (3 heterogeneous tasks, each a 19-station loop) --");
    let station_loop = |units: u64| {
        let sink = AtomicU64::new(0);
        pool.parallel_for(0..19, Schedule::Dynamic(1), |_| {
            sink.fetch_add(busy_work(units), Ordering::Relaxed);
        });
        sink.into_inner()
    };
    let mut results = [0u64; 3];
    {
        let [a, b, c] = &mut results;
        let station_loop = &station_loop;
        pool.scope(|s| {
            s.spawn(move || *a = station_loop(3));
            s.spawn(move || *b = station_loop(2));
            s.spawn(move || *c = station_loop(1));
        });
    }
    println!("all tasks completed: checksums {results:?}");

    // 3. The virtual-time scheduler: what a 64-unit loop costs on 1..16
    //    virtual processors under each schedule.
    println!("\n-- simulated makespans (64 units, one 30x straggler) --");
    let durations: Vec<Duration> = (0..64)
        .map(|i| Duration::from_millis(if i == 0 { 300 } else { 10 }))
        .collect();
    println!(
        "{:<10} {:>8} {:>9} {:>9}",
        "threads", "static", "dynamic", "guided"
    );
    for threads in [1usize, 2, 4, 8, 16] {
        let st = chunked_makespan(&durations, threads, Schedule::Static);
        let dy = chunked_makespan(&durations, threads, Schedule::Dynamic(1));
        let gu = chunked_makespan(&durations, threads, Schedule::Guided(1));
        println!(
            "{threads:<10} {:>7.0}ms {:>8.0}ms {:>8.0}ms",
            st.as_secs_f64() * 1e3,
            dy.as_secs_f64() * 1e3,
            gu.as_secs_f64() * 1e3
        );
    }

    // 4. A recorded process: a 64-unit loop between two serial segments
    //    (50ms before, 30ms after). The chunks overlap; the segments do not.
    println!("\n-- a loop between serial segments (Amdahl) --");
    let ms = Duration::from_millis;
    println!("{:<10} {:>9}", "threads", "makespan");
    for threads in [1usize, 2, 4, 8, 16] {
        let mut durations = vec![ms(50)];
        let mut preds = vec![vec![]];
        for _ in 0..64 {
            durations.push(ms(10));
            preds.push(vec![0]);
        }
        durations.push(ms(30));
        preds.push((1..=64).collect());
        let m = replay(&durations, &preds, threads).makespan();
        println!("{threads:<10} {:>7.0}ms", m.as_secs_f64() * 1e3);
    }

    // 5. Task list-scheduling, as used for the metadata stages.
    let task_durs = [ms(9), ms(4), ms(4), ms(2)];
    let independent = vec![Vec::new(); task_durs.len()];
    println!(
        "\n4 tasks (9/4/4/2 ms) on 2 virtual threads: makespan {:?} (longest first)",
        replay(&task_durs, &independent, 2).makespan()
    );
}

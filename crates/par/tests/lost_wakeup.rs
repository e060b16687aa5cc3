//! Lost-wakeup stress for the parked pool. Idle workers and waiting callers
//! park with no timeout, so a wakeup that goes missing hangs a construct for
//! good. Each case runs its constructs on a spawned thread and fails if
//! that thread has not finished by [`DEADLINE`], so a lost wakeup fails the
//! test instead of hanging it.

use arp_par::{BorrowedTask, Schedule, ThreadPool};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Far above a healthy run (a few seconds in a debug build on two CPUs).
const DEADLINE: Duration = Duration::from_secs(60);

/// Runs `f` on its own thread and panics if it has not returned within
/// [`DEADLINE`]. A hung thread cannot be joined; the test process ends it.
fn within_deadline(case: &str, f: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(DEADLINE) {
        panic!("{case}: constructs still running after {DEADLINE:?} (lost wakeup?)");
    }
    // Finished or panicked: the join says which.
    if let Err(panic) = runner.join() {
        std::panic::resume_unwind(panic);
    }
}

/// A small deterministic generator (xorshift64*), so a failure replays.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }
}

/// `n` tasks that each bump `hits`.
fn counting_tasks(n: usize, hits: &AtomicUsize) -> Vec<BorrowedTask<'_>> {
    (0..n)
        .map(|_| {
            Box::new(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            }) as BorrowedTask<'_>
        })
        .collect()
}

/// One construct of kind `kind`, checked for running every piece once.
fn one_construct(pool: &ThreadPool, kind: usize, rng: &mut Rng) {
    let hits = AtomicUsize::new(0);
    let expected = match kind {
        // A loop of one to three iterations: the caller often finishes its
        // share first and must be woken by the latch.
        0 => {
            let n = 1 + rng.below(3);
            let schedule = if rng.below(2) == 0 {
                Schedule::Static
            } else {
                Schedule::Dynamic(1)
            };
            pool.parallel_for(0..n, schedule, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            n
        }
        // A loop whose iterations each run a loop.
        1 => {
            pool.parallel_for(0..2, Schedule::Dynamic(1), |_| {
                pool.parallel_for(0..2, Schedule::Dynamic(1), |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            });
            4
        }
        // One to three independent tasks.
        2 => {
            let n = 1 + rng.below(3);
            pool.run_dag(counting_tasks(n, &hits), &vec![Vec::new(); n], &[]);
            n
        }
        // A chain of two to four nodes.
        3 => {
            let n = 2 + rng.below(3);
            let preds: Vec<Vec<usize>> = (0..n)
                .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
                .collect();
            pool.run_dag(counting_tasks(n, &hits), &preds, &[]);
            n
        }
        // A diamond: 0 -> {1, 2} -> 3.
        _ => {
            let preds = [vec![], vec![0], vec![0], vec![1, 2]];
            pool.run_dag(counting_tasks(4, &hits), &preds, &[]);
            4
        }
    };
    assert_eq!(
        hits.load(Ordering::Relaxed),
        expected,
        "construct kind {kind}"
    );
}

#[test]
fn mixed_constructs_never_lose_a_wakeup() {
    // 4 pool widths × 3 seeds × 1,700 constructs = 20,400 constructs, on
    // a fresh pool per seed.
    const PER_POOL: usize = 1_700;
    within_deadline("mixed constructs", || {
        for threads in 1..=4 {
            for seed in 1..=3u64 {
                let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (seed << 32 | threads as u64));
                let pool = ThreadPool::new(threads);
                for _ in 0..PER_POOL {
                    let kind = rng.below(5);
                    one_construct(&pool, kind, &mut rng);
                }
            }
        }
    });
}

#[test]
fn last_chunk_on_a_worker_wakes_the_parked_caller() {
    within_deadline("last chunk on a worker", || {
        let pool = ThreadPool::new(1);
        for _ in 0..200 {
            let caller = thread::current().id();
            let worker_claimed = AtomicBool::new(false);
            pool.parallel_for(0..2, Schedule::Dynamic(1), |_| {
                if thread::current().id() == caller {
                    // Hold the caller's chunk until the worker has claimed
                    // the other one: the caller then finds the loop drained
                    // and waits while the worker's chunk still runs.
                    while !worker_claimed.load(Ordering::Acquire) {
                        thread::yield_now();
                    }
                } else {
                    worker_claimed.store(true, Ordering::Release);
                    thread::sleep(Duration::from_millis(1));
                }
            });
            assert!(worker_claimed.load(Ordering::Acquire));
        }
    });
}

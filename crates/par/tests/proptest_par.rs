//! Property tests: the parallel runtime matches sequential semantics for
//! arbitrary workloads, and the scheduling simulator respects its bounds.

use arp_par::{replay, PoolStatsSnapshot, Schedule, ThreadPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

fn snapshot_strategy() -> impl Strategy<Value = PoolStatsSnapshot> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((a, b, c, d), (e, f, g), (h, i, j), (k, l, m, o))| PoolStatsSnapshot {
                jobs_on_workers: a,
                jobs_helped: b,
                loops_completed: c,
                panics_caught: d,
                dag_dispatches: e,
                dag_ready_peak: f,
                dags_completed: g,
                io_dispatches: h,
                io_jobs_on_workers: i,
                io_ready_peak: j,
                steal_attempts: k,
                steals_compute: l,
                steals_io: m,
                cross_lane_steals: o,
            },
        )
}

/// The single-lane DAG replay that the lane-aware [`replay`] absorbed,
/// kept verbatim as the reference.
mod oracle {
    use std::time::Duration;

    pub fn dag_makespan(durations: &[Duration], preds: &[Vec<usize>], threads: usize) -> Duration {
        let n = durations.len();
        assert_eq!(
            preds.len(),
            n,
            "dag_makespan: one predecessor list per node"
        );
        if n == 0 {
            return Duration::ZERO;
        }
        let threads = threads.max(1);
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ps) in preds.iter().enumerate() {
            for &p in ps {
                assert!(p < n && p != i, "dag_makespan: bad predecessor {p} of {i}");
                succs[p].push(i);
            }
        }

        // Topological order (Kahn), needed to compute ranks and detect cycles.
        let mut remaining: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut topo: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
        let mut head = 0;
        while head < topo.len() {
            let i = topo[head];
            head += 1;
            for &s in &succs[i] {
                remaining[s] -= 1;
                if remaining[s] == 0 {
                    topo.push(s);
                }
            }
        }
        assert_eq!(
            topo.len(),
            n,
            "dag_makespan: dependency graph contains a cycle"
        );

        // Downward rank: longest path from the node (inclusive) to any exit.
        let mut rank = vec![Duration::ZERO; n];
        for &i in topo.iter().rev() {
            let down = succs[i]
                .iter()
                .map(|&s| rank[s])
                .max()
                .unwrap_or(Duration::ZERO);
            rank[i] = durations[i] + down;
        }

        // List scheduling: repeatedly take the highest-rank node whose
        // predecessors are all scheduled, and place it on the earliest-free
        // thread, no earlier than its predecessors' finish times.
        let mut finish = vec![Duration::ZERO; n];
        let mut scheduled = vec![false; n];
        let mut pending: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut avail = vec![Duration::ZERO; threads];
        let mut ready: Vec<usize> = (0..n).filter(|&i| pending[i] == 0).collect();
        let mut makespan = Duration::ZERO;
        while let Some(pos) = ready
            .iter()
            .enumerate()
            .max_by_key(|&(_, &i)| (rank[i], std::cmp::Reverse(i)))
            .map(|(pos, _)| pos)
        {
            let i = ready.swap_remove(pos);
            let node_ready = preds[i]
                .iter()
                .map(|&p| finish[p])
                .max()
                .unwrap_or(Duration::ZERO);
            let t = avail.iter_mut().min().expect("threads >= 1");
            let start = (*t).max(node_ready);
            finish[i] = start + durations[i];
            *t = finish[i];
            makespan = makespan.max(finish[i]);
            scheduled[i] = true;
            for &s in &succs[i] {
                pending[s] -= 1;
                if pending[s] == 0 {
                    ready.push(s);
                }
            }
        }
        debug_assert!(scheduled.iter().all(|&s| s));
        makespan
    }
}

/// A random task graph with lane hints.
#[derive(Debug, Clone)]
struct Dag {
    durations: Vec<Duration>,
    preds: Vec<Vec<usize>>,
    io_lane: Vec<bool>,
}

/// Graphs of up to `max_nodes - 1` nodes in a random topological order,
/// each node with up to three predecessors. Half the graphs use whole
/// milliseconds from 0 to 5, so ranks and worker free times tie often; the
/// rest add up to a millisecond of nanoseconds.
fn dag_strategy(max_nodes: usize) -> impl Strategy<Value = Dag> {
    (0usize..max_nodes, any::<bool>()).prop_flat_map(|(n, coarse)| {
        (
            prop::collection::vec((0u64..6, 0u64..1_000_000), n),
            prop::collection::vec(prop::collection::vec(any::<u64>(), 0..4), n),
            prop::collection::vec(any::<u64>(), n),
            prop::collection::vec(any::<bool>(), n),
        )
            .prop_map(move |(durs, picks, keys, io_lane)| {
                let durations = durs
                    .iter()
                    .map(|&(m, ns)| {
                        Duration::from_millis(m) + Duration::from_nanos(if coarse { 0 } else { ns })
                    })
                    .collect();
                // `order[k]` is the node at position k of the topological
                // order; its predecessors sit at earlier positions.
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&i| (keys[i], i));
                let mut preds = vec![Vec::new(); n];
                for (k, &node) in order.iter().enumerate().skip(1) {
                    let mut ps: Vec<usize> =
                        picks[k].iter().map(|&r| order[r as usize % k]).collect();
                    ps.sort_unstable();
                    ps.dedup();
                    preds[node] = ps;
                }
                Dag {
                    durations,
                    preds,
                    io_lane,
                }
            })
    })
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::Static),
        (1usize..16).prop_map(Schedule::Dynamic),
        (1usize..8).prop_map(Schedule::Guided),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_for_is_a_permutation_of_sequential(
        n in 0usize..500,
        threads in 1usize..6,
        schedule in schedule_strategy(),
    ) {
        let pool = ThreadPool::new(threads);
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let sum = AtomicU64::new(0);
        pool.parallel_for(0..n, schedule, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "index {}", i);
        }
        prop_assert_eq!(sum.load(Ordering::Relaxed), (0..n as u64).sum::<u64>());
    }

    #[test]
    fn scope_runs_every_task_once(
        task_count in 0usize..40,
        threads in 1usize..6,
    ) {
        let pool = ThreadPool::new(threads);
        let counts: Vec<AtomicUsize> = (0..task_count).map(|_| AtomicUsize::new(0)).collect();
        pool.scope(|s| {
            for c in &counts {
                s.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        for c in &counts {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn chunk_rule_partitions_the_loop(
        n in 1usize..500,
        threads in 1usize..9,
        schedule in schedule_strategy(),
    ) {
        // The rule the pool claims with (and simulated timing cuts
        // recorded loops by): every chunk is non-empty and the chunks
        // cover the loop exactly; a static schedule needs at most one
        // chunk per thread.
        let (mut claimed, mut chunks) = (0, 0);
        while claimed < n {
            let size = schedule.chunk(n, claimed, threads);
            prop_assert!(size >= 1 && size <= n - claimed);
            claimed += size;
            chunks += 1;
        }
        prop_assert_eq!(claimed, n);
        if schedule == Schedule::Static {
            prop_assert!(chunks <= threads);
        }
    }

    #[test]
    fn delta_since_saturates_and_never_panics(
        after in snapshot_strategy(),
        before in snapshot_strategy(),
    ) {
        // `delta_since` must be total: any pair of snapshots — including
        // ones where `before` is ahead, as happens when snapshots from
        // different pools are mixed up — yields a delta without wrapping.
        let d = after.delta_since(&before);
        prop_assert_eq!(d.jobs_on_workers, after.jobs_on_workers.saturating_sub(before.jobs_on_workers));
        prop_assert_eq!(d.jobs_helped, after.jobs_helped.saturating_sub(before.jobs_helped));
        prop_assert_eq!(d.loops_completed, after.loops_completed.saturating_sub(before.loops_completed));
        prop_assert_eq!(d.panics_caught, after.panics_caught.saturating_sub(before.panics_caught));
        prop_assert_eq!(d.dag_dispatches, after.dag_dispatches.saturating_sub(before.dag_dispatches));
        prop_assert_eq!(d.dags_completed, after.dags_completed.saturating_sub(before.dags_completed));
        prop_assert_eq!(d.io_dispatches, after.io_dispatches.saturating_sub(before.io_dispatches));
        prop_assert_eq!(
            d.io_jobs_on_workers,
            after.io_jobs_on_workers.saturating_sub(before.io_jobs_on_workers)
        );
        prop_assert_eq!(d.steal_attempts, after.steal_attempts.saturating_sub(before.steal_attempts));
        prop_assert_eq!(d.steals_compute, after.steals_compute.saturating_sub(before.steals_compute));
        prop_assert_eq!(d.steals_io, after.steals_io.saturating_sub(before.steals_io));
        prop_assert_eq!(
            d.cross_lane_steals,
            after.cross_lane_steals.saturating_sub(before.cross_lane_steals)
        );
        // The ready-queue peaks are high-water marks, not counters: the
        // later observation is kept verbatim.
        prop_assert_eq!(d.dag_ready_peak, after.dag_ready_peak);
        prop_assert_eq!(d.io_ready_peak, after.io_ready_peak);
    }

    #[test]
    fn delta_since_identities(s in snapshot_strategy()) {
        // Delta against itself is all-zero except the preserved peak...
        let zero = s.delta_since(&s);
        prop_assert_eq!(zero.jobs_on_workers, 0);
        prop_assert_eq!(zero.jobs_helped, 0);
        prop_assert_eq!(zero.loops_completed, 0);
        prop_assert_eq!(zero.panics_caught, 0);
        prop_assert_eq!(zero.dag_dispatches, 0);
        prop_assert_eq!(zero.dags_completed, 0);
        prop_assert_eq!(zero.dag_ready_peak, s.dag_ready_peak);
        // ...and delta against a fresh (all-zero) baseline is the snapshot.
        let fresh = PoolStatsSnapshot {
            jobs_on_workers: 0,
            jobs_helped: 0,
            loops_completed: 0,
            panics_caught: 0,
            dag_dispatches: 0,
            dag_ready_peak: 0,
            dags_completed: 0,
            io_dispatches: 0,
            io_jobs_on_workers: 0,
            io_ready_peak: 0,
            steal_attempts: 0,
            steals_compute: 0,
            steals_io: 0,
            cross_lane_steals: 0,
        };
        prop_assert_eq!(s.delta_since(&fresh), s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn dag_replay_equals_the_single_lane_oracle(
        dag in dag_strategy(41),
        threads in 1usize..10,
        io_threads in 0usize..4,
    ) {
        let Dag { durations, preds, io_lane } = &dag;
        let want = oracle::dag_makespan(durations, preds, threads);
        let makespan = |threads, io_threads, io_lane: &[bool]| {
            replay(durations, preds, threads, io_threads, io_lane).makespan()
        };
        // No I/O workers: the hints cannot matter.
        prop_assert_eq!(makespan(threads, 0, &[]), want);
        prop_assert_eq!(makespan(threads, 0, io_lane), want);
        // Empty hints switch the lane off whatever its width.
        prop_assert_eq!(makespan(threads, io_threads, &[]), want);
        // All-compute hints on a live lane: the I/O workers steal, so the
        // schedule is the single-lane one on the combined width.
        prop_assert_eq!(
            makespan(threads, io_threads, &vec![false; durations.len()]),
            oracle::dag_makespan(durations, preds, threads + io_threads)
        );
    }

    #[test]
    fn replay_lies_between_its_bounds_and_the_lane_never_loses(
        dag in dag_strategy(41),
        threads in 1usize..10,
        io_threads in 1usize..4,
    ) {
        let Dag { durations, preds, io_lane } = &dag;
        let sum: Duration = durations.iter().sum();
        let cp = critical_path(durations, preds);
        let off = replay(durations, preds, threads, 0, &[]);
        let m = off.makespan();
        prop_assert!(m <= sum, "{:?} > serial {:?}", m, sum);
        prop_assert!(m >= cp, "{:?} < critical path {:?}", m, cp);
        prop_assert!(
            m.as_nanos() * threads as u128 >= sum.as_nanos(),
            "{:?} beats {:?} of work on {} threads", m, sum, threads
        );
        for (i, ps) in preds.iter().enumerate() {
            prop_assert_eq!(off.finish[i], off.start[i] + durations[i]);
            for &p in ps {
                prop_assert!(off.start[i] >= off.finish[p]);
            }
        }
        // One thread: every vertex back to back.
        prop_assert_eq!(replay(durations, preds, 1, 0, &[]).makespan(), sum);
        let on = replay(durations, preds, threads, io_threads, io_lane).makespan();
        prop_assert!(on <= m, "lane-on {:?} loses to lane-off {:?}", on, m);
    }
}

/// Longest weighted path through a graph whose vertices may be listed in
/// any topological order.
fn critical_path(durations: &[Duration], preds: &[Vec<usize>]) -> Duration {
    fn finish(
        i: usize,
        d: &[Duration],
        preds: &[Vec<usize>],
        memo: &mut [Option<Duration>],
    ) -> Duration {
        if let Some(f) = memo[i] {
            return f;
        }
        let ready = preds[i]
            .iter()
            .map(|&p| finish(p, d, preds, memo))
            .max()
            .unwrap_or_default();
        memo[i] = Some(ready + d[i]);
        ready + d[i]
    }
    let mut memo = vec![None; durations.len()];
    (0..durations.len())
        .map(|i| finish(i, durations, preds, &mut memo))
        .max()
        .unwrap_or_default()
}

/// Every `PoolStats` field is a monotone counter (or high-water mark): a
/// sequence of snapshots taken while another thread hammers the pool must
/// never observe any field decreasing.
#[test]
fn snapshots_are_monotone_under_concurrent_load() {
    let pool = ThreadPool::new(4);
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..40 {
                pool.parallel_for(0..64, Schedule::Dynamic(4), |_| {
                    std::hint::black_box(round);
                });
                // A tiny diamond DAG so the dag_* counters move too.
                let ran: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
                let tasks: Vec<Box<dyn FnOnce() + Send>> = ran
                    .iter()
                    .map(|c| {
                        Box::new(move || {
                            c.fetch_add(1, Ordering::Relaxed);
                        }) as Box<dyn FnOnce() + Send>
                    })
                    .collect();
                pool.run_dag(tasks, &[vec![], vec![0], vec![0], vec![1, 2]], &[], &[]);
            }
            done.store(true, Ordering::Release);
        });

        let mut prev = pool.stats();
        while !done.load(Ordering::Acquire) {
            let cur = pool.stats();
            assert!(cur.jobs_on_workers >= prev.jobs_on_workers);
            assert!(cur.jobs_helped >= prev.jobs_helped);
            assert!(cur.loops_completed >= prev.loops_completed);
            assert!(cur.panics_caught >= prev.panics_caught);
            assert!(cur.dag_dispatches >= prev.dag_dispatches);
            assert!(cur.dag_ready_peak >= prev.dag_ready_peak);
            assert!(cur.dags_completed >= prev.dags_completed);
            // The delta against the previous poll is therefore exact, and
            // saturating subtraction never actually saturates.
            let d = cur.delta_since(&prev);
            assert_eq!(
                d.jobs_on_workers,
                cur.jobs_on_workers - prev.jobs_on_workers
            );
            assert_eq!(d.dag_dispatches, cur.dag_dispatches - prev.dag_dispatches);
            prev = cur;
            std::thread::yield_now();
        }
    });
    let end = pool.stats();
    assert!(end.loops_completed >= 40);
    assert!(end.dags_completed >= 40);
    assert_eq!(end.panics_caught, 0);
}

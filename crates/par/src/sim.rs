//! Deterministic scheduling simulator.
//!
//! Computes the makespan a set of measured work-unit durations *would* have
//! on `P` processors under each scheduling policy. Used by the pipeline's
//! simulated-time executor to evaluate parallel performance on hosts with
//! fewer cores than the paper's testbed: units execute (and are timed) for
//! real, sequentially; the schedule is then replayed in virtual time.

use crate::pool::Schedule;
use std::time::Duration;

/// Earliest-available-thread simulation of a chunked parallel loop.
///
/// Mirrors the claim logic of [`crate::ThreadPool::parallel_for`]: whichever
/// virtual thread is free earliest claims the next chunk; chunk sizes follow
/// the schedule. Returns the virtual wall time.
pub fn loop_makespan(durations: &[Duration], threads: usize, schedule: Schedule) -> Duration {
    let n = durations.len();
    if n == 0 {
        return Duration::ZERO;
    }
    let threads = threads.max(1);
    let mut avail = vec![Duration::ZERO; threads];
    let mut next = 0usize;
    while next < n {
        // Earliest-available virtual thread claims the next chunk.
        let (tid, _) = avail
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .expect("threads >= 1");
        let chunk = match schedule {
            Schedule::Static => n.div_ceil(threads).max(1),
            Schedule::Dynamic(c) => c.max(1),
            Schedule::Guided(min) => ((n - next) / (2 * threads)).max(min.max(1)),
        }
        .min(n - next);
        let work: Duration = durations[next..next + chunk].iter().sum();
        avail[tid] += work;
        next += chunk;
    }
    avail.into_iter().max().unwrap_or(Duration::ZERO)
}

/// Greedy list-scheduling of heterogeneous tasks on `threads` processors
/// (OpenMP task pool): each task goes to the earliest-available thread.
pub fn tasks_makespan(durations: &[Duration], threads: usize) -> Duration {
    let threads = threads.max(1);
    let mut avail = vec![Duration::ZERO; threads];
    for &d in durations {
        let slot = avail.iter_mut().min().expect("threads >= 1");
        *slot += d;
    }
    avail.into_iter().max().unwrap_or(Duration::ZERO)
}

/// Critical-path-priority list scheduling of a task DAG on `threads`
/// compute workers and `io_threads` I/O workers.
///
/// Replays in virtual time the schedule [`crate::ThreadPool::run_dag`]
/// would produce: a node becomes ready when its last predecessor finishes;
/// among ready nodes the one with the longest remaining path to an exit
/// runs first, on the worker that frees up earliest. Returns the virtual
/// wall time of the whole graph.
///
/// `preds[i]` lists the nodes that must finish before node `i` starts.
/// Panics on out-of-range indices, self-dependencies, or cycles.
///
/// `io_lane[i]` is node `i`'s lane hint. Mirroring the pool's stealing
/// scheduler, **any** worker may run **any** node: the hint is an
/// affinity, not a partition. A node goes to the worker that frees up
/// earliest, and only when workers tie does the node prefer its own lane.
/// An idle I/O worker therefore steals compute nodes and vice versa, so the
/// lane-on schedule is effectively `threads + io_threads` workers with
/// placement bias and can never be starved the way a strict two-queue split
/// is. An empty `io_lane` or `io_threads == 0` is the lane-off schedule on
/// `threads` workers; otherwise `io_lane` must have one entry per node.
/// All-`false` hints with a live lane equal the lane-off schedule on
/// `threads + io_threads` workers — the extra workers simply steal.
///
/// ```
/// use std::time::Duration;
/// let ms = Duration::from_millis;
/// // Diamond 0 -> {1, 2} -> 3: the branches overlap on two threads.
/// let durations = [ms(2), ms(4), ms(6), ms(1)];
/// let preds = vec![vec![], vec![0], vec![0], vec![1, 2]];
/// assert_eq!(arp_par::dag_makespan(&durations, &preds, 2, 0, &[]), ms(9));
/// assert_eq!(arp_par::dag_makespan(&durations, &preds, 1, 0, &[]), ms(13));
///
/// // Two independent pairs of (compute, I/O) work on one compute thread:
/// // single-lane they serialize to 20ms. With a 1-thread I/O lane the
/// // idle I/O worker *steals* the second chain's compute root, so both
/// // chains run concurrently: compute 0..5ms, I/O 5..10ms.
/// let durations = [ms(5), ms(5), ms(5), ms(5)];
/// let preds = vec![vec![], vec![0], vec![], vec![2]];
/// let io_lane = [false, true, false, true];
/// assert_eq!(arp_par::dag_makespan(&durations, &preds, 1, 0, &io_lane), ms(20));
/// assert_eq!(arp_par::dag_makespan(&durations, &preds, 1, 1, &io_lane), ms(10));
/// ```
pub fn dag_makespan(
    durations: &[Duration],
    preds: &[Vec<usize>],
    threads: usize,
    io_threads: usize,
    io_lane: &[bool],
) -> Duration {
    let n = durations.len();
    assert_eq!(
        preds.len(),
        n,
        "dag_makespan: one predecessor list per node"
    );
    // Empty hints switch the lane off whatever its width.
    let io_threads = if io_lane.is_empty() { 0 } else { io_threads };
    if io_threads > 0 {
        assert_eq!(io_lane.len(), n, "dag_makespan: one lane hint per node");
    }
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
    // worker, no earlier than its predecessors' finish times. Workers
    // `0..threads` are compute, the rest I/O: work stealing makes every
    // worker a candidate for every node, and the lane hint only breaks
    // availability ties in favor of the node's affine lane — the
    // victim-order bias of the real scheduler. A missing hint reads as
    // compute.
    let mut finish = vec![Duration::ZERO; n];
    let mut pending: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut avail = vec![Duration::ZERO; threads + io_threads];
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
        let io = io_lane.get(i).copied().unwrap_or(false);
        let (w, _) = avail
            .iter()
            .enumerate()
            .min_by_key(|&(w, &t)| (t, (w >= threads) != io, w))
            .expect("at least one worker");
        let start = avail[w].max(node_ready);
        finish[i] = start + durations[i];
        avail[w] = finish[i];
        makespan = makespan.max(finish[i]);
        for &s in &succs[i] {
            pending[s] -= 1;
            if pending[s] == 0 {
                ready.push(s);
            }
        }
    }
    makespan
}

/// Predicted makespan of a *super-graph*: the disjoint union of several
/// independent task DAGs scheduled together on one pool.
///
/// `durations[g]` and `preds[g]` describe graph `g` exactly as in
/// [`dag_makespan`] (predecessor indices are local to the graph); no edges
/// are added between graphs. `io_lane[g]` tags graph `g`'s nodes (one entry
/// per node), or an empty table switches the lane off. The union is
/// flattened with per-graph index offsets and scheduled as one
/// critical-path-priority list schedule by [`dag_makespan`], which is how
/// the batch executor submits a multi-event super-DAG to
/// [`crate::ThreadPool::run_dag`]. Scheduling the union can never be slower
/// than running the graphs back to back, and is strictly faster whenever
/// one graph's idle tail can absorb another graph's nodes.
///
/// ```
/// use std::time::Duration;
/// let ms = Duration::from_millis;
/// // Two independent 2-node chains on 2 threads: run back to back they
/// // cost 5ms + 5ms; scheduled as one union the chains overlap fully.
/// let durations = vec![vec![ms(3), ms(2)], vec![ms(4), ms(1)]];
/// let preds = vec![vec![vec![], vec![0]], vec![vec![], vec![0]]];
/// assert_eq!(arp_par::super_dag_makespan(&durations, &preds, 2, 0, &[]), ms(5));
/// assert_eq!(arp_par::super_dag_makespan(&durations, &preds, 1, 0, &[]), ms(10));
/// ```
pub fn super_dag_makespan(
    durations: &[Vec<Duration>],
    preds: &[Vec<Vec<usize>>],
    threads: usize,
    io_threads: usize,
    io_lane: &[Vec<bool>],
) -> Duration {
    assert_eq!(
        durations.len(),
        preds.len(),
        "super_dag_makespan: one predecessor table per graph"
    );
    assert!(
        io_lane.is_empty() || io_lane.len() == durations.len(),
        "super_dag_makespan: one lane table per graph (or none)"
    );
    let mut flat_durations = Vec::new();
    let mut flat_preds = Vec::new();
    let mut flat_lanes = Vec::new();
    for (g, (ds, ps)) in durations.iter().zip(preds).enumerate() {
        assert_eq!(
            ds.len(),
            ps.len(),
            "super_dag_makespan: one predecessor list per node"
        );
        let offset = flat_durations.len();
        flat_durations.extend_from_slice(ds);
        flat_preds.extend(
            ps.iter()
                .map(|nodes| nodes.iter().map(|&p| p + offset).collect::<Vec<_>>()),
        );
        if let Some(lanes) = io_lane.get(g) {
            assert_eq!(
                lanes.len(),
                ds.len(),
                "super_dag_makespan: one lane hint per node"
            );
            flat_lanes.extend_from_slice(lanes);
        }
    }
    dag_makespan(
        &flat_durations,
        &flat_preds,
        threads,
        io_threads,
        &flat_lanes,
    )
}

/// Scales selected node durations for a what-if replay: every node with
/// `select[g][i] == true` has its duration divided by `speedup`; all other
/// nodes keep their recorded time. An empty `select` table scales nothing.
///
/// This is the input half of the Coz-style virtual-speedup question "what
/// if kernel K were `speedup`× faster?": the caller marks K's nodes and
/// replays the schedule on the scaled durations.
pub fn scale_super_durations(
    durations: &[Vec<Duration>],
    select: &[Vec<bool>],
    speedup: f64,
) -> Vec<Vec<Duration>> {
    assert!(
        speedup > 0.0 && speedup.is_finite(),
        "scale_super_durations: speedup must be positive and finite"
    );
    assert!(
        select.is_empty() || select.len() == durations.len(),
        "scale_super_durations: one selection table per graph (or none)"
    );
    durations
        .iter()
        .enumerate()
        .map(|(g, ds)| {
            let Some(sel) = select.get(g) else {
                return ds.clone();
            };
            assert_eq!(
                sel.len(),
                ds.len(),
                "scale_super_durations: one selection flag per node"
            );
            ds.iter()
                .zip(sel)
                .map(|(&d, &hit)| if hit { d.div_f64(speedup) } else { d })
                .collect()
        })
        .collect()
}

/// Makespan of a loop whose units spend fraction `serial_fraction` of their
/// time on a shared serial resource (the disk, in this pipeline).
///
/// Roofline bound: each thread executes its assigned units in full
/// (compute + I/O inline), but the shared resource serves one unit at a
/// time, so the loop can finish no earlier than the larger of the CPU
/// schedule and the serialized resource total. For uniform units this
/// yields the classic `speedup = min(P, 1/β)` plateau that limits the
/// pipeline's I/O-heavy stages.
pub fn resource_bounded_makespan(
    durations: &[Duration],
    serial_fraction: f64,
    threads: usize,
    schedule: Schedule,
) -> Duration {
    let beta = serial_fraction.clamp(0.0, 1.0);
    let serial_total: Duration = durations.iter().map(|d| d.mul_f64(beta)).sum();
    let cpu = loop_makespan(durations, threads, schedule);
    cpu.max(serial_total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn empty_loop_is_zero() {
        assert_eq!(loop_makespan(&[], 4, Schedule::Static), Duration::ZERO);
    }

    #[test]
    fn single_thread_is_sum() {
        let d = vec![ms(3), ms(5), ms(2)];
        assert_eq!(loop_makespan(&d, 1, Schedule::Dynamic(1)), ms(10));
        assert_eq!(tasks_makespan(&d, 1), ms(10));
    }

    #[test]
    fn uniform_units_scale_linearly() {
        let d = vec![ms(10); 8];
        for sched in [Schedule::Static, Schedule::Dynamic(1), Schedule::Guided(1)] {
            assert_eq!(loop_makespan(&d, 8, sched), ms(10), "{sched:?}");
            assert_eq!(loop_makespan(&d, 4, sched), ms(20), "{sched:?}");
            assert_eq!(loop_makespan(&d, 2, sched), ms(40), "{sched:?}");
        }
    }

    #[test]
    fn makespan_bounds_hold() {
        let d: Vec<Duration> = (1..=20).map(|i| ms(i * 3 % 17 + 1)).collect();
        let sum: Duration = d.iter().sum();
        let max = *d.iter().max().unwrap();
        for threads in [1usize, 2, 4, 8] {
            for sched in [Schedule::Static, Schedule::Dynamic(2), Schedule::Guided(1)] {
                let m = loop_makespan(&d, threads, sched);
                assert!(m <= sum, "{threads} {sched:?}");
                assert!(m >= max, "{threads} {sched:?}");
                assert!(m >= sum / threads as u32, "{threads} {sched:?}");
            }
        }
    }

    #[test]
    fn dynamic_beats_static_on_skewed_work() {
        // One giant unit first: static lumps it with others in a big chunk,
        // dynamic lets the other threads take the small units.
        let mut d = vec![ms(100)];
        d.extend(std::iter::repeat_n(ms(1), 15));
        let stat = loop_makespan(&d, 4, Schedule::Static);
        let dyn1 = loop_makespan(&d, 4, Schedule::Dynamic(1));
        assert!(dyn1 <= stat, "dynamic {dyn1:?} vs static {stat:?}");
        assert_eq!(dyn1, ms(100)); // bounded by the giant unit
    }

    #[test]
    fn tasks_greedy_schedule() {
        // 3 tasks of 5,4,3 on 2 threads: t1={5}, t2={4,3} -> 7
        assert_eq!(tasks_makespan(&[ms(5), ms(4), ms(3)], 2), ms(7));
        // plenty of threads: max task
        assert_eq!(tasks_makespan(&[ms(5), ms(4), ms(3)], 8), ms(5));
        assert_eq!(tasks_makespan(&[], 4), Duration::ZERO);
    }

    #[test]
    fn resource_bound_caps_io_loops() {
        let d = vec![ms(10); 8];
        // Pure compute: scales to 8 threads.
        let free = resource_bounded_makespan(&d, 0.0, 8, Schedule::Static);
        assert_eq!(free, ms(10));
        // Fully serial resource: no scaling at all.
        let serial = resource_bounded_makespan(&d, 1.0, 8, Schedule::Static);
        assert_eq!(serial, ms(80));
        // Half serial: bounded by 40ms of disk time (speedup capped at 2).
        let half = resource_bounded_makespan(&d, 0.5, 8, Schedule::Static);
        assert_eq!(half, ms(40));
        // On one thread the loop takes the full sequential sum regardless
        // of the disk fraction.
        let one = resource_bounded_makespan(&d, 0.5, 1, Schedule::Static);
        assert_eq!(one, ms(80));
        // speedup = min(P, 1/beta) for uniform units: at beta=0.25, P=8
        // the plateau is 4x.
        let quarter = resource_bounded_makespan(&d, 0.25, 8, Schedule::Static);
        assert_eq!(quarter, ms(20));
    }

    #[test]
    fn dag_chain_is_sequential() {
        let d = vec![ms(3), ms(5), ms(2)];
        let preds = vec![vec![], vec![0], vec![1]];
        for threads in [1, 4, 16] {
            assert_eq!(dag_makespan(&d, &preds, threads, 0, &[]), ms(10));
        }
    }

    #[test]
    fn dag_independent_nodes_pack_like_tasks() {
        let d = vec![ms(5), ms(4), ms(3)];
        let preds = vec![vec![]; 3];
        assert_eq!(dag_makespan(&d, &preds, 2, 0, &[]), tasks_makespan(&d, 2));
        assert_eq!(dag_makespan(&d, &preds, 8, 0, &[]), ms(5));
    }

    #[test]
    fn dag_diamond_overlaps_branches() {
        // 0 (2ms) -> {1 (4ms), 2 (6ms)} -> 3 (1ms): branches overlap on
        // two threads, so 2 + 6 + 1 = 9ms instead of the 13ms serial sum.
        let d = vec![ms(2), ms(4), ms(6), ms(1)];
        let preds = vec![vec![], vec![0], vec![0], vec![1, 2]];
        assert_eq!(dag_makespan(&d, &preds, 2, 0, &[]), ms(9));
        assert_eq!(dag_makespan(&d, &preds, 1, 0, &[]), ms(13));
    }

    #[test]
    fn dag_makespan_bounds_hold() {
        let d: Vec<Duration> = (1..=12).map(|i| ms(i * 5 % 11 + 1)).collect();
        // Layered graph: node i depends on i-3 (three independent chains
        // braided by a shared head).
        let preds: Vec<Vec<usize>> = (0..12)
            .map(|i| if i < 3 { vec![] } else { vec![i - 3] })
            .collect();
        let sum: Duration = d.iter().sum();
        // Critical path: the heaviest of the three chains.
        let chain = |start: usize| -> Duration { (0..4).map(|k| d[start + 3 * k]).sum() };
        let cp = chain(0).max(chain(1)).max(chain(2));
        for threads in [1usize, 2, 3, 8] {
            let m = dag_makespan(&d, &preds, threads, 0, &[]);
            assert!(m <= sum, "{threads}");
            assert!(m >= cp, "{threads}");
            assert!(m >= sum / threads as u32, "{threads}");
        }
        // Enough threads: exactly the critical path.
        assert_eq!(dag_makespan(&d, &preds, 3, 0, &[]), cp);
    }

    #[test]
    fn dag_empty_is_zero() {
        assert_eq!(dag_makespan(&[], &[], 4, 0, &[]), Duration::ZERO);
    }

    #[test]
    fn super_dag_union_never_beats_fewer_constraints() {
        // Three chains of different lengths: the union on T threads is at
        // most the back-to-back sum and at least the longest chain.
        let chains: Vec<Vec<Duration>> =
            vec![vec![ms(8), ms(4), ms(2)], vec![ms(1), ms(1)], vec![ms(5)]];
        let preds: Vec<Vec<Vec<usize>>> = chains
            .iter()
            .map(|c| {
                (0..c.len())
                    .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
                    .collect()
            })
            .collect();
        let per_graph: Vec<Duration> = chains.iter().map(|c| c.iter().sum()).collect();
        let back_to_back: Duration = per_graph.iter().sum();
        let longest = *per_graph.iter().max().unwrap();
        for threads in [1usize, 2, 4] {
            let m = super_dag_makespan(&chains, &preds, threads, 0, &[]);
            assert!(m <= back_to_back, "{threads}");
            assert!(m >= longest, "{threads}");
        }
        // One thread: no overlap is possible, the union is the sum.
        assert_eq!(super_dag_makespan(&chains, &preds, 1, 0, &[]), back_to_back);
        // Plenty of threads: every chain runs concurrently.
        assert_eq!(super_dag_makespan(&chains, &preds, 4, 0, &[]), longest);
    }

    #[test]
    fn super_dag_of_empty_and_zero_graphs() {
        assert_eq!(super_dag_makespan(&[], &[], 4, 0, &[]), Duration::ZERO);
        assert_eq!(
            super_dag_makespan(&[vec![], vec![ms(3)]], &[vec![], vec![vec![]]], 2, 0, &[]),
            ms(3)
        );
    }

    #[test]
    fn lanes_off_matches_single_lane_schedule() {
        let d: Vec<Duration> = (1..=10).map(|i| ms(i * 7 % 13 + 1)).collect();
        let preds: Vec<Vec<usize>> = (0..10)
            .map(|i| if i < 2 { vec![] } else { vec![i - 2] })
            .collect();
        let lanes: Vec<bool> = (0..10).map(|i| i % 3 == 0).collect();
        for threads in [1usize, 2, 4] {
            let base = dag_makespan(&d, &preds, threads, 0, &[]);
            // io_threads == 0 and empty hints both mean "lane off".
            assert_eq!(dag_makespan(&d, &preds, threads, 0, &lanes), base);
            assert_eq!(dag_makespan(&d, &preds, threads, 2, &[]), base);
            // All-compute hints with a live lane equal the single-lane
            // schedule on the *combined* worker count: the otherwise-idle
            // I/O workers steal compute nodes.
            assert_eq!(
                dag_makespan(&d, &preds, threads, 2, &[false; 10]),
                dag_makespan(&d, &preds, threads + 2, 0, &[])
            );
        }
    }

    #[test]
    fn stealing_lane_never_loses_to_lane_off() {
        // The stealing replay schedules on threads + io_threads workers
        // with affinity bias, so lane-on must not fall behind the lane-off
        // schedule on the same compute width — the strict-partition
        // pathology this model replaced.
        let d: Vec<Duration> = (1..=18).map(|i| ms(i * 5 % 9 + 1)).collect();
        let preds: Vec<Vec<usize>> = (0..18)
            .map(|i| if i < 3 { vec![] } else { vec![i - 3] })
            .collect();
        let lanes: Vec<bool> = (0..18).map(|i| i % 2 == 0).collect();
        for threads in [1usize, 2, 4, 8] {
            for io in [1usize, 2, 4] {
                let on = dag_makespan(&d, &preds, threads, io, &lanes);
                let off = dag_makespan(&d, &preds, threads, 0, &[]);
                assert!(
                    on <= off,
                    "lane-on {on:?} beat by lane-off {off:?} at {threads}+{io}"
                );
            }
        }
    }

    #[test]
    fn io_lane_overlaps_disk_with_compute() {
        // Two independent compute -> io chains on one compute thread:
        // lane-off serializes everything to 20ms. With a 1-wide I/O lane
        // the idle I/O worker *steals* the second chain's compute root, so
        // the chains overlap fully: compute 0..5ms, I/O 5..10ms.
        let d = vec![ms(5); 4];
        let preds = vec![vec![], vec![0], vec![], vec![2]];
        let lanes = [false, true, false, true];
        assert_eq!(dag_makespan(&d, &preds, 1, 0, &[]), ms(20));
        assert_eq!(dag_makespan(&d, &preds, 1, 1, &lanes), ms(10));
        // Wider lanes can't improve on the critical path (one chain).
        assert_eq!(dag_makespan(&d, &preds, 2, 2, &lanes), ms(10));
    }

    #[test]
    fn super_dag_lanes_flatten_like_union() {
        let chains: Vec<Vec<Duration>> = vec![vec![ms(3), ms(2)], vec![ms(4), ms(1)]];
        let preds: Vec<Vec<Vec<usize>>> = vec![vec![vec![], vec![0]], vec![vec![], vec![0]]];
        let lanes: Vec<Vec<bool>> = vec![vec![false, true], vec![false, true]];
        // Lane off reproduces the plain union.
        assert_eq!(
            super_dag_makespan(&chains, &preds, 2, 0, &lanes),
            super_dag_makespan(&chains, &preds, 2, 0, &[])
        );
        // With a lane the result can only improve on one compute thread.
        assert!(
            super_dag_makespan(&chains, &preds, 1, 1, &lanes)
                <= super_dag_makespan(&chains, &preds, 1, 0, &[])
        );
    }

    #[test]
    fn scaling_nothing_or_by_one_is_identity() {
        let chains: Vec<Vec<Duration>> = vec![vec![ms(3), ms(2)], vec![ms(4)]];
        let preds: Vec<Vec<Vec<usize>>> = vec![vec![vec![], vec![0]], vec![vec![]]];
        let all: Vec<Vec<bool>> = chains.iter().map(|c| vec![true; c.len()]).collect();
        let replay = |select: &[Vec<bool>], speedup: f64| {
            let scaled = scale_super_durations(&chains, select, speedup);
            super_dag_makespan(&scaled, &preds, 2, 0, &[])
        };
        let base = super_dag_makespan(&chains, &preds, 2, 0, &[]);
        assert_eq!(replay(&[], 4.0), base);
        assert_eq!(replay(&all, 1.0), base);
        // Scaling everything by 2 halves every duration, so the whole
        // schedule shrinks by exactly 2.
        assert_eq!(replay(&all, 2.0), base / 2);
    }

    #[test]
    fn speeding_a_kernel_up_never_slows_the_batch() {
        let chains: Vec<Vec<Duration>> = vec![
            vec![ms(8), ms(4), ms(2), ms(7)],
            vec![ms(6), ms(6), ms(1)],
            vec![ms(5), ms(9)],
        ];
        let preds: Vec<Vec<Vec<usize>>> = chains
            .iter()
            .map(|c| {
                (0..c.len())
                    .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
                    .collect()
            })
            .collect();
        let select: Vec<Vec<bool>> = chains
            .iter()
            .map(|c| (0..c.len()).map(|i| i == 1).collect())
            .collect();
        let lanes: Vec<Vec<bool>> = chains
            .iter()
            .map(|c| (0..c.len()).map(|i| i % 2 == 0).collect())
            .collect();
        for threads in [1usize, 2, 4] {
            let mut last = Duration::MAX;
            for speedup in [1.0, 2.0, 4.0, 8.0] {
                let scaled = scale_super_durations(&chains, &select, speedup);
                let m = super_dag_makespan(&scaled, &preds, threads, 0, &[]);
                assert!(m <= last, "speedup {speedup} threads {threads}");
                last = m;
                let lanes_m = super_dag_makespan(&scaled, &preds, threads, 2, &lanes);
                assert!(lanes_m <= m, "lanes at speedup {speedup} threads {threads}");
            }
        }
    }

    #[test]
    fn guided_chunks_shrink_but_cover() {
        let d = vec![ms(2); 100];
        let m = loop_makespan(&d, 4, Schedule::Guided(1));
        // Perfectly divisible work: close to ideal.
        assert!(m <= ms(2 * 100 / 4 + 8), "{m:?}");
    }
}

//! Deterministic scheduling replay.
//!
//! [`replay`] list-schedules a graph of timed vertices on `P` virtual
//! processors. The pipeline's simulated timing model records every work
//! unit it runs inline (loop chunks, tasks, the processes between them) as
//! one such graph and replays it once, so hosts with fewer cores than the
//! paper's testbed can still predict the testbed's schedule.

use std::time::Duration;

/// The schedule [`replay`] computed: when each vertex started and finished
/// on the virtual clock (which starts at zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Start time per vertex.
    pub start: Vec<Duration>,
    /// Finish time per vertex (`start + duration`).
    pub finish: Vec<Duration>,
}

impl Replay {
    /// Virtual wall time of the whole graph: the latest finish.
    pub fn makespan(&self) -> Duration {
        self.finish.iter().copied().max().unwrap_or(Duration::ZERO)
    }
}

/// Critical-path-priority list scheduling of a task graph on `threads`
/// workers.
///
/// Replays in virtual time the schedule [`crate::ThreadPool::run_dag`]
/// would produce: a vertex becomes ready when its last predecessor
/// finishes; among ready vertices the one with the longest remaining path
/// to an exit runs first, on the worker that frees up earliest. Returns
/// every vertex's start and finish.
///
/// `preds[i]` lists the vertices that must finish before vertex `i`
/// starts. Panics on out-of-range indices, self-dependencies, or cycles.
///
/// ```
/// use std::time::Duration;
/// let ms = Duration::from_millis;
/// // Diamond 0 -> {1, 2} -> 3: the branches overlap on two threads.
/// let durations = [ms(2), ms(4), ms(6), ms(1)];
/// let preds = vec![vec![], vec![0], vec![0], vec![1, 2]];
/// let two = arp_par::replay(&durations, &preds, 2);
/// assert_eq!(two.makespan(), ms(9));
/// assert_eq!(two.start[3], ms(8));
/// assert_eq!(arp_par::replay(&durations, &preds, 1).makespan(), ms(13));
/// ```
pub fn replay(durations: &[Duration], preds: &[Vec<usize>], threads: usize) -> Replay {
    let n = durations.len();
    assert_eq!(preds.len(), n, "replay: one predecessor list per vertex");
    let threads = threads.max(1);
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ps) in preds.iter().enumerate() {
        for &p in ps {
            assert!(p < n && p != i, "replay: bad predecessor {p} of {i}");
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
    assert_eq!(topo.len(), n, "replay: dependency graph contains a cycle");

    // Downward rank: longest path from the vertex (inclusive) to any exit.
    let mut rank = vec![Duration::ZERO; n];
    for &i in topo.iter().rev() {
        let down = succs[i]
            .iter()
            .map(|&s| rank[s])
            .max()
            .unwrap_or(Duration::ZERO);
        rank[i] = durations[i] + down;
    }

    // List scheduling: repeatedly take the highest-rank vertex whose
    // predecessors are all scheduled, and place it on the earliest-free
    // worker (the lowest index among ties), no earlier than its
    // predecessors' finish times.
    let mut start = vec![Duration::ZERO; n];
    let mut finish = vec![Duration::ZERO; n];
    let mut pending: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut avail = vec![Duration::ZERO; threads];
    let mut ready: Vec<usize> = (0..n).filter(|&i| pending[i] == 0).collect();
    while let Some(pos) = ready
        .iter()
        .enumerate()
        .max_by_key(|&(_, &i)| (rank[i], std::cmp::Reverse(i)))
        .map(|(pos, _)| pos)
    {
        let i = ready.swap_remove(pos);
        let vertex_ready = preds[i]
            .iter()
            .map(|&p| finish[p])
            .max()
            .unwrap_or(Duration::ZERO);
        let (w, _) = avail
            .iter()
            .enumerate()
            .min_by_key(|&(w, &t)| (t, w))
            .expect("at least one worker");
        start[i] = avail[w].max(vertex_ready);
        finish[i] = start[i] + durations[i];
        avail[w] = finish[i];
        for &s in &succs[i] {
            pending[s] -= 1;
            if pending[s] == 0 {
                ready.push(s);
            }
        }
    }
    Replay { start, finish }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn makespan(d: &[Duration], preds: &[Vec<usize>], threads: usize) -> Duration {
        replay(d, preds, threads).makespan()
    }

    #[test]
    fn dag_chain_is_sequential() {
        let d = vec![ms(3), ms(5), ms(2)];
        let preds = vec![vec![], vec![0], vec![1]];
        for threads in [1, 4, 16] {
            assert_eq!(makespan(&d, &preds, threads), ms(10));
        }
    }

    #[test]
    fn dag_independent_nodes_pack_longest_first() {
        // 5, 4, 3 on two threads: 5 | 4 then 3 -> 7.
        let d = vec![ms(5), ms(4), ms(3)];
        let preds = vec![vec![]; 3];
        assert_eq!(makespan(&d, &preds, 2), ms(7));
        assert_eq!(makespan(&d, &preds, 8), ms(5));
        assert_eq!(makespan(&d, &preds, 1), ms(12));
    }

    #[test]
    fn dag_diamond_overlaps_branches() {
        // 0 (2ms) -> {1 (4ms), 2 (6ms)} -> 3 (1ms): branches overlap on
        // two threads, so 2 + 6 + 1 = 9ms instead of the 13ms serial sum.
        let d = vec![ms(2), ms(4), ms(6), ms(1)];
        let preds = vec![vec![], vec![0], vec![0], vec![1, 2]];
        assert_eq!(makespan(&d, &preds, 2), ms(9));
        assert_eq!(makespan(&d, &preds, 1), ms(13));
    }

    #[test]
    fn starts_and_finishes_respect_edges_and_durations() {
        let d: Vec<Duration> = (1..=12).map(|i| ms(i * 5 % 11 + 1)).collect();
        // Node i waits for i - 3 and i / 2 (where those precede it).
        let preds: Vec<Vec<usize>> = (0..12usize)
            .map(|i| {
                let mut ps: Vec<usize> = [i.checked_sub(3), Some(i / 2)]
                    .into_iter()
                    .flatten()
                    .filter(|&p| p < i)
                    .collect();
                ps.dedup();
                ps
            })
            .collect();
        for threads in [1usize, 2, 5] {
            let r = replay(&d, &preds, threads);
            for i in 0..d.len() {
                assert_eq!(r.finish[i], r.start[i] + d[i]);
                for &p in &preds[i] {
                    assert!(r.start[i] >= r.finish[p], "{i} starts before {p}");
                }
            }
        }
    }

    #[test]
    fn dag_makespan_bounds_hold() {
        let d: Vec<Duration> = (1..=12).map(|i| ms(i * 5 % 11 + 1)).collect();
        // Layered graph: node i depends on i-3 (three independent chains).
        let preds: Vec<Vec<usize>> = (0..12)
            .map(|i| if i < 3 { vec![] } else { vec![i - 3] })
            .collect();
        let sum: Duration = d.iter().sum();
        // Critical path: the heaviest of the three chains.
        let chain = |start: usize| -> Duration { (0..4).map(|k| d[start + 3 * k]).sum() };
        let cp = chain(0).max(chain(1)).max(chain(2));
        for threads in [1usize, 2, 3, 8] {
            let m = makespan(&d, &preds, threads);
            assert!(m <= sum, "{threads}");
            assert!(m >= cp, "{threads}");
            assert!(m >= sum / threads as u32, "{threads}");
        }
        // Enough threads: exactly the critical path.
        assert_eq!(makespan(&d, &preds, 3), cp);
    }

    #[test]
    fn dag_empty_is_zero() {
        let r = replay(&[], &[], 4);
        assert!(r.start.is_empty());
        assert_eq!(r.makespan(), Duration::ZERO);
    }
}

//! Simulated timing: record one graph, replay it once.
//!
//! In [`TimingModel::Simulated`] mode every construct runs inline on the
//! calling thread, and each piece of work becomes a timed vertex of one
//! graph per pipeline or batch call:
//!
//! * a node's (process's) time outside its loops is a chain of segments;
//! * each iteration of a parallel loop and each task is a parallel branch
//!   between two segments, joined before whatever follows;
//! * the executor's stage barriers, DAG edges or batch union connect the
//!   nodes, and every vertex carries its node's key.
//!
//! [`arp_par::replay`] list-schedules that graph once on the virtual
//! processors, and every simulated figure — totals, process and stage
//! times, DAG and batch makespans — is read off the replay. Nothing is
//! credited twice: a loop's iterations and the nodes around them compete for
//! the same processors.

use crate::config::TimingModel;
use crate::plan::{Strategy, STAGE_TABLE};
use crate::process::ProcessId;
use crate::report::{DagReport, ProcessTiming};
use arp_par::{BorrowedTask, Replay};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Timed vertices and the edges between them. Every vertex's predecessors
/// precede it, and each node's vertices form a single-entry, single-exit
/// subgraph: its first vertex is the only one with predecessors outside
/// the node, and its last vertex follows all the others.
#[derive(Debug, Clone, Default)]
pub(crate) struct Graph {
    pub(crate) durations: Vec<Duration>,
    pub(crate) preds: Vec<Vec<usize>>,
    /// The key of the node each vertex was recorded under.
    pub(crate) owner: Vec<usize>,
}

impl Graph {
    /// List-schedules the graph on `threads` workers.
    pub(crate) fn replay(&self, threads: usize) -> Replay {
        arp_par::replay(&self.durations, &self.preds, threads)
    }

    /// Sum of every vertex's duration: the fully serialized cost.
    pub(crate) fn total(&self) -> Duration {
        self.durations.iter().sum()
    }

    /// Time from the first start to the last finish of the vertices whose
    /// owner satisfies `keep` (zero when there are none).
    pub(crate) fn span(&self, replay: &Replay, keep: impl Fn(usize) -> bool) -> Duration {
        let vs = || (0..self.owner.len()).filter(|&v| keep(self.owner[v]));
        match (
            vs().map(|v| replay.start[v]).min(),
            vs().map(|v| replay.finish[v]).max(),
        ) {
            (Some(a), Some(b)) => b - a,
            _ => Duration::ZERO,
        }
    }

    /// The vertices whose owner `rekey` maps to `Some`, re-indexed and
    /// re-owned; edges to dropped vertices are dropped.
    pub(crate) fn subgraph(&self, rekey: impl Fn(usize) -> Option<usize>) -> Graph {
        let mut index = vec![usize::MAX; self.owner.len()];
        let mut sub = Graph::default();
        for (v, &owner) in self.owner.iter().enumerate() {
            let Some(key) = rekey(owner) else { continue };
            index[v] = sub.durations.len();
            sub.durations.push(self.durations[v]);
            sub.preds.push(
                self.preds[v]
                    .iter()
                    .map(|&p| index[p])
                    .filter(|&p| p != usize::MAX)
                    .collect(),
            );
            sub.owner.push(key);
        }
        sub
    }

    /// The longest weighted path: its length and its vertices in order.
    fn critical_path(&self) -> (Duration, Vec<usize>) {
        let n = self.durations.len();
        let mut dist = vec![Duration::ZERO; n];
        let mut via = vec![None; n];
        for v in 0..n {
            if let Some(&p) = self.preds[v].iter().max_by_key(|&&p| (dist[p], Reverse(p))) {
                debug_assert!(p < v, "predecessors precede their vertex");
                dist[v] = dist[p];
                via[v] = Some(p);
            }
            dist[v] += self.durations[v];
        }
        let mut path = Vec::new();
        let mut cursor = (0..n).max_by_key(|&v| (dist[v], Reverse(v)));
        let length = cursor.map_or(Duration::ZERO, |v| dist[v]);
        while let Some(v) = cursor {
            path.push(v);
            cursor = via[v];
        }
        path.reverse();
        (length, path)
    }
}

/// Schedule analysis of one event's DAG run from its graph (owners are
/// process numbers): the DAG replay, the same vertices under the
/// eleven-stage barrier plan, and the critical path. Returns the DAG
/// replay too, for reading process times off it.
pub(crate) fn dag_schedule_report(graph: &Graph, threads: usize) -> (DagReport, Replay) {
    let replay = graph.replay(threads);
    // The same vertices under the barrier plan: each process's first
    // vertex waits for the last vertex of its plan predecessors instead.
    let mut barrier = graph.clone();
    let last = |p: u8| graph.owner.iter().rposition(|&o| o == p.into());
    for p in 0..20u8 {
        if let Some(first) = graph.owner.iter().position(|&o| o == p.into()) {
            barrier.preds[first] = barrier_preds(p).into_iter().filter_map(last).collect();
        }
    }
    let barrier_mk = barrier.replay(threads).makespan();
    let (critical_path_len, path) = graph.critical_path();
    let mut critical_path: Vec<ProcessId> = path
        .into_iter()
        .map(|v| ProcessId(graph.owner[v] as u8))
        .collect();
    critical_path.dedup();
    let report = DagReport {
        critical_path,
        critical_path_len,
        // The stage plan is one valid linearization of the graph, so a
        // scheduler can always fall back to it: list-scheduling anomalies
        // must not make barrier removal report a slowdown.
        dag_makespan: replay.makespan().min(barrier_mk),
        barrier_makespan: barrier_mk,
        node_total: graph.total(),
        threads,
    };
    (report, replay)
}

/// Process `p`'s predecessors in the fully parallel stage plan: task
/// stages start all their processes after the previous stage, the other
/// stages chain theirs.
fn barrier_preds(p: u8) -> Vec<u8> {
    let mut before: Vec<u8> = Vec::new();
    for stage in &STAGE_TABLE {
        let tasks = stage.full == Strategy::Tasks;
        for (k, &q) in stage.processes.iter().enumerate() {
            if q == p {
                return if tasks || k == 0 {
                    before
                } else {
                    vec![stage.processes[k - 1]]
                };
            }
        }
        before = if tasks {
            stage.processes.to_vec()
        } else {
            stage.processes.last().into_iter().copied().collect()
        };
    }
    Vec::new()
}

/// Per-process times read off a replay, for `processes` in order.
pub(crate) fn process_spans(
    graph: &Graph,
    replay: &Replay,
    processes: impl IntoIterator<Item = u8>,
) -> Vec<ProcessTiming> {
    processes
        .into_iter()
        .map(|p| ProcessTiming {
            process: ProcessId(p),
            elapsed: graph.span(replay, |o| o == p as usize),
        })
        .collect()
}

/// The graph being recorded on this thread.
struct Recorder {
    graph: Graph,
    /// The vertices the next vertex must follow.
    frontier: Vec<usize>,
    /// Start of the open segment.
    mark: Instant,
    /// Key of the node running, if any.
    node: Option<usize>,
}

impl Recorder {
    /// Closes the open segment: inside a node it becomes a vertex after
    /// the frontier (and the new frontier); outside, its time is not
    /// recorded.
    fn cut(&mut self) {
        let now = Instant::now();
        if let Some(owner) = self.node {
            let v = self.graph.durations.len();
            self.graph.durations.push(now - self.mark);
            self.graph
                .preds
                .push(std::mem::replace(&mut self.frontier, vec![v]));
            self.graph.owner.push(owner);
        }
        self.mark = now;
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Applies `f` to this thread's recorder; `None` when nothing records.
fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    RECORDER.with(|r| r.borrow_mut().as_mut().map(f))
}

/// Runs `f`, recording its graph when `timing` is simulated.
pub(crate) fn record<R>(timing: TimingModel, f: impl FnOnce() -> R) -> (R, Option<Graph>) {
    if timing == TimingModel::Measured {
        return (f(), None);
    }
    /// Restores the enclosing recorder on every exit path.
    struct Scope(Option<Recorder>);
    impl Drop for Scope {
        fn drop(&mut self) {
            let outer = self.0.take();
            RECORDER.with(|r| *r.borrow_mut() = outer);
        }
    }
    let fresh = Recorder {
        graph: Graph::default(),
        frontier: Vec::new(),
        mark: Instant::now(),
        node: None,
    };
    let scope = Scope(RECORDER.with(|r| r.borrow_mut().replace(fresh)));
    let out = f();
    let graph = RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| rec.graph);
    drop(scope);
    (out, graph)
}

/// Runs `f` as node `key`: the vertices it records carry the key. Time
/// before the node starts is not its own.
pub(crate) fn node<R>(key: usize, f: impl FnOnce() -> R) -> R {
    let outer = with(|r| {
        r.mark = Instant::now();
        r.node.replace(key)
    });
    let out = f();
    if let Some(outer) = outer {
        with(|r| {
            r.cut();
            r.node = outer;
        });
    }
    out
}

/// Runs `branches` one after another, recorded as parallel branches from
/// the current point that join before whatever follows. Stops at the
/// first error.
pub(crate) fn fork_join<B, E>(
    branches: impl IntoIterator<Item = B>,
    mut run: impl FnMut(B) -> Result<(), E>,
) -> Result<(), E> {
    let start = with(|r| {
        r.cut();
        r.frontier.clone()
    });
    let mut exits = Vec::new();
    let mut result = Ok(());
    for branch in branches {
        with(|r| r.frontier = start.clone().unwrap_or_default());
        result = run(branch);
        with(|r| {
            r.cut();
            exits.extend_from_slice(&r.frontier);
        });
        if result.is_err() {
            break;
        }
    }
    with(|r| r.frontier = join(exits, start.unwrap_or_default()));
    result
}

/// The sorted, deduplicated union of `exits`, or `start` when no branch
/// ran.
fn join(mut exits: Vec<usize>, start: Vec<usize>) -> Vec<usize> {
    if exits.is_empty() {
        return start;
    }
    exits.sort_unstable();
    exits.dedup();
    exits
}

/// Runs a task graph: on the shared pool when `timing` is measured;
/// inline when simulated, lowest ready index first, each task recorded
/// after its predecessors' exits. Each task runs inside a DAG-node trace
/// span either way, so its closure can annotate it.
pub(crate) fn run_dag(
    timing: TimingModel,
    tasks: Vec<BorrowedTask<'_>>,
    preds: &[Vec<usize>],
    priority: &[u64],
) {
    if timing == TimingModel::Measured {
        arp_par::ThreadPool::global().run_dag(tasks, preds, priority);
        return;
    }
    let n = tasks.len();
    let start = with(|r| {
        r.cut();
        r.frontier.clone()
    })
    .unwrap_or_default();
    let mut succs = vec![Vec::new(); n];
    for (i, ps) in preds.iter().enumerate() {
        for &p in ps {
            succs[p].push(i);
        }
    }
    let mut pending: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&i| pending[i] == 0).map(Reverse).collect();
    let mut tasks: Vec<Option<BorrowedTask<'_>>> = tasks.into_iter().map(Some).collect();
    let mut exits: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut ran = 0;
    while let Some(Reverse(i)) = ready.pop() {
        let entry = preds[i].iter().flat_map(|&p| exits[p].clone()).collect();
        with(|r| r.frontier = join(entry, start.clone()));
        {
            let _span = arp_trace::begin(arp_trace::Cat::DagNode);
            arp_trace::annotate(|a| a.name = format!("node-{i}"));
            tasks[i].take().expect("each task runs once")();
        }
        exits[i] = with(|r| r.frontier.clone()).unwrap_or_default();
        ran += 1;
        for &s in &succs[i] {
            pending[s] -= 1;
            if pending[s] == 0 {
                ready.push(Reverse(s));
            }
        }
    }
    assert_eq!(ran, n, "run_dag: dependency graph contains a cycle");
    with(|r| r.frontier = join(exits.concat(), start));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleep_ms(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    const SIM: TimingModel = TimingModel::Simulated { threads: 4 };

    #[test]
    fn nothing_records_when_measured() {
        let (v, graph) = record(TimingModel::Measured, || node(0, || 7));
        assert_eq!(v, 7);
        assert!(graph.is_none());
    }

    #[test]
    fn loops_fork_between_the_segments_of_their_node() {
        let ((), graph) = record(SIM, || {
            node(3, || {
                fork_join(0..3, |_| {
                    sleep_ms(2);
                    Ok::<(), ()>(())
                })
                .unwrap();
            })
        });
        let g = graph.unwrap();
        // Entry segment, three chunks, exit segment.
        assert_eq!(g.durations.len(), 5);
        assert_eq!(
            g.preds,
            vec![vec![], vec![0], vec![0], vec![0], vec![1, 2, 3]]
        );
        assert!(g.owner.iter().all(|&o| o == 3));
        assert!(g.durations[1..4]
            .iter()
            .all(|&d| d >= Duration::from_millis(2)));
        // Three chunks on four threads overlap; on one they serialize.
        let sum = g.total();
        assert!(g.replay(4).makespan() < sum);
        assert_eq!(g.replay(1).makespan(), sum);
    }

    #[test]
    fn dag_tasks_follow_their_predecessors_exits() {
        let ((), graph) = record(SIM, || {
            let tasks: Vec<BorrowedTask<'_>> = (0..4)
                .map(|i| Box::new(move || node(i, || sleep_ms(1))) as BorrowedTask<'_>)
                .collect();
            run_dag(SIM, tasks, &[vec![], vec![0], vec![0], vec![1, 2]], &[]);
            // Whatever follows the DAG waits for all of it.
            node(9, || {});
        });
        let g = graph.unwrap();
        assert_eq!(g.owner, vec![0, 1, 2, 3, 9]);
        assert_eq!(
            g.preds,
            vec![vec![], vec![0], vec![0], vec![1, 2], vec![0, 1, 2, 3]]
        );
    }

    #[test]
    fn errors_stop_the_fork_and_time_outside_nodes_is_dropped() {
        let (result, graph) = record(SIM, || {
            sleep_ms(1);
            fork_join(0..5, |i| if i == 2 { Err(i) } else { node(i, || Ok(())) })
        });
        assert_eq!(result, Err(2));
        let g = graph.unwrap();
        assert_eq!(g.owner, vec![0, 1]);
        assert!(g.preds.iter().all(Vec::is_empty));
    }

    #[test]
    fn barrier_plan_chains_stages() {
        // Stage I and II are task stages, III on are chains or loops.
        assert_eq!(barrier_preds(0), Vec::<u8>::new());
        assert_eq!(barrier_preds(5), vec![0, 1]);
        assert_eq!(barrier_preds(3), vec![2, 5, 8, 17]);
        assert_eq!(barrier_preds(4), vec![3]);
        assert_eq!(barrier_preds(15), vec![19]);
    }

    #[test]
    fn subgraph_and_spans_read_one_owner() {
        let g = Graph {
            durations: vec![Duration::from_millis(2), Duration::from_millis(3)],
            preds: vec![vec![], vec![0]],
            owner: vec![7, 8],
        };
        let r = g.replay(2);
        assert_eq!(g.span(&r, |o| o == 8), Duration::from_millis(3));
        assert_eq!(g.span(&r, |_| true), Duration::from_millis(5));
        let sub = g.subgraph(|o| (o == 8).then_some(0));
        assert_eq!(sub.owner, vec![0]);
        assert_eq!(sub.preds, vec![Vec::<usize>::new()]);
    }
}

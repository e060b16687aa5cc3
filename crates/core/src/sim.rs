//! Simulated timing: record one graph, replay it once.
//!
//! In [`TimingModel::Simulated`] mode every construct runs inline on the
//! calling thread, and each piece of work becomes a timed vertex of one
//! graph per pipeline or batch call:
//!
//! * a node's (process's) time outside its loops is a chain of segments;
//! * each iteration of a parallel loop is a parallel branch between two
//!   segments, joined before whatever follows;
//! * the edges of the run's plan graph (chain, stage barriers, DAG edges
//!   or the batch union) connect the nodes, and every vertex carries its
//!   node's key.
//!
//! [`arp_par::replay`] list-schedules that graph once on the virtual
//! processors, and every simulated figure — totals, process and stage
//! times, DAG and batch makespans — is read off the replay. Nothing is
//! credited twice: a loop's iterations and the nodes around them compete for
//! the same processors.

use crate::config::TimingModel;
use crate::plan::PlanGraph;
use crate::process::ProcessId;
use crate::report::{DagReport, ImplKind, ProcessTiming};
use arp_par::Replay;
use std::cell::RefCell;
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
}

/// Schedule analysis of one event's DAG run from its graph (owners are
/// process numbers): the DAG replay, the same vertices under the
/// eleven-stage barrier plan, and the critical path. Returns the DAG
/// replay too, for reading process times off it.
pub(crate) fn dag_schedule_report(graph: &Graph, threads: usize) -> (DagReport, Replay) {
    let replay = graph.replay(threads);
    // The same vertices under the fully parallel plan's barriers: each
    // process's first vertex waits for the last vertex of its plan
    // predecessors instead.
    let plan = PlanGraph::of(ImplKind::FullyParallel);
    let mut barrier = graph.clone();
    let last = |&j: &usize| {
        let q = plan.nodes[j].process;
        graph.owner.iter().rposition(|&o| o == q.into())
    };
    for (node, preds) in plan.nodes.iter().zip(&plan.preds) {
        if let Some(first) = graph.owner.iter().position(|&o| o == node.process.into()) {
            barrier.preds[first] = preds.iter().filter_map(last).collect();
        }
    }
    let barrier_mk = barrier.replay(threads).makespan();
    let (critical_path_len, path) = arp_par::ranks(&graph.durations, &graph.preds).critical_path();
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

/// Runs `run(i)` for every vertex `i` of a graph inline, in index order,
/// and stops at the first error. Each vertex is recorded as a branch after
/// its predecessors' exits, or from the current point when it has none,
/// and whatever follows waits for all of them. A loop is a graph with no
/// edges. The graph numbers its vertices topologically, so index order
/// is also the lowest-ready-index order.
pub(crate) fn run_inline<E>(
    preds: &[Vec<usize>],
    mut run: impl FnMut(usize) -> Result<(), E>,
) -> Result<(), E> {
    let start = with(|r| {
        r.cut();
        r.frontier.clone()
    })
    .unwrap_or_default();
    let mut exits: Vec<Vec<usize>> = Vec::with_capacity(preds.len());
    let mut result = Ok(());
    for (i, ps) in preds.iter().enumerate() {
        let entry = ps.iter().flat_map(|&p| exits[p].clone()).collect();
        with(|r| r.frontier = join(entry, start.clone()));
        result = run(i);
        // Closes the branch; a vertex that ran as a node has closed itself.
        let exit = with(|r| {
            r.cut();
            r.frontier.clone()
        });
        exits.push(exit.unwrap_or_default());
        if result.is_err() {
            break;
        }
    }
    with(|r| r.frontier = join(exits.concat(), start));
    result
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
                run_inline(&[vec![], vec![], vec![]], |_| {
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
            run_inline(&[vec![], vec![0], vec![0], vec![1, 2]], |i| {
                node(i, || sleep_ms(1));
                Ok::<(), ()>(())
            })
            .unwrap();
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
            run_inline(&vec![Vec::new(); 5], |i| {
                if i == 2 {
                    Err(i)
                } else {
                    node(i, || Ok(()))
                }
            })
        });
        assert_eq!(result, Err(2));
        let g = graph.unwrap();
        assert_eq!(g.owner, vec![0, 1]);
        assert!(g.preds.iter().all(Vec::is_empty));
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

//! The eleven-stage execution plan (Fig. 9 of the paper).
//!
//! The twenty processes are reordered into eleven stages with valid
//! dependencies; each stage carries the parallelization strategy used by the
//! partially and fully parallelized implementations:
//!
//! | Stage | Processes | Partial | Full |
//! |-------|-----------|---------|------|
//! | I     | 0, 1      | Task    | Task |
//! | II    | 2, 5, 8, 17 | Task  | Task |
//! | III   | 3         | Seq     | Loop (Fortran `OMP DO`) |
//! | IV    | 4         | Seq     | Loop (temp folders) |
//! | V     | 7         | Seq     | Loop (temp folders) |
//! | VI    | 10        | Loop    | Loop |
//! | VII   | 11        | Seq     | Seq (never parallelized) |
//! | VIII  | 13        | Seq     | Loop (temp folders) |
//! | IX    | 16        | Seq     | Loop (Fortran `OMP DO`) |
//! | X     | 19        | Loop    | Loop |
//! | XI    | 9, 15, 18 | Task    | Task |
//!
//! `PlanGraph` turns every implementation into one graph of process
//! nodes: the two sequential chains, the stage plan under either column,
//! the artifact DAG and the batch's union of DAGs. The executor's one
//! runner runs them all, the batch labels and ranks its nodes off the same
//! graph, and the profile folds a batch trace back onto it, so the stage
//! barriers and the batch's layout are written down only here. The unit
//! tests check every graph against the artifact hazards of
//! [`crate::dag::ProcessDag`].

use crate::dag::ProcessDag;
use crate::process::PROCESS_TABLE;
use crate::report::ImplKind;
use serde::{Deserialize, Serialize};

/// Stage identifier (I–XI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StageId {
    /// Stage I — flags + input gathering.
    I,
    /// Stage II — metadata initialization.
    II,
    /// Stage III — component separation.
    III,
    /// Stage IV — default filtering.
    IV,
    /// Stage V — Fourier transformation.
    V,
    /// Stage VI — FPL/FSL analysis.
    VI,
    /// Stage VII — flag re-initialization (never parallel).
    VII,
    /// Stage VIII — definitive correction.
    VIII,
    /// Stage IX — response spectra.
    IX,
    /// Stage X — GEM generation.
    X,
    /// Stage XI — plotting.
    XI,
}

impl StageId {
    /// All stages in execution order.
    pub const ALL: [StageId; 11] = [
        StageId::I,
        StageId::II,
        StageId::III,
        StageId::IV,
        StageId::V,
        StageId::VI,
        StageId::VII,
        StageId::VIII,
        StageId::IX,
        StageId::X,
        StageId::XI,
    ];

    /// Roman-numeral label.
    pub fn label(self) -> &'static str {
        match self {
            StageId::I => "I",
            StageId::II => "II",
            StageId::III => "III",
            StageId::IV => "IV",
            StageId::V => "V",
            StageId::VI => "VI",
            StageId::VII => "VII",
            StageId::VIII => "VIII",
            StageId::IX => "IX",
            StageId::X => "X",
            StageId::XI => "XI",
        }
    }
}

/// How a stage is executed in a given implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Run sequentially.
    Sequential,
    /// OpenMP-style task parallelism over heterogeneous processes.
    Tasks,
    /// Parallel loop over stations/files.
    Loop,
    /// Parallel loop through the temp-folder staging protocol.
    StagedLoop,
}

/// Static description of one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageInfo {
    /// Stage identifier.
    pub id: StageId,
    /// The processes the stage runs (in order, for sequential execution).
    pub processes: &'static [u8],
    /// Strategy in the partially parallelized implementation.
    pub partial: Strategy,
    /// Strategy in the fully parallelized implementation.
    pub full: Strategy,
}

/// The full stage table in execution order.
pub const STAGE_TABLE: [StageInfo; 11] = {
    use StageId::*;
    use Strategy::*;
    [
        StageInfo {
            id: I,
            processes: &[0, 1],
            partial: Tasks,
            full: Tasks,
        },
        StageInfo {
            id: II,
            processes: &[2, 5, 8, 17],
            partial: Tasks,
            full: Tasks,
        },
        StageInfo {
            id: III,
            processes: &[3],
            partial: Sequential,
            full: Loop,
        },
        StageInfo {
            id: IV,
            processes: &[4],
            partial: Sequential,
            full: StagedLoop,
        },
        StageInfo {
            id: V,
            processes: &[7],
            partial: Sequential,
            full: StagedLoop,
        },
        StageInfo {
            id: VI,
            processes: &[10],
            partial: Loop,
            full: Loop,
        },
        StageInfo {
            id: VII,
            processes: &[11],
            partial: Sequential,
            full: Sequential,
        },
        StageInfo {
            id: VIII,
            processes: &[13],
            partial: Sequential,
            full: StagedLoop,
        },
        StageInfo {
            id: IX,
            processes: &[16],
            partial: Sequential,
            full: Loop,
        },
        StageInfo {
            id: X,
            processes: &[19],
            partial: Loop,
            full: Loop,
        },
        StageInfo {
            id: XI,
            processes: &[9, 15, 18],
            partial: Tasks,
            full: Tasks,
        },
    ]
};

/// The stage a process occupies in the eleven-stage plan, or `None` for the
/// redundant processes (#6, #12, #14), which the plan does not schedule.
/// DAG nodes inherit their inner-loop mode from it.
pub fn stage_of(p: u8) -> Option<&'static StageInfo> {
    STAGE_TABLE.iter().find(|s| s.processes.contains(&p))
}

/// One node of a [`PlanGraph`]: a process of one event and the mode it
/// runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanNode {
    /// Index of the event the node belongs to (0 outside a batch).
    pub(crate) event: usize,
    /// The process the node runs.
    pub(crate) process: u8,
    /// Whether the process runs its station loops on the team.
    pub(crate) parallel: bool,
    /// Whether #4, #7 or #13 go through the temp-folder protocol.
    pub(crate) staged: bool,
}

/// The nodes of one run, numbered in a topological order, and each node's
/// predecessors. The implementations and the batch differ only in the
/// graph they build here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PlanGraph {
    pub(crate) nodes: Vec<PlanNode>,
    pub(crate) preds: Vec<Vec<usize>>,
}

impl PlanGraph {
    /// The graph `kind` runs on one event.
    pub(crate) fn of(kind: ImplKind) -> PlanGraph {
        match kind {
            ImplKind::SequentialOriginal => Self::chain(0..20),
            ImplKind::SequentialOptimized => Self::chain(
                PROCESS_TABLE
                    .iter()
                    .filter(|p| !p.redundant)
                    .map(|p| p.id.0),
            ),
            ImplKind::PartiallyParallel => Self::stages(|s| s.partial),
            ImplKind::FullyParallel => Self::stages(|s| s.full),
            // A batch of one event has no cross-event overlap to exploit;
            // the batch plan degenerates to the per-event DAG.
            ImplKind::DagParallel | ImplKind::BatchDag => Self::dag(1),
        }
    }

    /// `processes` in order, each sequential and after the one before.
    pub(crate) fn chain(processes: impl IntoIterator<Item = u8>) -> PlanGraph {
        let mut plan = PlanGraph::default();
        for p in processes {
            let preds = plan.nodes.len().checked_sub(1).into_iter().collect();
            plan.push(0, p, Strategy::Sequential, preds);
        }
        plan
    }

    /// Fig. 9's eleven stages, each run the way `strategy` says: a task
    /// stage's processes are independent, any other stage chains its own.
    /// A stage's first nodes follow every node of the stage before it —
    /// the barrier.
    pub(crate) fn stages(strategy: impl Fn(&StageInfo) -> Strategy) -> PlanGraph {
        let mut plan = PlanGraph::default();
        let mut barrier: Vec<usize> = Vec::new();
        for stage in &STAGE_TABLE {
            let s = strategy(stage);
            let first = plan.nodes.len();
            for &p in stage.processes {
                let at = plan.nodes.len();
                let chained = s != Strategy::Tasks && at > first;
                let preds = if chained {
                    vec![at - 1]
                } else {
                    barrier.clone()
                };
                plan.push(0, p, s, preds);
            }
            barrier = (first..plan.nodes.len()).collect();
        }
        plan
    }

    /// One copy of the artifact DAG ([`ProcessDag::optimized`]) per event,
    /// event after event, with no edges between events: each event writes
    /// its own work directory. A node runs its loop the way its process's
    /// stage does in the fully parallel plan, except that a task stage's
    /// process runs sequentially: its parallelism comes from overlapping
    /// with other nodes, and a node waiting on a nested loop helps with any
    /// queued job, other nodes included.
    pub(crate) fn dag(events: usize) -> PlanGraph {
        let graph = ProcessDag::optimized();
        let preds = graph.index_preds();
        let mut plan = PlanGraph::default();
        for event in 0..events {
            let offset = plan.nodes.len();
            for (&p, ps) in graph.nodes().iter().zip(&preds) {
                let s = match stage_of(p).map(|stage| stage.full) {
                    Some(s @ (Strategy::Loop | Strategy::StagedLoop)) => s,
                    _ => Strategy::Sequential,
                };
                plan.push(event, p, s, ps.iter().map(|&j| offset + j).collect());
            }
        }
        plan
    }

    /// Adds a node that runs `process` of `event` the way `s` says: a
    /// sequential stage runs its station loops sequentially, every other
    /// stage on the team, and a staged loop through the temp-folder
    /// protocol.
    fn push(&mut self, event: usize, process: u8, s: Strategy, preds: Vec<usize>) {
        self.nodes.push(PlanNode {
            event,
            process,
            parallel: s != Strategy::Sequential,
            staged: s == Strategy::StagedLoop,
        });
        self.preds.push(preds);
    }

    /// Whether no two nodes can ever run at once: each follows the node
    /// before it, and none runs a parallel loop.
    pub(crate) fn is_serial(&self) -> bool {
        self.nodes.iter().all(|n| !n.parallel)
            && (1..self.preds.len()).all(|i| self.preds[i].contains(&(i - 1)))
    }
}

/// Declared input artifacts per process, from which [`crate::dag`] derives
/// the hazard edges. Artifact classes are coarse (file families, not
/// individual stations).
pub fn process_reads(p: u8) -> &'static [&'static str] {
    match p {
        0 => &[],
        1 => &["input-dir"],
        2 => &[],
        3 => &["v1list", "v1-station"],
        4 => &["v1list", "filter-params", "v1-component"],
        5 | 8 | 17 | 14 => &["v1list"],
        6 => &["v1list", "v1-station"],
        7 => &["v1list", "v2"],
        9 => &["v1list", "f"],
        10 => &["v1list", "f", "filter-params"],
        11 => &[],
        12 => &["v1list", "v1-station"],
        13 => &["v1list", "filter-params", "v1-component"],
        15 => &["v1list", "v2"],
        16 => &["v1list", "v2"],
        18 => &["v1list", "r"],
        19 => &["v1list", "v2", "r"],
        _ => panic!("unknown process {p}"),
    }
}

/// Declared outputs per process (see [`process_reads`]).
pub fn process_writes(p: u8) -> &'static [&'static str] {
    match p {
        0 | 11 => &["flags"],
        1 => &["v1list", "v1-station"],
        2 => &["filter-params"],
        3 | 12 => &["v1-component"],
        4 | 13 => &["v2", "max-values"],
        5 | 14 => &["acc-graph", "fourier", "response"],
        6 => &["ps-acc"],
        7 => &["f"],
        8 => &["fourier-graph"],
        9 => &["ps-fourier"],
        10 => &["filter-params"],
        15 => &["ps-acc"],
        16 => &["r"],
        17 => &["response-graph"],
        18 => &["ps-response"],
        19 => &["gem"],
        _ => panic!("unknown process {p}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{any, prop_assert, prop_assert_eq, proptest};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn stage_table_covers_all_non_redundant_processes() {
        let mut covered: Vec<u8> = STAGE_TABLE
            .iter()
            .flat_map(|s| s.processes.iter().copied())
            .collect();
        covered.sort_unstable();
        // 17 processes (the optimized set: 20 minus #6, #12, #14).
        assert_eq!(covered.len(), 17);
        for p in 0..20u8 {
            let redundant = matches!(p, 6 | 12 | 14);
            assert_eq!(covered.contains(&p), !redundant, "process {p}");
        }
    }

    #[test]
    fn partial_parallelizes_exactly_five_stages() {
        let parallel: Vec<&str> = STAGE_TABLE
            .iter()
            .filter(|s| s.partial != Strategy::Sequential)
            .map(|s| s.id.label())
            .collect();
        assert_eq!(parallel, vec!["I", "II", "VI", "X", "XI"]);
    }

    #[test]
    fn full_parallelizes_all_but_stage_vii() {
        for s in &STAGE_TABLE {
            if s.id == StageId::VII {
                assert_eq!(s.full, Strategy::Sequential);
            } else {
                assert_ne!(s.full, Strategy::Sequential, "stage {}", s.id.label());
            }
        }
        let parallel = STAGE_TABLE
            .iter()
            .filter(|s| s.full != Strategy::Sequential)
            .count();
        assert_eq!(parallel, 10); // "10 out of 11 stages"
    }

    #[test]
    fn stage_of_covers_scheduled_processes_only() {
        for p in 0..20u8 {
            match stage_of(p) {
                Some(stage) => assert!(stage.processes.contains(&p)),
                None => assert!(matches!(p, 6 | 12 | 14), "process {p}"),
            }
        }
        assert_eq!(stage_of(16).unwrap().id, StageId::IX);
    }

    /// Process `p`'s predecessors in `plan`, as process numbers.
    fn preds_of(plan: &PlanGraph, p: u8) -> Vec<u8> {
        let i = plan.nodes.iter().position(|n| n.process == p).unwrap();
        plan.preds[i]
            .iter()
            .map(|&j| plan.nodes[j].process)
            .collect()
    }

    #[test]
    fn barrier_plan_chains_stages() {
        // Stage I and II are task stages, III on are chains or loops.
        let plan = PlanGraph::of(ImplKind::FullyParallel);
        assert_eq!(preds_of(&plan, 0), Vec::<u8>::new());
        assert_eq!(preds_of(&plan, 5), vec![0, 1]);
        assert_eq!(preds_of(&plan, 3), vec![2, 5, 8, 17]);
        assert_eq!(preds_of(&plan, 4), vec![3]);
        assert_eq!(preds_of(&plan, 15), vec![19]);
    }

    #[test]
    fn every_plan_numbers_its_nodes_topologically() {
        for kind in ImplKind::ALL {
            let plan = PlanGraph::of(kind);
            assert_eq!(plan.nodes.len(), plan.preds.len(), "{kind:?}");
            for (i, preds) in plan.preds.iter().enumerate() {
                assert!(preds.iter().all(|&j| j < i), "{kind:?} node {i}");
            }
            let want = if kind == ImplKind::SequentialOriginal {
                20
            } else {
                17
            };
            assert_eq!(plan.nodes.len(), want, "{kind:?}");
            let serial = matches!(
                kind,
                ImplKind::SequentialOriginal | ImplKind::SequentialOptimized
            );
            assert_eq!(plan.is_serial(), serial, "{kind:?}");
        }
    }

    #[test]
    fn plan_modes_follow_the_stage_strategies() {
        let mode = |plan: &PlanGraph, p: u8| {
            let n = plan.nodes.iter().find(|n| n.process == p).unwrap();
            (n.parallel, n.staged)
        };
        let partial = PlanGraph::of(ImplKind::PartiallyParallel);
        let full = PlanGraph::of(ImplKind::FullyParallel);
        let dag = PlanGraph::of(ImplKind::DagParallel);
        // Task stage XI runs each process's loop on the team, except as a
        // DAG node.
        assert_eq!(mode(&partial, 9), (true, false));
        assert_eq!(mode(&full, 9), (true, false));
        assert_eq!(mode(&dag, 9), (false, false));
        // Stage IV: sequential in the partial plan, staged in the others.
        assert_eq!(mode(&partial, 4), (false, false));
        assert_eq!(mode(&full, 4), (true, true));
        assert_eq!(mode(&dag, 4), (true, true));
        assert_eq!(mode(&full, 11), (false, false));
        assert_eq!(mode(&dag, 16), (true, false));
        // The DAG plan is the artifact graph itself.
        let graph = crate::dag::ProcessDag::optimized();
        for p in graph.nodes().iter().copied() {
            assert_eq!(preds_of(&dag, p), graph.preds(p), "#{p}");
        }
    }

    #[test]
    fn every_hazard_edge_is_a_path_in_every_plan() {
        for kind in ImplKind::ALL {
            let plan = PlanGraph::of(kind);
            let hazards = match kind {
                ImplKind::SequentialOriginal => ProcessDag::full(),
                _ => ProcessDag::optimized(),
            };
            // Nodes are numbered topologically, so one pass in index order
            // finds every node's ancestors.
            let mut ancestors: Vec<Vec<bool>> = Vec::new();
            for preds in &plan.preds {
                let mut mine = vec![false; plan.nodes.len()];
                for &j in preds {
                    mine[j] = true;
                    mine.iter_mut()
                        .zip(&ancestors[j])
                        .for_each(|(m, &a)| *m |= a);
                }
                ancestors.push(mine);
            }
            let at = |p: u8| plan.nodes.iter().position(|n| n.process == p).unwrap();
            for e in hazards.edges() {
                assert!(
                    ancestors[at(e.to.0)][at(e.from.0)],
                    "{kind:?}: nothing orders #{} before #{} ({:?} {:?})",
                    e.from.0,
                    e.to.0,
                    e.kind,
                    e.artifact
                );
            }
        }
    }

    #[test]
    fn the_batch_plan_is_the_union_of_per_event_dags() {
        assert_eq!(PlanGraph::dag(0), PlanGraph::default());
        let plan = PlanGraph::dag(3);
        let one = PlanGraph::of(ImplKind::DagParallel);
        assert_eq!(plan.nodes.len(), 3 * one.nodes.len());
        for (i, n) in plan.nodes.iter().enumerate() {
            let k = i % one.nodes.len();
            assert_eq!(n.event, i / one.nodes.len());
            assert_eq!((n.process, n.parallel, n.staged), {
                let m = one.nodes[k];
                (m.process, m.parallel, m.staged)
            });
            let offset = i - k;
            let want: Vec<usize> = one.preds[k].iter().map(|&j| offset + j).collect();
            assert_eq!(plan.preds[i], want);
        }
    }

    #[test]
    fn reads_writes_defined_for_all_processes() {
        for p in 0..20u8 {
            let _ = process_reads(p);
            let _ = process_writes(p);
        }
    }

    proptest! {
        /// The batch plan stays acyclic for any batch size: every node
        /// follows only lower-numbered nodes of its own event.
        #[test]
        fn the_batch_plan_is_acyclic(events in 0usize..7) {
            let plan = PlanGraph::dag(events);
            prop_assert_eq!(plan.nodes.len(), events * 17);
            for (i, preds) in plan.preds.iter().enumerate() {
                let event = plan.nodes[i].event;
                prop_assert!(preds.iter().all(|&j| j < i && plan.nodes[j].event == event));
            }
        }

        /// Events share no edges, so any interleaving of per-event orders
        /// (each a stage-plan flattening with its stages' processes
        /// shuffled) runs every node of the batch plan after its
        /// predecessors: the freedom the batch scheduler exploits.
        #[test]
        fn any_interleaving_of_per_event_stage_orders_linearizes_the_batch_plan(
            events in 1usize..5,
            seed in any::<u64>(),
        ) {
            let plan = PlanGraph::dag(events);
            let index = |e: usize, p: u8| {
                plan.nodes.iter().position(|n| n.event == e && n.process == p).unwrap()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut orders: Vec<Vec<usize>> = (0..events)
                .map(|e| {
                    let mut order = Vec::new();
                    for stage in &STAGE_TABLE {
                        let mut ps = stage.processes.to_vec();
                        ps.sort_by_cached_key(|_| rng.gen::<u64>());
                        order.extend(ps.iter().map(|&p| index(e, p)));
                    }
                    // Taken from the back.
                    order.reverse();
                    order
                })
                .collect();
            let mut position = vec![usize::MAX; plan.nodes.len()];
            for at in 0..plan.nodes.len() {
                let live: Vec<usize> = (0..events).filter(|&e| !orders[e].is_empty()).collect();
                let i = orders[live[rng.gen_range(0..live.len())]].pop().unwrap();
                prop_assert_eq!(position[i], usize::MAX, "node {} runs twice", i);
                position[i] = at;
            }
            for (i, preds) in plan.preds.iter().enumerate() {
                prop_assert!(preds.iter().all(|&j| position[j] < position[i]), "node {}", i);
            }
        }
    }
}

//! Artifact-dependency DAG over the pipeline processes.
//!
//! The eleven-stage plan of Fig. 9 is a *barrier* schedule: every stage
//! waits for the previous stage to finish completely, even when only one of
//! its processes is actually needed. This module derives the underlying
//! dependency graph directly from the declared artifact tables of
//! [`crate::plan::process_reads`] / [`crate::plan::process_writes`], so a
//! scheduler can start each process the moment its true predecessors
//! complete.
//!
//! Edges are derived with the classic data-hazard rules over the original
//! numeric process order (the order of Fig. 5):
//!
//! * **RAW** (read-after-write): a reader depends on the latest effective
//!   writer of each artifact it reads.
//! * **WAW** (write-after-write): consecutive effective writers of the same
//!   artifact are ordered.
//! * **WAR** (write-after-read): a reader must finish before the next
//!   effective writer of that artifact overwrites it.
//!
//! "Effective" writers exclude the redundant processes #6, #12 and #14:
//! each one either recreates an artifact identical to an earlier producer's
//! (#12 repeats #3's component separation, #14 repeats #5's metadata) or
//! produces output that is unconditionally overwritten before anyone reads
//! it (#6's uncorrected plot is replaced by #15). The DAG therefore models
//! the *optimized* semantics; when the redundant processes are included
//! (see [`ProcessDag::full`]) they attach as pure leaves, which is exactly
//! the property that justifies deleting them.
//!
//! Because every derived edge points from a lower process number to a
//! higher one, the original sequential order is trivially a linearization.
//!
//! This graph is not run as it stands: [`crate::plan`] builds every graph
//! the runner executes, and `dag` and `arp batch --impl dag` run copies of
//! [`ProcessDag::optimized`] there. The plan's unit test checks that every
//! hazard edge derived here is a path in each implementation's plan graph,
//! the eleven-stage plan's barriers included. Beyond that, the graph gives
//! its topological order and its critical path under any weights.

use crate::plan::{process_reads, process_writes};
use crate::process::{ProcessId, PROCESS_TABLE};
use std::time::Duration;

/// The data-hazard class that induced an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Read-after-write: `to` reads an artifact `from` produced.
    Raw,
    /// Write-after-write: `to` overwrites an artifact `from` produced.
    Waw,
    /// Write-after-read: `to` overwrites an artifact `from` read.
    War,
}

/// One dependency edge, labeled with the artifact that induced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagEdge {
    /// The predecessor process.
    pub from: ProcessId,
    /// The dependent process.
    pub to: ProcessId,
    /// The artifact family creating the hazard.
    pub artifact: &'static str,
    /// The hazard class.
    pub kind: EdgeKind,
}

/// The longest weighted path through the DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// The processes on the path, in execution order.
    pub nodes: Vec<ProcessId>,
    /// Total weight of the path — the lower bound on any schedule's
    /// makespan, however many threads are available.
    pub length: Duration,
}

/// Dependency graph over the pipeline processes.
#[derive(Debug, Clone)]
pub struct ProcessDag {
    nodes: Vec<u8>,
    edges: Vec<DagEdge>,
    preds: Vec<Vec<u8>>,
    succs: Vec<Vec<u8>>,
}

impl ProcessDag {
    /// The DAG over the 17 processes of the optimized pipeline (the set the
    /// stage plan schedules).
    ///
    /// The graph is derived, not hand-written: edges come from the declared
    /// artifact tables via the RAW/WAW/WAR hazard rules (see the module
    /// docs).
    ///
    /// ```
    /// use arp_core::ProcessDag;
    ///
    /// let dag = ProcessDag::optimized();
    /// assert_eq!(dag.nodes().len(), 17);
    /// // #4 (default filtering) waits for the gather (#1), the filter
    /// // parameters (#2) and the component separation (#3):
    /// assert_eq!(dag.preds(4), &[1, 2, 3]);
    /// // The original numeric order is one valid linearization.
    /// assert!(dag.is_linearization(dag.nodes()));
    /// ```
    pub fn optimized() -> Self {
        Self::build(false)
    }

    /// The DAG over all 20 original processes. The redundant processes
    /// appear as leaves: they have predecessors but no dependents.
    pub fn full() -> Self {
        Self::build(true)
    }

    fn build(include_redundant: bool) -> Self {
        let nodes: Vec<u8> = PROCESS_TABLE
            .iter()
            .filter(|p| include_redundant || !p.redundant)
            .map(|p| p.id.0)
            .collect();

        // Collect the artifact families any included process touches.
        let mut artifacts: Vec<&'static str> = Vec::new();
        for &p in &nodes {
            for &a in process_reads(p).iter().chain(process_writes(p)) {
                if !artifacts.contains(&a) {
                    artifacts.push(a);
                }
            }
        }

        let mut edges: Vec<DagEdge> = Vec::new();
        let mut push = |from: u8, to: u8, artifact: &'static str, kind: EdgeKind| {
            debug_assert!(from < to, "hazard edges follow the numeric order");
            let e = DagEdge {
                from: ProcessId(from),
                to: ProcessId(to),
                artifact,
                kind,
            };
            if !edges.contains(&e) {
                edges.push(e);
            }
        };

        for &artifact in &artifacts {
            // Effective producers: non-redundant writers in numeric order.
            let writers: Vec<u8> = nodes
                .iter()
                .copied()
                .filter(|&p| {
                    !PROCESS_TABLE[p as usize].redundant && process_writes(p).contains(&artifact)
                })
                .collect();
            let readers: Vec<u8> = nodes
                .iter()
                .copied()
                .filter(|&p| process_reads(p).contains(&artifact))
                .collect();

            for w in writers.windows(2) {
                push(w[0], w[1], artifact, EdgeKind::Waw);
            }
            for &r in &readers {
                if let Some(&w) = writers.iter().rfind(|&&w| w < r) {
                    push(w, r, artifact, EdgeKind::Raw);
                }
                if let Some(&w) = writers.iter().find(|&&w| w > r) {
                    push(r, w, artifact, EdgeKind::War);
                }
            }
        }

        let mut preds = vec![Vec::new(); 20];
        let mut succs = vec![Vec::new(); 20];
        for e in &edges {
            let (f, t) = (e.from.0, e.to.0);
            if !preds[t as usize].contains(&f) {
                preds[t as usize].push(f);
            }
            if !succs[f as usize].contains(&t) {
                succs[f as usize].push(t);
            }
        }
        for adj in preds.iter_mut().chain(succs.iter_mut()) {
            adj.sort_unstable();
        }

        ProcessDag {
            nodes,
            edges,
            preds,
            succs,
        }
    }

    /// The processes in the graph, in numeric order.
    pub fn nodes(&self) -> &[u8] {
        &self.nodes
    }

    /// Whether process `p` is a node of this graph.
    pub fn contains(&self, p: u8) -> bool {
        self.nodes.contains(&p)
    }

    /// Every labeled edge (one entry per artifact/hazard pair, so a
    /// process pair may appear more than once).
    pub fn edges(&self) -> &[DagEdge] {
        &self.edges
    }

    /// Direct predecessors of `p`, in numeric order.
    pub fn preds(&self, p: u8) -> &[u8] {
        &self.preds[p as usize]
    }

    /// Direct successors of `p`, in numeric order.
    pub fn succs(&self, p: u8) -> &[u8] {
        &self.succs[p as usize]
    }

    /// Each node's predecessors as positions in [`ProcessDag::nodes`], in
    /// node order: the form the plan builder and the rank routine take.
    pub(crate) fn index_preds(&self) -> Vec<Vec<usize>> {
        let index = |q: &u8| self.nodes.binary_search(q).expect("a node of the graph");
        self.nodes
            .iter()
            .map(|&p| self.preds(p).iter().map(index).collect())
            .collect()
    }

    /// A topological order (Kahn's algorithm, smallest process number
    /// first), or an error naming the processes stuck on a cycle.
    pub fn topological_order(&self) -> Result<Vec<u8>, String> {
        let mut indegree = [0usize; 20];
        for &p in &self.nodes {
            indegree[p as usize] = self.preds(p).len();
        }
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut ready: Vec<u8> = self
            .nodes
            .iter()
            .copied()
            .filter(|&p| indegree[p as usize] == 0)
            .collect();
        while let Some(p) = ready.iter().copied().min() {
            ready.retain(|&q| q != p);
            order.push(p);
            for &s in self.succs(p) {
                indegree[s as usize] -= 1;
                if indegree[s as usize] == 0 {
                    ready.push(s);
                }
            }
        }
        if order.len() == self.nodes.len() {
            Ok(order)
        } else {
            let stuck: Vec<u8> = self
                .nodes
                .iter()
                .copied()
                .filter(|p| !order.contains(p))
                .collect();
            Err(format!("dependency cycle through processes {stuck:?}"))
        }
    }

    /// Problems that make `order` an invalid execution of this graph:
    /// missing/duplicated/foreign processes, or an edge it runs backwards.
    pub fn linearization_violations(&self, order: &[u8]) -> Vec<String> {
        let mut violations = Vec::new();
        let mut position = [usize::MAX; 20];
        for (i, &p) in order.iter().enumerate() {
            if !self.contains(p) {
                violations.push(format!("process #{p} is not a node of the graph"));
            } else if position[p as usize] != usize::MAX {
                violations.push(format!("process #{p} appears twice"));
            } else {
                position[p as usize] = i;
            }
        }
        for &p in &self.nodes {
            if position[p as usize] == usize::MAX {
                violations.push(format!("process #{p} is missing from the order"));
            }
        }
        if !violations.is_empty() {
            return violations;
        }
        for e in &self.edges {
            if position[e.from.0 as usize] > position[e.to.0 as usize] {
                violations.push(format!(
                    "#{} must run before #{} ({} on {:?})",
                    e.from.0,
                    e.to.0,
                    match e.kind {
                        EdgeKind::Raw => "read-after-write",
                        EdgeKind::Waw => "write-after-write",
                        EdgeKind::War => "write-after-read",
                    },
                    e.artifact,
                ));
            }
        }
        violations
    }

    /// Whether `order` runs every node exactly once and respects all edges.
    pub fn is_linearization(&self, order: &[u8]) -> bool {
        self.linearization_violations(order).is_empty()
    }

    /// The longest weighted path through the graph, with per-node weights
    /// given by `weight`, read off [`arp_par::ranks`] (the lowest process
    /// number wins a tie). No schedule can beat this, no matter how many
    /// threads it uses.
    pub fn critical_path<F: Fn(ProcessId) -> Duration>(&self, weight: F) -> CriticalPath {
        let durations: Vec<Duration> = self.nodes.iter().map(|&p| weight(ProcessId(p))).collect();
        let (length, path) = arp_par::ranks(&durations, &self.index_preds()).critical_path();
        CriticalPath {
            nodes: path.into_iter().map(|i| ProcessId(self.nodes[i])).collect(),
            length,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-derived predecessor table (see module docs for the rules).
    fn expected_preds(p: u8) -> &'static [u8] {
        match p {
            0..=2 => &[],
            3 | 5 | 8 | 17 => &[1],
            6 | 12 | 14 => &[1],
            4 => &[1, 2, 3],
            7 => &[1, 4],
            9 => &[1, 7],
            10 => &[1, 2, 4, 7],
            11 => &[0],
            13 => &[1, 3, 4, 7, 10],
            15 | 16 => &[1, 13],
            18 => &[1, 16],
            19 => &[1, 13, 16],
            _ => unreachable!(),
        }
    }

    #[test]
    fn optimized_dag_matches_hand_derivation() {
        let dag = ProcessDag::optimized();
        assert_eq!(dag.nodes().len(), 17);
        for &p in dag.nodes() {
            assert_eq!(dag.preds(p), expected_preds(p), "preds of #{p}");
        }
    }

    #[test]
    fn full_dag_adds_redundant_processes_as_leaves() {
        let full = ProcessDag::full();
        let opt = ProcessDag::optimized();
        assert_eq!(full.nodes().len(), 20);
        for p in [6u8, 12, 14] {
            assert_eq!(
                full.preds(p),
                &[1],
                "redundant #{p} depends only on the gather"
            );
            assert!(full.succs(p).is_empty(), "redundant #{p} must be a leaf");
        }
        // Removing the leaves changes no other node's dependencies: preds
        // are untouched, and succs only lose the redundant leaves.
        for &p in opt.nodes() {
            assert_eq!(full.preds(p), opt.preds(p), "preds of #{p}");
            let full_succs: Vec<u8> = full
                .succs(p)
                .iter()
                .copied()
                .filter(|&s| ![6, 12, 14].contains(&s))
                .collect();
            assert_eq!(full_succs, opt.succs(p), "succs of #{p}");
        }
    }

    #[test]
    fn both_graphs_are_acyclic_and_numeric_order_linearizes() {
        for dag in [ProcessDag::optimized(), ProcessDag::full()] {
            let topo = dag.topological_order().unwrap();
            assert_eq!(topo.len(), dag.nodes().len());
            // Kahn's smallest-first order over ascending edges is exactly
            // the numeric order.
            assert_eq!(topo, dag.nodes());
            assert!(dag.is_linearization(dag.nodes()));
        }
    }

    #[test]
    fn linearization_violations_are_reported() {
        let dag = ProcessDag::optimized();
        // Reversed order breaks edges.
        let mut rev: Vec<u8> = dag.nodes().to_vec();
        rev.reverse();
        assert!(!dag.is_linearization(&rev));
        // A redundant process is not a node of the optimized graph.
        let mut with_foreign = dag.nodes().to_vec();
        with_foreign.push(6);
        assert!(dag
            .linearization_violations(&with_foreign)
            .iter()
            .any(|v| v.contains("not a node")));
        // A missing process is reported.
        let missing = &dag.nodes()[1..];
        assert!(dag
            .linearization_violations(missing)
            .iter()
            .any(|v| v.contains("missing")));
    }

    #[test]
    fn critical_path_with_unit_weights_is_the_deep_chain() {
        let dag = ProcessDag::optimized();
        let cp = dag.critical_path(|_| Duration::from_secs(1));
        let ids: Vec<u8> = cp.nodes.iter().map(|p| p.0).collect();
        // Two unit-weight paths tie at depth 8 (…16→18 and …16→19); the
        // lowest process number wins the tie.
        assert_eq!(ids, vec![1, 3, 4, 7, 10, 13, 16, 18]);
        assert_eq!(cp.length, Duration::from_secs(8));
    }

    #[test]
    fn critical_path_follows_the_weights() {
        let dag = ProcessDag::optimized();
        let cp = dag.critical_path(|p| {
            if p.0 == 11 || p.0 == 0 {
                Duration::from_secs(100)
            } else {
                Duration::from_millis(1)
            }
        });
        let ids: Vec<u8> = cp.nodes.iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![0, 11]);
        assert_eq!(cp.length, Duration::from_secs(200));
    }

    #[test]
    fn edges_are_labeled_with_hazards() {
        let dag = ProcessDag::optimized();
        // The WAR edge that forces default filtering before the FPL/FSL
        // analysis rewrites the filter parameters.
        assert!(dag.edges().iter().any(|e| e.from.0 == 4
            && e.to.0 == 10
            && e.artifact == "filter-params"
            && e.kind == EdgeKind::War));
        // The WAW chain on the run flags.
        assert!(dag
            .edges()
            .iter()
            .any(|e| e.from.0 == 0 && e.to.0 == 11 && e.kind == EdgeKind::Waw));
    }
}

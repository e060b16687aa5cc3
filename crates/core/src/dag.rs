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
//! higher one, the original sequential order is trivially a linearization;
//! [`ProcessDag::validate_stage_plan`] additionally checks that the eleven-
//! stage plan is one too (and that no stage contains an internal edge, so
//! its `Tasks` stages really may run their processes concurrently).

use crate::plan::{process_reads, process_writes, STAGE_TABLE};
use crate::process::{ProcessId, ProcessKind, PROCESS_TABLE};
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
    /// // The original numeric order is one valid linearization...
    /// assert!(dag.is_linearization(dag.nodes()));
    /// // ...and so is the eleven-stage plan of Fig. 9.
    /// assert!(dag.validate_stage_plan().is_empty());
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

    /// Per-node I/O-lane hints for `arp_par::ThreadPool::run_dag`,
    /// aligned with [`ProcessDag::nodes`]: `true` for processes whose time
    /// is dominated by the shared disk ([`ProcessKind::HeavyIo`]) or by
    /// plot emission ([`ProcessKind::Plotting`]), `false` for the
    /// compute-bound and light processes.
    pub fn io_lanes(&self) -> Vec<bool> {
        self.nodes.iter().map(|&p| io_lane(p)).collect()
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

    /// Nodes with no predecessors.
    pub fn roots(&self) -> Vec<u8> {
        self.nodes
            .iter()
            .copied()
            .filter(|&p| self.preds(p).is_empty())
            .collect()
    }

    /// Nodes with no successors.
    pub fn leaves(&self) -> Vec<u8> {
        self.nodes
            .iter()
            .copied()
            .filter(|&p| self.succs(p).is_empty())
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

    /// Checks the eleven-stage plan of Fig. 9 against this graph: its
    /// flattened process order must be a linearization, and no stage may
    /// contain an internal edge (stages run their processes as concurrent
    /// tasks). Only meaningful for the optimized 17-process graph.
    pub fn validate_stage_plan(&self) -> Vec<String> {
        let order: Vec<u8> = STAGE_TABLE
            .iter()
            .flat_map(|s| s.processes.iter().copied())
            .collect();
        let mut violations = self.linearization_violations(&order);
        for stage in &STAGE_TABLE {
            for e in &self.edges {
                if stage.processes.contains(&e.from.0) && stage.processes.contains(&e.to.0) {
                    violations.push(format!(
                        "stage {} contains internal edge #{} -> #{} on {:?}",
                        stage.id.label(),
                        e.from.0,
                        e.to.0,
                        e.artifact,
                    ));
                }
            }
        }
        violations
    }

    /// The longest weighted path through the graph, with per-node weights
    /// given by `weight`. No schedule can beat this, no matter how many
    /// threads it uses.
    pub fn critical_path<F: Fn(ProcessId) -> Duration>(&self, weight: F) -> CriticalPath {
        // Nodes in numeric order form a topological order by construction.
        let mut dist = [Duration::ZERO; 20];
        let mut via: [Option<u8>; 20] = [None; 20];
        let mut best_end: Option<u8> = None;
        for &p in &self.nodes {
            let (up, from) = self
                .preds(p)
                .iter()
                .map(|&q| (dist[q as usize], Some(q)))
                .max_by_key(|&(d, _)| d)
                .unwrap_or((Duration::ZERO, None));
            dist[p as usize] = up + weight(ProcessId(p));
            via[p as usize] = from;
            if best_end.is_none_or(|b| dist[p as usize] > dist[b as usize]) {
                best_end = Some(p);
            }
        }
        let mut nodes = Vec::new();
        let mut cursor = best_end;
        while let Some(p) = cursor {
            nodes.push(ProcessId(p));
            cursor = via[p as usize];
        }
        nodes.reverse();
        let length = best_end.map_or(Duration::ZERO, |p| dist[p as usize]);
        CriticalPath { nodes, length }
    }
}

/// Process `p`'s I/O-lane hint (see [`ProcessDag::io_lanes`]).
pub(crate) fn io_lane(p: u8) -> bool {
    matches!(
        PROCESS_TABLE[p as usize].kind,
        ProcessKind::HeavyIo | ProcessKind::Plotting
    )
}

/// One node of a [`SuperDag`]: a pipeline process belonging to one event of
/// a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperNode {
    /// Index of the event within the batch (into [`SuperDag::labels`]).
    pub event: usize,
    /// The pipeline process this node runs.
    pub process: ProcessId,
}

/// The union of N per-event [`ProcessDag`]s, flattened into one schedulable
/// graph.
///
/// Every event contributes a full copy of the per-event graph; nodes are
/// namespaced by event (see [`SuperDag::node_label`]) and **no edges cross
/// events** — each event writes into its own work directory, so there are
/// no inter-event hazards by construction. Flat node indices are
/// `event * per_event_len + position`, ready for direct submission to
/// `arp_par::ThreadPool::run_dag`. Scheduling the union in one call lets
/// small events fill the idle tails of big ones instead of waiting for
/// them to drain completely.
///
/// ```
/// use arp_core::SuperDag;
///
/// let batch = SuperDag::union(&["ev-a".into(), "ev-b".into()]);
/// assert_eq!(batch.len(), 2 * 17);
/// assert_eq!(batch.node_label(17), "ev-b/#0");
/// // No cross-event edges: every predecessor index stays in its event's
/// // own index range.
/// for (i, preds) in batch.preds().iter().enumerate() {
///     assert!(preds.iter().all(|&p| p / 17 == i / 17));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SuperDag {
    labels: Vec<String>,
    per_event: ProcessDag,
    nodes: Vec<SuperNode>,
    preds: Vec<Vec<usize>>,
}

impl SuperDag {
    /// Unions one optimized per-event graph per label. Labels are kept in
    /// submission order; an empty batch is a valid (empty) graph.
    pub fn union(labels: &[String]) -> Self {
        Self::union_of(labels, ProcessDag::optimized())
    }

    /// As [`SuperDag::union`], with an explicit per-event graph (the full
    /// 20-process graph, or a test graph).
    pub fn union_of(labels: &[String], per_event: ProcessDag) -> Self {
        let event_nodes = per_event.nodes().to_vec();
        let index_of = |p: u8| {
            event_nodes
                .iter()
                .position(|&q| q == p)
                .expect("node in dag")
        };
        let mut nodes = Vec::with_capacity(labels.len() * event_nodes.len());
        let mut preds = Vec::with_capacity(labels.len() * event_nodes.len());
        for event in 0..labels.len() {
            let offset = event * event_nodes.len();
            for &p in &event_nodes {
                nodes.push(SuperNode {
                    event,
                    process: ProcessId(p),
                });
                preds.push(
                    per_event
                        .preds(p)
                        .iter()
                        .map(|&q| offset + index_of(q))
                        .collect(),
                );
            }
        }
        SuperDag {
            labels: labels.to_vec(),
            per_event,
            nodes,
            preds,
        }
    }

    /// The event labels, in batch order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The shared per-event graph every event replicates.
    pub fn per_event(&self) -> &ProcessDag {
        &self.per_event
    }

    /// Total node count (`events * per-event nodes`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the batch graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes in flat index order (event-major).
    pub fn nodes(&self) -> &[SuperNode] {
        &self.nodes
    }

    /// Flat predecessor lists, indexable by `arp_par::ThreadPool::run_dag`.
    pub fn preds(&self) -> &[Vec<usize>] {
        &self.preds
    }

    /// First flat index of an event's nodes.
    pub fn event_offset(&self, event: usize) -> usize {
        event * self.per_event.nodes().len()
    }

    /// Flat per-node I/O-lane hints (event-major, aligned with
    /// [`SuperDag::nodes`]): every event replicates the per-event graph's
    /// [`ProcessDag::io_lanes`] classification.
    pub fn io_lanes(&self) -> Vec<bool> {
        let per = self.per_event.io_lanes();
        (0..self.labels.len()).flat_map(|_| per.clone()).collect()
    }

    /// Namespaced display name of a node: `<event label>/#<process>`.
    pub fn node_label(&self, i: usize) -> String {
        let node = self.nodes[i];
        format!("{}/#{}", self.labels[node.event], node.process.0)
    }

    /// A topological order of the flat graph (each event's per-event
    /// topological order, event-major), or an error if the per-event graph
    /// has a cycle.
    pub fn topological_order(&self) -> Result<Vec<usize>, String> {
        let per_event = self.per_event.topological_order()?;
        let event_nodes = self.per_event.nodes();
        let index_of = |p: u8| {
            event_nodes
                .iter()
                .position(|&q| q == p)
                .expect("node in dag")
        };
        Ok((0..self.labels.len())
            .flat_map(|event| {
                let offset = self.event_offset(event);
                per_event.iter().map(move |&p| offset + index_of(p))
            })
            .collect())
    }

    /// Problems that make `order` an invalid execution of the super-graph:
    /// missing/duplicated/out-of-range indices, or a per-event dependency it
    /// runs backwards. An empty result means `order` respects every event's
    /// stage-plan-validated dependency structure.
    pub fn linearization_violations(&self, order: &[usize]) -> Vec<String> {
        let n = self.nodes.len();
        let mut violations = Vec::new();
        let mut position = vec![usize::MAX; n];
        for (at, &i) in order.iter().enumerate() {
            if i >= n {
                violations.push(format!("index {i} is out of range (graph has {n} nodes)"));
            } else if position[i] != usize::MAX {
                violations.push(format!("{} appears twice", self.node_label(i)));
            } else {
                position[i] = at;
            }
        }
        for (i, &at) in position.iter().enumerate() {
            if at == usize::MAX {
                violations.push(format!("{} is missing from the order", self.node_label(i)));
            }
        }
        if !violations.is_empty() {
            return violations;
        }
        for (i, preds) in self.preds.iter().enumerate() {
            for &p in preds {
                if position[p] > position[i] {
                    violations.push(format!(
                        "{} must run before {}",
                        self.node_label(p),
                        self.node_label(i)
                    ));
                }
            }
        }
        violations
    }

    /// Whether `order` runs every node exactly once and respects every
    /// per-event dependency.
    pub fn is_linearization(&self, order: &[usize]) -> bool {
        self.linearization_violations(order).is_empty()
    }

    /// Downward rank of every node: its weight plus the longest weighted
    /// path to an exit *within its own event* (there are no cross-event
    /// edges to follow). Used as the dispatch priority for critical-path
    /// ordering: scheduling the highest-rank ready node first starts long
    /// chains early, so one huge event cannot starve the rest of the batch
    /// — its nodes outrank others only while its remaining work is
    /// actually longer.
    pub fn downward_ranks<F>(&self, weight: F) -> Vec<Duration>
    where
        F: Fn(usize, ProcessId) -> Duration,
    {
        let event_nodes = self.per_event.nodes();
        let index_of = |p: u8| {
            event_nodes
                .iter()
                .position(|&q| q == p)
                .expect("node in dag")
        };
        let mut ranks = vec![Duration::ZERO; self.nodes.len()];
        for event in 0..self.labels.len() {
            let offset = self.event_offset(event);
            // Numeric order is topological (edges ascend), so the reverse
            // visits successors before their predecessors.
            for (k, &p) in event_nodes.iter().enumerate().rev() {
                let down = self
                    .per_event
                    .succs(p)
                    .iter()
                    .map(|&s| ranks[offset + index_of(s)])
                    .max()
                    .unwrap_or(Duration::ZERO);
                ranks[offset + k] = weight(event, ProcessId(p)) + down;
            }
        }
        ranks
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
    fn stage_plan_is_a_valid_linearization_without_intra_stage_edges() {
        let v = ProcessDag::optimized().validate_stage_plan();
        assert!(v.is_empty(), "{v:#?}");
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
        // Two unit-weight paths tie at depth 8 (…16→18 and …16→19); the DP
        // deterministically keeps the lowest-numbered terminal.
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
    fn roots_and_leaves() {
        let dag = ProcessDag::optimized();
        assert_eq!(dag.roots(), vec![0, 1, 2]);
        // Terminal artifacts: plots, metadata graphs, GEM files, flags.
        assert_eq!(dag.leaves(), vec![5, 8, 9, 11, 15, 17, 18, 19]);
    }

    #[test]
    fn super_dag_unions_disjoint_copies() {
        let labels: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        let sd = SuperDag::union(&labels);
        assert_eq!(sd.len(), 3 * 17);
        assert!(!sd.is_empty());
        assert_eq!(sd.labels(), &labels[..]);
        let per = sd.per_event().nodes().len();
        for (i, node) in sd.nodes().iter().enumerate() {
            assert_eq!(node.event, i / per);
            for &p in &sd.preds()[i] {
                assert_eq!(p / per, i / per, "no cross-event edges at node {i}");
                assert!(p < i, "edges ascend within an event");
            }
        }
        assert_eq!(sd.node_label(0), "a/#0");
        assert_eq!(sd.event_offset(2), 2 * per);
        let topo = sd.topological_order().unwrap();
        assert!(sd.is_linearization(&topo));
    }

    #[test]
    fn super_dag_empty_batch() {
        let sd = SuperDag::union(&[]);
        assert!(sd.is_empty());
        assert_eq!(sd.topological_order().unwrap(), Vec::<usize>::new());
        assert!(sd.is_linearization(&[]));
    }

    #[test]
    fn super_dag_linearization_violations_are_reported() {
        let sd = SuperDag::union(&["a".into(), "b".into()]);
        let mut topo = sd.topological_order().unwrap();
        let mut rev = topo.clone();
        rev.reverse();
        assert!(!sd.is_linearization(&rev));
        assert!(sd
            .linearization_violations(&topo[1..])
            .iter()
            .any(|v| v.contains("missing")));
        assert!(sd
            .linearization_violations(&[sd.len() + 7])
            .iter()
            .any(|v| v.contains("out of range")));
        topo.push(topo[0]);
        assert!(sd
            .linearization_violations(&topo)
            .iter()
            .any(|v| v.contains("twice")));
    }

    #[test]
    fn super_dag_ranks_scale_with_event_weights() {
        let sd = SuperDag::union(&["big".into(), "small".into()]);
        let per = sd.per_event().nodes().len();
        let ranks =
            sd.downward_ranks(|event, _| Duration::from_secs(if event == 0 { 10 } else { 1 }));
        // Uniform per-event weights: event 0's copy of every node ranks
        // exactly 10x event 1's copy.
        for k in 0..per {
            assert_eq!(ranks[k], ranks[per + k] * 10, "node {k}");
        }
        // Process #1 heads the depth-8 unit-weight critical path, so its
        // rank is the whole chain.
        let cp = ProcessDag::optimized().critical_path(|_| Duration::from_secs(1));
        let idx1 = sd.per_event().nodes().iter().position(|&p| p == 1).unwrap();
        assert_eq!(ranks[per + idx1], cp.length);
    }

    #[test]
    fn io_lanes_follow_process_kinds() {
        let dag = ProcessDag::optimized();
        let lanes = dag.io_lanes();
        assert_eq!(lanes.len(), dag.nodes().len());
        let io_nodes: Vec<u8> = dag
            .nodes()
            .iter()
            .zip(&lanes)
            .filter(|(_, &io)| io)
            .map(|(&p, _)| p)
            .collect();
        // HeavyIo (#1, #3, #19) and Plotting (#9, #15, #18) within the
        // optimized 17-node graph.
        assert_eq!(io_nodes, vec![1, 3, 9, 15, 18, 19]);

        let sd = SuperDag::union(&["a".into(), "b".into()]);
        let flat = sd.io_lanes();
        assert_eq!(flat.len(), sd.len());
        let per = sd.per_event().nodes().len();
        assert_eq!(&flat[..per], &flat[per..], "events replicate the hints");
        assert_eq!(&flat[..per], &lanes[..]);
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

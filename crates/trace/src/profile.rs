//! Critical-path profile: attribution of a recorded DAG execution.
//!
//! A trace says *which worker ran which node when*; this module folds that
//! record — together with the dependency edges the scheduler honored — into
//! an attribution artifact:
//!
//! * **per-kernel self-time**: *exclusive* wall time spent inside each
//!   pipeline process (kernel), summed over every node that ran it. Real
//!   executions nest spans on one worker (a worker blocked on a node's
//!   dependencies helps with other ready nodes), so each instant is
//!   attributed to the innermost active span;
//! * **realized critical path**: the longest dependency chain through the
//!   executed DAG, weighted by the *recorded* (inclusive) durations — a
//!   successor waited for the whole span, nested helping included;
//! * **accounting identity**: Σ per-kernel self-time must equal Σ per-worker
//!   busy time (the interval union of each worker's node spans). The
//!   exclusive fold makes both sides partitions of the same busy intervals,
//!   so any drift means the fold lost or double-counted work;
//! * **folded stacks**: the standard collapsed `frame;frame;frame value`
//!   format consumed by flame-graph renderers;
//! * a **JSON artifact** that round-trips exactly through
//!   [`Profile::to_json`] / [`Profile::parse_json`] and is validated by
//!   [`Profile::validate`] (surfaced as `arp profile --check`).
//!
//! The what-if sensitivity curves ([`WhatIfCurve`]) are *stored* here but
//! *computed* upstream, where the deterministic schedule replay lives: the
//! engine scales one kernel's recorded durations and replays the schedule,
//! so predictions are reproducible bit-for-bit (see `arp-core`'s profile
//! module and `arp-par`'s scaled-replay entry points).

use crate::json::{self, Value};
use std::collections::BTreeMap;

/// One realized DAG-node execution, extracted from a recorded trace.
///
/// `process`/`name`/`kind` identify the kernel (pipeline process) the node
/// ran; `event` is the accelerographic event it belongs to; `lane` is the
/// worker that executed it. Times are nanoseconds on the trace's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Event label (e.g. `Jul-31-2019`).
    pub event: String,
    /// Pipeline process id (1-20).
    pub process: u8,
    /// Kernel (process) display name.
    pub name: String,
    /// Workload class label (e.g. `heavy-flops`, `heavy-io`).
    pub kind: String,
    /// Worker that ran the node (e.g. `arp-par-0`).
    pub lane: String,
    /// Start offset in nanoseconds.
    pub start_ns: u64,
    /// Recorded duration in nanoseconds.
    pub dur_ns: u64,
}

/// Per-kernel attribution row.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRow {
    /// Pipeline process id.
    pub process: u8,
    /// Kernel display name.
    pub name: String,
    /// Workload class label.
    pub kind: String,
    /// Number of executed nodes running this kernel.
    pub nodes: usize,
    /// Exclusive time inside this kernel, ns (nested spans attributed to
    /// the inner node).
    pub self_ns: u64,
    /// Time this kernel contributes to the realized critical path, ns.
    pub cp_ns: u64,
    /// `cp_ns` as a fraction of the whole critical path (0 when empty).
    pub cp_share: f64,
}

/// Per-workload-class attribution row (kernels grouped by kind).
#[derive(Debug, Clone, PartialEq)]
pub struct KindRow {
    /// Workload class label.
    pub kind: String,
    /// Number of executed nodes of this class.
    pub nodes: usize,
    /// Exclusive time in this class, ns.
    pub self_ns: u64,
    /// Time this class contributes to the realized critical path, ns.
    pub cp_ns: u64,
    /// `cp_ns` as a fraction of the whole critical path.
    pub cp_share: f64,
}

/// One step of the realized critical path, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct CpStep {
    /// Event the node belongs to.
    pub event: String,
    /// Pipeline process id.
    pub process: u8,
    /// Kernel display name.
    pub name: String,
    /// Recorded duration of the step, ns.
    pub dur_ns: u64,
}

/// Busy time of one worker: the interval union of its node spans.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerBusy {
    /// Worker name.
    pub lane: String,
    /// Nodes the worker executed.
    pub nodes: usize,
    /// Union of the worker's span intervals, ns.
    pub busy_ns: u64,
}

/// One aggregated stack frame: all nodes of one kernel within one event.
///
/// This is the folded-stack data; [`Profile::folded`] renders it in the
/// collapsed format and the flame SVG lays it out as
/// `batch → event → kind → kernel`.
#[derive(Debug, Clone, PartialEq)]
pub struct StackRow {
    /// Event label (second frame).
    pub event: String,
    /// Workload class label (third frame).
    pub kind: String,
    /// Pipeline process id.
    pub process: u8,
    /// Kernel display name (leaf frame).
    pub name: String,
    /// Nodes aggregated into this frame.
    pub nodes: usize,
    /// Exclusive time in this frame, ns.
    pub self_ns: u64,
}

/// One point of a what-if sensitivity curve: "this kernel `speedup`×
/// faster" replayed through the deterministic scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfPoint {
    /// Hypothetical kernel speedup factor (durations divided by this).
    pub speedup: f64,
    /// Replayed makespan with the scaled durations, ns.
    pub predicted_ns: u64,
    /// Fraction of the base makespan saved: `1 - predicted/base`.
    pub saving: f64,
    /// Kernel dominating the critical path *after* scaling — the point
    /// where this stops matching the curve's own kernel is where further
    /// speedup stops paying.
    pub bottleneck: String,
}

/// What-if sensitivity curve for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfCurve {
    /// Pipeline process id of the scaled kernel.
    pub process: u8,
    /// Kernel display name.
    pub name: String,
    /// Curve points in increasing `speedup` order.
    pub points: Vec<WhatIfPoint>,
}

/// The complete profile artifact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Workers the run (or replay) was scheduled on.
    pub threads: usize,
    /// Wall time of the traced run, ns.
    pub wall_ns: u64,
    /// Length of the realized critical path, ns.
    pub cp_ns: u64,
    /// Σ per-kernel self-time, ns (left side of the accounting identity).
    pub self_total_ns: u64,
    /// Σ per-worker busy time, ns (right side of the accounting identity).
    pub worker_busy_ns: u64,
    /// Base makespan of the what-if replay (unscaled durations), ns.
    /// Zero when no what-if curves were computed.
    pub replay_base_ns: u64,
    /// Events present in the trace, sorted.
    pub events: Vec<String>,
    /// Per-kernel rows, heaviest self-time first.
    pub kernels: Vec<KernelRow>,
    /// Per-workload-class rows, heaviest self-time first.
    pub kinds: Vec<KindRow>,
    /// The realized critical path, in execution order.
    pub critical_path: Vec<CpStep>,
    /// Per-worker busy time, sorted by worker name.
    pub workers: Vec<WorkerBusy>,
    /// Folded-stack aggregation (event × kernel).
    pub stacks: Vec<StackRow>,
    /// What-if sensitivity curves (empty unless the engine filled them).
    pub what_if: Vec<WhatIfCurve>,
}

/// Splits every lane's busy time among its spans, attributing each instant
/// to the *innermost* active span — the latest-started one, ties to the
/// higher node index. Real executions nest DAG-node spans on one lane (a
/// worker blocked in `dag_wait` helps with other ready nodes), so a span's
/// recorded duration includes work that belongs to the nodes it ran
/// *inside* it; this sweep is the standard exclusive-time fold that hands
/// each nanosecond to exactly one node. Σ exclusive time over a lane
/// therefore equals the lane's interval union identically — that equality
/// is the accounting identity [`Profile::validate`] enforces.
fn exclusive_times(nodes: &[ProfileNode]) -> Vec<u64> {
    let mut by_lane: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_lane.entry(n.lane.as_str()).or_default().push(i);
    }
    let mut exclusive = vec![0u64; nodes.len()];
    for idxs in by_lane.into_values() {
        // Boundary sweep: (time, is_start, idx), starts before ends at
        // equal times (the order is irrelevant for attribution — the
        // segment between equal times is empty — but keeps ties stable).
        let mut edges: Vec<(u64, bool, usize)> = Vec::with_capacity(idxs.len() * 2);
        for &i in &idxs {
            edges.push((nodes[i].start_ns, true, i));
            edges.push((nodes[i].start_ns + nodes[i].dur_ns, false, i));
        }
        edges.sort_unstable();
        let mut active: std::collections::BTreeSet<(u64, usize)> =
            std::collections::BTreeSet::new();
        let mut prev = 0u64;
        for (t, is_start, i) in edges {
            if let Some(&(_, top)) = active.last() {
                exclusive[top] += t - prev;
            }
            if is_start {
                active.insert((nodes[i].start_ns, i));
            } else {
                active.remove(&(nodes[i].start_ns, i));
            }
            prev = t;
        }
    }
    exclusive
}

/// Length of the union of half-open intervals, ns.
fn interval_union(mut spans: Vec<(u64, u64)>) -> u64 {
    spans.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in spans {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
                let _ = cs;
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

impl Profile {
    /// Folds executed nodes and their dependency edges into a profile.
    ///
    /// `preds[i]` lists the indices of `nodes` that had to finish before
    /// node `i` started — the realized DAG. Errors on a dangling or
    /// self-referential predecessor and on cycles; an empty node set
    /// produces an empty (but valid) profile.
    pub fn build(
        nodes: &[ProfileNode],
        preds: &[Vec<usize>],
        threads: usize,
        wall_ns: u64,
    ) -> Result<Profile, String> {
        let n = nodes.len();
        if preds.len() != n {
            return Err(format!(
                "profile: {} nodes but {} predecessor lists",
                n,
                preds.len()
            ));
        }
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ps) in preds.iter().enumerate() {
            for &p in ps {
                if p >= n || p == i {
                    return Err(format!("profile: bad predecessor {p} of node {i}"));
                }
                succs[p].push(i);
            }
        }

        // Topological order (Kahn); a cycle would mean corrupt edges.
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
        if topo.len() != n {
            return Err("profile: dependency graph contains a cycle".into());
        }

        // Realized critical path: longest chain by recorded duration.
        // Deterministic tie-break (larger length, then lower index) so the
        // same trace always folds to the same path.
        let mut best = vec![0u64; n];
        let mut via: Vec<Option<usize>> = vec![None; n];
        for &i in &topo {
            let up = preds[i]
                .iter()
                .map(|&p| (best[p], std::cmp::Reverse(p)))
                .max();
            if let Some((len, std::cmp::Reverse(p))) = up {
                best[i] = len + nodes[i].dur_ns;
                via[i] = Some(p);
            } else {
                best[i] = nodes[i].dur_ns;
            }
        }
        let mut path = Vec::new();
        let mut cp_ns = 0;
        if let Some((i, _)) = (0..n)
            .map(|i| (i, (best[i], std::cmp::Reverse(i))))
            .max_by_key(|&(_, key)| key)
        {
            cp_ns = best[i];
            let mut cur = Some(i);
            while let Some(c) = cur {
                path.push(c);
                cur = via[c];
            }
            path.reverse();
        }
        let on_path = {
            let mut v = vec![false; n];
            for &i in &path {
                v[i] = true;
            }
            v
        };

        // Per-kernel and per-kind aggregation. Self-time is *exclusive*
        // (nested-span time goes to the inner node); critical-path weights
        // stay *inclusive* — a successor waited for the span to end, nested
        // helping included.
        let exclusive = exclusive_times(nodes);
        let mut by_kernel: BTreeMap<u8, KernelRow> = BTreeMap::new();
        let mut by_kind: BTreeMap<String, KindRow> = BTreeMap::new();
        let mut by_stack: BTreeMap<(String, u8), StackRow> = BTreeMap::new();
        let mut by_lane: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            let k = by_kernel.entry(node.process).or_insert_with(|| KernelRow {
                process: node.process,
                name: node.name.clone(),
                kind: node.kind.clone(),
                nodes: 0,
                self_ns: 0,
                cp_ns: 0,
                cp_share: 0.0,
            });
            k.nodes += 1;
            k.self_ns += exclusive[i];
            if on_path[i] {
                k.cp_ns += node.dur_ns;
            }
            let kd = by_kind.entry(node.kind.clone()).or_insert_with(|| KindRow {
                kind: node.kind.clone(),
                nodes: 0,
                self_ns: 0,
                cp_ns: 0,
                cp_share: 0.0,
            });
            kd.nodes += 1;
            kd.self_ns += exclusive[i];
            if on_path[i] {
                kd.cp_ns += node.dur_ns;
            }
            let st = by_stack
                .entry((node.event.clone(), node.process))
                .or_insert_with(|| StackRow {
                    event: node.event.clone(),
                    kind: node.kind.clone(),
                    process: node.process,
                    name: node.name.clone(),
                    nodes: 0,
                    self_ns: 0,
                });
            st.nodes += 1;
            st.self_ns += exclusive[i];
            by_lane
                .entry(node.lane.clone())
                .or_default()
                .push((node.start_ns, node.start_ns + node.dur_ns));
        }
        let share = |part: u64| {
            if cp_ns == 0 {
                0.0
            } else {
                part as f64 / cp_ns as f64
            }
        };
        let mut kernels: Vec<KernelRow> = by_kernel
            .into_values()
            .map(|mut k| {
                k.cp_share = share(k.cp_ns);
                k
            })
            .collect();
        kernels.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.process.cmp(&b.process)));
        let mut kinds: Vec<KindRow> = by_kind
            .into_values()
            .map(|mut k| {
                k.cp_share = share(k.cp_ns);
                k
            })
            .collect();
        kinds.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.kind.cmp(&b.kind)));
        let workers: Vec<WorkerBusy> = by_lane
            .into_iter()
            .map(|(lane, spans)| WorkerBusy {
                lane,
                nodes: spans.len(),
                busy_ns: interval_union(spans),
            })
            .collect();

        let mut events: Vec<String> = nodes.iter().map(|s| s.event.clone()).collect();
        events.sort();
        events.dedup();

        let self_total_ns = exclusive.iter().sum();
        let worker_busy_ns = workers.iter().map(|w| w.busy_ns).sum();
        Ok(Profile {
            threads,
            wall_ns,
            cp_ns,
            self_total_ns,
            worker_busy_ns,
            replay_base_ns: 0,
            events,
            kernels,
            kinds,
            critical_path: path
                .iter()
                .map(|&i| CpStep {
                    event: nodes[i].event.clone(),
                    process: nodes[i].process,
                    name: nodes[i].name.clone(),
                    dur_ns: nodes[i].dur_ns,
                })
                .collect(),
            workers,
            stacks: by_stack.into_values().collect(),
            what_if: Vec::new(),
        })
    }

    /// Relative gap of the accounting identity:
    /// `|Σ self − Σ busy| / Σ busy` (0 for an empty profile).
    pub fn accounting_error(&self) -> f64 {
        if self.worker_busy_ns == 0 {
            return if self.self_total_ns == 0 {
                0.0
            } else {
                f64::MAX
            };
        }
        (self.self_total_ns as f64 - self.worker_busy_ns as f64).abs() / self.worker_busy_ns as f64
    }

    /// Folded-stack output in the standard collapsed format, one line per
    /// aggregated frame: `batch;<event>;<kind>;#<p> <name> <µs>`. Values
    /// are microseconds, rounded up so a nonzero frame never collapses to
    /// an invisible zero count.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for s in &self.stacks {
            out.push_str(&format!(
                "batch;{};{};#{:02} {} {}\n",
                s.event,
                s.kind,
                s.process,
                s.name,
                s.self_ns.div_ceil(1_000)
            ));
        }
        out
    }

    /// Structural + arithmetic validation of the artifact (the engine
    /// behind `arp profile --check`). `tolerance` bounds the accounting
    /// identity's relative gap; every aggregate must re-add exactly.
    pub fn validate(&self, tolerance: f64) -> Result<(), String> {
        let sum = |label: &str, got: u64, want: u64| {
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "profile: {label} adds to {got} ns, header says {want} ns"
                ))
            }
        };
        sum(
            "kernel self-time",
            self.kernels.iter().map(|k| k.self_ns).sum(),
            self.self_total_ns,
        )?;
        sum(
            "kind self-time",
            self.kinds.iter().map(|k| k.self_ns).sum(),
            self.self_total_ns,
        )?;
        sum(
            "stack self-time",
            self.stacks.iter().map(|s| s.self_ns).sum(),
            self.self_total_ns,
        )?;
        sum(
            "worker busy time",
            self.workers.iter().map(|w| w.busy_ns).sum(),
            self.worker_busy_ns,
        )?;
        sum(
            "critical-path steps",
            self.critical_path.iter().map(|s| s.dur_ns).sum(),
            self.cp_ns,
        )?;
        sum(
            "per-kernel critical-path time",
            self.kernels.iter().map(|k| k.cp_ns).sum(),
            self.cp_ns,
        )?;
        for k in &self.kernels {
            let want = if self.cp_ns == 0 {
                0.0
            } else {
                k.cp_ns as f64 / self.cp_ns as f64
            };
            if (k.cp_share - want).abs() > 1e-9 {
                return Err(format!(
                    "profile: kernel #{} cp_share {} inconsistent with cp_ns (want {want})",
                    k.process, k.cp_share
                ));
            }
        }
        // Self-time is exclusive while critical-path weights are inclusive
        // (nested helping), so per-kernel cp_ns may legitimately exceed
        // self_ns; no ordering between them is checked.
        let err = self.accounting_error();
        if err > tolerance {
            return Err(format!(
                "profile: accounting identity broken: Σ self-time {} ns vs Σ worker busy {} ns \
                 (relative gap {:.4} > tolerance {:.4})",
                self.self_total_ns, self.worker_busy_ns, err, tolerance
            ));
        }
        for c in &self.what_if {
            let mut last = 0.0;
            for p in &c.points {
                if p.speedup <= 0.0 || p.speedup < last {
                    return Err(format!(
                        "profile: what-if curve #{} speedups must be positive and increasing",
                        c.process
                    ));
                }
                last = p.speedup;
                if self.replay_base_ns > 0 {
                    let want = 1.0 - p.predicted_ns as f64 / self.replay_base_ns as f64;
                    if (p.saving - want).abs() > 1e-9 {
                        return Err(format!(
                            "profile: what-if curve #{} saving {} inconsistent with \
                             predicted/base (want {want})",
                            c.process, p.saving
                        ));
                    }
                }
            }
        }
        if !self.what_if.is_empty() && self.replay_base_ns == 0 {
            return Err("profile: what-if curves present but replay_base_ns is zero".into());
        }
        Ok(())
    }

    /// Serializes the profile as a JSON document that
    /// [`Profile::parse_json`] reads back exactly.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"wall_ns\": {},\n", self.wall_ns));
        out.push_str(&format!("  \"cp_ns\": {},\n", self.cp_ns));
        out.push_str(&format!("  \"self_total_ns\": {},\n", self.self_total_ns));
        out.push_str(&format!("  \"worker_busy_ns\": {},\n", self.worker_busy_ns));
        out.push_str(&format!("  \"replay_base_ns\": {},\n", self.replay_base_ns));
        let events: Vec<String> = self.events.iter().map(|e| json::escape(e)).collect();
        out.push_str(&format!("  \"events\": [{}],\n", events.join(", ")));
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .map(|k| {
                format!(
                    "    {{\"process\": {}, \"name\": {}, \"kind\": {}, \"nodes\": {}, \
                     \"self_ns\": {}, \"cp_ns\": {}, \"cp_share\": {}}}",
                    k.process,
                    json::escape(&k.name),
                    json::escape(&k.kind),
                    k.nodes,
                    k.self_ns,
                    k.cp_ns,
                    k.cp_share
                )
            })
            .collect();
        out.push_str(&format!(
            "  \"kernels\": [\n{}\n  ],\n",
            kernels.join(",\n")
        ));
        let kinds: Vec<String> = self
            .kinds
            .iter()
            .map(|k| {
                format!(
                    "    {{\"kind\": {}, \"nodes\": {}, \"self_ns\": {}, \"cp_ns\": {}, \
                     \"cp_share\": {}}}",
                    json::escape(&k.kind),
                    k.nodes,
                    k.self_ns,
                    k.cp_ns,
                    k.cp_share
                )
            })
            .collect();
        out.push_str(&format!("  \"kinds\": [\n{}\n  ],\n", kinds.join(",\n")));
        let path: Vec<String> = self
            .critical_path
            .iter()
            .map(|s| {
                format!(
                    "    {{\"event\": {}, \"process\": {}, \"name\": {}, \"dur_ns\": {}}}",
                    json::escape(&s.event),
                    s.process,
                    json::escape(&s.name),
                    s.dur_ns
                )
            })
            .collect();
        out.push_str(&format!(
            "  \"critical_path\": [\n{}\n  ],\n",
            path.join(",\n")
        ));
        let workers: Vec<String> = self
            .workers
            .iter()
            .map(|w| {
                format!(
                    "    {{\"lane\": {}, \"nodes\": {}, \"busy_ns\": {}}}",
                    json::escape(&w.lane),
                    w.nodes,
                    w.busy_ns
                )
            })
            .collect();
        out.push_str(&format!(
            "  \"workers\": [\n{}\n  ],\n",
            workers.join(",\n")
        ));
        let stacks: Vec<String> = self
            .stacks
            .iter()
            .map(|s| {
                format!(
                    "    {{\"event\": {}, \"kind\": {}, \"process\": {}, \"name\": {}, \
                     \"nodes\": {}, \"self_ns\": {}}}",
                    json::escape(&s.event),
                    json::escape(&s.kind),
                    s.process,
                    json::escape(&s.name),
                    s.nodes,
                    s.self_ns
                )
            })
            .collect();
        out.push_str(&format!("  \"stacks\": [\n{}\n  ],\n", stacks.join(",\n")));
        let curves: Vec<String> = self
            .what_if
            .iter()
            .map(|c| {
                let points: Vec<String> = c
                    .points
                    .iter()
                    .map(|p| {
                        format!(
                            "{{\"speedup\": {}, \"predicted_ns\": {}, \"saving\": {}, \
                             \"bottleneck\": {}}}",
                            p.speedup,
                            p.predicted_ns,
                            p.saving,
                            json::escape(&p.bottleneck)
                        )
                    })
                    .collect();
                format!(
                    "    {{\"process\": {}, \"name\": {}, \"points\": [{}]}}",
                    c.process,
                    json::escape(&c.name),
                    points.join(", ")
                )
            })
            .collect();
        out.push_str(&format!("  \"what_if\": [\n{}\n  ]\n", curves.join(",\n")));
        out.push_str("}\n");
        out
    }

    /// Parses a profile JSON document produced by [`Profile::to_json`].
    pub fn parse_json(text: &str) -> Result<Profile, String> {
        let doc = json::parse(text)?;
        if !doc.is_obj() {
            return Err("profile: document is not an object".into());
        }
        let num = |v: &Value, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("profile: missing integer field {key:?}"))
        };
        let float = |v: &Value, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("profile: missing numeric field {key:?}"))
        };
        let text_of = |v: &Value, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("profile: missing string field {key:?}"))
        };
        fn arr_of<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
            v.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("profile: missing array field {key:?}"))
        }
        let process_of = |v: &Value| -> Result<u8, String> {
            let p = num(v, "process")?;
            u8::try_from(p).map_err(|_| format!("profile: process id {p} out of range"))
        };
        let mut profile = Profile {
            threads: num(&doc, "threads")? as usize,
            wall_ns: num(&doc, "wall_ns")?,
            cp_ns: num(&doc, "cp_ns")?,
            self_total_ns: num(&doc, "self_total_ns")?,
            worker_busy_ns: num(&doc, "worker_busy_ns")?,
            replay_base_ns: num(&doc, "replay_base_ns")?,
            ..Profile::default()
        };
        for e in arr_of(&doc, "events")? {
            profile.events.push(
                e.as_str()
                    .ok_or("profile: events must be strings")?
                    .to_owned(),
            );
        }
        for k in arr_of(&doc, "kernels")? {
            profile.kernels.push(KernelRow {
                process: process_of(k)?,
                name: text_of(k, "name")?,
                kind: text_of(k, "kind")?,
                nodes: num(k, "nodes")? as usize,
                self_ns: num(k, "self_ns")?,
                cp_ns: num(k, "cp_ns")?,
                cp_share: float(k, "cp_share")?,
            });
        }
        for k in arr_of(&doc, "kinds")? {
            profile.kinds.push(KindRow {
                kind: text_of(k, "kind")?,
                nodes: num(k, "nodes")? as usize,
                self_ns: num(k, "self_ns")?,
                cp_ns: num(k, "cp_ns")?,
                cp_share: float(k, "cp_share")?,
            });
        }
        for s in arr_of(&doc, "critical_path")? {
            profile.critical_path.push(CpStep {
                event: text_of(s, "event")?,
                process: process_of(s)?,
                name: text_of(s, "name")?,
                dur_ns: num(s, "dur_ns")?,
            });
        }
        for w in arr_of(&doc, "workers")? {
            profile.workers.push(WorkerBusy {
                lane: text_of(w, "lane")?,
                nodes: num(w, "nodes")? as usize,
                busy_ns: num(w, "busy_ns")?,
            });
        }
        for s in arr_of(&doc, "stacks")? {
            profile.stacks.push(StackRow {
                event: text_of(s, "event")?,
                kind: text_of(s, "kind")?,
                process: process_of(s)?,
                name: text_of(s, "name")?,
                nodes: num(s, "nodes")? as usize,
                self_ns: num(s, "self_ns")?,
            });
        }
        for c in arr_of(&doc, "what_if")? {
            let mut curve = WhatIfCurve {
                process: process_of(c)?,
                name: text_of(c, "name")?,
                points: Vec::new(),
            };
            for p in arr_of(c, "points")? {
                curve.points.push(WhatIfPoint {
                    speedup: float(p, "speedup")?,
                    predicted_ns: num(p, "predicted_ns")?,
                    saving: float(p, "saving")?,
                    bottleneck: text_of(p, "bottleneck")?,
                });
            }
            profile.what_if.push(curve);
        }
        Ok(profile)
    }

    /// Human-readable attribution tables (the default `arp profile` view).
    pub fn render(&self) -> String {
        let s = |ns: u64| ns as f64 / 1e9;
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {} event(s), {} node(s), wall {:.3}s, workers {}\n",
            self.events.len(),
            self.kernels.iter().map(|k| k.nodes).sum::<usize>(),
            s(self.wall_ns),
            self.threads,
        ));
        out.push_str(&format!(
            "realized critical path: {:.3}s over {} node(s)\n",
            s(self.cp_ns),
            self.critical_path.len()
        ));
        out.push_str(&format!(
            "accounting: Σ self {:.3}s vs Σ worker busy {:.3}s (gap {:.2}%)\n\n",
            s(self.self_total_ns),
            s(self.worker_busy_ns),
            self.accounting_error() * 100.0
        ));
        out.push_str(&format!(
            "{:<44} {:>12} {:>6} {:>10} {:>9}\n",
            "kernel", "kind", "nodes", "self_s", "cp_share"
        ));
        for k in &self.kernels {
            out.push_str(&format!(
                "{:<44} {:>12} {:>6} {:>10.4} {:>8.1}%\n",
                format!("#{:02} {}", k.process, k.name),
                k.kind,
                k.nodes,
                s(k.self_ns),
                k.cp_share * 100.0
            ));
        }
        out.push('\n');
        out.push_str(&format!(
            "{:<16} {:>6} {:>10} {:>9}\n",
            "class", "nodes", "self_s", "cp_share"
        ));
        for k in &self.kinds {
            out.push_str(&format!(
                "{:<16} {:>6} {:>10.4} {:>8.1}%\n",
                k.kind,
                k.nodes,
                s(k.self_ns),
                k.cp_share * 100.0
            ));
        }
        if !self.what_if.is_empty() {
            out.push_str(&format!(
                "\nwhat-if (deterministic replay on {} workers, base {:.3}s):\n",
                self.threads,
                s(self.replay_base_ns)
            ));
            for c in &self.what_if {
                out.push_str(&format!("  #{:02} {}:", c.process, c.name));
                for p in &c.points {
                    out.push_str(&format!(
                        "  {}x → {:.3}s ({:+.1}%)",
                        p.speedup,
                        s(p.predicted_ns),
                        -p.saving * 100.0
                    ));
                }
                if let Some(last) = c.points.last() {
                    out.push_str(&format!("  [bottleneck → {}]", last.bottleneck));
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(event: &str, process: u8, lane: &str, start: u64, dur: u64) -> ProfileNode {
        ProfileNode {
            event: event.into(),
            process,
            name: format!("kernel-{process}"),
            kind: if process.is_multiple_of(2) {
                "heavy-flops".into()
            } else {
                "heavy-io".into()
            },
            lane: lane.into(),
            start_ns: start,
            dur_ns: dur,
        }
    }

    fn diamond() -> (Vec<ProfileNode>, Vec<Vec<usize>>) {
        // 0 (2) -> {1 (4), 2 (6)} -> 3 (1): critical path 0-2-3 = 9.
        let nodes = vec![
            node("ev", 1, "w0", 0, 2),
            node("ev", 2, "w0", 2, 4),
            node("ev", 3, "w1", 2, 6),
            node("ev", 4, "w0", 8, 1),
        ];
        let preds = vec![vec![], vec![0], vec![0], vec![1, 2]];
        (nodes, preds)
    }

    #[test]
    fn empty_profile_is_valid() {
        let p = Profile::build(&[], &[], 4, 0).unwrap();
        assert_eq!(p.cp_ns, 0);
        assert_eq!(p.self_total_ns, 0);
        p.validate(0.0).unwrap();
        assert!(p.folded().is_empty());
    }

    #[test]
    fn diamond_critical_path_and_self_time() {
        let (nodes, preds) = diamond();
        let p = Profile::build(&nodes, &preds, 2, 9).unwrap();
        assert_eq!(p.cp_ns, 9);
        assert_eq!(p.self_total_ns, 13);
        let path: Vec<u8> = p.critical_path.iter().map(|s| s.process).collect();
        assert_eq!(path, vec![1, 3, 4]);
        // Worker busy: w0 runs [0,2)∪[2,6)∪[8,9) = 7; w1 runs [2,8) = 6.
        assert_eq!(p.worker_busy_ns, 13);
        p.validate(0.0).unwrap();
        // Kernel 3 contributes its full 6 ns to the path.
        let k3 = p.kernels.iter().find(|k| k.process == 3).unwrap();
        assert_eq!(k3.cp_ns, 6);
        assert!((k3.cp_share - 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_spans_fold_to_exclusive_time() {
        // Two nodes overlapping on one worker: each instant goes to the
        // latest-started active span, so the identity stays exact even
        // though the inclusive durations sum past the union.
        let nodes = vec![node("ev", 1, "w0", 0, 10), node("ev", 2, "w0", 5, 10)];
        let preds = vec![vec![], vec![]];
        let p = Profile::build(&nodes, &preds, 1, 15).unwrap();
        assert_eq!(p.self_total_ns, 15);
        assert_eq!(p.worker_busy_ns, 15);
        p.validate(0.0).unwrap();
        // Node 2 started later: it owns [5, 15); node 1 keeps [0, 5).
        let k1 = p.kernels.iter().find(|k| k.process == 1).unwrap();
        let k2 = p.kernels.iter().find(|k| k.process == 2).unwrap();
        assert_eq!((k1.self_ns, k2.self_ns), (5, 10));
    }

    #[test]
    fn nested_spans_attribute_to_the_inner_node() {
        // A worker blocked inside node 1 helped with node 2 (span fully
        // nested): the inner node owns its window, the outer keeps the
        // rest, and the critical path still uses inclusive durations.
        let nodes = vec![node("ev", 1, "w0", 0, 10), node("ev", 2, "w0", 2, 6)];
        let preds = vec![vec![], vec![]];
        let p = Profile::build(&nodes, &preds, 1, 10).unwrap();
        let k1 = p.kernels.iter().find(|k| k.process == 1).unwrap();
        let k2 = p.kernels.iter().find(|k| k.process == 2).unwrap();
        assert_eq!((k1.self_ns, k2.self_ns), (4, 6));
        assert_eq!(p.self_total_ns, 10);
        assert_eq!(p.worker_busy_ns, 10);
        p.validate(0.0).unwrap();
        assert_eq!(p.cp_ns, 10);
    }

    #[test]
    fn cycles_and_bad_edges_are_errors() {
        let (nodes, _) = diamond();
        assert!(Profile::build(&nodes, &vec![vec![]; 3], 1, 0).is_err());
        assert!(Profile::build(&nodes, &[vec![9], vec![], vec![], vec![]], 1, 0).is_err());
        assert!(Profile::build(&nodes, &[vec![0], vec![], vec![], vec![]], 1, 0).is_err());
        let cyclic = vec![vec![3], vec![0], vec![1], vec![2]];
        assert!(Profile::build(&nodes, &cyclic, 1, 0).is_err());
    }

    #[test]
    fn json_round_trips_exactly() {
        let (nodes, preds) = diamond();
        let mut p = Profile::build(&nodes, &preds, 2, 9).unwrap();
        p.replay_base_ns = 9;
        p.what_if = vec![WhatIfCurve {
            process: 3,
            name: "kernel-3".into(),
            points: vec![WhatIfPoint {
                speedup: 2.0,
                predicted_ns: 7,
                saving: 1.0 - 7.0 / 9.0,
                bottleneck: "kernel-2".into(),
            }],
        }];
        let text = p.to_json();
        let back = Profile::parse_json(&text).unwrap();
        assert_eq!(p, back);
        back.validate(0.0).unwrap();
    }

    #[test]
    fn folded_output_has_one_line_per_stack() {
        let (nodes, preds) = diamond();
        let p = Profile::build(&nodes, &preds, 2, 9).unwrap();
        let folded = p.folded();
        assert_eq!(folded.lines().count(), p.stacks.len());
        for line in folded.lines() {
            let (stack, value) = line.rsplit_once(' ').unwrap();
            assert_eq!(stack.split(';').count(), 4, "{line}");
            assert!(value.parse::<u64>().unwrap() > 0, "{line}");
        }
    }

    #[test]
    fn render_mentions_top_kernel() {
        let (nodes, preds) = diamond();
        let p = Profile::build(&nodes, &preds, 2, 9).unwrap();
        let text = p.render();
        assert!(text.contains("kernel-3"));
        assert!(text.contains("realized critical path"));
    }

    #[test]
    fn parse_reports_missing_fields() {
        let err = Profile::parse_json("{\"threads\": 1}").unwrap_err();
        assert!(err.contains("wall_ns"), "{err}");
        assert!(Profile::parse_json("[1,2]").is_err());
    }
}

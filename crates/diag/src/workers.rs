//! Per-worker live state: which DAG node each worker thread is executing
//! right now (and since when), plus its steal count. Both live on the
//! thread's `arp-trace` lane: the node is the attribution the executors set
//! through [`crate::set_context`], so the log records, an incident and this
//! view all name the same node. The `/statusz` endpoint renders this view
//! live; the flight recorder freezes it into `workers.json` when a
//! postmortem bundle is written.
//!
//! Tracking is off by default — every hook's fast path is one relaxed
//! load — and is switched on by hosts that serve `/statusz` or arm the
//! flight recorder.

use std::sync::atomic::{AtomicBool, Ordering};

static TRACKING: AtomicBool = AtomicBool::new(false);

/// Enables or disables worker-state tracking. Disabling forgets the steal
/// counts.
pub fn set_tracking(on: bool) {
    if !on {
        for lane in arp_trace::lanes() {
            lane.steals.store(0, Ordering::SeqCst);
        }
    }
    TRACKING.store(on, Ordering::SeqCst);
    crate::recompute_gate();
}

/// Whether worker-state tracking is on (one relaxed load).
#[inline]
pub fn tracking() -> bool {
    TRACKING.load(Ordering::Relaxed)
}

/// Lane a worker thread belongs to, derived from the pool's thread-name
/// convention (`arp-par-*` compute, `arp-io-*` I/O, anything else is a
/// helping caller).
pub fn lane_of(worker: &str) -> &'static str {
    if worker.starts_with("arp-io-") {
        "io"
    } else if worker.starts_with("arp-par-") {
        "compute"
    } else {
        "caller"
    }
}

/// Credits one successful steal to the current thread.
pub fn note_steal() {
    if !tracking() {
        return;
    }
    arp_trace::current_lane()
        .steals
        .fetch_add(1, Ordering::Relaxed);
}

/// One worker's state at snapshot time.
#[derive(Debug, Clone)]
pub struct WorkerSnapshot {
    /// Worker thread name.
    pub worker: String,
    /// Lane derived from the thread name (`compute` / `io` / `caller`).
    pub lane: &'static str,
    /// `(node, event, process, busy_ns)` when the worker is mid-node.
    pub running: Option<(String, String, u8, u64)>,
    /// Tasks this worker has stolen since tracking was enabled.
    pub steals: u64,
}

/// Snapshots every live worker lane, name-sorted; empty while tracking
/// is off.
pub fn snapshot() -> Vec<WorkerSnapshot> {
    if !tracking() {
        return Vec::new();
    }
    let now = arp_trace::now_ns();
    let mut workers: Vec<WorkerSnapshot> = arp_trace::lanes()
        .iter()
        .filter(|lane| !lane.is_dead())
        .map(|lane| {
            let a = lane.attribution.lock();
            WorkerSnapshot {
                worker: lane.name().to_string(),
                lane: lane_of(lane.name()),
                running: a.node.as_ref().map(|node| {
                    (
                        node.clone(),
                        a.event.clone().unwrap_or_default(),
                        a.process.unwrap_or_default(),
                        now.saturating_sub(a.since_ns),
                    )
                }),
                steals: lane.steals.load(Ordering::Relaxed),
            }
        })
        .collect();
    workers.sort_by(|a, b| a.worker.cmp(&b.worker));
    workers
}

/// Renders the worker view as JSON: every worker's lane, steal count, and —
/// when mid-node — the node, its event/process, and how long it has been
/// running. The `longest_running` list is the in-flight nodes sorted
/// slowest-first (capped at `top`), the postmortem's "slowest in-flight
/// nodes" view.
pub fn to_json(top: usize) -> String {
    use arp_trace::json::escape;
    let workers = snapshot();
    let mut rows = String::new();
    for (i, w) in workers.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"worker\":{},\"lane\":\"{}\",\"steals\":{}",
            escape(&w.worker),
            w.lane,
            w.steals
        ));
        match &w.running {
            Some((node, event, process, busy_ns)) => rows.push_str(&format!(
                ",\"node\":{},\"event\":{},\"process\":{},\"busy_ns\":{}}}",
                escape(node),
                escape(event),
                process,
                busy_ns
            )),
            None => rows.push_str(",\"node\":null}"),
        }
    }
    let mut in_flight: Vec<&WorkerSnapshot> =
        workers.iter().filter(|w| w.running.is_some()).collect();
    in_flight.sort_by_key(|w| std::cmp::Reverse(w.running.as_ref().map_or(0, |r| r.3)));
    let mut longest = String::new();
    for (i, w) in in_flight.iter().take(top.max(1)).enumerate() {
        let (node, _, _, busy_ns) = w.running.as_ref().expect("filtered to running");
        if i > 0 {
            longest.push_str(",\n");
        }
        longest.push_str(&format!(
            "    {{\"node\":{},\"worker\":{},\"busy_ns\":{}}}",
            escape(node),
            escape(&w.worker),
            busy_ns
        ));
    }
    format!("{{\n  \"workers\": [\n{rows}\n  ],\n  \"longest_running\": [\n{longest}\n  ]\n}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_tracks_running_node_and_steals() {
        let _guard = crate::TEST_LOCK.lock();
        set_tracking(true);
        crate::set_context(Some("ev1".into()), Some(7), Some("ev1/#7".into()));
        note_steal();
        note_steal();
        let me = arp_trace::current_lane().name().to_string();
        let snap = snapshot();
        let mine = snap.iter().find(|w| w.worker == me).expect("tracked");
        let (node, event, process, _) = mine.running.clone().expect("running");
        assert_eq!(
            (node.as_str(), event.as_str(), process),
            ("ev1/#7", "ev1", 7)
        );
        assert_eq!(mine.steals, 2);

        let json = to_json(4);
        arp_trace::json::parse(&json).expect("valid json");
        assert!(json.contains("\"node\":\"ev1/#7\""));
        assert!(json.contains("longest_running"));

        crate::clear_context();
        let snap = snapshot();
        let mine = snap.iter().find(|w| w.worker == me).expect("tracked");
        assert!(mine.running.is_none());
        set_tracking(false);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn lanes_follow_thread_name_convention() {
        assert_eq!(lane_of("arp-par-3"), "compute");
        assert_eq!(lane_of("arp-io-0"), "io");
        assert_eq!(lane_of("main"), "caller");
    }
}

//! The pool's live metrics.
//!
//! Each pool fact is kept once, in [`PoolStats`]: the `arp_pool_*` gauge and
//! counter families below are [`arp_metrics::reader`] families that read the
//! global pool's store when `/metrics` is scraped, so they agree with
//! `--stats`, `/statusz` and the trace's counter tracks by construction and
//! cost the pool's hot paths nothing. Only what no other store holds is a
//! handle: the completed-node counter and the queue-wait and execute-time
//! distributions, each resolved once through a `OnceLock` static so the hot
//! path pays one pointer load and the instrument's single-relaxed-load
//! disabled check. Naming follows the Prometheus conventions the registry
//! documents: `arp_pool_` prefix, `_total` counters, `_seconds` histograms
//! recorded in nanoseconds.

use crate::pool::{Level, PoolStats, PoolStatsSnapshot, ThreadPool};
use arp_metrics::{Counter, Histogram, Kind, Reading};
use std::sync::OnceLock;

/// DAG nodes that finished executing.
pub fn nodes_completed() -> &'static Counter {
    static H: OnceLock<&'static Counter> = OnceLock::new();
    H.get_or_init(|| {
        arp_metrics::counter(
            "arp_pool_nodes_completed_total",
            "DAG nodes that finished executing (including skipped-after-panic cascades).",
        )
    })
}

/// Dispatch → start latency distribution of DAG nodes.
pub fn queue_wait() -> &'static Histogram {
    static H: OnceLock<&'static Histogram> = OnceLock::new();
    H.get_or_init(|| {
        arp_metrics::histogram(
            "arp_pool_queue_wait_seconds",
            "Time DAG nodes sat queued before a thread started them.",
            1e9,
        )
    })
}

/// Execute-time distribution of DAG nodes.
pub fn execute_time() -> &'static Histogram {
    static H: OnceLock<&'static Histogram> = OnceLock::new();
    H.get_or_init(|| {
        arp_metrics::histogram(
            "arp_pool_execute_seconds",
            "Execution time of DAG node bodies.",
            1e9,
        )
    })
}

/// One unlabeled member.
fn one(value: u64, peak: u64) -> Vec<Reading> {
    vec![Reading {
        label: None,
        value,
        peak,
    }]
}

/// The global pool's counters, zero while no code has started the pool
/// (reading never starts it).
fn snapshot() -> PoolStatsSnapshot {
    ThreadPool::global_if_started()
        .map(ThreadPool::stats)
        .unwrap_or_default()
}

/// A level of the global pool's store, zero while the pool is unstarted.
fn level(pick: fn(&PoolStats) -> &Level) -> Vec<Reading> {
    let (now, peak) = ThreadPool::global_if_started().map_or((0, 0), |pool| {
        let level = pick(pool.store());
        (level.now(), level.peak())
    });
    one(now, peak)
}

/// Each worker's deque depth and high-water mark; no members while the
/// pool is unstarted.
fn deque_depths() -> Vec<Reading> {
    let Some(pool) = ThreadPool::global_if_started() else {
        return Vec::new();
    };
    pool.deque_depths()
        .into_iter()
        .map(|(worker, depth, peak)| Reading {
            label: Some(("worker", worker)),
            value: depth as u64,
            peak,
        })
        .collect()
}

/// Registers every pool metric, so a fresh process's `arp metrics` snapshot
/// lists the full catalog instead of only the instruments some code path
/// has already touched. Building the global pool calls it too.
pub fn register() {
    use Kind::{Counter, Gauge};
    arp_metrics::reader(
        "arp_pool_ready_queue_depth",
        "DAG nodes dispatched to the pool but not yet started.",
        Gauge,
        || level(|s| &s.ready),
    );
    arp_metrics::reader(
        "arp_pool_workers_busy",
        "Threads currently executing a pool job (workers plus helping callers).",
        Gauge,
        || level(|s| &s.busy),
    );
    arp_metrics::reader(
        "arp_pool_nodes_dispatched_total",
        "DAG nodes dispatched to the pool.",
        Counter,
        || one(snapshot().dag_dispatches, 0),
    );
    nodes_completed();
    queue_wait();
    arp_metrics::reader(
        "arp_pool_steal_attempts_total",
        "Probes of another worker's deque (hits and misses).",
        Counter,
        || one(snapshot().steal_attempts, 0),
    );
    arp_metrics::reader(
        "arp_pool_steals_total",
        "Jobs obtained by stealing from another worker's deque.",
        Counter,
        || one(snapshot().steals_compute, 0),
    );
    arp_metrics::reader(
        "arp_pool_deque_depth",
        "Tasks currently queued in one worker's local deque, by worker thread.",
        Gauge,
        deque_depths,
    );
    execute_time();
}

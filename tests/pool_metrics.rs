//! The pool keeps each fact once: `/metrics` reads the global pool's
//! statistics at scrape time, so its `arp_pool_*` families agree with
//! `ThreadPool::stats()` and with the `/statusz` pool block.
//!
//! These tests live in their own binary on purpose: an idle global pool is
//! what they compare, and any parallel test that drives it would move the
//! counters between two reads.

use arp_core::{run_batch_dag, BatchItem, PipelineConfig, ReadyOrder};
use arp_metrics::expo::{parse_exposition, Sample};
use arp_par::{PoolStatsSnapshot, ThreadPool};
use arp_synth::{paper_event, write_event_inputs, PAPER_EVENT_SHAPES};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

fn stage_paper_batch(base: &Path, n: usize) -> Vec<BatchItem> {
    let mut items = Vec::new();
    for (i, &(label, _, _, _)) in PAPER_EVENT_SHAPES.iter().take(n).enumerate() {
        let dir = base.join("in").join(label);
        std::fs::create_dir_all(&dir).unwrap();
        write_event_inputs(&paper_event(i, 0.002), &dir).unwrap();
        items.push(BatchItem {
            label: label.to_string(),
            input_dir: dir,
        });
    }
    items
}

/// The `arp_pool_*` series a scrape after a batch lists, per-worker deque
/// series aside (they follow the pool's shape and are checked on their
/// own).
const SERIES: &[&str] = &[
    "arp_pool_ready_queue_depth",
    "arp_pool_ready_queue_depth_peak",
    "arp_pool_workers_busy",
    "arp_pool_workers_busy_peak",
    "arp_pool_nodes_dispatched_total",
    "arp_pool_nodes_completed_total",
    r#"arp_pool_queue_wait_seconds{quantile="0.5"}"#,
    r#"arp_pool_queue_wait_seconds{quantile="0.95"}"#,
    r#"arp_pool_queue_wait_seconds{quantile="0.99"}"#,
    "arp_pool_queue_wait_seconds_sum",
    "arp_pool_queue_wait_seconds_count",
    "arp_pool_steal_attempts_total",
    "arp_pool_steals_total",
    r#"arp_pool_execute_seconds{quantile="0.5"}"#,
    r#"arp_pool_execute_seconds{quantile="0.95"}"#,
    r#"arp_pool_execute_seconds{quantile="0.99"}"#,
    "arp_pool_execute_seconds_sum",
    "arp_pool_execute_seconds_count",
];

/// The `# TYPE` of each family above.
const TYPES: &[(&str, &str)] = &[
    ("arp_pool_ready_queue_depth", "gauge"),
    ("arp_pool_workers_busy", "gauge"),
    ("arp_pool_nodes_dispatched_total", "counter"),
    ("arp_pool_nodes_completed_total", "counter"),
    ("arp_pool_queue_wait_seconds", "summary"),
    ("arp_pool_steal_attempts_total", "counter"),
    ("arp_pool_steals_total", "counter"),
    ("arp_pool_execute_seconds", "summary"),
    ("arp_pool_deque_depth", "gauge"),
];

/// A sample's series as the exposition writes it, value left out.
fn series(s: &Sample) -> String {
    if s.labels.is_empty() {
        return s.name.clone();
    }
    let labels: Vec<String> = s
        .labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect();
    format!("{}{{{}}}", s.name, labels.join(","))
}

/// The value of `wanted` (a series as [`series`] writes it).
fn value(samples: &[Sample], wanted: &str) -> u64 {
    let s = samples
        .iter()
        .find(|s| series(s) == wanted)
        .unwrap_or_else(|| panic!("{wanted} missing from the exposition"));
    s.value as u64
}

/// The two stolen-work facts `/statusz` shows, as `/metrics` reads them.
fn steal_facts(samples: &[Sample]) -> [u64; 2] {
    [
        value(samples, "arp_pool_steal_attempts_total"),
        value(samples, "arp_pool_steals_total"),
    ]
}

fn snapshot_steal_facts(s: &PoolStatsSnapshot) -> [u64; 2] {
    [s.steal_attempts, s.steals_compute]
}

#[test]
fn gather_reads_the_global_pool_store() {
    let base = std::env::temp_dir().join(format!("arp-pool-metrics-{}", std::process::id()));
    let items = stage_paper_batch(&base, 2);
    arp_metrics::set_enabled(true);
    let result = run_batch_dag(
        &items,
        &base.join("work"),
        &PipelineConfig::fast(),
        ReadyOrder::CriticalPath,
    );
    arp_metrics::set_enabled(false);
    result.unwrap();

    // Let the pool settle, then read it on both sides of the scrape: equal
    // snapshots show it stayed idle in between.
    std::thread::sleep(Duration::from_millis(100));
    let pool = ThreadPool::global();
    let before = pool.stats();
    let text = arp_metrics::gather();
    let after = pool.stats();
    assert_eq!(before, after, "the pool moved while idle");
    let samples = parse_exposition(&text).expect("gather must self-parse");

    let listed: Vec<String> = samples.iter().map(series).collect();
    for wanted in SERIES {
        assert!(
            listed.iter().any(|s| s == wanted),
            "{wanted} missing:\n{text}"
        );
    }
    for worker in (0..pool.threads()).map(|k| format!("arp-par-{k}")) {
        for name in ["arp_pool_deque_depth", "arp_pool_deque_depth_peak"] {
            let wanted = format!("{name}{{worker=\"{worker}\"}}");
            assert!(listed.contains(&wanted), "{wanted} missing:\n{text}");
        }
    }
    for (family, kind) in TYPES {
        let mut lines = vec![format!("# TYPE {family} {kind}")];
        if *kind == "gauge" {
            lines.push(format!("# TYPE {family}_peak gauge"));
        }
        for line in lines {
            assert!(text.contains(&line), "{line:?} missing:\n{text}");
        }
    }

    assert!(after.dag_dispatches > 0, "the batch never used the pool");
    assert_eq!(
        value(&samples, "arp_pool_nodes_dispatched_total"),
        after.dag_dispatches
    );
    assert_eq!(steal_facts(&samples), snapshot_steal_facts(&after));
    assert_eq!(value(&samples, "arp_pool_ready_queue_depth"), 0);
    assert_eq!(
        value(&samples, "arp_pool_ready_queue_depth_peak"),
        after.dag_ready_peak
    );
    assert_eq!(value(&samples, "arp_pool_workers_busy"), 0);
    assert!(value(&samples, "arp_pool_workers_busy_peak") >= 1);
    std::fs::remove_dir_all(&base).unwrap();
}

/// Runs `arp metrics --fetch ADDR [--path PATH]` and returns its stdout.
fn fetch(addr: &str, path: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_arp"))
        .args(["metrics", "--fetch", addr, "--path", path])
        .output()
        .unwrap();
    assert!(out.status.success(), "fetch {path}: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn statusz_pool_block_matches_metrics() {
    let base = std::env::temp_dir().join(format!("arp-pool-statusz-{}", std::process::id()));
    stage_paper_batch(&base, 2);
    let mut child = Command::new(env!("CARGO_BIN_EXE_arp"))
        .args(["batch", "--impl", "dag", "--metrics-addr", "127.0.0.1:0"])
        .args(["--metrics-hold", "60", "--root"])
        .arg(base.join("in"))
        .arg("--work")
        .arg(base.join("work"))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // The endpoint's address comes first; the hold notice means the batch
    // is done and the pool idle.
    let mut addr = None;
    for line in BufReader::new(child.stdout.take().unwrap()).lines() {
        let line = line.unwrap();
        if let Some(rest) = line.strip_prefix("metrics: serving http://") {
            addr = rest.strip_suffix("/metrics").map(str::to_string);
        }
        if line.starts_with("metrics: holding endpoint open") {
            break;
        }
    }
    let addr = addr.expect("the batch never printed its metrics address");
    std::thread::sleep(Duration::from_millis(100));
    let metrics = parse_exposition(&fetch(&addr, "/metrics")).unwrap();
    let statusz = arp_trace::json::parse(&fetch(&addr, "/statusz")).unwrap();
    let again = parse_exposition(&fetch(&addr, "/metrics")).unwrap();
    let _ = child.kill();
    let _ = child.wait();

    let pool = statusz.get("pool").expect("/statusz has no pool block");
    let field = |key: &str| pool.get(key).and_then(|v| v.as_u64()).unwrap();
    let from_statusz = [field("steal_attempts"), field("steals")];
    assert_eq!(
        steal_facts(&metrics),
        steal_facts(&again),
        "idle pool moved"
    );
    assert_eq!(steal_facts(&metrics), from_statusz);
    assert!(value(&metrics, "arp_pool_nodes_dispatched_total") > 0);
    std::fs::remove_dir_all(&base).unwrap();
}

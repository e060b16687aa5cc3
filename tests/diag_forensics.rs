//! Flight-recorder forensics: a kernel panicking mid-batch must leave a
//! postmortem bundle that validates, names the failing node and event,
//! and renders as an incident report — and arming diagnostics must never
//! change a single product byte.
//!
//! Each configuration runs `arp` in its own process (the recorder's panic
//! hook, the log ring, and the worker registry are process-global).

use arp_core::output::{diff_snapshots, snapshot};
use arp_core::ProcessDag;
use arp_synth::{paper_event, write_event_inputs, PAPER_EVENT_SHAPES};
use std::path::{Path, PathBuf};
use std::process::Command;

fn stage_batch(root: &Path, scale: f64, n: usize) -> Vec<String> {
    let mut labels = Vec::new();
    for (i, &(label, _, _, _)) in PAPER_EVENT_SHAPES.iter().take(n).enumerate() {
        let dir = root.join(label);
        std::fs::create_dir_all(&dir).unwrap();
        write_event_inputs(&paper_event(i, scale), &dir).unwrap();
        labels.push(label.to_string());
    }
    labels
}

fn arp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_arp"))
}

/// The one postmortem bundle under `dir`.
fn find_bundle(dir: &Path) -> PathBuf {
    let bundles: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("postmortem-"))
        })
        .collect();
    assert_eq!(bundles.len(), 1, "expected one bundle, found {bundles:?}");
    bundles.into_iter().next().unwrap()
}

#[test]
fn injected_panic_writes_a_bundle_that_validates_and_names_the_node() {
    let base = std::env::temp_dir().join(format!("arp-diag-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let root = base.join("batch");
    let labels = stage_batch(&root, 0.003, 3);

    // Target a mid-pipeline node of the second event, so the batch is
    // genuinely in flight (other events' nodes pending or running) when
    // the panic fires.
    let graph = ProcessDag::optimized();
    let target = format!("{}/#{}", labels[1], graph.nodes()[graph.nodes().len() / 2]);

    let diag_dir = base.join("diag");
    std::fs::create_dir_all(&diag_dir).unwrap();
    let out = arp()
        .args([
            "batch",
            "--root",
            root.to_str().unwrap(),
            "--work",
            base.join("work").to_str().unwrap(),
            "--impl",
            "dag",
            "--diag-dir",
            diag_dir.to_str().unwrap(),
        ])
        .env("ARP_INJECT_PANIC", &target)
        .output()
        .expect("spawn arp batch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "batch must fail: {stderr}");
    // The failure is attributed: the Node wrapper names the label and the
    // preserved panic payload travels in the message.
    assert!(
        stderr.contains(&target),
        "stderr lacks node label: {stderr}"
    );
    assert!(stderr.contains("injected panic"), "{stderr}");

    // The hook froze a bundle; `arp diag-check` accepts it whole and its
    // log as a standalone JSONL file.
    let bundle = find_bundle(&diag_dir);
    let check = arp()
        .args(["diag-check", "--bundle", bundle.to_str().unwrap()])
        .output()
        .expect("spawn arp diag-check");
    assert!(
        check.status.success(),
        "diag-check: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    let log_check = arp()
        .args([
            "diag-check",
            "--file",
            bundle.join("log.jsonl").to_str().unwrap(),
        ])
        .output()
        .expect("spawn arp diag-check --file");
    assert!(
        log_check.status.success(),
        "diag-check --file: {}",
        String::from_utf8_lossy(&log_check.stderr)
    );

    // The incident report names the failing node, its event, and carries
    // the panic message and the frontier at capture time.
    let pm = arp()
        .arg("postmortem")
        .arg(&bundle)
        .output()
        .expect("spawn arp postmortem");
    assert!(
        pm.status.success(),
        "postmortem: {}",
        String::from_utf8_lossy(&pm.stderr)
    );
    let report = String::from_utf8_lossy(&pm.stdout);
    assert!(report.contains(&target), "report lacks node: {report}");
    assert!(report.contains(&labels[1]), "report lacks event: {report}");
    assert!(report.contains("injected panic"), "{report}");
    assert!(
        report.contains("per-event progress"),
        "report lacks frontier: {report}"
    );

    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn diag_on_and_off_products_are_byte_identical_six_events() {
    let base = std::env::temp_dir().join(format!("arp-diag-equiv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let root = base.join("batch");
    let labels = stage_batch(&root, 0.002, PAPER_EVENT_SHAPES.len());

    let run = |diag: bool, work: &Path| {
        let mut cmd = arp();
        cmd.args([
            "batch",
            "--root",
            root.to_str().unwrap(),
            "--work",
            work.to_str().unwrap(),
            "--impl",
            "dag",
        ]);
        if diag {
            cmd.args(["--diag", "on", "--diag-dir", work.to_str().unwrap()]);
            cmd.args(["--log-level", "trace"]);
        }
        let out = cmd.output().expect("spawn arp batch");
        assert!(
            out.status.success(),
            "diag={diag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };

    let work_plain = base.join("work-plain");
    let work_diag = base.join("work-diag");
    run(false, &work_plain);
    run(true, &work_diag);

    for label in labels {
        let diffs = diff_snapshots(
            &snapshot(&work_plain.join(&label)).unwrap(),
            &snapshot(&work_diag.join(&label)).unwrap(),
        );
        assert!(
            diffs.is_empty(),
            "event {label} diverged between diag-on and diag-off: {diffs:#?}"
        );
    }
    std::fs::remove_dir_all(&base).unwrap();
}

//! Work-stealing equivalence: stealing changes *which worker* runs a node
//! and *when*, never what the node writes. The six paper events processed
//! as one super-DAG on the stealing pool (`arp batch --impl dag`) must
//! produce products byte-identical to a batch that never starts the pool
//! (`--impl seq-optimized`, so no steals).

use arp_core::output::{diff_snapshots, snapshot};
use arp_synth::{paper_event, write_event_inputs, PAPER_EVENT_SHAPES};
use std::path::Path;
use std::process::Command;

#[test]
fn stealing_on_and_off_products_are_byte_identical_six_events() {
    // Each configuration runs in its own process, as a user runs it.
    let base = std::env::temp_dir().join(format!("arp-steal-equiv-{}", std::process::id()));
    let root = base.join("batch");
    let mut labels = Vec::new();
    for (i, &(label, _, _, _)) in PAPER_EVENT_SHAPES.iter().enumerate() {
        let dir = root.join(label);
        std::fs::create_dir_all(&dir).unwrap();
        write_event_inputs(&paper_event(i, 0.002), &dir).unwrap();
        labels.push(label);
    }

    let run = |implementation: &str, work: &Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_arp"))
            .args([
                "batch",
                "--root",
                root.to_str().unwrap(),
                "--work",
                work.to_str().unwrap(),
                "--impl",
                implementation,
            ])
            .output()
            .expect("spawn arp batch");
        assert!(
            out.status.success(),
            "--impl {implementation}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };

    let work_steal = base.join("work-stealing");
    let work_seq = base.join("work-sequential");
    run("dag", &work_steal);
    run("seq-optimized", &work_seq);

    for label in labels {
        let diffs = diff_snapshots(
            &snapshot(&work_seq.join(label)).unwrap(),
            &snapshot(&work_steal.join(label)).unwrap(),
        );
        assert!(
            diffs.is_empty(),
            "event {label} diverged between the stealing pool and the sequential batch: {diffs:#?}"
        );
    }
    std::fs::remove_dir_all(&base).unwrap();
}

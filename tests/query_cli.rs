//! `arp query` stops quietly when the reader of its output goes away.

use arp_formats::{Component, MotionTriple, RecordHeader, V1ComponentFile};
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_the_query_with_status_zero() {
    let dir = std::env::temp_dir().join(format!("arp-query-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // 2,000 rows of over 60 bytes each: more than a pipe holds, so the
    // command is still writing when the pipe closes.
    let long = "x".repeat(40);
    for k in 0..2000 {
        let acc: Vec<f64> = (0..8).map(|i| (i + k) as f64 * 0.1).collect();
        V1ComponentFile {
            header: RecordHeader::new("AAAA", "EV1", "2019-07-31T03:04:05Z", 0.01).unwrap(),
            component: Component::Vertical,
            data: MotionTriple::from_acceleration(acc, 0.01).unwrap(),
        }
        .write(&dir.join(format!("{k:04}{long}.v1")))
        .unwrap();
    }

    let mut child = Command::new(env!("CARGO_BIN_EXE_arp"))
        .args(["query", "--dir"])
        .arg(&dir)
        .args(["--format", "csv"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    // The reader above is dropped: the pipe is closed after one line.
    assert_eq!(first, "kind,station,event,component,points,pga,file\n");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "{status}: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

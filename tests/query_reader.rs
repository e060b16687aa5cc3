//! `Query::run` against the sequential scan it replaced.
//!
//! A scan of two or more files parses every other file on a reader thread
//! and hands its records back in batches. Whatever the files hold, the
//! iterator must yield exactly what one filtered `RecordReader` per
//! candidate file, opened in file order, yields: the same `(path,
//! record)` pairs and the same errors, in the same order.

use arp_dsp::fir::BandPass;
use arp_dsp::peaks::peak_values;
use arp_formats::{
    Component, Filter, MotionTriple, Query, Record, RecordHeader, RecordKind, RecordReader,
    V1ComponentFile, V2File,
};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Every test here scans; the thread count below must see only its own.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Name of the reader thread `Query::run` starts.
const READER: &str = "arp-query-read";

fn v1c(station: &str, k: usize) -> String {
    let acc: Vec<f64> = (0..16)
        .map(|i| (i as f64 * 0.23 + k as f64).sin())
        .collect();
    V1ComponentFile {
        header: RecordHeader::new(station, "EV1", "2019-07-31T03:04:05Z", 0.01).unwrap(),
        component: Component::ALL[k % 3],
        data: MotionTriple::from_acceleration(acc, 0.01).unwrap(),
    }
    .to_text()
}

fn v2(station: &str, k: usize) -> String {
    let dt = 0.01;
    let acc: Vec<f64> = (0..32)
        .map(|i| (i as f64 * 0.21 + k as f64).sin())
        .collect();
    V2File {
        header: RecordHeader::new(station, "EV1", "2019-07-31T03:04:05Z", dt).unwrap(),
        component: Component::ALL[k % 3],
        band: BandPass::DEFAULT,
        peaks: peak_values(&acc, dt).unwrap(),
        data: MotionTriple::from_acceleration(acc, dt).unwrap(),
    }
    .to_text()
}

fn station(k: usize) -> &'static str {
    if k.is_multiple_of(2) {
        "AAAA"
    } else {
        "BBBB"
    }
}

/// A file the scan must treat like any other.
#[derive(Clone, Copy, Debug)]
enum Special {
    /// A record cut off in its body.
    Truncated,
    /// A record whose magic line names no record kind.
    WrongMagic,
    /// A byte that is not UTF-8 inside a record body.
    NonUtf8,
    /// Twenty concatenated records, more than one hand-over batch.
    Twenty,
}

const SPECIALS: [Special; 4] = [
    Special::Truncated,
    Special::WrongMagic,
    Special::NonUtf8,
    Special::Twenty,
];

fn plain(k: usize) -> Vec<u8> {
    if k.is_multiple_of(3) {
        v2(station(k), k).into_bytes()
    } else {
        v1c(station(k), k).into_bytes()
    }
}

fn special(kind: Special, k: usize) -> Vec<u8> {
    let text = v2(station(k), k);
    match kind {
        Special::Truncated => text.as_bytes()[..text.len() / 2].to_vec(),
        Special::WrongMagic => text.replacen("ARP-", "ARQ-", 1).into_bytes(),
        Special::NonUtf8 => {
            let mut bytes = text.into_bytes();
            let at = bytes.len() * 2 / 3;
            bytes[at] = 0xFF;
            bytes
        }
        // Fourteen of the twenty are station AAAA, so a station filter
        // still keeps more than one batch.
        Special::Twenty => (0..20)
            .map(|r| v1c(if r % 10 < 7 { "AAAA" } else { "BBBB" }, k + r))
            .collect::<String>()
            .into_bytes(),
    }
}

/// Writes `files` into a fresh directory as `f00.v1`, `f01.v1`, …
fn tree(tag: &str, files: &[Vec<u8>]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arp-query-reader-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (k, bytes) in files.iter().enumerate() {
        std::fs::write(dir.join(format!("f{k:02}.v1")), bytes).unwrap();
    }
    dir
}

type Item = Result<(PathBuf, Record), String>;

/// The scan as it was: one filtered reader per candidate file, in order.
fn sequential(dir: &Path, filters: &[Filter]) -> Vec<Item> {
    let mut items = Vec::new();
    for path in Query::new(dir).candidate_files().unwrap() {
        match RecordReader::open(&path) {
            Ok(reader) => items.extend(
                reader
                    .with_filters(filters.to_vec())
                    .map(|r| r.map(|rec| (path.clone(), rec)).map_err(|e| e.to_string())),
            ),
            Err(e) => items.push(Err(e.to_string())),
        }
    }
    items
}

fn queried(dir: &Path, filters: &[Filter]) -> Vec<Item> {
    Query::new(dir)
        .filters(filters.to_vec())
        .run()
        .unwrap()
        .map(|r| {
            r.map(|hit| (hit.path, hit.record))
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn filter_sets() -> Vec<Vec<Filter>> {
    vec![
        vec![],
        // Both reject most records from the header and skip their bodies.
        vec![Filter::Station("AAAA".into())],
        vec![Filter::Kind(RecordKind::V2)],
        // Rejects everything.
        vec![Filter::Station("NONE".into())],
    ]
}

#[test]
fn reader_thread_yields_what_the_sequential_scan_yields() {
    let _serial = serial();
    let mut cases: Vec<(String, Vec<Vec<u8>>)> = Vec::new();
    for n in [0usize, 1, 2, 3, 8] {
        cases.push((format!("{n}-plain"), (0..n).map(plain).collect()));
        let mut positions = vec![0, 1, n / 2, n.saturating_sub(1)];
        positions.retain(|&p| p < n);
        positions.dedup();
        for kind in SPECIALS {
            for &p in &positions {
                let files = (0..n)
                    .map(|k| if k == p { special(kind, k) } else { plain(k) })
                    .collect();
                cases.push((format!("{n}-{kind:?}-at-{p}"), files));
            }
        }
    }
    let mixed = [
        Some(Special::Truncated),
        None,
        Some(Special::WrongMagic),
        Some(Special::Twenty),
        Some(Special::NonUtf8),
        None,
        Some(Special::Twenty),
        Some(Special::Truncated),
    ];
    let files = mixed
        .iter()
        .enumerate()
        .map(|(k, s)| s.map_or_else(|| plain(k), |s| special(s, k)))
        .collect();
    cases.push(("8-mixed".into(), files));

    let mut errors = 0;
    let mut longest = 0;
    for (tag, files) in &cases {
        let dir = tree(tag, files);
        for filters in filter_sets() {
            let want = sequential(&dir, &filters);
            assert_eq!(queried(&dir, &filters), want, "{tag} with {filters:?}");
            errors += want.iter().filter(|r| r.is_err()).count();
            longest = longest.max(want.len());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    // The cases reach the paths they are there for.
    assert!(errors >= 3 * 4 * 2, "only {errors} errors seen");
    assert!(longest > 2 * 8, "longest scan yielded {longest} items");
}

#[test]
fn reject_all_filter_ends_the_scan() {
    let _serial = serial();
    let dir = tree("reject", &(0..8).map(plain).collect::<Vec<_>>());
    let mut iter = Query::new(&dir)
        .filter(Filter::Station("NONE".into()))
        .run()
        .unwrap();
    assert!(iter.next().is_none());
    assert!(iter.next().is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Threads of this process named after the query reader.
#[cfg(target_os = "linux")]
fn reader_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == READER)
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn dropping_the_iterator_early_stops_the_reader() {
    let _serial = serial();
    let dir = tree("drop", &(0..40).map(plain).collect::<Vec<_>>());
    assert_eq!(reader_threads(), 0);
    let mut iter = Query::new(&dir).run().unwrap();
    // The second hit is file 1's, which only the reader parses: by then
    // the reader runs under its name. Beyond that file it holds at most
    // two messages of four pieces (a record, or a file's end), so with
    // twenty files of its own it is still waiting to send.
    assert!(iter.next().unwrap().is_ok());
    let second = iter.next().unwrap().unwrap();
    assert!(second.path.ends_with("f01.v1"), "{}", second.path.display());
    assert_eq!(reader_threads(), 1);
    drop(iter);
    // The drop joined the thread; the kernel drops its task entry just
    // after the join returns.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while reader_threads() > 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(reader_threads(), 0, "{READER} outlived its iterator");
    std::fs::remove_dir_all(&dir).unwrap();
}

//! Directory-level queries over pipeline products.
//!
//! A [`Query`] scans a work directory for product files (`.v1`, `.v2`,
//! `.f`, `.r`), streams each through a filtered
//! [`RecordReader`], and yields the matches in
//! stable (filename-sorted) order. This backs the `arp query` CLI
//! subcommand.
//!
//! The files parse independently, so a scan of two or more files runs on
//! two threads: the caller's thread streams files 0, 2, 4, … and one
//! reader thread (`arp-query-read`) parses files 1, 3, 5, … and hands
//! their items over through a channel of depth one, in messages of at
//! most four pieces (an item, or the end of a file). Hits still come in
//! file order. At most three messages exist at a time — one the caller
//! is draining, one in the channel, one the reader is filling — so at
//! most twelve parsed records wait, whatever the file sizes.
//!
//! ```no_run
//! use arp_formats::filter::Filter;
//! use arp_formats::query::Query;
//! use std::path::Path;
//!
//! // All corrected records of event EV1 with PGA at least 50 cm/s².
//! let hits = Query::new(Path::new("work"))
//!     .filter(Filter::Event("EV1".into()))
//!     .filter(Filter::pga_range(Some(50.0), None))
//!     .run()
//!     .unwrap();
//! for hit in hits {
//!     let hit = hit.unwrap();
//!     println!("{} {}", hit.path.display(), hit.record.station());
//! }
//! ```

use crate::error::FormatError;
use crate::filter::Filter;
use crate::iter::{Record, RecordReader};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;

/// File extensions the query layer scans, in scan order.
pub const PRODUCT_EXTENSIONS: [&str; 4] = ["v1", "v2", "f", "r"];

/// Most pieces the reader thread hands over in one message, which bounds
/// its read-ahead in records and in files alike.
const BATCH: usize = 4;

/// Name of the reader thread a scan of two or more files starts.
const READER_THREAD: &str = "arp-query-read";

/// One matching record, together with the file it came from.
#[derive(Debug)]
pub struct QueryHit {
    /// File the record was read from.
    pub path: PathBuf,
    /// The parsed record.
    pub record: Record,
}

/// A filtered scan over the product files of a directory.
#[derive(Debug, Clone)]
pub struct Query {
    dir: PathBuf,
    filters: Vec<Filter>,
}

impl Query {
    /// Queries the product files directly inside `dir` (non-recursive —
    /// pipeline work directories are flat).
    pub fn new(dir: &Path) -> Self {
        Query {
            dir: dir.to_path_buf(),
            filters: Vec::new(),
        }
    }

    /// Adds a filter; all filters must match (conjunction).
    pub fn filter(mut self, filter: Filter) -> Self {
        self.filters.push(filter);
        self
    }

    /// Adds several filters at once.
    pub fn filters(mut self, filters: impl IntoIterator<Item = Filter>) -> Self {
        self.filters.extend(filters);
        self
    }

    /// Lists the product files the scan will visit, sorted by file name so
    /// query output is stable across platforms and runs. File types come
    /// from the directory listing; only a symlink is followed with a stat,
    /// so a linked product file is still visited.
    pub fn candidate_files(&self) -> Result<Vec<PathBuf>, FormatError> {
        let entries = std::fs::read_dir(&self.dir).map_err(|e| FormatError::io(&self.dir, e))?;
        let mut files = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| FormatError::io(&self.dir, e))?;
            let path = entry.path();
            let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
            if !PRODUCT_EXTENSIONS.contains(&ext) {
                continue;
            }
            let ty = entry.file_type().map_err(|e| FormatError::io(&path, e))?;
            if ty.is_file() || (ty.is_symlink() && path.is_file()) {
                files.push(path);
            }
        }
        files.sort_by(|a, b| a.file_name().cmp(&b.file_name()));
        Ok(files)
    }

    /// Runs the query, returning a lazy iterator over matches. Files are
    /// opened one at a time on each thread; a malformed file surfaces as
    /// an `Err` item at its place in file order and the scan moves on to
    /// the next file. With two or more files the odd-numbered ones are
    /// parsed ahead on the reader thread (see the module docs); if that
    /// thread cannot be started, the caller's thread reads every file.
    pub fn run(self) -> Result<QueryIter, FormatError> {
        let files = self.candidate_files()?;
        let ahead = if files.len() >= 2 {
            ReadAhead::spawn(&files, &self.filters)
        } else {
            None
        };
        Ok(QueryIter {
            files,
            next_file: 0,
            filters: self.filters,
            current: Current::Between,
            ahead,
        })
    }
}

/// What the reader thread hands over, in file order: each item of a file
/// as `Some`, then `None` at the file's end — the file's own iterator,
/// one `next()` at a time.
type Piece = Option<Result<Record, FormatError>>;

/// The reader thread parsing files 1, 3, 5, … of a scan, and what is left
/// of its latest message.
struct ReadAhead {
    rx: Receiver<Vec<Piece>>,
    pieces: std::vec::IntoIter<Piece>,
    handle: JoinHandle<()>,
}

impl ReadAhead {
    fn spawn(files: &[PathBuf], filters: &[Filter]) -> Option<Self> {
        let odd: Vec<PathBuf> = files.iter().skip(1).step_by(2).cloned().collect();
        let filters = filters.to_vec();
        let (tx, rx) = sync_channel(1);
        let handle = std::thread::Builder::new()
            .name(READER_THREAD.into())
            .spawn(move || read_ahead(&odd, &filters, &tx))
            .ok()?;
        Some(ReadAhead {
            rx,
            pieces: Vec::new().into_iter(),
            handle,
        })
    }

    /// Hangs up and waits for the thread, which stops at its next send.
    fn join(self) -> std::thread::Result<()> {
        drop(self.rx);
        self.handle.join()
    }
}

/// The reader thread's body: every file of `files` through a filtered
/// [`RecordReader`], until the files run out or the receiver hangs up.
///
/// After each file the pieces go out if the channel has room. While it is
/// full the reader goes on to its next file and blocks only once it holds
/// [`BATCH`] pieces, so a caller that is slower than the reader wakes it
/// once per message rather than once per file.
fn read_ahead(files: &[PathBuf], filters: &[Filter], tx: &SyncSender<Vec<Piece>>) {
    let mut pieces = Vec::new();
    for path in files {
        // A file that fails to open yields its error as its one item.
        let (reader, error) = match RecordReader::open(path) {
            Ok(reader) => (Some(reader.with_filters(filters.to_vec())), None),
            Err(e) => (None, Some(Err(e))),
        };
        let items = error.into_iter().chain(reader.into_iter().flatten());
        for piece in items.map(Some).chain([None]) {
            if pieces.len() == BATCH && tx.send(std::mem::take(&mut pieces)).is_err() {
                return;
            }
            pieces.push(piece);
        }
        match tx.try_send(std::mem::take(&mut pieces)) {
            Ok(()) => {}
            Err(TrySendError::Full(held)) => pieces = held,
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
    if !pieces.is_empty() {
        let _ = tx.send(pieces);
    }
}

/// The file a [`QueryIter`] is in the middle of.
enum Current {
    /// No file open: the next call starts file `next_file`.
    Between,
    /// File `.0`, streamed on the caller's thread.
    Local(usize, Box<RecordReader<BufReader<File>>>),
    /// File `.0`, parsed by the reader thread.
    Ahead(usize),
}

/// Lazy iterator over query matches, in file order; see [`Query::run`].
///
/// Dropping it early hangs up on the reader thread and joins it.
pub struct QueryIter {
    files: Vec<PathBuf>,
    next_file: usize,
    filters: Vec<Filter>,
    current: Current,
    ahead: Option<ReadAhead>,
}

impl QueryIter {
    /// The reader's next piece. A reader that hangs up before the end of
    /// its last file has panicked: it is joined and its panic continues on
    /// this thread, so the scan neither hangs nor ends short.
    fn next_piece(&mut self) -> Piece {
        let ahead = self
            .ahead
            .as_mut()
            .expect("only the reader's files are read ahead");
        if let Some(piece) = ahead.pieces.next() {
            return piece;
        }
        if let Ok(message) = ahead.rx.recv() {
            ahead.pieces = message.into_iter();
            return ahead
                .pieces
                .next()
                .expect("the reader sends no empty message");
        }
        let ahead = self.ahead.take().expect("checked above");
        match ahead.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => panic!("{READER_THREAD} ended before its last file"),
        }
    }

    fn hit(&self, i: usize, record: Record) -> QueryHit {
        QueryHit {
            path: self.files[i].clone(),
            record,
        }
    }
}

impl Iterator for QueryIter {
    type Item = Result<QueryHit, FormatError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match &mut self.current {
                Current::Local(i, reader) => match reader.next() {
                    Some(Ok(record)) => {
                        let i = *i;
                        return Some(Ok(self.hit(i, record)));
                    }
                    Some(Err(e)) => {
                        // The reader fuses after an error; drop the file and
                        // surface the error, then continue with the next one.
                        self.current = Current::Between;
                        return Some(Err(e));
                    }
                    None => self.current = Current::Between,
                },
                Current::Ahead(i) => {
                    let i = *i;
                    match self.next_piece() {
                        Some(item) => return Some(item.map(|record| self.hit(i, record))),
                        None => self.current = Current::Between,
                    }
                }
                Current::Between => {
                    let i = self.next_file;
                    if i == self.files.len() {
                        return None;
                    }
                    self.next_file += 1;
                    if self.ahead.is_some() && i % 2 == 1 {
                        self.current = Current::Ahead(i);
                    } else {
                        match RecordReader::open(&self.files[i]) {
                            Ok(reader) => {
                                let reader = reader.with_filters(self.filters.clone());
                                self.current = Current::Local(i, Box::new(reader));
                            }
                            Err(e) => return Some(Err(e)),
                        }
                    }
                }
            }
        }
    }
}

impl Drop for QueryIter {
    fn drop(&mut self) {
        if let Some(ahead) = self.ahead.take() {
            // A reader panic was never seen by the caller; a drop does not
            // raise it (it may already be unwinding).
            let _ = ahead.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::RecordKind;
    use crate::types::{names, Component, MotionTriple, RecordHeader};
    use crate::v1::V1ComponentFile;

    fn v1c(station: &str, comp: Component) -> V1ComponentFile {
        let acc: Vec<f64> = (0..16).map(|i| (i as f64 * 0.23).sin()).collect();
        V1ComponentFile {
            header: RecordHeader::new(station, "EV1", "2019-07-31T03:04:05Z", 0.01).unwrap(),
            component: comp,
            data: MotionTriple::from_acceleration(acc, 0.01).unwrap(),
        }
    }

    fn setup(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("arp-query-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (station, comp) in [
            ("AAAA", Component::Longitudinal),
            ("AAAA", Component::Vertical),
            ("BBBB", Component::Longitudinal),
        ] {
            let rec = v1c(station, comp);
            rec.write(&dir.join(names::v1_component(station, comp)))
                .unwrap();
        }
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        dir
    }

    #[test]
    fn scan_is_sorted_and_filtered_by_extension() {
        let dir = setup("sorted");
        let q = Query::new(&dir);
        let files = q.candidate_files().unwrap();
        assert_eq!(files.len(), 3);
        let names: Vec<_> = files
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(!names.iter().any(|n| n.ends_with(".txt")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn symlinked_products_are_followed_and_directories_skipped() {
        let dir = setup("links");
        let elsewhere = dir.join("elsewhere");
        std::fs::create_dir_all(elsewhere.join("CCCCl.v1")).unwrap();
        let linked = elsewhere.join("real.v1");
        v1c("DDDD", Component::Transversal).write(&linked).unwrap();
        std::os::unix::fs::symlink(&linked, dir.join("DDDDt.v1")).unwrap();
        std::os::unix::fs::symlink(elsewhere.join("CCCCl.v1"), dir.join("CCCCl.v1")).unwrap();
        std::os::unix::fs::symlink(elsewhere.join("gone.v1"), dir.join("EEEEl.v1")).unwrap();
        std::fs::create_dir_all(dir.join("FFFFl.v1")).unwrap();
        let names: Vec<_> = Query::new(&dir)
            .candidate_files()
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(names, ["AAAAl.v1", "AAAAv.v1", "BBBBl.v1", "DDDDt.v1"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filters_restrict_hits() {
        let dir = setup("filters");
        let hits: Vec<QueryHit> = Query::new(&dir)
            .filter(Filter::Station("AAAA".into()))
            .filter(Filter::Component(Component::Vertical))
            .run()
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].record.station(), "AAAA");
        assert_eq!(hits[0].record.component(), Some(Component::Vertical));
        assert!(hits[0].path.ends_with("AAAAv.v1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kind_filter_and_empty_results() {
        let dir = setup("kinds");
        let hits: Vec<_> = Query::new(&dir)
            .filter(Filter::Kind(RecordKind::V2))
            .run()
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert!(hits.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_file_surfaces_error_then_scan_continues() {
        let dir = setup("bad");
        std::fs::write(dir.join("AAAA0.v2"), "ARP-V2 1.0\nSTATION: X\nbroken\n").unwrap();
        let results: Vec<_> = Query::new(&dir).run().unwrap().collect();
        let errors = results.iter().filter(|r| r.is_err()).count();
        let hits = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(errors, 1);
        assert_eq!(hits, 3, "good files still scanned after the bad one");
        // The error names the offending file.
        let msg = results
            .iter()
            .find_map(|r| r.as_ref().err())
            .unwrap()
            .to_string();
        assert!(msg.contains("AAAA0.v2"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_io_error() {
        let q = Query::new(Path::new("/nonexistent/arp-query-test"));
        assert!(q.run().is_err());
    }
}

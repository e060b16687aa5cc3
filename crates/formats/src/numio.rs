//! Shared low-level reader/writer for the text file formats.
//!
//! All pipeline files share one scheme:
//!
//! ```text
//! <MAGIC> 1.0            e.g.  ARP-V2 1.0
//! KEY: value             header fields, one per line
//! ...
//! BEGIN <BLOCK> <count>  numeric blocks
//!   v v v v v v          six values per line, %.16e (full f64 round-trip precision)
//! END <BLOCK>
//! ```
//!
//! [`Scanner`] provides a positioned line cursor over any [`BufRead`]
//! source. Lines are pulled from the source one at a time into one reused
//! line buffer, so parsing a multi-megabyte record keeps only the stream
//! buffer and one line resident — never the whole file (the
//! [`crate::stats`] gauges measure exactly this). A line longer than
//! [`STREAM_BUF_BYTES`] is a syntax error. Block lines exactly as
//! [`write_block`] writes them are converted where they sit in the stream
//! buffer, with no copy. Any other body line goes through the line buffer
//! and splits on ASCII whitespace; each token of the writer's shape
//! converts exactly in `sci`, any other takes `str::parse::<f64>`, and both
//! give the same bits. [`Scanner::skip_to_magic`] passes over a rejected
//! record's body inside the stream buffer without copying its lines. The
//! `write_*` helpers produce the same layout; [`write_block`] builds each
//! line in a stack buffer with the exact `{:.16e}` writer in `sci`.
//!
//! ```
//! use arp_formats::numio::Scanner;
//!
//! let mut sc = Scanner::from_text("ARP-X 1.0\nNPTS: 3\nBEGIN A 3\n1 2 3\nEND A\n");
//! sc.expect_magic("ARP-X").unwrap();
//! assert_eq!(sc.expect_kv_usize("NPTS").unwrap(), 3);
//! assert_eq!(sc.read_block("A").unwrap(), vec![1.0, 2.0, 3.0]);
//! ```

mod sci;

pub(crate) use sci::Sci16;

use crate::error::FormatError;
use crate::stats;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};

/// Values printed per line in numeric blocks.
const VALUES_PER_LINE: usize = 6;

/// Most elements a reader reserves up front for a count it read from the
/// file. Larger counts still parse — the vector grows as the body supplies
/// values — so a corrupt count cannot reserve memory the body never fills.
pub(crate) const MAX_RESERVE: usize = 1 << 16;

/// Stream buffer capacity for file-backed scanners (bytes). This bounds the
/// resident footprint of the streaming path regardless of record size, and
/// it is also the longest line, counting its `\n`, any scanner accepts.
pub const STREAM_BUF_BYTES: usize = 64 * 1024;

/// A positioned line cursor over a buffered byte stream.
///
/// Blank lines are skipped; line numbers are 1-based positions in the
/// underlying stream so parse errors point at the offending line.
pub struct Scanner<B> {
    src: B,
    /// The one line buffer every read reuses. While `peeked` is set it holds
    /// the next non-empty line, trimmed of its trailing newline; after
    /// [`Scanner::take`] it holds the line just consumed.
    line: String,
    /// Whether `line` holds a line not yet consumed.
    peeked: bool,
    /// A read error met while only looking ahead, returned by the next
    /// consuming call (the failed read already consumed its bytes).
    pending: Option<FormatError>,
    /// 1-based line number of the line in `line`.
    peeked_no: usize,
    /// Lines consumed from `src` so far.
    consumed: usize,
    /// Path for error annotation, when file-backed.
    path: Option<PathBuf>,
    /// Keeps the resident-bytes gauge honest for this scanner's buffer.
    _in_flight: Option<stats::InFlightGuard>,
}

impl<'a> Scanner<&'a [u8]> {
    /// Creates a scanner over in-memory text.
    ///
    /// The whole text is already resident, so the full length is registered
    /// with the [`crate::stats`] gauges for the scanner's lifetime — this is
    /// what makes the whole-file and streaming paths comparable.
    pub fn from_text(text: &'a str) -> Self {
        let guard = stats::track(text.len() as u64);
        let mut sc = Scanner::new(text.as_bytes());
        sc._in_flight = Some(guard);
        sc
    }
}

impl Scanner<BufReader<File>> {
    /// Opens `path` for streaming with a bounded buffer
    /// ([`STREAM_BUF_BYTES`], or the file length if smaller).
    pub fn open(path: &Path) -> Result<Self, FormatError> {
        let file = File::open(path).map_err(|e| FormatError::io(path, e))?;
        let len = file
            .metadata()
            .map(|m| m.len() as usize)
            .unwrap_or(STREAM_BUF_BYTES);
        let cap = len.clamp(1, STREAM_BUF_BYTES);
        let guard = stats::track(cap as u64);
        let mut sc = Scanner::new(BufReader::with_capacity(cap, file));
        sc.path = Some(path.to_path_buf());
        sc._in_flight = Some(guard);
        Ok(sc)
    }
}

impl<B: BufRead> Scanner<B> {
    /// Creates a scanner over any buffered source.
    pub fn new(src: B) -> Self {
        Scanner {
            src,
            line: String::new(),
            peeked: false,
            pending: None,
            peeked_no: 0,
            consumed: 0,
            path: None,
            _in_flight: None,
        }
    }

    /// The file this scanner reads, when file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    fn read_err(&self, e: std::io::Error) -> FormatError {
        let path = self
            .path
            .clone()
            .unwrap_or_else(|| PathBuf::from("<stream>"));
        FormatError::io(path, e)
    }

    /// Pulls lines from the source until a non-empty one is buffered (or EOF).
    fn read_ahead(&mut self) -> Result<(), FormatError> {
        while !self.peeked {
            self.line.clear();
            let mut src = (&mut self.src).take(STREAM_BUF_BYTES as u64 + 1);
            let read = src.read_line(&mut self.line);
            if src.limit() == 0 {
                return Err(FormatError::syntax(
                    self.consumed + 1,
                    format!("line longer than {STREAM_BUF_BYTES} bytes"),
                ));
            }
            if read.map_err(|e| self.read_err(e))? == 0 {
                return Ok(());
            }
            self.consumed += 1;
            if self.line.trim().is_empty() {
                continue;
            }
            let len = self.line.trim_end_matches(['\n', '\r']).len();
            self.line.truncate(len);
            self.peeked_no = self.consumed;
            self.peeked = true;
        }
        Ok(())
    }

    /// [`Scanner::read_ahead`], first returning any deferred read error.
    fn fill_peek(&mut self) -> Result<(), FormatError> {
        match self.pending.take() {
            Some(e) => Err(e),
            None => self.read_ahead(),
        }
    }

    /// 1-based line number of the next unread non-empty line (blank lines
    /// are skipped first, so errors point at real content). A read failure
    /// while looking ahead is deferred to the next consuming call.
    pub fn line_number(&mut self) -> usize {
        if self.pending.is_none() {
            if let Err(e) = self.read_ahead() {
                self.pending = Some(e);
            }
        }
        if self.peeked {
            self.peeked_no
        } else {
            self.consumed + 1
        }
    }

    /// True when only blank lines (or nothing) remain.
    pub fn at_end(&mut self) -> Result<bool, FormatError> {
        Ok(self.peek()?.is_none())
    }

    /// Returns the next non-empty line without consuming it.
    pub fn peek(&mut self) -> Result<Option<&str>, FormatError> {
        self.fill_peek()?;
        Ok(self.peeked.then_some(self.line.as_str()))
    }

    /// Consumes the next non-empty line, leaving it in `self.line` until the
    /// next read, and returns its line number.
    fn take(&mut self) -> Result<usize, FormatError> {
        self.fill_peek()?;
        if !self.peeked {
            return Err(FormatError::syntax(
                self.consumed + 1,
                "unexpected end of file",
            ));
        }
        self.peeked = false;
        Ok(self.peeked_no)
    }

    /// Consumes and returns the next non-empty line.
    pub fn next_line(&mut self) -> Result<String, FormatError> {
        self.take()?;
        Ok(self.line.clone())
    }

    /// Consumes the magic line, checking the leading token.
    pub fn expect_magic(&mut self, magic: &'static str) -> Result<(), FormatError> {
        self.take()?;
        if self.line.split_whitespace().next() != Some(magic) {
            return Err(FormatError::BadMagic {
                expected: magic,
                found: self.line.clone(),
            });
        }
        Ok(())
    }

    /// Consumes a `KEY: value` line with the given key; returns the value.
    pub fn expect_kv(&mut self, key: &'static str) -> Result<String, FormatError> {
        let ln = self.take()?;
        let line = self.line.as_str();
        let (k, v) = line.split_once(':').ok_or_else(|| {
            FormatError::syntax(ln, format!("expected `{key}: ...`, got {line:?}"))
        })?;
        if k.trim() != key {
            return Err(FormatError::syntax(
                ln,
                format!("expected key {key:?}, got {:?}", k.trim()),
            ));
        }
        Ok(v.trim().to_string())
    }

    /// Like [`Scanner::expect_kv`] but parses the value as `f64`.
    pub fn expect_kv_f64(&mut self, key: &'static str) -> Result<f64, FormatError> {
        let ln = self.line_number();
        let v = self.expect_kv(key)?;
        v.parse::<f64>()
            .map_err(|e| FormatError::syntax(ln, format!("bad number for {key}: {e}")))
    }

    /// Like [`Scanner::expect_kv`] but parses the value as `usize`.
    pub fn expect_kv_usize(&mut self, key: &'static str) -> Result<usize, FormatError> {
        let ln = self.line_number();
        let v = self.expect_kv(key)?;
        v.parse::<usize>()
            .map_err(|e| FormatError::syntax(ln, format!("bad integer for {key}: {e}")))
    }

    /// Consumes a `BEGIN <name> <count>` line, returning the declared count.
    fn begin_block(&mut self, name: &str) -> Result<usize, FormatError> {
        let ln = self.take()?;
        let line = self.line.as_str();
        let mut parts = line.split_whitespace();
        if parts.next() != Some("BEGIN") {
            return Err(FormatError::syntax(
                ln,
                format!("expected `BEGIN {name} <count>`, got {line:?}"),
            ));
        }
        let got_name = parts
            .next()
            .ok_or_else(|| FormatError::syntax(ln, "BEGIN missing block name"))?;
        if got_name != name {
            return Err(FormatError::syntax(
                ln,
                format!("expected block {name:?}, got {got_name:?}"),
            ));
        }
        parts
            .next()
            .ok_or_else(|| FormatError::syntax(ln, "BEGIN missing count"))?
            .parse()
            .map_err(|e| FormatError::syntax(ln, format!("bad count: {e}")))
    }

    /// Consumes the next line of block `name`'s body. Returns its line
    /// number with the line left in `self.line`, or `None` at `END <name>`.
    fn body_line(&mut self, name: &str) -> Result<Option<usize>, FormatError> {
        let ln = self.take()?;
        let Some(rest) = self.line.trim_ascii().strip_prefix("END") else {
            return Ok(Some(ln));
        };
        let end_name = rest.trim();
        if !end_name.is_empty() && end_name != name {
            return Err(FormatError::syntax(
                ln,
                format!("END {end_name:?} does not match BEGIN {name:?}"),
            ));
        }
        Ok(None)
    }

    /// Reads a `BEGIN <name> <count> ... END <name>` numeric block.
    ///
    /// Lines exactly as [`write_block`] writes them are converted where they
    /// sit in the stream buffer. Every other line (`END`, blank, CRLF, other
    /// whitespace or token shapes, non-ASCII bytes, a line that runs past
    /// the buffer's end) goes through the line reader, so values, errors and
    /// line numbers are the ones a line-by-line read gives.
    pub fn read_block(&mut self, name: &str) -> Result<Vec<f64>, FormatError> {
        let count = self.begin_block(name)?;
        let mut values = Vec::with_capacity(count.min(MAX_RESERVE));
        loop {
            self.walk_buffer(|buf| {
                let (mut used, mut lines) = (0, 0);
                while values.len() <= count {
                    let Some(len) = canonical_line(&buf[used..], &mut values) else {
                        break;
                    };
                    used += len;
                    lines += 1;
                }
                (used, lines, used == buf.len() && values.len() <= count)
            })
            .map_err(|e| self.read_err(e))?;
            if values.len() > count {
                return Err(count_mismatch(name, count, values.len()));
            }
            let Some(ln) = self.body_line(name)? else {
                break;
            };
            let line = self.line.as_bytes();
            let mut at = 0;
            loop {
                while line.get(at).is_some_and(u8::is_ascii_whitespace) {
                    at += 1;
                }
                if at == line.len() {
                    break;
                }
                if let Some((v, len)) = sci::parse_prefix(&line[at..]) {
                    values.push(v);
                    at += len;
                    continue;
                }
                let end = line[at..]
                    .iter()
                    .position(u8::is_ascii_whitespace)
                    .map_or(line.len(), |n| at + n);
                // Both ends sit next to ASCII bytes, so they are char boundaries.
                let tok = &self.line[at..end];
                let v: f64 = tok
                    .parse()
                    .map_err(|e| FormatError::syntax(ln, format!("bad value {tok:?}: {e}")))?;
                values.push(v);
                at = end;
            }
        }
        if values.len() != count {
            return Err(count_mismatch(name, count, values.len()));
        }
        Ok(values)
    }

    /// Consumes lines until the next record magic (a line whose first token
    /// starts with `ARP-`) or end of stream. Used to skip the remainder of a
    /// filtered-out record in a multi-record stream.
    ///
    /// Whole lines are passed over inside the stream buffer, at most
    /// [`STREAM_BUF_BYTES`] of it at a time: a byte search finds the first
    /// line holding `ARP-` or a non-ASCII byte, and the lines before it are
    /// counted in bulk. That line and a line that does not end inside the
    /// chunk go through the line reader, so errors and line numbers are the
    /// ones a line-by-line skip gives.
    pub fn skip_to_magic(&mut self) -> Result<(), FormatError> {
        loop {
            if !self.peeked && self.pending.is_none() {
                self.walk_buffer(|buf| {
                    let chunk = &buf[..buf.len().min(STREAM_BUF_BYTES)];
                    let whole = chunk.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                    let used = plain_lines(&chunk[..whole]);
                    let lines = count_newlines(&chunk[..used]);
                    (used, lines, used == chunk.len())
                })
                .map_err(|e| self.read_err(e))?;
            }
            match self.peek()? {
                Some(line) if !is_magic(line) => self.peeked = false,
                _ => return Ok(()),
            }
        }
    }

    /// Hands the stream buffer to `walk`, which returns the bytes it used
    /// (whole lines), how many lines those were, and whether it may go on
    /// in the next buffer; consumes and counts them, and refills the buffer
    /// while the walk goes on. Only valid between lines: nothing peeked.
    fn walk_buffer(
        &mut self,
        mut walk: impl FnMut(&[u8]) -> (usize, usize, bool),
    ) -> io::Result<()> {
        debug_assert!(!self.peeked && self.pending.is_none());
        loop {
            let buf = match self.src.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let (used, lines, more) = walk(buf);
            self.src.consume(used);
            self.consumed += lines;
            if used == 0 || !more {
                return Ok(());
            }
        }
    }
}

/// Converts one line exactly as [`write_block`] writes it (one to six
/// tokens `sci::parse_prefix` takes, single spaces, `\n`) from the front of
/// `b`, appending its values. Returns the line's length; `None`, appending
/// nothing, for any other line and for one that runs past the end of `b`.
fn canonical_line(b: &[u8], values: &mut Vec<f64>) -> Option<usize> {
    let mut row = [0.0; VALUES_PER_LINE];
    let mut at = 0;
    for (i, slot) in row.iter_mut().enumerate() {
        let (v, len) = sci::parse_prefix(&b[at..])?;
        *slot = v;
        at += len;
        match b.get(at) {
            Some(b' ') => at += 1,
            Some(b'\n') => {
                values.extend_from_slice(&row[..=i]);
                return Some(at + 1);
            }
            _ => return None,
        }
    }
    None
}

/// Length of the run of whole lines at the front of `lines` that a skip
/// passes over in bulk. It ends at the first line holding `ARP-` or a
/// non-ASCII byte: the line reader decides whether such a line starts a
/// record (`ARP-` as its first token, maybe after Unicode whitespace) or
/// is not UTF-8.
fn plain_lines(lines: &[u8]) -> usize {
    let mut from = 0;
    while let Some(at) = find_a_or_non_ascii(&lines[from..]).map(|i| from + i) {
        if !lines[at].is_ascii() || lines[at..].starts_with(b"ARP-") {
            return lines[..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
        }
        from = at + 1;
    }
    lines.len()
}

/// Bytes per step of the block searches below. Their folds over a whole
/// block have no early exit, so they compile to vector compares, and a
/// block's count of any byte fits a `u8`.
const SEARCH_BLOCK: usize = 64;

/// Index of the first `A` or non-ASCII byte in `b`.
fn find_a_or_non_ascii(b: &[u8]) -> Option<usize> {
    let hit = |c: &u8| *c == b'A' || !c.is_ascii();
    let mut blocks = b.chunks_exact(SEARCH_BLOCK);
    for (i, block) in (&mut blocks).enumerate() {
        let block: &[u8; SEARCH_BLOCK] = block.try_into().expect("whole block");
        if block
            .iter()
            .fold(0, |any, &c| any | u8::from(c == b'A') | c & 0x80)
            != 0
        {
            return block.iter().position(hit).map(|j| i * SEARCH_BLOCK + j);
        }
    }
    let tail = b.len() - blocks.remainder().len();
    blocks.remainder().iter().position(hit).map(|j| tail + j)
}

/// Number of `\n` bytes in `b`.
fn count_newlines(b: &[u8]) -> usize {
    let mut blocks = b.chunks_exact(SEARCH_BLOCK);
    let whole: usize = (&mut blocks)
        .map(|block| {
            let block: &[u8; SEARCH_BLOCK] = block.try_into().expect("whole block");
            usize::from(block.iter().fold(0, |n, &c| n + u8::from(c == b'\n')))
        })
        .sum();
    whole + blocks.remainder().iter().filter(|&&c| c == b'\n').count()
}

/// Whether a line starts a record: its first token begins with `ARP-`.
fn is_magic(line: &str) -> bool {
    line.trim_start().starts_with("ARP-")
}

fn count_mismatch(block: &str, expected: usize, found: usize) -> FormatError {
    FormatError::CountMismatch {
        block: block.to_string(),
        expected,
        found,
    }
}

/// Appends the magic line.
pub fn write_magic(out: &mut String, magic: &str) {
    out.push_str(magic);
    out.push_str(" 1.0\n");
}

/// Appends a `KEY: value` line.
pub fn write_kv(out: &mut String, key: &str, value: impl std::fmt::Display) {
    let _ = writeln!(out, "{key}: {value}");
}

/// Longest block line: six tokens, each with its space or `\n`.
const LINE_MAX: usize = VALUES_PER_LINE * (sci::TOKEN_MAX + 1);

/// Appends a numeric block in the standard layout: each value is the
/// token `format!("{v:.16e}")` would write, six to a line. Each line is
/// built in a stack buffer and appended once.
pub fn write_block(out: &mut String, name: &str, values: &[f64]) {
    let _ = writeln!(out, "BEGIN {name} {}", values.len());
    let mut line = [0u8; LINE_MAX];
    for chunk in values.chunks(VALUES_PER_LINE) {
        let mut n = 0;
        for &v in chunk {
            let token = (&mut line[n..n + sci::TOKEN_MAX])
                .try_into()
                .expect("TOKEN_MAX bytes");
            n += sci::write(v, token);
            line[n] = b' ';
            n += 1;
        }
        line[n - 1] = b'\n';
        out.push_str(sci::ascii(&line[..n]));
    }
    let _ = writeln!(out, "END {name}");
}

/// An empty record text with room for `values` block values and the lines
/// around them: an exact-path token takes at most 23 bytes and its
/// separator one more, and 1 KiB holds the header and `BEGIN`/`END` lines.
pub(crate) fn record_text(values: usize) -> String {
    String::with_capacity(1024 + values * 24)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_roundtrip() {
        let mut s = String::new();
        write_magic(&mut s, "ARP-TEST");
        write_kv(&mut s, "STATION", "SSLB");
        write_kv(&mut s, "DT", 0.01);
        write_kv(&mut s, "NPTS", 42usize);

        let mut sc = Scanner::from_text(&s);
        sc.expect_magic("ARP-TEST").unwrap();
        assert_eq!(sc.expect_kv("STATION").unwrap(), "SSLB");
        assert!((sc.expect_kv_f64("DT").unwrap() - 0.01).abs() < 1e-15);
        assert_eq!(sc.expect_kv_usize("NPTS").unwrap(), 42);
        assert!(sc.at_end().unwrap());
    }

    #[test]
    fn block_roundtrip_preserves_values() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64 * 0.377).sin() * 1e-3).collect();
        let mut s = String::new();
        write_block(&mut s, "ACC", &values);
        let mut sc = Scanner::from_text(&s);
        let back = sc.read_block("ACC").unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in back.iter().zip(values.iter()) {
            assert!((a - b).abs() < 1e-12 * b.abs().max(1e-12));
        }
    }

    #[test]
    fn empty_block_roundtrip() {
        let mut s = String::new();
        write_block(&mut s, "EMPTY", &[]);
        let mut sc = Scanner::from_text(&s);
        assert!(sc.read_block("EMPTY").unwrap().is_empty());
    }

    #[test]
    fn bad_magic_detected() {
        let mut sc = Scanner::from_text("WRONG 1.0\n");
        match sc.expect_magic("RIGHT") {
            Err(FormatError::BadMagic { expected, .. }) => assert_eq!(expected, "RIGHT"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wrong_key_detected() {
        let mut sc = Scanner::from_text("FOO: 1\n");
        assert!(sc.expect_kv("BAR").is_err());
    }

    #[test]
    fn missing_colon_detected() {
        let mut sc = Scanner::from_text("FOO 1\n");
        assert!(sc.expect_kv("FOO").is_err());
    }

    #[test]
    fn count_mismatch_detected() {
        let text = "BEGIN X 5\n1 2 3\nEND X\n";
        let mut sc = Scanner::from_text(text);
        match sc.read_block("X") {
            Err(FormatError::CountMismatch {
                expected, found, ..
            }) => {
                assert_eq!(expected, 5);
                assert_eq!(found, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overflow_count_detected() {
        let text = "BEGIN X 2\n1 2 3 4\nEND X\n";
        let mut sc = Scanner::from_text(text);
        assert!(matches!(
            sc.read_block("X"),
            Err(FormatError::CountMismatch { .. })
        ));
    }

    #[test]
    fn wrong_block_name_detected() {
        let text = "BEGIN Y 1\n1\nEND Y\n";
        let mut sc = Scanner::from_text(text);
        assert!(sc.read_block("X").is_err());
    }

    #[test]
    fn mismatched_end_name_detected() {
        let text = "BEGIN X 1\n1\nEND Y\n";
        let mut sc = Scanner::from_text(text);
        assert!(sc.read_block("X").is_err());
    }

    #[test]
    fn garbage_value_detected() {
        let text = "BEGIN X 2\n1 banana\nEND X\n";
        let mut sc = Scanner::from_text(text);
        match sc.read_block("X") {
            Err(FormatError::Syntax { line, .. }) => assert_eq!(line, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_file_detected() {
        let text = "BEGIN X 10\n1 2 3\n";
        let mut sc = Scanner::from_text(text);
        assert!(sc.read_block("X").is_err());
    }

    #[test]
    fn blank_lines_skipped() {
        let text = "\n\nKEY: v\n\n";
        let mut sc = Scanner::from_text(text);
        assert_eq!(sc.expect_kv("KEY").unwrap(), "v");
    }

    #[test]
    fn line_numbers_account_for_blank_lines() {
        let text = "A: 1\n\n\nB: two\n";
        let mut sc = Scanner::from_text(text);
        sc.expect_kv("A").unwrap();
        match sc.expect_kv_f64("B") {
            Err(FormatError::Syntax { line, .. }) => assert_eq!(line, 4),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn special_values_roundtrip() {
        let values = vec![0.0, -0.0, 1e-300, -1e300, 123.456789];
        let mut s = String::new();
        write_block(&mut s, "B", &values);
        let mut sc = Scanner::from_text(&s);
        let back = sc.read_block("B").unwrap();
        for (a, b) in back.iter().zip(values.iter()) {
            assert!((a - b).abs() <= 1e-9 * b.abs());
        }
    }

    #[test]
    fn open_streams_from_disk_with_bounded_buffer() {
        let dir = std::env::temp_dir().join(format!("arp-numio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("block.txt");
        let values: Vec<f64> = (0..5000).map(|i| i as f64).collect();
        let mut s = String::new();
        write_block(&mut s, "V", &values);
        std::fs::write(&path, &s).unwrap();

        let mut sc = Scanner::open(&path).unwrap();
        assert_eq!(sc.path().unwrap(), path.as_path());
        let back = sc.read_block("V").unwrap();
        assert_eq!(back.len(), 5000);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_file_is_io_error() {
        assert!(matches!(
            Scanner::open(Path::new("/nonexistent/arp/scan")),
            Err(FormatError::Io { .. })
        ));
    }

    #[test]
    fn absurd_block_count_is_a_count_mismatch_not_an_allocation() {
        // Reserving for this count up front would take 8e17 bytes.
        let text = "BEGIN X 99999999999999999\n1\nEND X\n";
        match Scanner::from_text(text).read_block("X") {
            Err(FormatError::CountMismatch {
                expected, found, ..
            }) => assert_eq!((expected, found), (99_999_999_999_999_999, 1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crlf_lines_read_like_lf_lines() {
        let lf = "ARP-X 1.0\nKEY: v\nBEGIN A 3\n1 2\n3\nEND A\n";
        let crlf = lf.replace('\n', "\r\n");
        for text in [lf, crlf.as_str()] {
            let mut sc = Scanner::from_text(text);
            sc.expect_magic("ARP-X").unwrap();
            assert_eq!(sc.expect_kv("KEY").unwrap(), "v");
            assert_eq!(sc.read_block("A").unwrap(), vec![1.0, 2.0, 3.0]);
            assert!(sc.at_end().unwrap());
        }
        let mut sc = Scanner::from_text(&crlf);
        sc.next_line().unwrap();
        assert_eq!(sc.peek().unwrap(), Some("KEY: v"));
    }

    #[test]
    fn errors_in_blocks_name_the_stream_line() {
        // Blank lines (with and without `\r`) still count as lines.
        let text = "BEGIN X 3\r\n\r\n1 2\n\n   \nbanana\nEND X\n";
        match Scanner::from_text(text).read_block("X") {
            Err(FormatError::Syntax { line, message }) => {
                assert_eq!(line, 6);
                assert!(message.contains("banana"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        match Scanner::from_text("BEGIN X 1\n\n1\nEND Y\n").read_block("X") {
            Err(FormatError::Syntax { line, .. }) => assert_eq!(line, 4),
            other => panic!("{other:?}"),
        }
        match Scanner::from_text("BEGIN X 2\n1\n\n").read_block("X") {
            Err(FormatError::Syntax { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains("end of file"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reused_line_buffer_never_leaks_a_previous_line() {
        let long = ["1.0000000000000000e0"; 6].join(" ");
        let text = format!("BEGIN X 8\n{long}\n7\n\n8\nEND X\nK: v\n");
        let mut sc = Scanner::from_text(&text);
        let mut want = vec![1.0; 6];
        want.extend([7.0, 8.0]);
        assert_eq!(sc.read_block("X").unwrap(), want);
        assert_eq!(sc.peek().unwrap(), Some("K: v"));
        assert_eq!(sc.peek().unwrap(), Some("K: v"));
        assert_eq!(sc.next_line().unwrap(), "K: v");
        assert_eq!(sc.peek().unwrap(), None);
    }

    #[test]
    fn non_utf8_bytes_are_a_typed_io_error_wherever_they_sit() {
        fn is_invalid_data(r: Result<impl std::fmt::Debug, FormatError>) -> bool {
            matches!(r, Err(FormatError::Io { source, .. })
                if source.kind() == std::io::ErrorKind::InvalidData)
        }
        let magic: &[u8] = b"\xffARP-X 1.0\n";
        assert!(is_invalid_data(Scanner::new(magic).expect_magic("ARP-X")));
        // A bad line met while only looking ahead for a line number is not
        // skipped: the error waits for the consuming call.
        let header: &[u8] = b"K: \xff\nL: 2\n";
        assert!(is_invalid_data(Scanner::new(header).expect_kv("K")));
        let body: &[u8] = b"BEGIN X 2\n1 \xff\n2 3\nEND X\n";
        assert!(is_invalid_data(Scanner::new(body).read_block("X")));
        assert!(is_invalid_data(Scanner::new(body).skip_to_magic()));
        let mut sc = Scanner::new(body);
        sc.next_line().unwrap();
        assert_eq!(sc.line_number(), 2);
        assert!(is_invalid_data(sc.next_line()));

        // File-backed scanners name the file.
        let dir = std::env::temp_dir().join(format!("arp-numio-utf8-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.txt");
        std::fs::write(&path, body).unwrap();
        match Scanner::open(&path).unwrap().read_block("X") {
            Err(FormatError::Io { path: p, .. }) => assert_eq!(p, path),
            other => panic!("{other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn block_tokens_split_on_ascii_whitespace_only() {
        for (text, count) in [
            ("BEGIN X 5\n1 2\t3\r\n\n 4  5 \nEND X\n", 5),
            ("BEGIN X 0\nEND X\n", 0),
            ("BEGIN X 7\n1 2 3 4 5 6\n7\nEND\n", 7),
            (
                "BEGIN X 2\n1.0000000000000000e0\x0c-2.5000000000000000e-1\nEND X\n",
                2,
            ),
        ] {
            assert_eq!(
                Scanner::from_text(text).read_block("X").unwrap().len(),
                count
            );
        }
        // A no-break space or a vertical tab belongs to the token, canonical
        // or not, which then fails to parse.
        for body in [
            "1\u{a0}2",
            "1\x0b2",
            "1.0000000000000000e0\u{a0}",
            "1.0000000000000000e0\x0b2.0000000000000000e0",
        ] {
            let text = format!("BEGIN X 2\n{body}\nEND X\n");
            match Scanner::from_text(&text).read_block("X") {
                Err(FormatError::Syntax { line: 2, message }) => {
                    assert!(message.starts_with("bad value"), "{message}")
                }
                other => panic!("{body:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn skip_to_magic_stops_at_next_record() {
        let text = "1 2 3\n\n\u{3000}\nEND ACC\n\u{a0}x\n  ARP-V2 1.0\nSTATION: X\n";
        // Every buffer size: lines straddle the buffer end at some of them.
        for cap in 1..=text.len() + 1 {
            let mut sc = Scanner::new(BufReader::with_capacity(cap, text.as_bytes()));
            sc.skip_to_magic().unwrap();
            assert_eq!(sc.line_number(), 6, "capacity {cap}");
            assert_eq!(sc.next_line().unwrap(), "  ARP-V2 1.0");
            // And at EOF it simply stops.
            sc.skip_to_magic().unwrap();
            assert!(sc.at_end().unwrap());
            assert_eq!(sc.line_number(), 8);
        }
        // A magic line led by Unicode whitespace still stops the skip.
        let mut sc = Scanner::from_text("1\n\u{3000}ARP-F 1.0\n");
        sc.skip_to_magic().unwrap();
        assert_eq!(sc.peek().unwrap(), Some("\u{3000}ARP-F 1.0"));
    }

    /// A reader over `inner` that counts the bytes it hands out.
    struct Counting<R> {
        inner: R,
        read: std::rc::Rc<std::cell::Cell<usize>>,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read.set(self.read.get() + n);
            Ok(n)
        }
    }

    #[test]
    fn a_line_longer_than_the_stream_buffer_is_a_syntax_error_not_a_number() {
        type Src = BufReader<Counting<io::Chain<&'static [u8], io::Repeat>>>;
        type Call = fn(&mut Scanner<Src>) -> Result<(), FormatError>;
        // Header, body and skip paths: each prefix leads into one endless
        // line of digits on line 3.
        let cases: [(&'static [u8], Call); 3] = [
            (b"ARP-X 1.0\n\nKEY: 1", |sc| {
                sc.expect_magic("ARP-X")?;
                sc.expect_kv("KEY").map(drop)
            }),
            (b"BEGIN X 1\n\n1", |sc| sc.read_block("X").map(drop)),
            (b"1 2\n\n1", |sc| sc.skip_to_magic()),
        ];
        for (prefix, call) in cases {
            let read = std::rc::Rc::default();
            let src = Counting {
                inner: prefix.chain(io::repeat(b'7')),
                read: std::rc::Rc::clone(&read),
            };
            let mut sc = Scanner::new(BufReader::with_capacity(STREAM_BUF_BYTES, src));
            match call(&mut sc) {
                Err(FormatError::Syntax { line: 3, message }) => {
                    assert_eq!(
                        message,
                        format!("line longer than {STREAM_BUF_BYTES} bytes")
                    )
                }
                other => panic!("{other:?}"),
            }
            // The scanner pulled at most the cap plus one buffer.
            assert!(read.get() <= 2 * STREAM_BUF_BYTES, "{}", read.get());
        }
        // The cap counts the `\n`: a line of exactly STREAM_BUF_BYTES bytes
        // is accepted, one byte more is not.
        let fits = format!("K: {}\n", "v".repeat(STREAM_BUF_BYTES - 4));
        assert_eq!(fits.len(), STREAM_BUF_BYTES);
        assert_eq!(
            Scanner::from_text(&fits).expect_kv("K").unwrap().len(),
            STREAM_BUF_BYTES - 4
        );
        let over = format!("K: {}\n", "v".repeat(STREAM_BUF_BYTES - 3));
        assert!(matches!(
            Scanner::from_text(&over).expect_kv("K"),
            Err(FormatError::Syntax { line: 1, .. })
        ));
    }

    #[test]
    fn write_block_matches_std_formatting_byte_for_byte() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -2.5,
            0.1,
            1e-14,
            2f64.powi(-25),
            1e-300,
            5e-324,
            1e17,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            123.456,
            -9.87654321e-5,
        ];
        let mut got = String::new();
        write_block(&mut got, "B", &values);
        let mut want = format!("BEGIN B {}\n", values.len());
        for chunk in values.chunks(VALUES_PER_LINE) {
            let line: Vec<String> = chunk.iter().map(|v| format!("{v:.16e}")).collect();
            want.push_str(&line.join(" "));
            want.push('\n');
        }
        want.push_str("END B\n");
        assert_eq!(got, want);
        // Header fields carrying one token use the same writer.
        let mut kv = String::new();
        write_kv(&mut kv, "DT", Sci16(0.01));
        assert_eq!(kv, format!("DT: {:.16e}\n", 0.01));
    }
}

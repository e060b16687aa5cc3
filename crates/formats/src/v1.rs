//! `V1` files — uncorrected accelerographic records.
//!
//! Two shapes exist in the pipeline:
//!
//! * `<station>.v1` — the raw file a sensor uploads, holding all three
//!   components ([`V1StationFile`]). Process #3 splits it.
//! * `<station><c>.v1` — one component ([`V1ComponentFile`]), the unit the
//!   filtering processes (#4, #13) consume.
//!
//! Per the paper (§II) a V1 file stores acceleration, velocity, and
//! displacement over the recorded window.
//!
//! Both shapes parse from any [`BufRead`] source via `from_reader`, and
//! [`V1StationReader`] streams a station file one component at a time so a
//! splitter never holds more than one component's traces in memory.

use crate::error::FormatError;
use crate::fsio::write_file;
use crate::numio::{record_text, write_block, write_kv, write_magic, Scanner, Sci16, MAX_RESERVE};
use crate::types::{Component, MotionTriple, RecordHeader};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

pub(crate) const MAGIC_STATION: &str = "ARP-V1S";
pub(crate) const MAGIC_COMPONENT: &str = "ARP-V1C";

/// A raw multi-component station record (`<station>.v1`).
#[derive(Debug, Clone, PartialEq)]
pub struct V1StationFile {
    /// Record metadata.
    pub header: RecordHeader,
    /// Component traces in canonical (L, T, V) order.
    pub components: Vec<(Component, MotionTriple)>,
}

/// A single-component uncorrected record (`<station><c>.v1`).
#[derive(Debug, Clone, PartialEq)]
pub struct V1ComponentFile {
    /// Record metadata.
    pub header: RecordHeader,
    /// Which component this file holds.
    pub component: Component,
    /// The motion traces.
    pub data: MotionTriple,
}

fn write_header(out: &mut String, h: &RecordHeader) {
    write_kv(out, "STATION", &h.station);
    write_kv(out, "EVENT", &h.event_id);
    write_kv(out, "ORIGIN", &h.origin_time);
    write_kv(out, "DT", Sci16(h.dt));
    write_kv(out, "UNITS", &h.units);
    write_kv(out, "INSTRUMENT", &h.instrument);
}

pub(crate) fn read_header<B: BufRead>(sc: &mut Scanner<B>) -> Result<RecordHeader, FormatError> {
    let station = sc.expect_kv("STATION")?;
    let event_id = sc.expect_kv("EVENT")?;
    let origin_time = sc.expect_kv("ORIGIN")?;
    let dt = sc.expect_kv_f64("DT")?;
    let units = sc.expect_kv("UNITS")?;
    let instrument = sc.expect_kv("INSTRUMENT")?;
    let h = RecordHeader {
        station,
        event_id,
        origin_time,
        dt,
        units,
        instrument,
    };
    h.validate()?;
    Ok(h)
}

fn write_triple(out: &mut String, t: &MotionTriple) {
    write_block(out, "ACC", &t.acc);
    write_block(out, "VEL", &t.vel);
    write_block(out, "DISP", &t.disp);
}

fn read_triple<B: BufRead>(sc: &mut Scanner<B>) -> Result<MotionTriple, FormatError> {
    let acc = sc.read_block("ACC")?;
    let vel = sc.read_block("VEL")?;
    let disp = sc.read_block("DISP")?;
    let t = MotionTriple { acc, vel, disp };
    t.validate()?;
    Ok(t)
}

/// Header portion of a station file, parsed before any trace data.
pub(crate) struct V1StationHead {
    pub header: RecordHeader,
    pub count: usize,
}

/// Header portion of a component file, parsed before any trace data.
pub(crate) struct V1ComponentHead {
    pub header: RecordHeader,
    pub component: Component,
}

impl V1StationFile {
    /// Validates header and traces (equal lengths, known components,
    /// no duplicate components).
    pub fn validate(&self) -> Result<(), FormatError> {
        self.header.validate()?;
        if self.components.is_empty() {
            return Err(FormatError::InvalidValue(
                "station file has no components".into(),
            ));
        }
        let mut seen = Vec::new();
        for (c, t) in &self.components {
            if seen.contains(c) {
                return Err(FormatError::InvalidValue(format!(
                    "duplicate component {c}"
                )));
            }
            seen.push(*c);
            t.validate()?;
        }
        Ok(())
    }

    /// Total number of data points across all components and quantities
    /// counted as acceleration samples (the paper's "data points" measure
    /// counts acceleration samples per component).
    pub fn data_points(&self) -> usize {
        self.components.iter().map(|(_, t)| t.len()).sum()
    }

    /// Serializes to the text format.
    pub fn to_text(&self) -> String {
        let mut out = record_text(3 * self.data_points());
        write_magic(&mut out, MAGIC_STATION);
        write_header(&mut out, &self.header);
        write_kv(&mut out, "COMPONENTS", self.components.len());
        for (c, t) in &self.components {
            write_kv(&mut out, "COMPONENT", c.name());
            write_triple(&mut out, t);
        }
        out
    }

    pub(crate) fn scan_head<B: BufRead>(sc: &mut Scanner<B>) -> Result<V1StationHead, FormatError> {
        let header = read_header(sc)?;
        let count = sc.expect_kv_usize("COMPONENTS")?;
        Ok(V1StationHead { header, count })
    }

    pub(crate) fn finish_body<B: BufRead>(
        sc: &mut Scanner<B>,
        head: V1StationHead,
    ) -> Result<Self, FormatError> {
        let mut components = Vec::with_capacity(head.count.min(MAX_RESERVE));
        for _ in 0..head.count {
            let name = sc.expect_kv("COMPONENT")?;
            let comp = Component::from_name(&name)?;
            let triple = read_triple(sc)?;
            components.push((comp, triple));
        }
        let file = V1StationFile {
            header: head.header,
            components,
        };
        file.validate()?;
        Ok(file)
    }

    pub(crate) fn from_scanner<B: BufRead>(sc: &mut Scanner<B>) -> Result<Self, FormatError> {
        sc.expect_magic(MAGIC_STATION)?;
        let head = Self::scan_head(sc)?;
        Self::finish_body(sc, head)
    }

    /// Parses from the text format.
    pub fn from_text(text: &str) -> Result<Self, FormatError> {
        Self::from_scanner(&mut Scanner::from_text(text))
    }

    /// Parses from any buffered reader, consuming one record.
    pub fn from_reader<B: BufRead>(src: B) -> Result<Self, FormatError> {
        Self::from_scanner(&mut Scanner::new(src))
    }

    /// Writes to `path`.
    pub fn write(&self, path: &Path) -> Result<(), FormatError> {
        write_file(path, &self.to_text())
    }

    /// Reads from `path`, streaming with a bounded buffer.
    pub fn read(path: &Path) -> Result<Self, FormatError> {
        let mut sc = Scanner::open(path)?;
        Self::from_scanner(&mut sc).map_err(|e| e.in_file(path))
    }

    /// Splits into per-component files (process #3's transformation).
    pub fn split(&self) -> Vec<V1ComponentFile> {
        self.components
            .iter()
            .map(|(c, t)| V1ComponentFile {
                header: self.header.clone(),
                component: *c,
                data: t.clone(),
            })
            .collect()
    }
}

impl V1ComponentFile {
    /// Validates header and traces.
    pub fn validate(&self) -> Result<(), FormatError> {
        self.header.validate()?;
        self.data.validate()
    }

    /// Serializes to the text format.
    pub fn to_text(&self) -> String {
        let mut out = record_text(3 * self.data.len());
        write_magic(&mut out, MAGIC_COMPONENT);
        write_header(&mut out, &self.header);
        write_kv(&mut out, "COMPONENT", self.component.name());
        write_triple(&mut out, &self.data);
        out
    }

    pub(crate) fn scan_head<B: BufRead>(
        sc: &mut Scanner<B>,
    ) -> Result<V1ComponentHead, FormatError> {
        let header = read_header(sc)?;
        let component = Component::from_name(&sc.expect_kv("COMPONENT")?)?;
        Ok(V1ComponentHead { header, component })
    }

    pub(crate) fn finish_body<B: BufRead>(
        sc: &mut Scanner<B>,
        head: V1ComponentHead,
    ) -> Result<Self, FormatError> {
        let data = read_triple(sc)?;
        let file = V1ComponentFile {
            header: head.header,
            component: head.component,
            data,
        };
        file.validate()?;
        Ok(file)
    }

    pub(crate) fn from_scanner<B: BufRead>(sc: &mut Scanner<B>) -> Result<Self, FormatError> {
        sc.expect_magic(MAGIC_COMPONENT)?;
        let head = Self::scan_head(sc)?;
        Self::finish_body(sc, head)
    }

    /// Parses from the text format.
    pub fn from_text(text: &str) -> Result<Self, FormatError> {
        Self::from_scanner(&mut Scanner::from_text(text))
    }

    /// Parses from any buffered reader, consuming one record.
    pub fn from_reader<B: BufRead>(src: B) -> Result<Self, FormatError> {
        Self::from_scanner(&mut Scanner::new(src))
    }

    /// Writes to `path`.
    pub fn write(&self, path: &Path) -> Result<(), FormatError> {
        write_file(path, &self.to_text())
    }

    /// Reads from `path`, streaming with a bounded buffer.
    pub fn read(path: &Path) -> Result<Self, FormatError> {
        let mut sc = Scanner::open(path)?;
        Self::from_scanner(&mut sc).map_err(|e| e.in_file(path))
    }
}

/// Streams a station file one component at a time.
///
/// The header is parsed eagerly; each call to `next` parses exactly one
/// component's traces, so a splitter holds at most one component in memory
/// (plus the bounded stream buffer) instead of the whole station record.
/// A component whose `ACC` block holds a NaN or an infinity is an
/// [`FormatError::InvalidValue`] naming the component and the sample.
///
/// ```
/// use arp_formats::types::{Component, MotionTriple, RecordHeader};
/// use arp_formats::v1::{V1StationFile, V1StationReader};
///
/// let header = RecordHeader::new("SSLB", "EV1", "2019-07-31T03:04:05Z", 0.01).unwrap();
/// let triple = MotionTriple::from_acceleration(vec![0.0, 1.0, -1.0], 0.01).unwrap();
/// let station = V1StationFile {
///     header,
///     components: vec![(Component::Longitudinal, triple)],
/// };
/// let text = station.to_text();
///
/// let mut reader = V1StationReader::from_reader(text.as_bytes()).unwrap();
/// assert_eq!(reader.header().station, "SSLB");
/// let parts: Vec<_> = reader.map(Result::unwrap).collect();
/// assert_eq!(parts.len(), 1);
/// assert_eq!(parts[0].component, Component::Longitudinal);
/// ```
pub struct V1StationReader<B> {
    sc: Scanner<B>,
    header: RecordHeader,
    remaining: usize,
    seen: Vec<Component>,
    failed: bool,
}

impl V1StationReader<BufReader<File>> {
    /// Opens `path` and parses the station header, ready to stream
    /// components.
    pub fn open(path: &Path) -> Result<Self, FormatError> {
        let sc = Scanner::open(path)?;
        Self::start(sc).map_err(|e| e.in_file(path))
    }
}

impl<B: BufRead> V1StationReader<B> {
    /// Starts streaming from any buffered source.
    pub fn from_reader(src: B) -> Result<Self, FormatError> {
        Self::start(Scanner::new(src))
    }

    fn start(mut sc: Scanner<B>) -> Result<Self, FormatError> {
        sc.expect_magic(MAGIC_STATION)?;
        let head = V1StationFile::scan_head(&mut sc)?;
        if head.count == 0 {
            return Err(FormatError::InvalidValue(
                "station file has no components".into(),
            ));
        }
        Ok(V1StationReader {
            sc,
            header: head.header,
            remaining: head.count,
            seen: Vec::new(),
            failed: false,
        })
    }

    /// The station header shared by all components.
    pub fn header(&self) -> &RecordHeader {
        &self.header
    }

    /// Components not yet streamed.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    fn next_component(&mut self) -> Result<V1ComponentFile, FormatError> {
        let name = self.sc.expect_kv("COMPONENT")?;
        let component = Component::from_name(&name)?;
        if self.seen.contains(&component) {
            return Err(FormatError::InvalidValue(format!(
                "duplicate component {component}"
            )));
        }
        self.seen.push(component);
        let data = read_triple(&mut self.sc)?;
        // Samples enter the pipeline here; a non-finite one would spread
        // through every filter and spectrum downstream.
        if let Some(i) = data.acc.iter().position(|v| !v.is_finite()) {
            return Err(FormatError::InvalidValue(format!(
                "non-finite {component} ACC sample {} at index {i}",
                data.acc[i]
            )));
        }
        let file = V1ComponentFile {
            header: self.header.clone(),
            component,
            data,
        };
        file.validate()?;
        Ok(file)
    }
}

impl<B: BufRead> Iterator for V1StationReader<B> {
    type Item = Result<V1ComponentFile, FormatError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let result = self.next_component().map_err(|e| {
            self.failed = true;
            match self.sc.path() {
                Some(p) => e.in_file(p),
                None => e,
            }
        });
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> RecordHeader {
        RecordHeader::new("SSLB", "ES-2019-0731", "2019-07-31T03:04:05Z", 0.01).unwrap()
    }

    fn sample_triple(n: usize, seed: f64) -> MotionTriple {
        let acc: Vec<f64> = (0..n).map(|i| ((i as f64 + seed) * 0.37).sin()).collect();
        MotionTriple::from_acceleration(acc, 0.01).unwrap()
    }

    #[test]
    fn station_file_roundtrip() {
        let file = V1StationFile {
            header: sample_header(),
            components: Component::ALL
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, sample_triple(50, i as f64)))
                .collect(),
        };
        let text = file.to_text();
        let back = V1StationFile::from_text(&text).unwrap();
        assert_eq!(file.header, back.header);
        assert_eq!(file.components.len(), back.components.len());
        for ((c1, t1), (c2, t2)) in file.components.iter().zip(&back.components) {
            assert_eq!(c1, c2);
            for (a, b) in t1.acc.iter().zip(&t2.acc) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn component_file_roundtrip_via_disk() {
        let dir = std::env::temp_dir().join(format!("arp-v1-{}", std::process::id()));
        let file = V1ComponentFile {
            header: sample_header(),
            component: Component::Transversal,
            data: sample_triple(33, 0.0),
        };
        let path = dir.join("SSLBt.v1");
        file.write(&path).unwrap();
        let back = V1ComponentFile::read(&path).unwrap();
        assert_eq!(back.component, Component::Transversal);
        assert_eq!(back.data.len(), 33);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn split_produces_per_component_files() {
        let file = V1StationFile {
            header: sample_header(),
            components: vec![
                (Component::Longitudinal, sample_triple(10, 0.0)),
                (Component::Vertical, sample_triple(10, 1.0)),
            ],
        };
        let parts = file.split();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].component, Component::Longitudinal);
        assert_eq!(parts[1].component, Component::Vertical);
        assert_eq!(parts[0].header, file.header);
    }

    #[test]
    fn station_reader_streams_same_parts_as_split() {
        let file = V1StationFile {
            header: sample_header(),
            components: Component::ALL
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, sample_triple(40, i as f64)))
                .collect(),
        };
        let text = file.to_text();
        let reader = V1StationReader::from_reader(text.as_bytes()).unwrap();
        let streamed: Vec<_> = reader.map(Result::unwrap).collect();
        assert_eq!(streamed, file.split());
    }

    #[test]
    fn station_reader_from_disk() {
        let dir = std::env::temp_dir().join(format!("arp-v1r-{}", std::process::id()));
        let file = V1StationFile {
            header: sample_header(),
            components: vec![(Component::Vertical, sample_triple(25, 0.0))],
        };
        let path = dir.join("SSLB.v1");
        file.write(&path).unwrap();
        let mut reader = V1StationReader::open(&path).unwrap();
        assert_eq!(reader.remaining(), 1);
        let part = reader.next().unwrap().unwrap();
        assert_eq!(part.component, Component::Vertical);
        assert!(reader.next().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn station_reader_rejects_duplicates_and_stops() {
        let file = V1StationFile {
            header: sample_header(),
            components: vec![(Component::Vertical, sample_triple(5, 0.0))],
        };
        let text = file.to_text().replace("COMPONENTS: 1", "COMPONENTS: 2");
        // Duplicate the whole component section.
        let idx = text.find("COMPONENT: VERTICAL").unwrap();
        let dup = format!("{}{}", text, &text[idx..]);
        let mut reader = V1StationReader::from_reader(dup.as_bytes()).unwrap();
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().unwrap().is_err());
        // After an error, the iterator fuses.
        assert!(reader.next().is_none());
    }

    #[test]
    fn station_reader_rejects_empty_station() {
        let text = "ARP-V1S 1.0\nSTATION: X\nEVENT: E\nORIGIN: t\nDT: 0.01\nUNITS: cm/s2\nINSTRUMENT: i\nCOMPONENTS: 0\n";
        assert!(V1StationReader::from_reader(text.as_bytes()).is_err());
    }

    #[test]
    fn data_points_counts_acc_samples() {
        let file = V1StationFile {
            header: sample_header(),
            components: vec![
                (Component::Longitudinal, sample_triple(10, 0.0)),
                (Component::Transversal, sample_triple(20, 0.0)),
            ],
        };
        assert_eq!(file.data_points(), 30);
    }

    #[test]
    fn rejects_duplicate_components() {
        let file = V1StationFile {
            header: sample_header(),
            components: vec![
                (Component::Vertical, sample_triple(10, 0.0)),
                (Component::Vertical, sample_triple(10, 0.0)),
            ],
        };
        assert!(file.validate().is_err());
    }

    #[test]
    fn rejects_empty_station_file() {
        let file = V1StationFile {
            header: sample_header(),
            components: vec![],
        };
        assert!(file.validate().is_err());
    }

    #[test]
    fn rejects_mismatched_trace_lengths() {
        let mut t = sample_triple(10, 0.0);
        t.vel.pop();
        let file = V1ComponentFile {
            header: sample_header(),
            component: Component::Longitudinal,
            data: t,
        };
        assert!(file.validate().is_err());
        let text = file.to_text();
        assert!(V1ComponentFile::from_text(&text).is_err());
    }

    #[test]
    fn corrupt_text_rejected() {
        assert!(V1ComponentFile::from_text("garbage").is_err());
        assert!(V1StationFile::from_text("ARP-V1S 1.0\nSTATION: X\n").is_err());
        // wrong magic for the type
        let file = V1ComponentFile {
            header: sample_header(),
            component: Component::Longitudinal,
            data: sample_triple(5, 0.0),
        };
        assert!(V1StationFile::from_text(&file.to_text()).is_err());
    }

    #[test]
    fn truncated_block_rejected() {
        let file = V1ComponentFile {
            header: sample_header(),
            component: Component::Longitudinal,
            data: sample_triple(20, 0.0),
        };
        let text = file.to_text();
        let cut = &text[..text.len() / 2];
        assert!(V1ComponentFile::from_text(cut).is_err());
    }

    #[test]
    fn read_error_names_file_and_line() {
        let dir = std::env::temp_dir().join(format!("arp-v1e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.v1");
        std::fs::write(
            &path,
            "ARP-V1C 1.0\nSTATION: OK1\nEVENT: E\nORIGIN: t\nDT: zero\n",
        )
        .unwrap();
        let err = V1ComponentFile::read(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bad.v1"), "{msg}");
        assert!(msg.contains("line 5"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absurd_component_count_is_an_error_not_an_allocation() {
        let file = V1StationFile {
            header: sample_header(),
            components: vec![(Component::Vertical, sample_triple(8, 0.0))],
        };
        let text = file
            .to_text()
            .replace("COMPONENTS: 1\n", "COMPONENTS: 99999999999999999\n");
        assert!(matches!(
            V1StationFile::from_text(&text),
            Err(FormatError::Syntax { .. })
        ));
    }
}

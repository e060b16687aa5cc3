//! Pipeline metadata files.
//!
//! Besides the record files, the pipeline moves state between processes via
//! small metadata files (see the inputs/outputs columns of Fig. 5):
//!
//! * **flag files** — processes #0 and #11 each write ten flag files;
//! * **file lists** — `<s><c>.v1list`, `acc-graph`, `fourier`, `response`,
//!   `fourier-graph`, `response-graph` are all lists of file names that tell
//!   downstream processes what to consume ([`FileList`]);
//! * **filter params** — the default band plus, after process #10, the
//!   per-station FSL/FPL corners ([`FilterParams`]);
//! * **max values** — peak values appended by the correction processes
//!   ([`MaxValues`]).

use crate::error::FormatError;
use crate::fsio::write_file;
use crate::numio::{write_kv, write_magic, Scanner, MAX_RESERVE};
use crate::types::Component;
use arp_dsp::fir::BandPass;
use std::io::BufRead;
use std::path::Path;

/// A flag file (`flag<k>.txt`): one boolean used by the legacy control flow.
///
/// ```
/// use arp_formats::FlagFile;
///
/// let f = FlagFile { index: 3, value: true };
/// let back = FlagFile::from_text(&f.to_text()).unwrap();
/// assert_eq!(back, f);
/// assert_eq!(FlagFile::file_name(3), "flag3.txt");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlagFile {
    /// Flag index (0..10 in the original pipeline).
    pub index: usize,
    /// Flag value.
    pub value: bool,
}

impl FlagFile {
    const MAGIC: &'static str = "ARP-FLAG";

    /// Serializes to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        write_magic(&mut out, Self::MAGIC);
        write_kv(&mut out, "INDEX", self.index);
        write_kv(&mut out, "VALUE", if self.value { 1 } else { 0 });
        out
    }

    fn from_scanner<B: BufRead>(sc: &mut Scanner<B>) -> Result<Self, FormatError> {
        sc.expect_magic(Self::MAGIC)?;
        let index = sc.expect_kv_usize("INDEX")?;
        let raw = sc.expect_kv_usize("VALUE")?;
        if raw > 1 {
            return Err(FormatError::InvalidValue(format!("flag value {raw}")));
        }
        Ok(FlagFile {
            index,
            value: raw == 1,
        })
    }

    /// Parses from the text format.
    pub fn from_text(text: &str) -> Result<Self, FormatError> {
        Self::from_scanner(&mut Scanner::from_text(text))
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

    /// Conventional file name (`flag<k>.txt`).
    pub fn file_name(index: usize) -> String {
        format!("flag{index}.txt")
    }
}

/// A named list of file names, used by all the "Initialize metadata"
/// processes (#1, #5, #8, #17) and consumed by the stage drivers.
///
/// ```
/// use arp_formats::FileList;
///
/// let list = FileList::new("v1list", vec!["SSLB.v1".into(), "QCAL.v1".into()]).unwrap();
/// let back = FileList::from_text(&list.to_text()).unwrap();
/// assert_eq!(back.entries.len(), 2);
/// // Entries with newlines would corrupt the line-oriented format.
/// assert!(FileList::new("bad", vec!["a\nb".into()]).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileList {
    /// What the list describes (e.g. `acc-graph`, `fourier`, `v1list`).
    pub kind: String,
    /// File names, one per entry, in processing order.
    pub entries: Vec<String>,
}

impl FileList {
    const MAGIC: &'static str = "ARP-LIST";

    /// Creates a list, validating that entries contain no newlines.
    pub fn new(kind: impl Into<String>, entries: Vec<String>) -> Result<Self, FormatError> {
        let list = FileList {
            kind: kind.into(),
            entries,
        };
        list.validate()?;
        Ok(list)
    }

    /// Checks entries are single-line and non-empty.
    pub fn validate(&self) -> Result<(), FormatError> {
        if self.kind.is_empty() || self.kind.contains(|c: char| c.is_whitespace()) {
            return Err(FormatError::InvalidValue(format!(
                "bad list kind {:?}",
                self.kind
            )));
        }
        for e in &self.entries {
            if e.is_empty() || e.contains('\n') {
                return Err(FormatError::InvalidValue(format!("bad list entry {e:?}")));
            }
        }
        Ok(())
    }

    /// Serializes to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        write_magic(&mut out, Self::MAGIC);
        write_kv(&mut out, "KIND", &self.kind);
        write_kv(&mut out, "COUNT", self.entries.len());
        for e in &self.entries {
            out.push_str(e);
            out.push('\n');
        }
        out
    }

    fn from_scanner<B: BufRead>(sc: &mut Scanner<B>) -> Result<Self, FormatError> {
        sc.expect_magic(Self::MAGIC)?;
        let kind = sc.expect_kv("KIND")?;
        let count = sc.expect_kv_usize("COUNT")?;
        let mut entries = Vec::with_capacity(count.min(MAX_RESERVE));
        for _ in 0..count {
            entries.push(sc.next_line()?.trim().to_string());
        }
        let list = FileList { kind, entries };
        list.validate()?;
        Ok(list)
    }

    /// Parses from the text format.
    pub fn from_text(text: &str) -> Result<Self, FormatError> {
        Self::from_scanner(&mut Scanner::from_text(text))
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

/// Per-station low-side corners recovered by process #10.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StationCorners {
    /// Station code.
    pub station: String,
    /// Per-component `(fsl, fpl)` corners in component order L, T, V.
    pub corners: Vec<(f64, f64)>,
}

/// The filter-parameters file: the default band plus any per-station
/// corners accumulated by the Fourier analysis.
///
/// ```
/// use arp_dsp::fir::BandPass;
/// use arp_formats::{FilterParams, StationCorners};
///
/// let mut fp = FilterParams::new(BandPass::DEFAULT);
/// fp.stations.push(StationCorners {
///     station: "SSLB".into(),
///     corners: vec![(0.08, 0.16); 3],
/// });
/// let back = FilterParams::from_text(&fp.to_text()).unwrap();
/// assert_eq!(back.corners_for("SSLB").unwrap().corners.len(), 3);
/// assert!(back.corners_for("XXXX").is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FilterParams {
    /// Default band used by process #4.
    pub default_band: BandPass,
    /// Per-station corners appended by process #10 (empty before it runs).
    pub stations: Vec<StationCorners>,
}

impl FilterParams {
    const MAGIC: &'static str = "ARP-FPARAMS";

    /// The canonical file name.
    pub const FILE_NAME: &'static str = "filter-params.txt";

    /// Creates the initial file with only the default band.
    pub fn new(default_band: BandPass) -> Self {
        FilterParams {
            default_band,
            stations: Vec::new(),
        }
    }

    /// Finds the corners for a station, if recorded.
    pub fn corners_for(&self, station: &str) -> Option<&StationCorners> {
        self.stations.iter().find(|s| s.station == station)
    }

    /// Serializes to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        write_magic(&mut out, Self::MAGIC);
        let b = &self.default_band;
        write_kv(
            &mut out,
            "DEFAULT",
            format!("{:.6} {:.6} {:.6} {:.6}", b.fsl, b.fpl, b.fph, b.fsh),
        );
        write_kv(&mut out, "STATIONS", self.stations.len());
        for s in &self.stations {
            let mut line = s.station.clone();
            for (fsl, fpl) in &s.corners {
                line.push_str(&format!(" {fsl:.6} {fpl:.6}"));
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    fn from_scanner<B: BufRead>(sc: &mut Scanner<B>) -> Result<Self, FormatError> {
        sc.expect_magic(Self::MAGIC)?;
        let line = sc.expect_kv("DEFAULT")?;
        let vals: Vec<f64> = line
            .split_whitespace()
            .map(|t| t.parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|e| FormatError::InvalidValue(format!("bad DEFAULT band: {e}")))?;
        if vals.len() != 4 {
            return Err(FormatError::InvalidValue(
                "DEFAULT band needs 4 values".into(),
            ));
        }
        let default_band = BandPass::new(vals[0], vals[1], vals[2], vals[3])
            .map_err(|e| FormatError::InvalidValue(e.to_string()))?;
        let count = sc.expect_kv_usize("STATIONS")?;
        let mut stations = Vec::with_capacity(count.min(MAX_RESERVE));
        for _ in 0..count {
            let ln = sc.line_number();
            let line = sc.next_line()?;
            let mut parts = line.split_whitespace();
            let station = parts
                .next()
                .ok_or_else(|| FormatError::syntax(ln, "empty station line"))?
                .to_string();
            let nums: Vec<f64> = parts
                .map(|t| t.parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|e| FormatError::syntax(ln, format!("bad corner: {e}")))?;
            if nums.is_empty() || !nums.len().is_multiple_of(2) {
                return Err(FormatError::syntax(
                    ln,
                    format!("station {station} needs an even, nonzero number of corner values"),
                ));
            }
            let corners = nums.chunks(2).map(|c| (c[0], c[1])).collect();
            stations.push(StationCorners { station, corners });
        }
        Ok(FilterParams {
            default_band,
            stations,
        })
    }

    /// Parses from the text format.
    pub fn from_text(text: &str) -> Result<Self, FormatError> {
        Self::from_scanner(&mut Scanner::from_text(text))
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

/// One peak-value entry in the max-values file.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MaxEntry {
    /// Station code.
    pub station: String,
    /// Component.
    pub component: Component,
    /// Peak ground acceleration.
    pub pga: f64,
    /// Peak ground velocity.
    pub pgv: f64,
    /// Peak ground displacement.
    pub pgd: f64,
}

/// The max-values file accumulated by the correction processes (#4, #13).
///
/// ```
/// use arp_formats::{Component, MaxEntry, MaxValues};
///
/// let mut mv = MaxValues::default();
/// mv.entries.push(MaxEntry {
///     station: "SSLB".into(),
///     component: Component::Vertical,
///     pga: 41.5, pgv: 3.2, pgd: 0.8,
/// });
/// let back = MaxValues::from_text(&mv.to_text()).unwrap();
/// assert_eq!(back.entries[0].station, "SSLB");
/// assert_eq!(MaxValues::FILE_NAME, "max-values.txt");
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MaxValues {
    /// Entries in processing order.
    pub entries: Vec<MaxEntry>,
}

impl MaxValues {
    const MAGIC: &'static str = "ARP-MAXVALS";

    /// The canonical file name.
    pub const FILE_NAME: &'static str = "max-values.txt";

    /// Serializes to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        write_magic(&mut out, Self::MAGIC);
        write_kv(&mut out, "COUNT", self.entries.len());
        for e in &self.entries {
            out.push_str(&format!(
                "{} {} {:.9e} {:.9e} {:.9e}\n",
                e.station,
                e.component.code(),
                e.pga,
                e.pgv,
                e.pgd
            ));
        }
        out
    }

    fn from_scanner<B: BufRead>(sc: &mut Scanner<B>) -> Result<Self, FormatError> {
        sc.expect_magic(Self::MAGIC)?;
        let count = sc.expect_kv_usize("COUNT")?;
        let mut entries = Vec::with_capacity(count.min(MAX_RESERVE));
        for _ in 0..count {
            let ln = sc.line_number();
            let line = sc.next_line()?;
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != 5 {
                return Err(FormatError::syntax(
                    ln,
                    format!("expected `station comp pga pgv pgd`, got {line:?}"),
                ));
            }
            let component = Component::from_code(parts[1].chars().next().unwrap())?;
            let parse = |s: &str| {
                s.parse::<f64>()
                    .map_err(|e| FormatError::syntax(ln, format!("bad value {s:?}: {e}")))
            };
            entries.push(MaxEntry {
                station: parts[0].to_string(),
                component,
                pga: parse(parts[2])?,
                pgv: parse(parts[3])?,
                pgd: parse(parts[4])?,
            });
        }
        Ok(MaxValues { entries })
    }

    /// Parses from the text format.
    pub fn from_text(text: &str) -> Result<Self, FormatError> {
        Self::from_scanner(&mut Scanner::from_text(text))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_roundtrip() {
        for value in [true, false] {
            let f = FlagFile { index: 7, value };
            let back = FlagFile::from_text(&f.to_text()).unwrap();
            assert_eq!(back, f);
        }
        assert_eq!(FlagFile::file_name(3), "flag3.txt");
    }

    #[test]
    fn flag_rejects_out_of_range_value() {
        let text = "ARP-FLAG 1.0\nINDEX: 0\nVALUE: 2\n";
        assert!(FlagFile::from_text(text).is_err());
    }

    #[test]
    fn file_list_roundtrip() {
        let list = FileList::new(
            "acc-graph",
            vec!["SSLBl.v2".into(), "SSLBt.v2".into(), "SSLBv.v2".into()],
        )
        .unwrap();
        let back = FileList::from_text(&list.to_text()).unwrap();
        assert_eq!(back, list);
    }

    #[test]
    fn empty_file_list_roundtrip() {
        let list = FileList::new("fourier", vec![]).unwrap();
        let back = FileList::from_text(&list.to_text()).unwrap();
        assert!(back.entries.is_empty());
    }

    #[test]
    fn file_list_validation() {
        assert!(FileList::new("", vec![]).is_err());
        assert!(FileList::new("has space", vec![]).is_err());
        assert!(FileList::new("ok", vec!["".into()]).is_err());
    }

    #[test]
    fn filter_params_roundtrip() {
        let mut fp = FilterParams::new(BandPass::DEFAULT);
        fp.stations.push(StationCorners {
            station: "SSLB".into(),
            corners: vec![(0.1, 0.2), (0.15, 0.3), (0.12, 0.25)],
        });
        fp.stations.push(StationCorners {
            station: "QCAL".into(),
            corners: vec![(0.05, 0.1)],
        });
        let back = FilterParams::from_text(&fp.to_text()).unwrap();
        assert_eq!(back.stations.len(), 2);
        assert_eq!(back.corners_for("QCAL").unwrap().corners.len(), 1);
        assert!(back.corners_for("NOPE").is_none());
        assert!((back.stations[0].corners[1].1 - 0.3).abs() < 1e-9);
    }

    #[test]
    fn filter_params_bad_lines() {
        let text = "ARP-FPARAMS 1.0\nDEFAULT: 0.05 0.1 25 27\nSTATIONS: 1\nSSLB 0.1\n";
        assert!(FilterParams::from_text(text).is_err()); // odd corner count
        let text2 = "ARP-FPARAMS 1.0\nDEFAULT: 0.05 0.1\nSTATIONS: 0\n";
        assert!(FilterParams::from_text(text2).is_err()); // short band
    }

    #[test]
    fn max_values_roundtrip() {
        let mv = MaxValues {
            entries: vec![
                MaxEntry {
                    station: "SSLB".into(),
                    component: Component::Longitudinal,
                    pga: 12.5,
                    pgv: 1.25,
                    pgd: 0.3,
                },
                MaxEntry {
                    station: "QCAL".into(),
                    component: Component::Vertical,
                    pga: 5.0,
                    pgv: 0.7,
                    pgd: 0.1,
                },
            ],
        };
        let back = MaxValues::from_text(&mv.to_text()).unwrap();
        assert_eq!(back.entries.len(), 2);
        assert_eq!(back.entries[1].component, Component::Vertical);
        assert!((back.entries[0].pga - 12.5).abs() < 1e-9);
    }

    #[test]
    fn max_values_bad_line() {
        let text = "ARP-MAXVALS 1.0\nCOUNT: 1\nSSLB l 1.0 2.0\n";
        assert!(MaxValues::from_text(text).is_err());
    }

    #[test]
    fn disk_roundtrips() {
        let dir = std::env::temp_dir().join(format!("arp-meta-{}", std::process::id()));
        let list = FileList::new("response", vec!["a.r".into()]).unwrap();
        let p = dir.join("response.txt");
        list.write(&p).unwrap();
        assert_eq!(FileList::read(&p).unwrap(), list);

        let fp = FilterParams::new(BandPass::DEFAULT);
        let p2 = dir.join(FilterParams::FILE_NAME);
        fp.write(&p2).unwrap();
        assert_eq!(FilterParams::read(&p2).unwrap().stations.len(), 0);

        let mv = MaxValues::default();
        let p3 = dir.join(MaxValues::FILE_NAME);
        mv.write(&p3).unwrap();
        assert!(MaxValues::read(&p3).unwrap().entries.is_empty());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    // A header count must not size memory on its own: the body runs out
    // first and the read ends in a syntax error.
    const ABSURD: &str = "99999999999999999";

    #[test]
    fn file_list_absurd_count_is_an_error_not_an_allocation() {
        let text = format!("ARP-LIST 1.0\nKIND: fourier\nCOUNT: {ABSURD}\na\n");
        assert!(matches!(
            FileList::from_text(&text),
            Err(FormatError::Syntax { line: 5, .. })
        ));
    }

    #[test]
    fn filter_params_absurd_station_count_is_an_error_not_an_allocation() {
        let text =
            format!("ARP-FPARAMS 1.0\nDEFAULT: 0.05 0.1 25 27\nSTATIONS: {ABSURD}\nSSLB 0.1 0.2\n");
        assert!(matches!(
            FilterParams::from_text(&text),
            Err(FormatError::Syntax { line: 5, .. })
        ));
    }

    #[test]
    fn max_values_absurd_count_is_an_error_not_an_allocation() {
        let text = format!("ARP-MAXVALS 1.0\nCOUNT: {ABSURD}\n");
        assert!(matches!(
            MaxValues::from_text(&text),
            Err(FormatError::Syntax { line: 3, .. })
        ));
    }
}

//! Event catalog — the observatory's monthly bulletin format.
//!
//! The Salvadoran observatory publishes monthly seismic-activity bulletins
//! (the paper cites the December 2023 report: 241 events). A catalog lists
//! events with their origin times, magnitudes, and the stations that
//! recorded them; the batch driver uses it to associate input directories
//! with event metadata, and the summary exporter embeds its rows.

use crate::error::FormatError;
use crate::fsio::write_file;
use crate::numio::{write_kv, write_magic, Scanner, MAX_RESERVE};
use std::io::BufRead;
use std::path::Path;

/// One cataloged seismic event.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CatalogEntry {
    /// Event identifier (unique within the catalog).
    pub id: String,
    /// Origin time, ISO-8601 text.
    pub origin_time: String,
    /// Moment magnitude.
    pub magnitude: f64,
    /// Epicenter latitude (degrees).
    pub latitude: f64,
    /// Epicenter longitude (degrees).
    pub longitude: f64,
    /// Hypocentral depth (km).
    pub depth_km: f64,
    /// Station codes that recorded the event.
    pub stations: Vec<String>,
}

impl CatalogEntry {
    /// Validates ranges: magnitude, coordinates, depth, station codes.
    pub fn validate(&self) -> Result<(), FormatError> {
        if self.id.is_empty() || self.id.contains(char::is_whitespace) {
            return Err(FormatError::InvalidValue(format!(
                "bad event id {:?}",
                self.id
            )));
        }
        if !(-2.0..=10.0).contains(&self.magnitude) {
            return Err(FormatError::InvalidValue(format!(
                "magnitude {} out of range",
                self.magnitude
            )));
        }
        if !(-90.0..=90.0).contains(&self.latitude) || !(-180.0..=180.0).contains(&self.longitude) {
            return Err(FormatError::InvalidValue(format!(
                "bad epicenter ({}, {})",
                self.latitude, self.longitude
            )));
        }
        if !(0.0..=700.0).contains(&self.depth_km) {
            return Err(FormatError::InvalidValue(format!(
                "depth {} km out of range",
                self.depth_km
            )));
        }
        for s in &self.stations {
            if s.is_empty() || !s.chars().all(|c| c.is_ascii_alphanumeric()) {
                return Err(FormatError::InvalidValue(format!("bad station code {s:?}")));
            }
        }
        Ok(())
    }
}

/// A catalog: an ordered list of events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Catalog {
    /// Events in catalog order (typically chronological).
    pub entries: Vec<CatalogEntry>,
}

impl Catalog {
    const MAGIC: &'static str = "ARP-CATALOG";

    /// Looks up an event by id.
    pub fn find(&self, id: &str) -> Option<&CatalogEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Events with magnitude at or above the threshold.
    pub fn at_least_magnitude(&self, m: f64) -> Vec<&CatalogEntry> {
        self.entries.iter().filter(|e| e.magnitude >= m).collect()
    }

    /// Validates every entry and id uniqueness.
    pub fn validate(&self) -> Result<(), FormatError> {
        let mut ids = std::collections::BTreeSet::new();
        for e in &self.entries {
            e.validate()?;
            if !ids.insert(&e.id) {
                return Err(FormatError::InvalidValue(format!(
                    "duplicate event id {:?}",
                    e.id
                )));
            }
        }
        Ok(())
    }

    /// Serializes to the text format: one `EVENT:` line per event followed
    /// by its station list.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        write_magic(&mut out, Self::MAGIC);
        write_kv(&mut out, "COUNT", self.entries.len());
        for e in &self.entries {
            out.push_str(&format!(
                "EVENT: {} {} {:.2} {:.5} {:.5} {:.1}\n",
                e.id, e.origin_time, e.magnitude, e.latitude, e.longitude, e.depth_km
            ));
            out.push_str(&format!("STATIONS: {}\n", e.stations.join(" ")));
        }
        out
    }

    fn from_scanner<B: BufRead>(sc: &mut Scanner<B>) -> Result<Self, FormatError> {
        sc.expect_magic(Self::MAGIC)?;
        let count = sc.expect_kv_usize("COUNT")?;
        let mut entries = Vec::with_capacity(count.min(MAX_RESERVE));
        for _ in 0..count {
            let ln = sc.line_number();
            let line = sc.expect_kv("EVENT")?;
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != 6 {
                return Err(FormatError::syntax(
                    ln,
                    format!("EVENT needs `id origin mag lat lon depth`, got {line:?}"),
                ));
            }
            let num = |s: &str, what: &str| -> Result<f64, FormatError> {
                s.parse()
                    .map_err(|e| FormatError::syntax(ln, format!("bad {what} {s:?}: {e}")))
            };
            let stations_line = sc.expect_kv("STATIONS")?;
            let stations = stations_line
                .split_whitespace()
                .map(str::to_string)
                .collect();
            entries.push(CatalogEntry {
                id: parts[0].to_string(),
                origin_time: parts[1].to_string(),
                magnitude: num(parts[2], "magnitude")?,
                latitude: num(parts[3], "latitude")?,
                longitude: num(parts[4], "longitude")?,
                depth_km: num(parts[5], "depth")?,
                stations,
            });
        }
        let catalog = Catalog { entries };
        catalog.validate()?;
        Ok(catalog)
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

    fn entry(id: &str, mag: f64) -> CatalogEntry {
        CatalogEntry {
            id: id.to_string(),
            origin_time: "2019-07-31T03:04:05Z".into(),
            magnitude: mag,
            latitude: 13.7,
            longitude: -89.2,
            depth_km: 12.0,
            stations: vec!["SSLB".into(), "QCAL".into()],
        }
    }

    #[test]
    fn roundtrip() {
        let cat = Catalog {
            entries: vec![entry("EV1", 4.8), entry("EV2", 6.2)],
        };
        let back = Catalog::from_text(&cat.to_text()).unwrap();
        assert_eq!(back.entries.len(), 2);
        assert_eq!(back.find("EV2").unwrap().magnitude, 6.2);
        assert!(back.find("NOPE").is_none());
        assert_eq!(back.entries[0].stations, vec!["SSLB", "QCAL"]);
    }

    #[test]
    fn magnitude_filter() {
        let cat = Catalog {
            entries: vec![entry("A", 3.0), entry("B", 5.5), entry("C", 6.0)],
        };
        let big = cat.at_least_magnitude(5.0);
        assert_eq!(big.len(), 2);
        assert_eq!(big[0].id, "B");
    }

    #[test]
    fn validation_catches_bad_entries() {
        let mut bad = entry("X", 4.0);
        bad.magnitude = 12.0;
        assert!(bad.validate().is_err());
        let mut bad = entry("X", 4.0);
        bad.latitude = 91.0;
        assert!(bad.validate().is_err());
        let mut bad = entry("X", 4.0);
        bad.depth_km = -1.0;
        assert!(bad.validate().is_err());
        let mut bad = entry("X", 4.0);
        bad.stations = vec!["has space".into()];
        assert!(bad.validate().is_err());
        let mut bad = entry("X", 4.0);
        bad.id = "two words".into();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn duplicate_ids_rejected() {
        let cat = Catalog {
            entries: vec![entry("SAME", 4.0), entry("SAME", 5.0)],
        };
        assert!(cat.validate().is_err());
        assert!(Catalog::from_text(&cat.to_text()).is_err());
    }

    #[test]
    fn empty_station_list_roundtrips() {
        let mut e = entry("LONE", 4.0);
        e.stations.clear();
        let cat = Catalog { entries: vec![e] };
        let back = Catalog::from_text(&cat.to_text()).unwrap();
        assert!(back.entries[0].stations.is_empty());
    }

    #[test]
    fn disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("arp-cat-{}", std::process::id()));
        let cat = Catalog {
            entries: vec![entry("EV1", 4.8)],
        };
        let p = dir.join("catalog.txt");
        cat.write(&p).unwrap();
        assert_eq!(Catalog::read(&p).unwrap(), cat);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_lines_rejected() {
        let text = "ARP-CATALOG 1.0\nCOUNT: 1\nEVENT: X only three parts\nSTATIONS:\n";
        assert!(Catalog::from_text(text).is_err());
        let text2 = "ARP-CATALOG 1.0\nCOUNT: 1\nEVENT: X t notanumber 1 2 3\nSTATIONS:\n";
        assert!(Catalog::from_text(text2).is_err());
    }

    #[test]
    fn absurd_event_count_is_an_error_not_an_allocation() {
        let text = "ARP-CATALOG 1.0\nCOUNT: 99999999999999999\n";
        assert!(matches!(
            Catalog::from_text(text),
            Err(FormatError::Syntax { .. })
        ));
    }
}

//! `V2` files — corrected records (`<station><c>.v2`).
//!
//! Produced first by process #4 (default band) and finally by process #13
//! (event-specific band). A V2 file records which band-pass corners produced
//! it, the peak values ("max values" in the paper's data flow), and the
//! corrected acceleration/velocity/displacement traces.
//!
//! The peaks live in the header, ahead of the trace blocks — so a
//! [`Filter::PgaRange`](crate::filter::Filter) scan can accept or reject a
//! V2 record without parsing a single trace value.

use crate::error::FormatError;
use crate::fsio::write_file;
use crate::numio::{record_text, write_block, write_kv, write_magic, Scanner, Sci16};
use crate::types::{Component, MotionTriple, RecordHeader};
use arp_dsp::fir::BandPass;
use arp_dsp::peaks::PeakValues;
use std::io::BufRead;
use std::path::Path;

pub(crate) const MAGIC: &str = "ARP-V2";

/// A corrected single-component record.
#[derive(Debug, Clone, PartialEq)]
pub struct V2File {
    /// Record metadata.
    pub header: RecordHeader,
    /// Which component this file holds.
    pub component: Component,
    /// Band-pass corners that produced the correction.
    pub band: BandPass,
    /// Peak values of the corrected traces.
    pub peaks: PeakValues,
    /// Corrected motion traces.
    pub data: MotionTriple,
}

/// Header portion of a V2 file: everything before the trace blocks.
pub(crate) struct V2Head {
    pub header: RecordHeader,
    pub component: Component,
    pub band: BandPass,
    pub peaks: PeakValues,
}

impl V2File {
    /// Validates header, band, and traces.
    pub fn validate(&self) -> Result<(), FormatError> {
        self.header.validate()?;
        self.band
            .validate()
            .map_err(|e| FormatError::InvalidValue(e.to_string()))?;
        self.data.validate()
    }

    /// Serializes to the text format.
    pub fn to_text(&self) -> String {
        let mut out = record_text(3 * self.data.len());
        write_magic(&mut out, MAGIC);
        write_kv(&mut out, "STATION", &self.header.station);
        write_kv(&mut out, "EVENT", &self.header.event_id);
        write_kv(&mut out, "ORIGIN", &self.header.origin_time);
        write_kv(&mut out, "DT", Sci16(self.header.dt));
        write_kv(&mut out, "UNITS", &self.header.units);
        write_kv(&mut out, "INSTRUMENT", &self.header.instrument);
        write_kv(&mut out, "COMPONENT", self.component.name());
        write_kv(
            &mut out,
            "BAND",
            format!(
                "{:.6} {:.6} {:.6} {:.6}",
                self.band.fsl, self.band.fpl, self.band.fph, self.band.fsh
            ),
        );
        write_kv(
            &mut out,
            "PGA",
            format!("{:.9e} {:.6}", self.peaks.pga, self.peaks.pga_time),
        );
        write_kv(
            &mut out,
            "PGV",
            format!("{:.9e} {:.6}", self.peaks.pgv, self.peaks.pgv_time),
        );
        write_kv(
            &mut out,
            "PGD",
            format!("{:.9e} {:.6}", self.peaks.pgd, self.peaks.pgd_time),
        );
        write_block(&mut out, "ACC", &self.data.acc);
        write_block(&mut out, "VEL", &self.data.vel);
        write_block(&mut out, "DISP", &self.data.disp);
        out
    }

    pub(crate) fn scan_head<B: BufRead>(sc: &mut Scanner<B>) -> Result<V2Head, FormatError> {
        let station = sc.expect_kv("STATION")?;
        let event_id = sc.expect_kv("EVENT")?;
        let origin_time = sc.expect_kv("ORIGIN")?;
        let dt = sc.expect_kv_f64("DT")?;
        let units = sc.expect_kv("UNITS")?;
        let instrument = sc.expect_kv("INSTRUMENT")?;
        let component = Component::from_name(&sc.expect_kv("COMPONENT")?)?;

        let band = parse_band(&sc.expect_kv("BAND")?)?;
        let (pga, pga_time) = parse_peak_pair(&sc.expect_kv("PGA")?)?;
        let (pgv, pgv_time) = parse_peak_pair(&sc.expect_kv("PGV")?)?;
        let (pgd, pgd_time) = parse_peak_pair(&sc.expect_kv("PGD")?)?;

        Ok(V2Head {
            header: RecordHeader {
                station,
                event_id,
                origin_time,
                dt,
                units,
                instrument,
            },
            component,
            band,
            peaks: PeakValues {
                pga,
                pga_time,
                pgv,
                pgv_time,
                pgd,
                pgd_time,
            },
        })
    }

    pub(crate) fn finish_body<B: BufRead>(
        sc: &mut Scanner<B>,
        head: V2Head,
    ) -> Result<Self, FormatError> {
        let acc = sc.read_block("ACC")?;
        let vel = sc.read_block("VEL")?;
        let disp = sc.read_block("DISP")?;
        let file = V2File {
            header: head.header,
            component: head.component,
            band: head.band,
            peaks: head.peaks,
            data: MotionTriple { acc, vel, disp },
        };
        file.validate()?;
        Ok(file)
    }

    pub(crate) fn from_scanner<B: BufRead>(sc: &mut Scanner<B>) -> Result<Self, FormatError> {
        sc.expect_magic(MAGIC)?;
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

fn parse_band(s: &str) -> Result<BandPass, FormatError> {
    let vals: Vec<f64> = s
        .split_whitespace()
        .map(|t| t.parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|e| FormatError::InvalidValue(format!("bad BAND: {e}")))?;
    if vals.len() != 4 {
        return Err(FormatError::InvalidValue(format!(
            "BAND needs 4 values, got {}",
            vals.len()
        )));
    }
    BandPass::new(vals[0], vals[1], vals[2], vals[3])
        .map_err(|e| FormatError::InvalidValue(e.to_string()))
}

fn parse_peak_pair(s: &str) -> Result<(f64, f64), FormatError> {
    let vals: Vec<f64> = s
        .split_whitespace()
        .map(|t| t.parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|e| FormatError::InvalidValue(format!("bad peak pair: {e}")))?;
    if vals.len() != 2 {
        return Err(FormatError::InvalidValue(format!(
            "peak line needs `value time`, got {s:?}"
        )));
    }
    Ok((vals[0], vals[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arp_dsp::peaks::peak_values;

    fn sample() -> V2File {
        let dt = 0.01;
        let acc: Vec<f64> = (0..200).map(|i| (i as f64 * 0.21).sin() * 12.0).collect();
        let peaks = peak_values(&acc, dt).unwrap();
        let data = MotionTriple::from_acceleration(acc, dt).unwrap();
        V2File {
            header: RecordHeader::new("QCAL", "EV7", "2018-04-02T11:22:33Z", dt).unwrap(),
            component: Component::Vertical,
            band: BandPass::new(0.12, 0.24, 25.0, 27.0).unwrap(),
            peaks,
            data,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let file = sample();
        let back = V2File::from_text(&file.to_text()).unwrap();
        assert_eq!(back.header, file.header);
        assert_eq!(back.component, file.component);
        assert!((back.band.fsl - file.band.fsl).abs() < 1e-9);
        assert!((back.band.fpl - file.band.fpl).abs() < 1e-9);
        assert!((back.peaks.pga - file.peaks.pga).abs() < 1e-9 * file.peaks.pga.abs());
        assert!((back.peaks.pgv_time - file.peaks.pgv_time).abs() < 1e-6);
        assert_eq!(back.data.len(), file.data.len());
        for (a, b) in back.data.disp.iter().zip(&file.data.disp) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1e-12));
        }
    }

    #[test]
    fn disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("arp-v2-{}", std::process::id()));
        let file = sample();
        let path = dir.join("QCALv.v2");
        file.write(&path).unwrap();
        let back = V2File::read(&path).unwrap();
        assert_eq!(back.component, Component::Vertical);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_band_text_rejected() {
        let file = sample();
        let text = file.to_text().replace("BAND: 0.120000", "BAND: nope");
        assert!(V2File::from_text(&text).is_err());
    }

    #[test]
    fn band_ordering_enforced_on_parse() {
        let file = sample();
        // Swap band corners so fsl > fpl.
        let text = file
            .to_text()
            .replace("BAND: 0.120000 0.240000", "BAND: 0.240000 0.120000");
        assert!(V2File::from_text(&text).is_err());
    }

    #[test]
    fn peak_pair_must_have_two_values() {
        assert!(parse_peak_pair("1.0").is_err());
        assert!(parse_peak_pair("1.0 2.0 3.0").is_err());
        assert!(parse_peak_pair("1.0 two").is_err());
        assert_eq!(parse_peak_pair("3.5 0.25").unwrap(), (3.5, 0.25));
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(V2File::from_text("ARP-V1C 1.0\n").is_err());
    }
}

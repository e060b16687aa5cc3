//! `R` files — response spectra (`<station><c>.r`), output of process #16.
//!
//! One file holds the spectra for every standard damping ratio.

use crate::error::FormatError;
use crate::fsio::write_file;
use crate::numio::{record_text, write_block, write_kv, write_magic, Scanner, MAX_RESERVE};
use crate::types::Component;
use arp_dsp::respspec::ResponseSpectrum;
use std::io::BufRead;
use std::path::Path;

pub(crate) const MAGIC: &str = "ARP-R";

/// Header portion of an R file: everything before the period grid.
pub(crate) struct RHead {
    pub station: String,
    pub event_id: String,
    pub component: Component,
    pub dampings: usize,
}

/// A response-spectrum file for one component.
#[derive(Debug, Clone, PartialEq)]
pub struct RFile {
    /// Station code.
    pub station: String,
    /// Event identifier.
    pub event_id: String,
    /// Component the spectra belong to.
    pub component: Component,
    /// One spectrum per damping ratio, all sharing the same period grid.
    pub spectra: Vec<ResponseSpectrum>,
}

impl RFile {
    /// Validates internal consistency: at least one damping, shared period
    /// grid, matching column lengths.
    pub fn validate(&self) -> Result<(), FormatError> {
        if self.spectra.is_empty() {
            return Err(FormatError::InvalidValue("no spectra".into()));
        }
        let periods = &self.spectra[0].periods;
        for s in &self.spectra {
            if &s.periods != periods {
                return Err(FormatError::InvalidValue(
                    "spectra use different period grids".into(),
                ));
            }
            let n = s.periods.len();
            if s.sd.len() != n || s.sv.len() != n || s.sa.len() != n {
                return Err(FormatError::InvalidValue(
                    "spectrum column lengths differ".into(),
                ));
            }
            if !(0.0..1.0).contains(&s.damping) {
                return Err(FormatError::InvalidValue(format!(
                    "damping {} out of range",
                    s.damping
                )));
            }
        }
        Ok(())
    }

    /// Serializes to the text format.
    pub fn to_text(&self) -> String {
        let periods = self.spectra[0].periods.len();
        let mut out = record_text(periods * (1 + 3 * self.spectra.len()));
        write_magic(&mut out, MAGIC);
        write_kv(&mut out, "STATION", &self.station);
        write_kv(&mut out, "EVENT", &self.event_id);
        write_kv(&mut out, "COMPONENT", self.component.name());
        write_kv(&mut out, "DAMPINGS", self.spectra.len());
        write_block(&mut out, "PERIODS", &self.spectra[0].periods);
        for s in &self.spectra {
            write_kv(&mut out, "DAMPING", format!("{:.6}", s.damping));
            write_block(&mut out, "SD", &s.sd);
            write_block(&mut out, "SV", &s.sv);
            write_block(&mut out, "SA", &s.sa);
        }
        out
    }

    pub(crate) fn scan_head<B: BufRead>(sc: &mut Scanner<B>) -> Result<RHead, FormatError> {
        let station = sc.expect_kv("STATION")?;
        let event_id = sc.expect_kv("EVENT")?;
        let component = Component::from_name(&sc.expect_kv("COMPONENT")?)?;
        let dampings = sc.expect_kv_usize("DAMPINGS")?;
        Ok(RHead {
            station,
            event_id,
            component,
            dampings,
        })
    }

    pub(crate) fn finish_body<B: BufRead>(
        sc: &mut Scanner<B>,
        head: RHead,
    ) -> Result<Self, FormatError> {
        let periods = sc.read_block("PERIODS")?;
        let mut spectra = Vec::with_capacity(head.dampings.min(MAX_RESERVE));
        for _ in 0..head.dampings {
            let damping = sc.expect_kv_f64("DAMPING")?;
            let sd = sc.read_block("SD")?;
            let sv = sc.read_block("SV")?;
            let sa = sc.read_block("SA")?;
            spectra.push(ResponseSpectrum {
                periods: periods.clone(),
                damping,
                sd,
                sv,
                sa,
            });
        }
        let file = RFile {
            station: head.station,
            event_id: head.event_id,
            component: head.component,
            spectra,
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

    /// Returns the spectrum closest to the requested damping ratio, if any.
    pub fn at_damping(&self, damping: f64) -> Option<&ResponseSpectrum> {
        self.spectra.iter().min_by(|a, b| {
            (a.damping - damping)
                .abs()
                .partial_cmp(&(b.damping - damping).abs())
                .unwrap()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arp_dsp::respspec::{log_spaced_periods, response_spectrum, ResponseMethod};

    fn sample() -> RFile {
        let dt = 0.01;
        let acc: Vec<f64> = (0..400).map(|i| (i as f64 * 0.11).sin() * 9.0).collect();
        let periods = log_spaced_periods(0.1, 5.0, 20);
        let spectra = [0.02, 0.05]
            .iter()
            .map(|&z| {
                response_spectrum(&acc, dt, &periods, z, ResponseMethod::NigamJennings).unwrap()
            })
            .collect();
        RFile {
            station: "UCAX".into(),
            event_id: "EV3".into(),
            component: Component::Transversal,
            spectra,
        }
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let back = RFile::from_text(&f.to_text()).unwrap();
        assert_eq!(back.spectra.len(), 2);
        assert!((back.spectra[1].damping - 0.05).abs() < 1e-9);
        for (a, b) in back.spectra[0].sa.iter().zip(f.spectra[0].sa.iter()) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1e-15));
        }
    }

    #[test]
    fn disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("arp-r-{}", std::process::id()));
        let f = sample();
        let p = dir.join("UCAXt.r");
        f.write(&p).unwrap();
        assert_eq!(RFile::read(&p).unwrap().station, "UCAX");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn at_damping_picks_nearest() {
        let f = sample();
        assert!((f.at_damping(0.04).unwrap().damping - 0.05).abs() < 1e-12);
        assert!((f.at_damping(0.01).unwrap().damping - 0.02).abs() < 1e-12);
    }

    #[test]
    fn empty_spectra_rejected() {
        let f = RFile {
            station: "X".into(),
            event_id: "E".into(),
            component: Component::Vertical,
            spectra: vec![],
        };
        assert!(f.validate().is_err());
    }

    #[test]
    fn differing_period_grids_rejected() {
        let mut f = sample();
        f.spectra[1].periods[0] *= 2.0;
        assert!(f.validate().is_err());
    }

    #[test]
    fn out_of_range_damping_rejected() {
        let mut f = sample();
        f.spectra[0].damping = 1.5;
        assert!(f.validate().is_err());
    }

    #[test]
    fn absurd_damping_count_is_an_error_not_an_allocation() {
        let text = sample()
            .to_text()
            .replace("DAMPINGS: 2\n", "DAMPINGS: 99999999999999999\n");
        assert!(matches!(
            RFile::from_text(&text),
            Err(FormatError::Syntax { .. })
        ));
    }
}

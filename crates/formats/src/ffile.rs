//! `F` files — Fourier spectra (`<station><c>.f`), output of process #7.

use crate::error::FormatError;
use crate::fsio::write_file;
use crate::numio::{record_text, write_block, write_kv, write_magic, Scanner, Sci16};
use crate::types::Component;
use arp_dsp::spectrum::FourierSpectrum;
use std::io::BufRead;
use std::path::Path;

pub(crate) const MAGIC: &str = "ARP-F";

/// Header portion of an F file: everything before the spectrum blocks.
pub(crate) struct FHead {
    pub station: String,
    pub event_id: String,
    pub component: Component,
    pub dt: f64,
}

/// A Fourier-spectrum file for one component.
#[derive(Debug, Clone, PartialEq)]
pub struct FFile {
    /// Station code.
    pub station: String,
    /// Event identifier.
    pub event_id: String,
    /// Component the spectra belong to.
    pub component: Component,
    /// Sampling interval of the source record (s).
    pub dt: f64,
    /// The spectra (frequency axis + acceleration/velocity/displacement).
    pub spectrum: FourierSpectrum,
}

impl FFile {
    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), FormatError> {
        let n = self.spectrum.frequency_hz.len();
        if self.spectrum.acceleration.len() != n
            || self.spectrum.velocity.len() != n
            || self.spectrum.displacement.len() != n
        {
            return Err(FormatError::InvalidValue(
                "spectrum column lengths differ".into(),
            ));
        }
        if !(self.dt.is_finite() && self.dt > 0.0) {
            return Err(FormatError::InvalidValue(format!("bad dt {}", self.dt)));
        }
        Ok(())
    }

    /// Serializes to the text format.
    pub fn to_text(&self) -> String {
        let mut out = record_text(4 * self.spectrum.frequency_hz.len());
        write_magic(&mut out, MAGIC);
        write_kv(&mut out, "STATION", &self.station);
        write_kv(&mut out, "EVENT", &self.event_id);
        write_kv(&mut out, "COMPONENT", self.component.name());
        write_kv(&mut out, "DT", Sci16(self.dt));
        write_block(&mut out, "FREQ", &self.spectrum.frequency_hz);
        write_block(&mut out, "FAS_ACC", &self.spectrum.acceleration);
        write_block(&mut out, "FAS_VEL", &self.spectrum.velocity);
        write_block(&mut out, "FAS_DISP", &self.spectrum.displacement);
        out
    }

    pub(crate) fn scan_head<B: BufRead>(sc: &mut Scanner<B>) -> Result<FHead, FormatError> {
        let station = sc.expect_kv("STATION")?;
        let event_id = sc.expect_kv("EVENT")?;
        let component = Component::from_name(&sc.expect_kv("COMPONENT")?)?;
        let dt = sc.expect_kv_f64("DT")?;
        Ok(FHead {
            station,
            event_id,
            component,
            dt,
        })
    }

    pub(crate) fn finish_body<B: BufRead>(
        sc: &mut Scanner<B>,
        head: FHead,
    ) -> Result<Self, FormatError> {
        let frequency_hz = sc.read_block("FREQ")?;
        let acceleration = sc.read_block("FAS_ACC")?;
        let velocity = sc.read_block("FAS_VEL")?;
        let displacement = sc.read_block("FAS_DISP")?;
        let file = FFile {
            station: head.station,
            event_id: head.event_id,
            component: head.component,
            dt: head.dt,
            spectrum: FourierSpectrum {
                frequency_hz,
                acceleration,
                velocity,
                displacement,
            },
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

#[cfg(test)]
mod tests {
    use super::*;
    use arp_dsp::spectrum::fourier_spectrum;

    fn sample() -> FFile {
        let dt = 0.02;
        let acc: Vec<f64> = (0..256).map(|i| (i as f64 * 0.3).sin()).collect();
        FFile {
            station: "SMIG".into(),
            event_id: "EV2".into(),
            component: Component::Longitudinal,
            dt,
            spectrum: fourier_spectrum(&acc, dt).unwrap(),
        }
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let back = FFile::from_text(&f.to_text()).unwrap();
        assert_eq!(back.station, "SMIG");
        assert_eq!(back.component, Component::Longitudinal);
        assert_eq!(back.spectrum.len(), f.spectrum.len());
        for (a, b) in back
            .spectrum
            .velocity
            .iter()
            .zip(f.spectrum.velocity.iter())
        {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1e-15));
        }
    }

    #[test]
    fn disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("arp-f-{}", std::process::id()));
        let f = sample();
        let p = dir.join("SMIGl.f");
        f.write(&p).unwrap();
        assert_eq!(FFile::read(&p).unwrap().event_id, "EV2");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_columns_rejected() {
        let mut f = sample();
        f.spectrum.velocity.pop();
        assert!(f.validate().is_err());
        assert!(FFile::from_text(&f.to_text()).is_err());
    }

    #[test]
    fn bad_dt_rejected() {
        let mut f = sample();
        f.dt = 0.0;
        assert!(f.validate().is_err());
    }
}

//! GEM product files (process #19).
//!
//! For every station component, six files are generated per V2/R pair — one
//! per (source, quantity) combination — 18 per station in total:
//!
//! * `GEM2A/2V/2D` — corrected time series of acceleration / velocity /
//!   displacement, extracted from the V2 file;
//! * `GEMRA/RV/RD` — the 5%-damped response spectrum ordinate series of the
//!   same quantities, extracted from the R file.
//!
//! These feed the Global Earthquake Model toolchain downstream of the
//! observatory pipeline.

use crate::error::FormatError;
use crate::fsio::write_file;
use crate::numio::{record_text, write_block, write_kv, write_magic, Scanner, Sci16};
use crate::types::{Component, Quantity};
use std::io::BufRead;
use std::path::Path;

const MAGIC: &str = "ARP-GEM";

/// Where a GEM series came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum GemSource {
    /// Extracted from a corrected time-series (`V2`) file.
    TimeSeries,
    /// Extracted from a response-spectrum (`R`) file.
    ResponseSpectrum,
}

impl GemSource {
    /// File-name code: `2` for time series, `R` for response spectra.
    pub fn code(self) -> char {
        match self {
            GemSource::TimeSeries => '2',
            GemSource::ResponseSpectrum => 'R',
        }
    }

    /// Parses the file-name code.
    pub fn from_code(c: char) -> Result<Self, FormatError> {
        match c.to_ascii_uppercase() {
            '2' => Ok(GemSource::TimeSeries),
            'R' => Ok(GemSource::ResponseSpectrum),
            other => Err(FormatError::InvalidValue(format!(
                "unknown GEM source code {other:?}"
            ))),
        }
    }
}

/// One GEM product file: a single labelled series with its abscissa.
#[derive(Debug, Clone, PartialEq)]
pub struct GemFile {
    /// Station code.
    pub station: String,
    /// Event identifier.
    pub event_id: String,
    /// Component.
    pub component: Component,
    /// Time-series or response-spectrum product.
    pub source: GemSource,
    /// Which physical quantity the series holds.
    pub quantity: Quantity,
    /// Abscissa: time (s) for time series, period (s) for spectra.
    pub axis: Vec<f64>,
    /// The series values.
    pub values: Vec<f64>,
    /// Peak absolute value of the series (archived for quick lookup).
    pub peak: f64,
}

impl GemFile {
    /// Builds a GEM file, computing the archived peak.
    pub fn new(
        station: impl Into<String>,
        event_id: impl Into<String>,
        component: Component,
        source: GemSource,
        quantity: Quantity,
        axis: Vec<f64>,
        values: Vec<f64>,
    ) -> Result<Self, FormatError> {
        let peak = values.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let f = GemFile {
            station: station.into(),
            event_id: event_id.into(),
            component,
            source,
            quantity,
            axis,
            values,
            peak,
        };
        f.validate()?;
        Ok(f)
    }

    /// Validates axis/value length agreement.
    pub fn validate(&self) -> Result<(), FormatError> {
        if self.axis.len() != self.values.len() {
            return Err(FormatError::InvalidValue(format!(
                "axis length {} != values length {}",
                self.axis.len(),
                self.values.len()
            )));
        }
        if self.values.is_empty() {
            return Err(FormatError::InvalidValue("empty GEM series".into()));
        }
        Ok(())
    }

    /// True when the abscissa is uniform (time series): it can then be
    /// stored as `start/step` instead of a full block.
    fn axis_uniform(&self) -> Option<(f64, f64)> {
        if self.axis.len() < 2 {
            return None;
        }
        let start = self.axis[0];
        let step = self.axis[1] - self.axis[0];
        if step <= 0.0 {
            return None;
        }
        let uniform = self
            .axis
            .windows(2)
            .all(|w| ((w[1] - w[0]) - step).abs() <= 1e-9 * step.abs());
        uniform.then_some((start, step))
    }

    /// Serializes to the text format. Uniform axes (time series) are stored
    /// compactly as `AXIS-UNIFORM: start step count`; non-uniform axes
    /// (period grids) keep the full block.
    pub fn to_text(&self) -> String {
        let uniform = self.axis_uniform();
        let axis_block = if uniform.is_some() {
            0
        } else {
            self.axis.len()
        };
        let mut out = record_text(axis_block + self.values.len());
        write_magic(&mut out, MAGIC);
        write_kv(&mut out, "STATION", &self.station);
        write_kv(&mut out, "EVENT", &self.event_id);
        write_kv(&mut out, "COMPONENT", self.component.name());
        write_kv(&mut out, "SOURCE", self.source.code());
        write_kv(&mut out, "QUANTITY", self.quantity.code());
        write_kv(&mut out, "PEAK", format!("{:.9e}", self.peak));
        match uniform {
            Some((start, step)) => {
                write_kv(
                    &mut out,
                    "AXIS-UNIFORM",
                    format!("{} {} {}", Sci16(start), Sci16(step), self.axis.len()),
                );
            }
            None => write_block(&mut out, "AXIS", &self.axis),
        }
        write_block(&mut out, "VALUES", &self.values);
        out
    }

    fn from_scanner<B: BufRead>(sc: &mut Scanner<B>) -> Result<Self, FormatError> {
        sc.expect_magic(MAGIC)?;
        let station = sc.expect_kv("STATION")?;
        let event_id = sc.expect_kv("EVENT")?;
        let component = Component::from_name(&sc.expect_kv("COMPONENT")?)?;
        let source_str = sc.expect_kv("SOURCE")?;
        let source = GemSource::from_code(source_str.chars().next().unwrap_or(' '))?;
        let quantity_str = sc.expect_kv("QUANTITY")?;
        let quantity = Quantity::from_code(quantity_str.chars().next().unwrap_or(' '))?;
        let peak = sc.expect_kv_f64("PEAK")?;
        let uniform = matches!(
            sc.peek()?,
            Some(line) if line.trim_start().starts_with("AXIS-UNIFORM")
        );
        let (uniform_axis, axis_block) = match uniform {
            true => {
                let spec = sc.expect_kv("AXIS-UNIFORM")?;
                let parts: Vec<&str> = spec.split_whitespace().collect();
                if parts.len() != 3 {
                    return Err(FormatError::InvalidValue(format!(
                        "AXIS-UNIFORM needs `start step count`, got {spec:?}"
                    )));
                }
                let start: f64 = parts[0]
                    .parse()
                    .map_err(|e| FormatError::InvalidValue(format!("bad axis start: {e}")))?;
                let step: f64 = parts[1]
                    .parse()
                    .map_err(|e| FormatError::InvalidValue(format!("bad axis step: {e}")))?;
                let count: usize = parts[2]
                    .parse()
                    .map_err(|e| FormatError::InvalidValue(format!("bad axis count: {e}")))?;
                if !(step > 0.0 && step.is_finite() && start.is_finite()) {
                    return Err(FormatError::InvalidValue(format!(
                        "bad uniform axis start={start} step={step}"
                    )));
                }
                (Some((start, step, count)), Vec::new())
            }
            false => (None, sc.read_block("AXIS")?),
        };
        let values = sc.read_block("VALUES")?;
        // A uniform axis is generated only once VALUES has supplied as many
        // values as its count claims, so that count never sizes an allocation.
        let axis = match uniform_axis {
            Some((_, _, count)) if count != values.len() => {
                return Err(FormatError::InvalidValue(format!(
                    "axis length {count} != values length {}",
                    values.len()
                )));
            }
            Some((start, step, count)) => (0..count).map(|i| start + step * i as f64).collect(),
            None => axis_block,
        };
        let f = GemFile {
            station,
            event_id,
            component,
            source,
            quantity,
            axis,
            values,
            peak,
        };
        f.validate()?;
        Ok(f)
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

    /// The file name this product should be stored under.
    pub fn file_name(&self) -> String {
        crate::types::names::gem(
            &self.station,
            self.component,
            self.source == GemSource::ResponseSpectrum,
            self.quantity,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GemFile {
        GemFile::new(
            "SSLB",
            "EV9",
            Component::Longitudinal,
            GemSource::TimeSeries,
            Quantity::Velocity,
            (0..50).map(|i| i as f64 * 0.01).collect(),
            (0..50).map(|i| (i as f64 * 0.4).sin() * 3.0).collect(),
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let g = sample();
        let back = GemFile::from_text(&g.to_text()).unwrap();
        assert_eq!(back.station, g.station);
        assert_eq!(back.source, g.source);
        assert_eq!(back.quantity, g.quantity);
        assert!((back.peak - g.peak).abs() <= 1e-9 * g.peak);
        assert_eq!(back.values.len(), 50);
    }

    #[test]
    fn peak_is_max_abs() {
        let g = GemFile::new(
            "S1",
            "E",
            Component::Vertical,
            GemSource::ResponseSpectrum,
            Quantity::Acceleration,
            vec![0.1, 0.2, 0.3],
            vec![1.0, -7.5, 2.0],
        )
        .unwrap();
        assert_eq!(g.peak, 7.5);
    }

    #[test]
    fn file_name_follows_convention() {
        let g = sample();
        assert_eq!(g.file_name(), "SSLBlGEM2V.gem");
        let mut r = sample();
        r.source = GemSource::ResponseSpectrum;
        r.quantity = Quantity::Displacement;
        assert_eq!(r.file_name(), "SSLBlGEMRD.gem");
    }

    #[test]
    fn uniform_axis_stored_compactly_and_roundtrips() {
        let g = sample(); // 0.01-step time axis
        let text = g.to_text();
        assert!(text.contains("AXIS-UNIFORM"), "{text}");
        assert!(!text.contains("BEGIN AXIS"));
        let back = GemFile::from_text(&text).unwrap();
        assert_eq!(back.axis.len(), g.axis.len());
        for (a, b) in back.axis.iter().zip(&g.axis) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn nonuniform_axis_keeps_full_block() {
        let g = GemFile::new(
            "S1",
            "E",
            Component::Vertical,
            GemSource::ResponseSpectrum,
            Quantity::Acceleration,
            vec![0.04, 0.1, 0.5, 2.0, 15.0], // log-spaced period grid
            vec![1.0, 2.0, 3.0, 2.0, 1.0],
        )
        .unwrap();
        let text = g.to_text();
        assert!(text.contains("BEGIN AXIS"), "{text}");
        let back = GemFile::from_text(&text).unwrap();
        assert_eq!(back.axis, g.axis);
    }

    #[test]
    fn corrupt_uniform_axis_rejected() {
        let g = sample();
        let text = g.to_text();
        let bad = text.replace("AXIS-UNIFORM: 0", "AXIS-UNIFORM: nope");
        assert!(GemFile::from_text(&bad).is_err());
    }

    #[test]
    fn source_codes() {
        assert_eq!(GemSource::from_code('2').unwrap(), GemSource::TimeSeries);
        assert_eq!(
            GemSource::from_code('r').unwrap(),
            GemSource::ResponseSpectrum
        );
        assert!(GemSource::from_code('x').is_err());
    }

    #[test]
    fn length_mismatch_rejected() {
        assert!(GemFile::new(
            "S1",
            "E",
            Component::Vertical,
            GemSource::TimeSeries,
            Quantity::Acceleration,
            vec![0.1, 0.2],
            vec![1.0],
        )
        .is_err());
    }

    #[test]
    fn empty_series_rejected() {
        assert!(GemFile::new(
            "S1",
            "E",
            Component::Vertical,
            GemSource::TimeSeries,
            Quantity::Acceleration,
            vec![],
            vec![],
        )
        .is_err());
    }

    #[test]
    fn disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("arp-gem-{}", std::process::id()));
        let g = sample();
        let p = dir.join(g.file_name());
        g.write(&p).unwrap();
        assert_eq!(GemFile::read(&p).unwrap().event_id, "EV9");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absurd_uniform_axis_count_is_an_error_not_an_allocation() {
        // The VALUES block, not the header count, bounds the generated axis.
        let text = sample().to_text();
        assert!(text.contains(" 50\n"), "{text}");
        let bad = text.replacen(" 50\n", " 99999999999999999\n", 1);
        match GemFile::from_text(&bad) {
            Err(FormatError::InvalidValue(msg)) => assert!(msg.contains("99999999999999999")),
            other => panic!("{other:?}"),
        }
    }
}

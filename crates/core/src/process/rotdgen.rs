//! Extension process — orientation-independent RotD products.
//!
//! Not part of the paper's twenty processes: modern GEM ingestion asks for
//! RotD50/RotD100 spectral ordinates (Boore, 2010) computed from the two
//! horizontal components, instead of arbitrary as-installed orientations.
//! Enabled with [`crate::config::PipelineConfig::emit_rotd`]; runs after the
//! definitive correction (it only needs the final V2 files) and writes one
//! `<station>.rotd` file per station.

use crate::context::RunContext;
use crate::error::Result;
use arp_dsp::rotd::rotd_spectrum;
use arp_formats::numio::{write_block, write_kv, write_magic, Scanner};
use arp_formats::{names, Component, FormatError, V2File};
use std::path::Path;

/// Rotation angles evaluated per period (Boore recommends ≥ 30; 18 keeps
/// the product affordable while staying within a few percent of converged).
const ROTATION_ANGLES: usize = 18;

/// Periods at which RotD ordinates are archived (a compact engineering set).
pub const ROTD_PERIODS: [f64; 7] = [0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0];

/// One station's RotD product.
#[derive(Debug, Clone, PartialEq)]
pub struct RotDFile {
    /// Station code.
    pub station: String,
    /// Event identifier.
    pub event_id: String,
    /// Damping ratio of the ordinates.
    pub damping: f64,
    /// Periods (s).
    pub periods: Vec<f64>,
    /// RotD50 spectral displacement per period.
    pub rotd50: Vec<f64>,
    /// RotD100 spectral displacement per period.
    pub rotd100: Vec<f64>,
}

impl RotDFile {
    const MAGIC: &'static str = "ARP-ROTD";

    /// Conventional file name (`<station>.rotd`).
    pub fn file_name(station: &str) -> String {
        format!("{station}.rotd")
    }

    /// Serializes to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        write_magic(&mut out, Self::MAGIC);
        write_kv(&mut out, "STATION", &self.station);
        write_kv(&mut out, "EVENT", &self.event_id);
        write_kv(&mut out, "DAMPING", format!("{:.6}", self.damping));
        write_block(&mut out, "PERIODS", &self.periods);
        write_block(&mut out, "ROTD50", &self.rotd50);
        write_block(&mut out, "ROTD100", &self.rotd100);
        out
    }

    fn from_scanner<B: std::io::BufRead>(
        sc: &mut Scanner<B>,
    ) -> std::result::Result<Self, FormatError> {
        sc.expect_magic(Self::MAGIC)?;
        let station = sc.expect_kv("STATION")?;
        let event_id = sc.expect_kv("EVENT")?;
        let damping = sc.expect_kv_f64("DAMPING")?;
        let periods = sc.read_block("PERIODS")?;
        let rotd50 = sc.read_block("ROTD50")?;
        let rotd100 = sc.read_block("ROTD100")?;
        if rotd50.len() != periods.len() || rotd100.len() != periods.len() {
            return Err(FormatError::InvalidValue(
                "RotD column lengths differ".into(),
            ));
        }
        Ok(RotDFile {
            station,
            event_id,
            damping,
            periods,
            rotd50,
            rotd100,
        })
    }

    /// Parses from the text format.
    pub fn from_text(text: &str) -> std::result::Result<Self, FormatError> {
        Self::from_scanner(&mut Scanner::from_text(text))
    }

    /// Reads from `path`, streaming with a bounded buffer.
    pub fn read(path: &Path) -> std::result::Result<Self, FormatError> {
        let mut sc = Scanner::open(path)?;
        Self::from_scanner(&mut sc).map_err(|e| e.in_file(path))
    }
}

/// Runs the RotD extension for every station (horizontal components of the
/// definitive V2 records). No-op when the pipeline config has
/// `emit_rotd = false`; the executors gate the call.
pub fn generate_rotd(ctx: &RunContext, parallel: bool) -> Result<()> {
    let stations = ctx.stations()?;
    let damping = 0.05;
    let body = |i: usize| -> Result<()> {
        let station = &stations[i];
        let l =
            V2File::read(&ctx.artifact(&names::v2_component(station, Component::Longitudinal)))?;
        let t = V2File::read(&ctx.artifact(&names::v2_component(station, Component::Transversal)))?;
        let rotd = rotd_spectrum(
            &l.data.acc,
            &t.data.acc,
            l.header.dt,
            &ROTD_PERIODS,
            damping,
            ROTATION_ANGLES,
            ctx.config.response_method,
        )?;
        let file = RotDFile {
            station: station.clone(),
            event_id: l.header.event_id.clone(),
            damping,
            periods: ROTD_PERIODS.to_vec(),
            rotd50: rotd.iter().map(|r| r.rotd50).collect(),
            rotd100: rotd.iter().map(|r| r.rotd100).collect(),
        };
        arp_formats::fsio::write_file(
            &ctx.artifact(&RotDFile::file_name(station)),
            &file.to_text(),
        )?;
        Ok(())
    };
    if parallel {
        ctx.par_for(stations.len(), body)
    } else {
        ctx.seq_for(stations.len(), body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::process::{filter, filterinit, gather, separate};

    fn prepare(tag: &str) -> (std::path::PathBuf, RunContext) {
        let base = std::env::temp_dir().join(format!("arp-rotd-{tag}-{}", std::process::id()));
        let input = base.join("in");
        std::fs::create_dir_all(&input).unwrap();
        arp_synth::write_event_inputs(&arp_synth::paper_event(0, 0.002), &input).unwrap();
        let ctx = RunContext::new(&input, base.join("w"), PipelineConfig::fast()).unwrap();
        gather::gather_inputs(&ctx, false).unwrap();
        filterinit::init_filter_params(&ctx).unwrap();
        separate::separate_components(&ctx, false).unwrap();
        filter::correct_signals(&ctx, filter::CorrectionPass::Default, false).unwrap();
        (base, ctx)
    }

    #[test]
    fn writes_rotd_per_station_with_ordering_invariant() {
        let (base, ctx) = prepare("basic");
        generate_rotd(&ctx, false).unwrap();
        for s in ctx.stations().unwrap() {
            let f = RotDFile::read(&ctx.artifact(&RotDFile::file_name(&s))).unwrap();
            assert_eq!(f.periods.len(), ROTD_PERIODS.len());
            for k in 0..f.periods.len() {
                assert!(
                    f.rotd50[k] <= f.rotd100[k] + 1e-12,
                    "station {s} period {}: 50 {} > 100 {}",
                    f.periods[k],
                    f.rotd50[k],
                    f.rotd100[k]
                );
                assert!(f.rotd100[k] >= 0.0);
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn parallel_matches_sequential() {
        let (base, ctx) = prepare("par");
        generate_rotd(&ctx, false).unwrap();
        let s0 = ctx.stations().unwrap()[0].clone();
        let seq = std::fs::read_to_string(ctx.artifact(&RotDFile::file_name(&s0))).unwrap();
        generate_rotd(&ctx, true).unwrap();
        let par = std::fs::read_to_string(ctx.artifact(&RotDFile::file_name(&s0))).unwrap();
        assert_eq!(seq, par);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn text_roundtrip() {
        let f = RotDFile {
            station: "SSLB".into(),
            event_id: "EV".into(),
            damping: 0.05,
            periods: vec![0.1, 1.0],
            rotd50: vec![0.5, 2.0],
            rotd100: vec![0.7, 2.5],
        };
        let back = RotDFile::from_text(&f.to_text()).unwrap();
        assert_eq!(back.station, f.station);
        assert!((back.rotd100[1] - 2.5).abs() < 1e-12);
        // Mismatched columns rejected.
        let bad = f.to_text().replace("BEGIN ROTD50 2", "BEGIN ROTD50 1");
        assert!(RotDFile::from_text(&bad).is_err());
    }
}

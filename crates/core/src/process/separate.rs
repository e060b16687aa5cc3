//! Processes #3 and #12 — separate station records by component.
//!
//! Reads each raw `<station>.v1` file and writes the three per-component
//! `<station><c>.v1` files (the unit the filtering processes consume). In
//! the fully parallelized version this is the Fortran `OMP DO` loop of
//! §VI-A: one iteration per station, each opening its own set of files.
//!
//! Process #12 repeats the same work and is one of the redundancies the
//! optimized version removes (V1 files are never modified in between).

use crate::context::RunContext;
use crate::error::Result;
use arp_formats::names;
use arp_formats::v1::V1StationReader;

/// Runs process #3 (or #12 — identical semantics).
///
/// Uses the streaming [`V1StationReader`]: each per-component record is
/// parsed, written, and dropped before the next is read, so a station's
/// whole multi-component file is never resident at once.
pub fn separate_components(ctx: &RunContext, parallel: bool) -> Result<()> {
    let stations = ctx.stations()?;
    let body = |i: usize| -> Result<()> {
        let station = &stations[i];
        let reader = V1StationReader::open(&ctx.artifact(&names::v1_station(station)))?;
        for part in reader {
            let part = part?;
            let name = names::v1_component(station, part.component);
            part.write(&ctx.artifact(&name))?;
        }
        Ok(())
    };
    ctx.for_each(stations.len(), parallel, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::process::gather;
    use arp_formats::{Component, V1ComponentFile};
    use arp_synth::{paper_event, write_event_inputs};

    #[test]
    fn splits_every_station_into_three_components() {
        let base = std::env::temp_dir().join(format!("arp-sep-{}", std::process::id()));
        let input = base.join("in");
        std::fs::create_dir_all(&input).unwrap();
        let event = paper_event(0, 0.005);
        write_event_inputs(&event, &input).unwrap();

        for parallel in [false, true] {
            let ctx = RunContext::new(
                &input,
                base.join(format!("w{parallel}")),
                PipelineConfig::fast(),
            )
            .unwrap();
            gather::gather_inputs(&ctx, false).unwrap();
            separate_components(&ctx, parallel).unwrap();
            for station in ctx.stations().unwrap() {
                for comp in Component::ALL {
                    let path = ctx.artifact(&names::v1_component(&station, comp));
                    let f = V1ComponentFile::read(&path).unwrap();
                    assert_eq!(f.component, comp);
                    assert_eq!(f.header.station, station);
                    assert!(!f.data.is_empty());
                }
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn missing_v1list_errors() {
        let base = std::env::temp_dir().join(format!("arp-sep2-{}", std::process::id()));
        let ctx = RunContext::new(&base, base.join("w"), PipelineConfig::fast()).unwrap();
        assert!(separate_components(&ctx, false).is_err());
        std::fs::remove_dir_all(&base).unwrap();
    }
}

//! SMC-style interchange format.
//!
//! Real strong-motion archives (USGS SMC, COSMOS, the Salvadoran
//! repository's exports) exchange records as fixed-layout text: descriptive
//! header lines, integer/real header blocks, then the samples in fixed-width
//! columns. This module implements a faithful subset — enough to import
//! foreign uncorrected records into the pipeline's [`V1StationFile`](crate::v1::V1StationFile) and to
//! export pipeline products back out — so the library is usable against
//! data that did not originate here.
//!
//! Layout (one component per file, as in SMC):
//!
//! ```text
//! 2 UNCORRECTED ACCELEROGRAM        <- type line (code + text)
//! STATION: <code>  COMPONENT: <L|T|V>
//! EVENT: <id>  ORIGIN: <iso8601>
//! RHDR: <dt> <scale>                <- real header block
//! IHDR: <npts>                      <- integer header block
//! DATA:
//! <8 columns of 10-char fixed-point values, scaled by <scale>>
//! ```

use crate::error::FormatError;
use crate::numio::MAX_RESERVE;
use crate::types::{Component, MotionTriple, RecordHeader};
use crate::v1::V1ComponentFile;
use std::fmt::Write as _;

/// Values per data line.
const COLUMNS: usize = 8;

/// Exports an uncorrected component to SMC-style text. `scale` maps the
/// fixed-point column values back to physical units; it is chosen
/// automatically from the peak amplitude so the 10-character columns retain
/// ~6 significant digits.
pub fn to_smc(file: &V1ComponentFile) -> String {
    let peak = file
        .data
        .acc
        .iter()
        .fold(0.0f64, |m, &v| m.max(v.abs()))
        .max(1e-12);
    // One count = peak / 10^6: six significant digits at the peak.
    let scale = peak / 1e6;

    let mut out = String::new();
    out.push_str("2 UNCORRECTED ACCELEROGRAM\n");
    let _ = writeln!(
        out,
        "STATION: {}  COMPONENT: {}",
        file.header.station,
        file.component.code().to_ascii_uppercase()
    );
    let _ = writeln!(
        out,
        "EVENT: {}  ORIGIN: {}",
        file.header.event_id, file.header.origin_time
    );
    let _ = writeln!(out, "RHDR: {:.9e} {:.9e}", file.header.dt, scale);
    let _ = writeln!(out, "IHDR: {}", file.data.acc.len());
    out.push_str("DATA:\n");
    for chunk in file.data.acc.chunks(COLUMNS) {
        for &v in chunk {
            let counts = (v / scale).round() as i64;
            let _ = write!(out, "{counts:>10}");
        }
        out.push('\n');
    }
    out
}

/// Imports an SMC-style component file. Velocity and displacement are
/// re-derived by integration (the pipeline's convention for uncorrected
/// records).
pub fn from_smc(text: &str) -> Result<V1ComponentFile, FormatError> {
    let mut lines = text.lines().enumerate();

    let (_, type_line) = lines
        .next()
        .ok_or_else(|| FormatError::syntax(1, "empty file"))?;
    if !type_line.trim_start().starts_with('2') {
        return Err(FormatError::InvalidValue(format!(
            "unsupported SMC type line {type_line:?} (only type 2, uncorrected, is supported)"
        )));
    }

    let (ln, station_line) = lines
        .next()
        .ok_or_else(|| FormatError::syntax(2, "missing station line"))?;
    let (station, component) = parse_station_line(ln + 1, station_line)?;

    let (ln, event_line) = lines
        .next()
        .ok_or_else(|| FormatError::syntax(3, "missing event line"))?;
    let (event_id, origin) = parse_event_line(ln + 1, event_line)?;

    let (ln, rhdr) = lines
        .next()
        .ok_or_else(|| FormatError::syntax(4, "missing RHDR"))?;
    let reals = parse_prefixed_numbers(ln + 1, rhdr, "RHDR:")?;
    if reals.len() != 2 {
        return Err(FormatError::syntax(ln + 1, "RHDR needs `dt scale`"));
    }
    let (dt, scale) = (reals[0], reals[1]);
    if !(scale.is_finite() && scale > 0.0) {
        return Err(FormatError::InvalidValue(format!("bad SMC scale {scale}")));
    }

    let (ln, ihdr) = lines
        .next()
        .ok_or_else(|| FormatError::syntax(5, "missing IHDR"))?;
    let ints = parse_prefixed_numbers(ln + 1, ihdr, "IHDR:")?;
    if ints.len() != 1 {
        return Err(FormatError::syntax(ln + 1, "IHDR needs `npts`"));
    }
    let npts = ints[0] as usize;

    let (ln, data_marker) = lines
        .next()
        .ok_or_else(|| FormatError::syntax(6, "missing DATA:"))?;
    if data_marker.trim() != "DATA:" {
        return Err(FormatError::syntax(ln + 1, "expected DATA:"));
    }

    let mut acc = Vec::with_capacity(npts.min(MAX_RESERVE));
    for (ln, line) in lines {
        let mut rest = line;
        while !rest.trim().is_empty() {
            let take = rest.len().min(10);
            let (field, tail) = rest.split_at(take);
            let counts: i64 = field.trim().parse().map_err(|e| {
                FormatError::syntax(ln + 1, format!("bad SMC value {field:?}: {e}"))
            })?;
            acc.push(counts as f64 * scale);
            rest = tail;
        }
        if acc.len() > npts {
            break;
        }
    }
    if acc.len() != npts {
        return Err(FormatError::CountMismatch {
            block: "SMC DATA".into(),
            expected: npts,
            found: acc.len(),
        });
    }

    let header = RecordHeader {
        station,
        event_id,
        origin_time: origin,
        dt,
        units: "cm/s2".into(),
        instrument: "smc-import".into(),
    };
    header.validate()?;
    let data = MotionTriple::from_acceleration(acc, dt)?;
    Ok(V1ComponentFile {
        header,
        component,
        data,
    })
}

fn parse_station_line(ln: usize, line: &str) -> Result<(String, Component), FormatError> {
    let rest = line
        .trim()
        .strip_prefix("STATION:")
        .ok_or_else(|| FormatError::syntax(ln, "expected STATION: line"))?;
    let mut parts = rest.split("COMPONENT:");
    let station = parts
        .next()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .ok_or_else(|| FormatError::syntax(ln, "missing station code"))?;
    let comp_txt = parts
        .next()
        .map(str::trim)
        .ok_or_else(|| FormatError::syntax(ln, "missing COMPONENT:"))?;
    let component = Component::from_name(comp_txt)?;
    Ok((station, component))
}

fn parse_event_line(ln: usize, line: &str) -> Result<(String, String), FormatError> {
    let rest = line
        .trim()
        .strip_prefix("EVENT:")
        .ok_or_else(|| FormatError::syntax(ln, "expected EVENT: line"))?;
    let mut parts = rest.split("ORIGIN:");
    let event = parts
        .next()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .ok_or_else(|| FormatError::syntax(ln, "missing event id"))?;
    let origin = parts
        .next()
        .map(|s| s.trim().to_string())
        .ok_or_else(|| FormatError::syntax(ln, "missing ORIGIN:"))?;
    Ok((event, origin))
}

fn parse_prefixed_numbers(ln: usize, line: &str, prefix: &str) -> Result<Vec<f64>, FormatError> {
    let rest = line
        .trim()
        .strip_prefix(prefix)
        .ok_or_else(|| FormatError::syntax(ln, format!("expected {prefix} line")))?;
    rest.split_whitespace()
        .map(|t| {
            t.parse::<f64>()
                .map_err(|e| FormatError::syntax(ln, format!("bad number {t:?}: {e}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> V1ComponentFile {
        let dt = 0.01;
        let acc: Vec<f64> = (0..137)
            .map(|i| (i as f64 * 0.23).sin() * 42.5 + 0.3)
            .collect();
        V1ComponentFile {
            header: RecordHeader::new("SSLB", "ES-2019", "2019-07-31T03:04:05Z", dt).unwrap(),
            component: Component::Transversal,
            data: MotionTriple::from_acceleration(acc, dt).unwrap(),
        }
    }

    #[test]
    fn roundtrip_preserves_signal_to_scale_precision() {
        let original = sample();
        let text = to_smc(&original);
        let back = from_smc(&text).unwrap();
        assert_eq!(back.header.station, "SSLB");
        assert_eq!(back.component, Component::Transversal);
        assert_eq!(back.data.acc.len(), original.data.acc.len());
        let peak = original
            .data
            .acc
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()));
        for (a, b) in back.data.acc.iter().zip(original.data.acc.iter()) {
            // Fixed-point at 1e-6 of peak.
            assert!((a - b).abs() <= peak * 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn layout_is_fixed_width() {
        let text = to_smc(&sample());
        let data_start = text.find("DATA:\n").unwrap() + 6;
        let first_line = text[data_start..].lines().next().unwrap();
        assert_eq!(first_line.len(), 80); // 8 columns x 10 chars
    }

    #[test]
    fn rejects_corrected_type() {
        let text = to_smc(&sample()).replacen('2', "1", 1);
        assert!(from_smc(&text).is_err());
    }

    #[test]
    fn rejects_count_mismatch() {
        let text = to_smc(&sample());
        let truncated: String = text
            .lines()
            .take(text.lines().count() - 2)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(
            from_smc(&truncated),
            Err(FormatError::CountMismatch { .. })
        ));
    }

    #[test]
    fn rejects_garbage_values() {
        let text = to_smc(&sample()).replace("DATA:\n", "DATA:\n   bananas\n");
        assert!(from_smc(&text).is_err());
    }

    #[test]
    fn rejects_malformed_headers() {
        assert!(from_smc("").is_err());
        assert!(from_smc("2 X\nNOPE\n").is_err());
        assert!(from_smc("2 X\nSTATION: A COMPONENT: L\nNOPE\n").is_err());
        let no_scale = "2 X\nSTATION: A  COMPONENT: L\nEVENT: E  ORIGIN: t\nRHDR: 0.01 0.0\nIHDR: 1\nDATA:\n         0\n";
        assert!(from_smc(no_scale).is_err());
    }

    #[test]
    fn zero_signal_roundtrips() {
        let mut f = sample();
        f.data = MotionTriple::from_acceleration(vec![0.0; 20], f.header.dt).unwrap();
        let back = from_smc(&to_smc(&f)).unwrap();
        assert!(back.data.acc.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn absurd_point_count_is_an_error_not_an_allocation() {
        let text = to_smc(&sample()).replace("IHDR: 137\n", "IHDR: 99999999999999999\n");
        assert!(matches!(
            from_smc(&text),
            Err(FormatError::CountMismatch { found: 137, .. })
        ));
    }
}

//! Property tests: every file format round-trips arbitrary valid content,
//! and rejects mangled content rather than mis-reading it.

use arp_dsp::fir::BandPass;
use arp_dsp::peaks::PeakValues;
use arp_dsp::respspec::ResponseSpectrum;
use arp_formats::gem::{GemFile, GemSource};
use arp_formats::meta::{FileList, FilterParams, MaxEntry, MaxValues, StationCorners};
use arp_formats::types::{Component, MotionTriple, Quantity, RecordHeader};
use arp_formats::v1::{V1ComponentFile, V1StationFile};
use arp_formats::v2::V2File;
use arp_formats::{FFile, Filter, RFile, RecordEncoder, RecordReader};
use proptest::prelude::*;

fn station_code() -> impl Strategy<Value = String> {
    "[A-Z]{2,5}[0-9]{0,2}".prop_filter("non-empty", |s| !s.is_empty())
}

/// Values from every finite bit pattern.
fn values(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    let finite = any::<u64>()
        .prop_map(f64::from_bits)
        .prop_filter("finite", |v| v.is_finite());
    prop::collection::vec(finite, n)
}

/// Bit-for-bit equality. Integrating extreme values can overflow into a
/// NaN, and every NaN is written as `NaN`, so NaNs compare equal.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

fn header_strategy() -> impl Strategy<Value = RecordHeader> {
    (station_code(), "[A-Za-z0-9-]{1,12}", 1e-3f64..0.1)
        .prop_map(|(s, ev, dt)| RecordHeader::new(s, ev, "2019-07-31T03:04:05Z", dt).unwrap())
}

fn triple_strategy() -> impl Strategy<Value = (RecordHeader, MotionTriple)> {
    (header_strategy(), values(2..120)).prop_map(|(h, acc)| {
        let t = MotionTriple::from_acceleration(acc, h.dt).unwrap();
        (h, t)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn v1_component_roundtrip((header, data) in triple_strategy(), ci in 0usize..3) {
        let file = V1ComponentFile { header, component: Component::ALL[ci], data };
        let back = V1ComponentFile::from_text(&file.to_text()).unwrap();
        prop_assert_eq!(back.header, file.header);
        prop_assert_eq!(back.component, file.component);
        prop_assert!(same_bits(&back.data.acc, &file.data.acc));
    }

    #[test]
    fn v1_station_roundtrip((header, data) in triple_strategy()) {
        let file = V1StationFile {
            header,
            components: Component::ALL.iter().map(|&c| (c, data.clone())).collect(),
        };
        let back = V1StationFile::from_text(&file.to_text()).unwrap();
        prop_assert_eq!(back.components.len(), 3);
        prop_assert_eq!(back.data_points(), file.data_points());
    }

    #[test]
    fn v2_roundtrip((header, data) in triple_strategy()) {
        let peaks = PeakValues {
            pga: 1.0, pga_time: 0.5, pgv: 0.2, pgv_time: 0.7, pgd: 0.05, pgd_time: 0.9,
        };
        let file = V2File {
            header,
            component: Component::Transversal,
            band: BandPass::DEFAULT,
            peaks,
            data,
        };
        let back = V2File::from_text(&file.to_text()).unwrap();
        prop_assert_eq!(back.component, file.component);
        prop_assert!((back.band.fpl - file.band.fpl).abs() < 1e-9);
        prop_assert!(same_bits(&back.data.acc, &file.data.acc));
        prop_assert!(same_bits(&back.data.disp, &file.data.disp));
    }

    #[test]
    fn gem_roundtrip(vals in values(1..100), src in prop::bool::ANY, qi in 0usize..3) {
        let axis: Vec<f64> = (0..vals.len()).map(|i| i as f64 * 0.01).collect();
        let g = GemFile::new(
            "SSLB",
            "EV",
            Component::Vertical,
            if src { GemSource::ResponseSpectrum } else { GemSource::TimeSeries },
            Quantity::ALL[qi],
            axis,
            vals,
        ).unwrap();
        let back = GemFile::from_text(&g.to_text()).unwrap();
        prop_assert!(same_bits(&back.values, &g.values));
        // PEAK is a header field written with ten significant digits.
        prop_assert!((back.peak - g.peak).abs() <= 1e-9 * g.peak.max(1e-12));
        for (a, b) in back.axis.iter().zip(g.axis.iter()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn file_list_roundtrip(entries in prop::collection::vec("[a-zA-Z0-9._-]{1,20}", 0..30)) {
        let list = FileList::new("anything", entries).unwrap();
        let back = FileList::from_text(&list.to_text()).unwrap();
        prop_assert_eq!(back, list);
    }

    #[test]
    fn filter_params_roundtrip(
        stations in prop::collection::vec(
            (station_code(), prop::collection::vec((1e-3f64..0.5, 0.5f64..1.0), 1..4)),
            0..8,
        )
    ) {
        let mut fp = FilterParams::new(BandPass::DEFAULT);
        for (code, corners) in stations {
            fp.stations.push(StationCorners { station: code, corners });
        }
        let back = FilterParams::from_text(&fp.to_text()).unwrap();
        prop_assert_eq!(back.stations.len(), fp.stations.len());
        for (a, b) in back.stations.iter().zip(fp.stations.iter()) {
            prop_assert_eq!(&a.station, &b.station);
            for ((a1, a2), (b1, b2)) in a.corners.iter().zip(b.corners.iter()) {
                prop_assert!((a1 - b1).abs() < 1e-6);
                prop_assert!((a2 - b2).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn max_values_roundtrip(rows in prop::collection::vec(
        (station_code(), 0usize..3, 0.0f64..1e4, 0.0f64..1e3, 0.0f64..1e2),
        0..20,
    )) {
        let mv = MaxValues {
            entries: rows
                .into_iter()
                .map(|(s, ci, pga, pgv, pgd)| MaxEntry {
                    station: s,
                    component: Component::ALL[ci],
                    pga,
                    pgv,
                    pgd,
                })
                .collect(),
        };
        let back = MaxValues::from_text(&mv.to_text()).unwrap();
        prop_assert_eq!(back.entries.len(), mv.entries.len());
    }

    #[test]
    fn rfile_roundtrip(periods_n in 2usize..30, dampings_n in 1usize..4) {
        let periods: Vec<f64> = (0..periods_n).map(|i| 0.04 * 1.2f64.powi(i as i32)).collect();
        let spectra: Vec<ResponseSpectrum> = (0..dampings_n)
            .map(|k| ResponseSpectrum {
                periods: periods.clone(),
                damping: 0.02 * (k + 1) as f64,
                sd: periods.iter().map(|p| p * 2.0).collect(),
                sv: periods.iter().map(|p| p * 3.0).collect(),
                sa: periods.iter().map(|p| p * 5.0).collect(),
            })
            .collect();
        let r = RFile {
            station: "QCAL".into(),
            event_id: "E".into(),
            component: Component::Longitudinal,
            spectra,
        };
        let back = RFile::from_text(&r.to_text()).unwrap();
        prop_assert_eq!(back.spectra.len(), dampings_n);
        prop_assert_eq!(back.spectra[0].periods.len(), periods_n);
    }

    #[test]
    fn truncation_never_parses(
        (header, data) in triple_strategy(),
        frac in 0.05f64..0.95,
    ) {
        let file = V1ComponentFile { header, component: Component::Longitudinal, data };
        let text = file.to_text();
        let cut = (text.len() as f64 * frac) as usize;
        // Cutting anywhere strictly inside the document must fail to parse
        // (the counted blocks and mandatory header fields catch it).
        if cut < text.len() - 1 {
            prop_assert!(V1ComponentFile::from_text(&text[..cut]).is_err());
        }
    }

    #[test]
    fn reader_encoder_roundtrip_is_byte_identical(
        (header, data) in triple_strategy(),
        ci in 0usize..3,
        n in 2usize..40,
    ) {
        // A heterogeneous record stream: V1C + V1S + F, concatenated.
        let v1c = V1ComponentFile {
            header: header.clone(),
            component: Component::ALL[ci],
            data: data.clone(),
        };
        let v1s = V1StationFile {
            header: header.clone(),
            components: Component::ALL.iter().map(|&c| (c, data.clone())).collect(),
        };
        let freq: Vec<f64> = (0..n).map(|k| k as f64 * 0.1).collect();
        let f = FFile {
            station: header.station.clone(),
            event_id: header.event_id.clone(),
            component: Component::ALL[ci],
            dt: header.dt,
            spectrum: arp_dsp::spectrum::FourierSpectrum {
                frequency_hz: freq.clone(),
                acceleration: freq.iter().map(|v| v + 1.0).collect(),
                velocity: freq.iter().map(|v| v + 2.0).collect(),
                displacement: freq.iter().map(|v| v + 3.0).collect(),
            },
        };
        let stream = format!("{}{}{}", v1c.to_text(), v1s.to_text(), f.to_text());

        let mut out = Vec::new();
        let mut enc = RecordEncoder::new(&mut out);
        let mut reader = RecordReader::new(stream.as_bytes());
        for rec in reader.by_ref() {
            enc.write_record(&rec.unwrap()).unwrap();
        }
        prop_assert_eq!(reader.records_scanned(), 3);
        prop_assert_eq!(enc.records_written(), 3);
        enc.finish().unwrap();
        prop_assert_eq!(out, stream.into_bytes());
    }

    #[test]
    fn filtered_reencode_is_byte_subset(
        (header, data) in triple_strategy(),
        keep in 0usize..3,
    ) {
        // Three single-component records; keep exactly one by component.
        let texts: Vec<String> = Component::ALL
            .iter()
            .map(|&c| {
                V1ComponentFile { header: header.clone(), component: c, data: data.clone() }
                    .to_text()
            })
            .collect();
        let stream = texts.concat();
        let mut out = Vec::new();
        let mut enc = RecordEncoder::new(&mut out);
        for rec in RecordReader::new(stream.as_bytes())
            .with_filters(vec![Filter::Component(Component::ALL[keep])])
        {
            enc.write_record(&rec.unwrap()).unwrap();
        }
        prop_assert_eq!(enc.records_written(), 1);
        enc.finish().unwrap();
        prop_assert_eq!(out, texts[keep].clone().into_bytes());
    }

    #[test]
    fn reader_rejects_truncation_anywhere(
        (header, data) in triple_strategy(),
        frac in 0.05f64..0.95,
    ) {
        let file = V1ComponentFile { header, component: Component::Vertical, data };
        let text = file.to_text();
        let cut = (text.len() as f64 * frac) as usize;
        if cut < text.len() - 1 {
            let results: Vec<_> = RecordReader::new(&text.as_bytes()[..cut]).collect();
            // The streaming reader must surface exactly one error and fuse.
            prop_assert_eq!(results.len(), 1);
            prop_assert!(results[0].is_err());
        }
    }

    #[test]
    fn ffile_roundtrip(n in 2usize..60) {
        let freq: Vec<f64> = (0..n).map(|k| k as f64 * 0.1).collect();
        let f = FFile {
            station: "SMIG".into(),
            event_id: "E".into(),
            component: Component::Vertical,
            dt: 0.01,
            spectrum: arp_dsp::spectrum::FourierSpectrum {
                frequency_hz: freq.clone(),
                acceleration: freq.iter().map(|v| v + 1.0).collect(),
                velocity: freq.iter().map(|v| v + 2.0).collect(),
                displacement: freq.iter().map(|v| v + 3.0).collect(),
            },
        };
        let back = FFile::from_text(&f.to_text()).unwrap();
        prop_assert_eq!(back.spectrum.len(), n);
    }
}

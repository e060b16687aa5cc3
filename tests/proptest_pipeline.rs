//! Property tests over the whole pipeline: arbitrary small events and
//! configurations must process end-to-end with the implementations staying
//! output-equivalent.

use arp_core::output::{diff_snapshots, snapshot};
use arp_core::{run_pipeline, ImplKind, PipelineConfig, RunContext};
use arp_synth::{EventSpec, SiteClass, SourceModel, StationSpec};
use proptest::prelude::*;

fn event_strategy() -> impl Strategy<Value = EventSpec> {
    (
        1usize..4,    // stations
        64usize..220, // samples per component
        4.5f64..6.5,  // magnitude
        prop::sample::select(vec![0.005f64, 0.01, 0.02]),
        any::<u64>(),
    )
        .prop_map(|(n_stations, npts, magnitude, dt, seed)| {
            let stations = (0..n_stations)
                .map(|i| StationSpec {
                    code: format!("ST{i}X"),
                    distance_km: 10.0 + 15.0 * i as f64,
                    dt,
                    npts,
                    site: SiteClass::for_station_index(i),
                })
                .collect();
            EventSpec {
                id: "PROP-EV".into(),
                origin_time: "2020-01-01T00:00:00Z".into(),
                source: SourceModel {
                    magnitude,
                    ..Default::default()
                },
                stations,
                seed,
            }
        })
}

proptest! {
    // End-to-end pipeline runs are expensive; a handful of cases still
    // explores station counts, record lengths, rates, and seeds.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn any_event_processes_and_implementations_agree(event in event_strategy()) {
        let base = std::env::temp_dir().join(format!(
            "arp-prop-{}-{}",
            std::process::id(),
            event.seed
        ));
        let input = base.join("in");
        std::fs::create_dir_all(&input).unwrap();
        arp_synth::write_event_inputs(&event, &input).unwrap();

        let config = PipelineConfig::fast();

        let mut reference = None;
        for kind in [
            ImplKind::SequentialOriginal,
            ImplKind::FullyParallel,
            ImplKind::DagParallel,
        ] {
            let work = base.join(format!("w-{kind:?}"));
            let ctx = RunContext::new(&input, &work, config.clone()).unwrap();
            let report = run_pipeline(&ctx, kind).unwrap();
            prop_assert_eq!(report.v1_files, event.stations.len());
            prop_assert_eq!(report.data_points, event.total_data_points());
            // Verification passes on every completed run.
            let issues = arp_core::verify_run(&ctx).unwrap();
            prop_assert!(issues.is_empty(), "{:?}", issues);

            let snap = snapshot(&work).unwrap();
            match &reference {
                None => reference = Some(snap),
                Some(r) => {
                    let diffs = diff_snapshots(r, &snap);
                    prop_assert!(diffs.is_empty(), "{:?}", diffs);
                }
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }
}

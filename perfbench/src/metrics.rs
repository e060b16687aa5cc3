//! The metric catalogue and the result line.
//!
//! Every name here is also in `BENCHMARK.json` with the same unit (a test
//! holds the two together). A run prints exactly one set: the end-to-end
//! metrics when timed, the per-layer metrics when traced.

/// End-to-end metrics, timed with every collector off. Each is defined on
/// every workload over the workload's operation (one batch call, one
/// event, one query mix); see README.md.
pub const END_TO_END: &[(&str, &str)] = &[
    ("points_per_s", "samples/s"),
    ("event_latency_s", "s"),
    ("records_per_s", "records/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dsp.fir_design_us", "us"),
    ("dsp.fir_apply_ns_per_sample", "ns/sample"),
    ("dsp.integrate_ns_per_sample", "ns/sample"),
    ("dsp.spectrum_ns_per_sample", "ns/sample"),
    ("dsp.inflection_us_per_spectrum", "us"),
    ("dsp.respspec_ns_per_sample_period", "ns"),
    ("formats.v1_read_mb_s", "MB/s"),
    ("formats.v2_read_mb_s", "MB/s"),
    ("formats.f_read_mb_s", "MB/s"),
    ("formats.r_read_mb_s", "MB/s"),
    ("formats.encode_mb_s", "MB/s"),
    ("formats.files_written", "count"),
    ("formats.bytes_written", "bytes"),
    ("formats.reader_peak_bytes", "bytes"),
    ("query.records_scanned", "count"),
    ("query.body_skip_ratio", "ratio"),
    ("query.match_ratio", "ratio"),
    ("process.p01_gather_s", "s"),
    ("process.p03_separate_s", "s"),
    ("process.p04_filter_default_s", "s"),
    ("process.p07_fourier_s", "s"),
    ("process.p09_plot_fourier_s", "s"),
    ("process.p10_fsl_fpl_s", "s"),
    ("process.p13_filter_definitive_s", "s"),
    ("process.p15_plot_acc_s", "s"),
    ("process.p16_respspec_s", "s"),
    ("process.p18_plot_respspec_s", "s"),
    ("process.p19_gem_s", "s"),
    ("process.light_s", "s"),
    ("process.p10_serial_share", "ratio"),
    ("stagedir.overhead_s", "s"),
    ("stagedir.files_moved", "count"),
    ("sched.measured_s", "s"),
    ("sched.serial_s", "s"),
    ("sched.critical_path_s", "s"),
    ("sched.bound_s", "s"),
    ("sched.gap_s", "s"),
    ("sched.speedup_vs_serial", "x"),
    ("sched.p10_in_call_s", "s"),
    ("par.cpu_per_wall", "ratio"),
    ("par.dag_dispatches", "count"),
    ("par.loops_completed", "count"),
    ("par.jobs_helped", "count"),
    ("par.steals", "count"),
    ("par.cross_lane_steals", "count"),
    ("par.ready_peak", "count"),
    ("sim.predicted_s", "s"),
    ("sim.error", "ratio"),
    ("trace.base_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("diag.base_s", "s"),
    ("diag.overhead_ratio", "ratio"),
    ("bench.seq_optimized_s", "s"),
    ("bench.span_overhead_ratio", "ratio"),
    ("ledger.process_s", "s"),
    ("ledger.unattributed_ratio", "ratio"),
    ("failed_ratio", "ratio"),
];

/// Named metric values, kept in catalogue order when printed.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records `name = value`. Panics on a name outside the catalogue: a
    /// bug in this benchmark, not a measurement outcome.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The `"metrics"` object for `catalogue`: every entry, in order, with
    /// its unit. Fails when one is missing or not a finite number.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }

    /// Human-readable table of `catalogue`, one `name value unit` per line.
    pub fn table(&self, catalogue: &[(&str, &str)]) -> String {
        catalogue
            .iter()
            .map(|&(name, unit)| match self.get(name) {
                Some(v) => format!("  {name:<36} {v:>16.6} {unit}\n"),
                None => format!("  {name:<36} {:>16} {unit}\n", "-"),
            })
            .collect()
    }
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The result line: the last line a run prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use arp_trace::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_printed_metric_is_declared_with_its_unit() {
        let doc = benchmark_json();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = catalogue
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                declared(&doc, key),
                want,
                "{key} differs from the catalogue"
            );
        }
        for w in doc.get("workloads").and_then(Value::as_arr).unwrap() {
            let name = w.get("name").and_then(Value::as_str).unwrap();
            assert!(
                crate::inputs::Workload::parse(name).is_some(),
                "BENCHMARK.json names unknown workload {name}"
            );
        }
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.5 + i as f64);
        }
        let line = result_line(true, 3, 0, &m.to_json(END_TO_END).unwrap());
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(3));
        let metrics = doc.get("metrics").unwrap();
        for &(name, unit) in END_TO_END {
            let entry = metrics.get(name).unwrap();
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(unit));
            assert!(entry.get("value").and_then(Value::as_f64).is_some());
        }
        assert!(
            m.to_json(PER_LAYER).is_err(),
            "an unmeasured metric must fail"
        );
    }
}

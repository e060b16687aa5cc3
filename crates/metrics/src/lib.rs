//! # arp-metrics — live metrics for the parallel pipeline
//!
//! Where `arp-trace` answers *"which worker ran which node when"* after the
//! fact, this crate answers *"what is the system doing right now"* — and
//! keeps answering while a long batch run is in flight. It is a global
//! registry of three primitive instruments, all updated with single atomic
//! operations and all readable at any time without stopping the world:
//!
//! * [`Counter`] — a monotonically increasing `u64` (events retired, bytes
//!   processed);
//! * [`Gauge`] — a signed instantaneous level with a high-water mark
//!   (super-DAG nodes pending);
//! * [`Histogram`] — a log-linear distribution recorder (queue waits,
//!   execute times, per-process durations) whose quantiles carry a
//!   bounded relative error of at most 1/16 (6.25%).
//!
//! Beside the handles, a [`reader`] family holds no value of its own: it
//! reads a store the instrumented code already keeps (the worker pool's
//! statistics) when the registry is rendered, so that fact is counted once.
//!
//! ## Disabled path
//!
//! Like `arp-trace`, recording is off by default and every mutator's
//! disabled path is a single relaxed atomic load — instrumented code can
//! stay instrumented in production builds. [`set_enabled`] turns
//! collection on (the CLI does this when `--metrics-addr` is given, the
//! bench harness around measured runs). Reads ([`gather`], snapshots) work
//! regardless of the flag.
//!
//! ## Exposition
//!
//! [`gather`] renders the whole registry in the Prometheus text exposition
//! format 0.0.4 (counters and gauges as themselves, histograms as
//! summaries with `quantile="0.5|0.95|0.99"` lines). [`expo::parse_exposition`]
//! is the matching parser used by tests and `arp metrics --check`, and
//! [`http::serve`] exposes `gather` over a minimal `/metrics` endpoint.
//!
//! ```
//! let hits = arp_metrics::counter("doc_hits_total", "Example counter.");
//! arp_metrics::set_enabled(true);
//! hits.inc();
//! arp_metrics::set_enabled(false);
//! hits.inc(); // inert: disabled
//! assert_eq!(hits.get(), 1);
//! let text = arp_metrics::gather();
//! assert!(text.contains("# TYPE doc_hits_total counter"));
//! ```

#![warn(missing_docs)]

pub mod expo;
pub mod http;

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True while metric recording is on. The disabled fast path of every
/// mutator is this single relaxed load.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric recording on or off. Reads are always allowed; this gates
/// only the mutators, so flipping it never tears an in-progress snapshot.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing counter. Resets only via [`reset`].
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Adds one. A single relaxed load when recording is disabled.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. A single relaxed load when recording is disabled.
    pub fn add(&self, n: u64) {
        if !enabled() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level. Tracks its high-water mark, exposed as a
/// companion `<name>_peak` gauge.
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    value: AtomicI64,
    peak: AtomicI64,
}

impl Gauge {
    /// Adds `d` and returns the new level. Inert (returning the current
    /// level) when recording is disabled.
    pub fn add(&self, d: i64) -> i64 {
        if !enabled() {
            return self.get();
        }
        let now = self.value.fetch_add(d, Ordering::Relaxed) + d;
        self.peak.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Subtracts `d` and returns the new level.
    pub fn sub(&self, d: i64) -> i64 {
        self.add(-d)
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level seen since the last [`reset`].
    pub fn peak(&self) -> i64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power-of-two magnitude (2^4): the knob that sets
/// both the memory per histogram and the quantile error bound.
pub const SUB_BUCKETS: usize = 16;
const SUB_BITS: u32 = 4;
/// Total buckets: values `< 16` get exact unit buckets, and each of the 60
/// remaining magnitudes [2^m, 2^(m+1)) is split into 16 linear sub-buckets.
pub const BUCKET_COUNT: usize = SUB_BUCKETS + 60 * SUB_BUCKETS;

/// A log-linear histogram over `u64` samples (HdrHistogram-style
/// bucketing): exact below [`SUB_BUCKETS`], then [`SUB_BUCKETS`] linear
/// sub-buckets per power of two, for a worst-case relative quantile error
/// of `1/SUB_BUCKETS` = 6.25%. Each recording is two relaxed `fetch_add`s
/// plus the enable check; the full range of `u64` is representable, so no
/// sample is ever clamped or dropped.
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    label: Option<(&'static str, String)>,
    /// Samples are recorded in an integer unit (e.g. nanoseconds); the
    /// exposition divides by this to reach the advertised unit (e.g.
    /// seconds for a `_seconds` name).
    scale: f64,
    buckets: Box<[AtomicU64; BUCKET_COUNT]>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// Index of the bucket `v` lands in. Total over `u64`: every value lands
/// in exactly one bucket.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let m = 63 - v.leading_zeros(); // 2^m <= v, m >= SUB_BITS
    let sub = ((v >> (m - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
    (m - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
}

/// Half-open value range `[lo, hi)` covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKET_COUNT, "bucket index {i} out of range");
    if i < SUB_BUCKETS {
        return (i as u64, i as u64 + 1);
    }
    let g = (i / SUB_BUCKETS - 1) as u32; // magnitude above the exact range
    let sub = (i % SUB_BUCKETS) as u64;
    let lo = (SUB_BUCKETS as u64 + sub) << g;
    // The topmost bucket's upper bound is 2^64; clamp to u64::MAX.
    (lo, lo.saturating_add(1u64 << g))
}

impl Histogram {
    /// Records one sample. Two relaxed RMWs; a single relaxed load when
    /// recording is disabled.
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the bucket counts for analysis. (Counts
    /// are read individually with relaxed loads; a snapshot taken while
    /// recording races may be off by in-flight samples, never torn.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            scale: self.scale,
        }
    }
}

/// Point-in-time copy of a [`Histogram`]'s state; the quantile/mean
/// queries live here so they see one consistent set of counts.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts ([`BUCKET_COUNT`] entries).
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded samples (raw unit).
    pub sum: u64,
    /// Raw-unit-per-exposed-unit divisor (see [`Histogram`]).
    pub scale: f64,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile (`q` in `[0, 1]`) in the raw recorded unit,
    /// reported as the lower bound of the containing bucket (relative
    /// error `< 1/16`, exact below [`SUB_BUCKETS`]). `None` when nothing
    /// has been recorded — empty distributions have no quantiles, and
    /// returning a number here is how NaNs end up in reports.
    pub fn quantile_raw(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_bounds(i).0);
            }
        }
        // Unreachable when counts sum to count; be safe under racy reads.
        Some(bucket_bounds(BUCKET_COUNT - 1).0)
    }

    /// [`Self::quantile_raw`] divided by the scale — the value in the
    /// exposed unit (seconds for `_seconds` histograms).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.quantile_raw(q).map(|v| v as f64 / self.scale)
    }

    /// Mean in the exposed unit; `None` when nothing has been recorded.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(self.sum as f64 / self.count as f64 / self.scale)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// How a [`reader`] family renders: as a counter, or as a gauge with its
/// `<name>_peak` companion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A running total (`# TYPE … counter`).
    Counter,
    /// A level plus its high-water mark (`# TYPE … gauge` and `_peak`).
    Gauge,
}

/// One member of a [`reader`] family, as read at scrape time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reading {
    /// The member's `key="value"` label, if any.
    pub label: Option<(&'static str, String)>,
    /// A counter's total or a gauge's level.
    pub value: u64,
    /// A gauge's high-water mark, rendered as `<name>_peak`; counters
    /// ignore it.
    pub peak: u64,
}

/// A family that reads its members from the instrumented code's own store
/// when the registry renders, instead of holding values of its own.
struct Reader {
    name: &'static str,
    help: &'static str,
    kind: Kind,
    read: fn() -> Vec<Reading>,
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
    Reader(&'static Reader),
}

impl Metric {
    fn name(&self) -> &'static str {
        match self {
            Metric::Counter(c) => c.name,
            Metric::Gauge(g) => g.name,
            Metric::Histogram(h) => h.name,
            Metric::Reader(r) => r.name,
        }
    }

    fn label(&self) -> Option<&(&'static str, String)> {
        match self {
            Metric::Histogram(h) => h.label.as_ref(),
            _ => None,
        }
    }
}

fn registry() -> &'static Mutex<Vec<Metric>> {
    static REGISTRY: OnceLock<Mutex<Vec<Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn assert_valid_name(name: &str) {
    let mut chars = name.chars();
    let ok_first = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    let ok_rest = name
        .chars()
        .skip(1)
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    assert!(ok_first && ok_rest, "invalid metric name {name:?}");
}

/// Registers (or returns the existing) counter `name`. Idempotent per
/// name; panics if the name is already registered as a different
/// instrument kind (a programming error, not a runtime input).
pub fn counter(name: &'static str, help: &'static str) -> &'static Counter {
    assert_valid_name(name);
    let mut reg = registry().lock().expect("metrics registry poisoned");
    if let Some(found) = find(&reg, name, None) {
        match found {
            Metric::Counter(c) => return c,
            _ => panic!("metric {name:?} already registered as a different kind"),
        }
    }
    let leaked: &'static Counter = Box::leak(Box::new(Counter {
        name,
        help,
        value: AtomicU64::new(0),
    }));
    reg.push(Metric::Counter(leaked));
    leaked
}

/// Registers (or returns the existing) gauge `name`.
pub fn gauge(name: &'static str, help: &'static str) -> &'static Gauge {
    assert_valid_name(name);
    let mut reg = registry().lock().expect("metrics registry poisoned");
    if let Some(found) = find(&reg, name, None) {
        match found {
            Metric::Gauge(g) => return g,
            _ => panic!("metric {name:?} already registered as a different kind"),
        }
    }
    let leaked: &'static Gauge = Box::leak(Box::new(Gauge {
        name,
        help,
        value: AtomicI64::new(0),
        peak: AtomicI64::new(0),
    }));
    reg.push(Metric::Gauge(leaked));
    leaked
}

/// Registers (or returns the existing) histogram `name`. `scale` is the
/// raw-unit-per-exposed-unit divisor (1e9 for nanosecond recordings
/// exposed as `_seconds`).
pub fn histogram(name: &'static str, help: &'static str, scale: f64) -> &'static Histogram {
    histogram_labeled(name, help, scale, None)
}

/// As [`histogram`], carrying one `key="value"` label pair (the per-process
/// duration family registers twenty of these, `process="0".."19"`).
pub fn histogram_labeled(
    name: &'static str,
    help: &'static str,
    scale: f64,
    label: Option<(&'static str, &str)>,
) -> &'static Histogram {
    assert_valid_name(name);
    assert!(
        scale.is_finite() && scale > 0.0,
        "invalid histogram scale {scale}"
    );
    let mut reg = registry().lock().expect("metrics registry poisoned");
    if let Some(found) = find(&reg, name, label) {
        match found {
            Metric::Histogram(h) => return h,
            _ => panic!("metric {name:?} already registered as a different kind"),
        }
    }
    let leaked: &'static Histogram = Box::leak(Box::new(Histogram {
        name,
        help,
        label: label.map(|(k, v)| (k, v.to_string())),
        scale,
        buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
    }));
    reg.push(Metric::Histogram(leaked));
    leaked
}

/// Registers the family `name`, whose members `read` returns each time the
/// registry renders (a second registration of the same name is a no-op).
/// The family holds no value, so [`reset`] leaves it alone and the enable
/// flag does not gate it. `read` runs under the registry lock: it must not
/// register instruments.
pub fn reader(name: &'static str, help: &'static str, kind: Kind, read: fn() -> Vec<Reading>) {
    assert_valid_name(name);
    let mut reg = registry().lock().expect("metrics registry poisoned");
    match reg.iter().find(|m| m.name() == name) {
        Some(Metric::Reader(_)) => {}
        Some(_) => panic!("metric {name:?} already registered as a different kind"),
        None => {
            let leaked: &'static Reader = Box::leak(Box::new(Reader {
                name,
                help,
                kind,
                read,
            }));
            reg.push(Metric::Reader(leaked));
        }
    }
}

fn find<'r>(
    reg: &'r [Metric],
    name: &str,
    label: Option<(&'static str, &str)>,
) -> Option<&'r Metric> {
    reg.iter().find(|m| {
        m.name() == name
            && match (m.label(), label) {
                (None, None) => true,
                (Some((k1, v1)), Some((k2, v2))) => *k1 == k2 && v1 == v2,
                _ => false,
            }
    })
}

/// Zeroes every registered handle (counters, gauge levels and peaks,
/// histogram buckets); [`reader`] families hold no value and are left
/// alone. The bench harness calls this between measured phases so each
/// phase reads its own distribution; a live service never needs it.
pub fn reset() {
    for m in registry().lock().expect("metrics registry poisoned").iter() {
        match m {
            Metric::Counter(c) => c.value.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => {
                g.value.store(0, Ordering::Relaxed);
                g.peak.store(0, Ordering::Relaxed);
            }
            Metric::Histogram(h) => {
                for b in h.buckets.iter() {
                    b.store(0, Ordering::Relaxed);
                }
                h.count.store(0, Ordering::Relaxed);
                h.sum.store(0, Ordering::Relaxed);
            }
            Metric::Reader(_) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (format 0.0.4)
// ---------------------------------------------------------------------------

/// `{key="value"}` / `{key="value",quantile="q"}` rendering.
fn label_str(label: Option<&(&'static str, String)>, extra: Option<(&str, &str)>) -> String {
    let mut pairs = Vec::new();
    if let Some((k, v)) = label {
        pairs.push(format!("{k}=\"{}\"", expo::escape_label_value(v)));
    }
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Renders every registered metric in the Prometheus text exposition
/// format 0.0.4. Families are grouped (one `# HELP`/`# TYPE` header per
/// name, members in registration order); histograms render as summaries
/// with `quantile="0.5" | "0.95" | "0.99"` sample lines, which are omitted
/// — never NaN — while the histogram is empty. Gauges, handles and
/// [`reader`] families alike, render a companion `<name>_peak` family
/// carrying the high-water mark.
pub fn gather() -> String {
    let reg = registry().lock().expect("metrics registry poisoned");
    // Group members by family name, preserving first-appearance order.
    let mut families: Vec<(&'static str, Vec<&Metric>)> = Vec::new();
    for m in reg.iter() {
        match families.iter_mut().find(|(n, _)| *n == m.name()) {
            Some((_, members)) => members.push(m),
            None => families.push((m.name(), vec![m])),
        }
    }
    let mut out = String::new();
    for (name, members) in &families {
        let (help, kind) = match members[0] {
            Metric::Counter(c) => (c.help, "counter"),
            Metric::Gauge(g) => (g.help, "gauge"),
            Metric::Histogram(h) => (h.help, "summary"),
            Metric::Reader(r) if r.kind == Kind::Gauge => (r.help, "gauge"),
            Metric::Reader(r) => (r.help, "counter"),
        };
        let _ = writeln!(out, "# HELP {name} {}", expo::escape_help(help));
        let _ = writeln!(out, "# TYPE {name} {kind}");
        // Counter and gauge members as `(labels, value, peak)` rows.
        let mut rows = Vec::new();
        for m in members {
            match m {
                Metric::Counter(c) => {
                    rows.push((String::new(), c.get().to_string(), String::new()))
                }
                Metric::Gauge(g) => {
                    rows.push((String::new(), g.get().to_string(), g.peak().to_string()))
                }
                Metric::Reader(r) => rows.extend((r.read)().into_iter().map(|x| {
                    let labels = label_str(x.label.as_ref(), None);
                    (labels, x.value.to_string(), x.peak.to_string())
                })),
                Metric::Histogram(h) => {
                    let (snap, label) = (h.snapshot(), h.label.as_ref());
                    for q in ["0.5", "0.95", "0.99"] {
                        if let Some(v) = snap.quantile(q.parse().unwrap()) {
                            let labels = label_str(label, Some(("quantile", q)));
                            let _ = writeln!(out, "{name}{labels} {v}");
                        }
                    }
                    let labels = label_str(label, None);
                    let _ = writeln!(out, "{name}_sum{labels} {}", snap.sum as f64 / snap.scale);
                    let _ = writeln!(out, "{name}_count{labels} {}", snap.count);
                }
            }
        }
        for (labels, value, _) in &rows {
            let _ = writeln!(out, "{name}{labels} {value}");
        }
        if kind == "gauge" {
            let _ = writeln!(out, "# HELP {name}_peak High-water mark of {name}.");
            let _ = writeln!(out, "# TYPE {name}_peak gauge");
            for (labels, _, peak) in &rows {
                let _ = writeln!(out, "{name}_peak{labels} {peak}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registry and enable flag are process-global; serialize the tests
    /// that toggle them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_recording<R>(f: impl FnOnce() -> R) -> R {
        let _t = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        r
    }

    #[test]
    fn disabled_mutators_are_inert() {
        let _t = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        let c = counter("test_inert_total", "t");
        let g = gauge("test_inert_gauge", "t");
        let h = histogram("test_inert_seconds", "t", 1e9);
        c.inc();
        g.add(5);
        h.record(42);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn counter_and_gauge_track_levels_and_peaks() {
        with_recording(|| {
            let c = counter("test_cg_total", "t");
            let g = gauge("test_cg_gauge", "t");
            c.add(3);
            c.inc();
            assert_eq!(c.get(), 4);
            assert_eq!(g.add(2), 2);
            assert_eq!(g.add(3), 5);
            assert_eq!(g.sub(4), 1);
            assert_eq!(g.peak(), 5);
        });
    }

    #[test]
    fn readers_render_like_handles_and_ignore_reset() {
        fn read_level() -> Vec<Reading> {
            vec![Reading {
                label: Some(("worker", "w-0".to_string())),
                value: 2,
                peak: 5,
            }]
        }
        fn read_total() -> Vec<Reading> {
            vec![Reading {
                label: None,
                value: 7,
                peak: 0,
            }]
        }
        with_recording(|| {
            reader(
                "test_reader_depth",
                "A read level.",
                Kind::Gauge,
                read_level,
            );
            reader(
                "test_reader_total",
                "A read total.",
                Kind::Counter,
                read_total,
            );
            reset();
            let text = gather();
            assert!(text.contains("# TYPE test_reader_depth gauge"));
            assert!(text.contains(r#"test_reader_depth{worker="w-0"} 2"#));
            assert!(text.contains("# TYPE test_reader_depth_peak gauge"));
            assert!(text.contains(r#"test_reader_depth_peak{worker="w-0"} 5"#));
            assert!(text.contains("# TYPE test_reader_total counter"));
            assert!(text.contains("test_reader_total 7"));
            assert!(!text.contains("test_reader_total_peak"));
        });
    }

    #[test]
    fn registration_is_idempotent_per_name_and_label() {
        let _t = TEST_LOCK.lock().unwrap();
        let a = counter("test_idem_total", "t");
        let b = counter("test_idem_total", "different help ignored");
        assert!(std::ptr::eq(a, b));
        let h0 = histogram_labeled("test_idem_seconds", "t", 1e9, Some(("process", "0")));
        let h1 = histogram_labeled("test_idem_seconds", "t", 1e9, Some(("process", "1")));
        let h0b = histogram_labeled("test_idem_seconds", "t", 1e9, Some(("process", "0")));
        assert!(std::ptr::eq(h0, h0b));
        assert!(!std::ptr::eq(h0, h1));
    }

    #[test]
    fn bucket_partition_is_exact_below_sub_buckets() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v + 1));
        }
    }

    #[test]
    fn bucket_bounds_tile_the_u64_line() {
        // Consecutive buckets meet exactly: hi(i) == lo(i+1), starting at 0.
        assert_eq!(bucket_bounds(0).0, 0);
        for i in 0..BUCKET_COUNT - 1 {
            assert_eq!(
                bucket_bounds(i).1,
                bucket_bounds(i + 1).0,
                "gap after bucket {i}"
            );
        }
        // The last bucket reaches the top of the u64 range.
        let (lo, hi) = bucket_bounds(BUCKET_COUNT - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert!(lo < hi);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn empty_histogram_has_no_quantiles_and_no_nan() {
        let _t = TEST_LOCK.lock().unwrap();
        reset();
        let h = histogram("test_empty_seconds", "t", 1e9);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.mean(), None);
        let text = gather();
        assert!(!text.contains("NaN"), "exposition contains NaN:\n{text}");
    }

    #[test]
    fn quantiles_are_nearest_rank_over_buckets() {
        with_recording(|| {
            let h = histogram("test_q_raw", "t", 1.0);
            for v in 1..=100u64 {
                h.record(v);
            }
            let snap = h.snapshot();
            assert_eq!(snap.count, 100);
            // Values <16 are exact; larger ones land on bucket lower bounds.
            let p50 = snap.quantile_raw(0.5).unwrap();
            assert!(p50 <= 50 && 50 - p50 <= 50 / 16, "p50 {p50}");
            let p99 = snap.quantile_raw(0.99).unwrap();
            assert!(p99 <= 99 && 99 - p99 <= 99 / 16, "p99 {p99}");
            assert!((snap.mean().unwrap() - 50.5).abs() < 1e-9);
        });
    }

    #[test]
    fn reset_zeroes_everything() {
        with_recording(|| {
            let c = counter("test_reset_total", "t");
            let g = gauge("test_reset_gauge", "t");
            let h = histogram("test_reset_seconds", "t", 1e9);
            c.inc();
            g.add(9);
            h.record(1_000);
            reset();
            assert_eq!(c.get(), 0);
            assert_eq!(g.get(), 0);
            assert_eq!(g.peak(), 0);
            assert_eq!(h.snapshot().count, 0);
        });
    }

    #[test]
    fn gather_renders_families_with_headers() {
        with_recording(|| {
            let c = counter("test_gather_total", "Counted things.");
            let g = gauge("test_gather_gauge", "A level.");
            let h = histogram_labeled(
                "test_gather_seconds",
                "Timings.",
                1e9,
                Some(("process", "4")),
            );
            c.add(2);
            g.add(3);
            h.record(2_000_000_000); // 2 s
            let text = gather();
            assert!(text.contains("# TYPE test_gather_total counter"));
            assert!(text.contains("test_gather_total 2"));
            assert!(text.contains("# TYPE test_gather_gauge gauge"));
            assert!(text.contains("test_gather_gauge 3"));
            assert!(text.contains("test_gather_gauge_peak 3"));
            assert!(text.contains("# TYPE test_gather_seconds summary"));
            assert!(text.contains(r#"test_gather_seconds{process="4",quantile="0.5"}"#));
            assert!(text.contains(r#"test_gather_seconds_count{process="4"} 1"#));
        });
    }
}

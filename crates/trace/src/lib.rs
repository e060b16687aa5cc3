//! # arp-trace — structured tracing for the parallel pipeline
//!
//! The scheduler in `arp-par` tells us *that* a DAG completed and how many
//! nodes it dispatched; this crate records *which worker ran which node
//! when*. Every unit of scheduled work — a DAG node, a `parallel_for`
//! chunk, a pipeline process — becomes a [`Span`] carrying its process id,
//! event label, worker lane, queue-wait vs execute time, and bytes
//! processed.
//!
//! ## Architecture: per-thread lanes, drained at quiesce
//!
//! Recording must not perturb the schedule it observes, so the hot path is
//! lock-cheap by construction:
//!
//! * when tracing is **disabled** (the default), [`begin`] and [`annotate`]
//!   are a single relaxed atomic load — no allocation, no lock;
//! * when **enabled**, each thread records into its own [`Lane`]: a
//!   fixed-capacity [ring](RING_CAPACITY) behind a mutex only that thread
//!   touches while the session runs (uncontended lock, no cross-thread
//!   traffic);
//! * the rings are drained once, by [`TraceSession::finish`], after the
//!   pool has quiesced (every `run_dag`/`parallel_for` construct blocks its
//!   caller until completion, so "the run returned" implies "the workers
//!   are idle").
//!
//! A full ring overwrites its oldest spans and counts them in
//! [`Trace::dropped`] — tracing degrades by forgetting history, never by
//! blocking the scheduler. The same lanes carry `arp-diag`'s log records
//! and node attribution on the same clock; see [`lane`].
//!
//! ## Usage
//!
//! The pool and executors call [`begin`]/[`begin_queued`] around each unit
//! of work and [`annotate`] from inside the work body to attach pipeline
//! attribution (process id, event, bytes). A profiling run brackets the
//! workload in a session:
//!
//! ```
//! let session = arp_trace::TraceSession::start();
//! {
//!     let _span = arp_trace::begin(arp_trace::Cat::Process);
//!     arp_trace::annotate(|a| {
//!         a.name = "ev-a/#4".into();
//!         a.process = Some(4);
//!         a.event = "ev-a".into();
//!         a.bytes = 56_832;
//!     });
//!     // ... the work ...
//! }
//! let trace = session.finish();
//! assert_eq!(trace.spans.len(), 1);
//! assert_eq!(trace.spans[0].process, Some(4));
//! let json = trace.to_chrome_json(); // loadable in Perfetto
//! assert!(json.contains("traceEvents"));
//! ```
//!
//! Sessions are process-global and serialize against each other (a second
//! [`TraceSession::start`] blocks until the first finishes); spans recorded
//! while no session is active are discarded at the next session start.

#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod lane;
pub mod profile;
pub mod stats;

pub use chrome::{from_chrome_json, to_chrome_json, validate_chrome_json, ChromeCheck};
pub use lane::{
    clear_logs, current_lane, lanes, now_ns, try_current_lane, Attribution, Lane, Level, Record,
    Ring, LOG_RING_CAPACITY,
};
pub use profile::{Profile, ProfileNode, WhatIfCurve, WhatIfPoint};
pub use stats::{LaneLoad, TraceSummary};

use parking_lot::{Mutex, MutexGuard};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What kind of scheduled work a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cat {
    /// One node of a `run_dag` graph (a pipeline process of one event, in
    /// the DAG and batch super-DAG executors).
    DagNode,
    /// One claimed chunk of a `parallel_for` loop.
    Chunk,
    /// One pipeline process executed outside the DAG scheduler (the
    /// sequential and staged executors, and simulated-timing runs).
    Process,
}

impl Cat {
    /// Stable string form (Chrome-trace `cat` field, CSV column).
    pub fn label(self) -> &'static str {
        match self {
            Cat::DagNode => "dag-node",
            Cat::Chunk => "chunk",
            Cat::Process => "process",
        }
    }

    /// Inverse of [`Cat::label`].
    pub fn parse(s: &str) -> Option<Cat> {
        match s {
            "dag-node" => Some(Cat::DagNode),
            "chunk" => Some(Cat::Chunk),
            "process" => Some(Cat::Process),
            _ => None,
        }
    }
}

/// One recorded unit of work, attributed to a worker lane. Times are
/// nanoseconds relative to the session start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Display name (`"ev-a/#7"` for pipeline nodes, `"for[lo..hi)"` for
    /// loop chunks).
    pub name: String,
    /// Work category.
    pub cat: Cat,
    /// Pipeline process id, when the work is (part of) a process.
    pub process: Option<u8>,
    /// Event label the work belongs to (empty when unknown, e.g. bare
    /// loop chunks).
    pub event: String,
    /// Worker lane index (index into [`Trace::lanes`]).
    pub lane: usize,
    /// Start offset from session start, in nanoseconds.
    pub start_ns: u64,
    /// Execution time in nanoseconds.
    pub dur_ns: u64,
    /// Time spent queued before execution began (dispatch → start), in
    /// nanoseconds; zero for work that never sat in the pool channel.
    pub queue_ns: u64,
    /// Bytes of input the work processed (the event's sample count × 8 for
    /// pipeline nodes — a shape proxy, not an I/O meter).
    pub bytes: u64,
}

impl Span {
    /// End offset from session start, in nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// The annotatable fields of the currently open span. Filled by
/// [`annotate`] from inside the work body, which knows the pipeline-level
/// attribution the scheduler cannot.
#[derive(Debug, Default)]
pub struct SpanFields {
    /// Display name.
    pub name: String,
    /// Pipeline process id.
    pub process: Option<u8>,
    /// Event label.
    pub event: String,
    /// Bytes processed.
    pub bytes: u64,
}

struct OpenSpan {
    fields: SpanFields,
    cat: Cat,
    start: Instant,
    queue_ns: u64,
}

/// Counter tracks the pool emits alongside spans. [`validate_chrome_json`]
/// rejects counter events with names outside this list — a misspelled
/// track would otherwise silently render as a separate empty track in
/// Perfetto.
pub const COUNTER_TRACKS: [&str; 6] = [
    "ready-queue-depth",
    "workers-busy",
    "io-lane-depth",
    "io-workers-busy",
    "deque-depth",
    "steals",
];

/// True when `track` is one of the [`COUNTER_TRACKS`] this crate emits.
pub fn known_counter_track(track: &str) -> bool {
    COUNTER_TRACKS.contains(&track)
}

/// One sample of a time-varying quantity (ready-queue depth, busy
/// workers): a Chrome-trace counter (`"C"`) event. Timestamps are
/// nanoseconds relative to the session start, like [`Span`].
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Track name (one of [`COUNTER_TRACKS`]).
    pub track: String,
    /// Sample time, nanoseconds from session start.
    pub ts_ns: u64,
    /// The sampled value.
    pub value: f64,
}

/// Spans (and, separately, counter samples) each worker lane retains per
/// session; older entries are overwritten (and counted in
/// [`Trace::dropped`]) once the ring is full.
pub const RING_CAPACITY: usize = 1 << 16;

/// A recorded counter sample before drain: the track is still a static
/// string (no allocation on the hot path) and the timestamp is on the
/// process clock (rebased to session start at drain).
pub(crate) struct CounterEntry {
    track: &'static str,
    ts_ns: u64,
    value: f64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SESSION_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    static STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
}

/// True while a [`TraceSession`] is collecting. The disabled fast path of
/// every recording call is this single relaxed load.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// `Some(now)` iff tracing is enabled — used by the pool to stamp dispatch
/// time when a job is *enqueued*, so the span can separate queue wait from
/// execute time without paying for a clock read when disabled.
pub fn stamp() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Records one sample on a counter track (ready-queue depth after a
/// dispatch, busy workers after a job starts). A single relaxed load when
/// tracing is disabled; when enabled, one clock read and a push into the
/// calling thread's counter ring. `track` should be one of
/// [`COUNTER_TRACKS`] — the export validator enforces it.
pub fn counter(track: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let ts_ns = now_ns();
    current_lane().counters.lock().push(CounterEntry {
        track,
        ts_ns,
        value,
    });
}

/// Closes its span when dropped. Inert (and free) when tracing was
/// disabled at [`begin`] time.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard {
    active: bool,
}

/// Opens a span of category `cat` on the calling thread. The span closes —
/// and is committed to the thread's ring — when the returned guard drops.
/// Spans on one thread nest strictly (guards drop in LIFO order).
pub fn begin(cat: Cat) -> SpanGuard {
    begin_queued(cat, None)
}

/// As [`begin`], for work that waited in a queue: `queued_at` is the
/// dispatch stamp (from [`stamp`]), and the elapsed dispatch → start gap is
/// recorded as the span's queue wait.
pub fn begin_queued(cat: Cat, queued_at: Option<Instant>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: false };
    }
    let now = Instant::now();
    let queue_ns = queued_at
        .map(|t| now.saturating_duration_since(t).as_nanos() as u64)
        .unwrap_or(0);
    STACK.with(|stack| {
        stack.borrow_mut().push(OpenSpan {
            fields: SpanFields::default(),
            cat,
            start: now,
            queue_ns,
        })
    });
    SpanGuard { active: true }
}

/// Attaches pipeline attribution to the innermost open span on this
/// thread; a no-op when tracing is disabled or no span is open, so callers
/// never pay for building labels outside a session. The closure must not
/// itself call back into tracing functions.
pub fn annotate(f: impl FnOnce(&mut SpanFields)) {
    if !enabled() {
        return;
    }
    STACK.with(|stack| {
        if let Some(top) = stack.borrow_mut().last_mut() {
            f(&mut top.fields);
        }
    });
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let Some(open) = STACK.with(|stack| stack.borrow_mut().pop()) else {
            return;
        };
        let dur_ns = open.start.elapsed().as_nanos() as u64;
        let start_ns = lane::epoch_ns(open.start);
        let lane = current_lane();
        let span = Span {
            name: open.fields.name,
            cat: open.cat,
            process: open.fields.process,
            event: open.fields.event,
            lane: lane.index.load(Ordering::SeqCst),
            start_ns,
            dur_ns,
            queue_ns: open.queue_ns,
            bytes: open.fields.bytes,
        };
        lane.spans.lock().push(span);
    }
}

/// A collection window. Starting a session clears every lane's span and
/// counter rings and enables recording; [`TraceSession::finish`] disables
/// recording and drains those rings into a [`Trace`]. Log rings are left
/// alone (they follow `arp-diag`'s own switch). Only one session runs at a
/// time — concurrent starts block (never interleave), so traces are never
/// mixed.
pub struct TraceSession {
    _lock: MutexGuard<'static, ()>,
}

impl TraceSession {
    /// Begins collecting. Blocks while another session is active. Dead
    /// lanes are dropped by the [lane rule](lane), and the surviving lanes
    /// are re-indexed and their span and counter rings cleared.
    pub fn start() -> TraceSession {
        let lock = SESSION_LOCK.lock();
        let mut reg = lane::registry();
        lane::prune(&mut reg);
        for lane in reg.iter() {
            lane.spans.lock().clear();
            lane.counters.lock().clear();
        }
        ACTIVE_START_NS.store(now_ns(), Ordering::SeqCst);
        // Enabled under the registry lock, so a log-ring arming that finds
        // no session open cannot re-index lanes under this one.
        ENABLED.store(true, Ordering::SeqCst);
        TraceSession { _lock: lock }
    }

    /// Stops collecting and drains every lane's ring. Call after the
    /// traced constructs have returned (the pool is quiescent for this
    /// workload — blocking constructs guarantee it), so every span the
    /// workload produced has been committed.
    pub fn finish(self) -> Trace {
        let reg = lane::registry();
        ENABLED.store(false, Ordering::SeqCst);
        drain(&reg, ACTIVE_START_NS.load(Ordering::SeqCst))
    }
}

impl Drop for TraceSession {
    /// A session abandoned without [`TraceSession::finish`] (an error
    /// path, a panic) still disables recording, so tracing can never leak
    /// into subsequent untraced work.
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

/// Start of the active (or last) session on the process clock; `finish`
/// and [`snapshot`] rebase spans to it.
static ACTIVE_START_NS: AtomicU64 = AtomicU64::new(0);

/// Peeks the active session's rings without draining or stopping it:
/// returns the spans and counters committed so far, rebased like
/// [`TraceSession::finish`]. `None` when no session is running. Used by
/// the flight recorder to freeze a trace tail into a postmortem bundle
/// while the (crashed) session is still formally open.
pub fn snapshot() -> Option<Trace> {
    if !enabled() {
        return None;
    }
    let start_ns = ACTIVE_START_NS.load(Ordering::SeqCst);
    Some(drain(&lane::registry(), start_ns))
}

/// Copies every lane's spans and counter samples into a [`Trace`], rebased
/// to the session start `start_ns`; the wall time runs to now.
fn drain(lanes: &[Arc<Lane>], start_ns: u64) -> Trace {
    let mut trace = Trace {
        wall: Duration::from_nanos(now_ns().saturating_sub(start_ns)),
        ..Trace::default()
    };
    for lane in lanes {
        trace.lanes.push(lane.name().to_string());
        let spans = lane.spans.lock();
        let counters = lane.counters.lock();
        trace.dropped += spans.dropped() + counters.dropped();
        trace.spans.extend(spans.iter().map(|s| Span {
            start_ns: s.start_ns.saturating_sub(start_ns),
            ..s.clone()
        }));
        trace
            .counters
            .extend(counters.iter().map(|e| CounterSample {
                track: e.track.to_string(),
                ts_ns: e.ts_ns.saturating_sub(start_ns),
                value: e.value,
            }));
    }
    trace
        .spans
        .sort_by_key(|s| (s.lane, s.start_ns, std::cmp::Reverse(s.end_ns())));
    trace
        .counters
        .sort_by(|a, b| (a.track.as_str(), a.ts_ns).cmp(&(b.track.as_str(), b.ts_ns)));
    trace
}

/// A drained session: every span, the lane names, and the session wall
/// time. The analysis entry points live here; export sinks are
/// [`Trace::to_chrome_json`] (Perfetto), [`Trace::to_csv`], and
/// `arp_core::worker_timeline_svg` (Gantt).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All spans, sorted by lane then start time (enclosing spans first).
    pub spans: Vec<Span>,
    /// Lane index → worker thread name.
    pub lanes: Vec<String>,
    /// Counter-track samples, sorted by track then time (so each track's
    /// timestamps are monotonic — the exported `"C"` events inherit this).
    pub counters: Vec<CounterSample>,
    /// Wall time of the session (start → finish).
    pub wall: Duration,
    /// Records (spans and counter samples) lost to ring overflow across
    /// all lanes.
    pub dropped: u64,
}

impl Trace {
    /// Spans recorded on one lane, in start order.
    pub fn lane_spans(&self, lane: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.lane == lane)
    }

    /// Spans of one category.
    pub fn spans_of(&self, cat: Cat) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.cat == cat)
    }

    /// Samples of one counter track, in time order.
    pub fn counters_of<'t>(&'t self, track: &'t str) -> impl Iterator<Item = &'t CounterSample> {
        self.counters.iter().filter(move |c| c.track == track)
    }

    /// Distinct counter-track names present in this trace.
    pub fn counter_tracks(&self) -> Vec<&str> {
        let mut tracks: Vec<&str> = self.counters.iter().map(|c| c.track.as_str()).collect();
        tracks.dedup(); // counters are sorted by track
        tracks
    }

    /// Highest sampled value on `track`; `None` when the track is absent
    /// (an empty track has no peak — never a default number).
    pub fn counter_peak(&self, track: &str) -> Option<f64> {
        self.counters_of(track)
            .map(|c| c.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Well-formedness check: within a lane, two spans must either be
    /// disjoint or properly nested — a thread executes one unit of work at
    /// a time, so partial overlap means the recorder (or a clock) lied.
    /// Returns one message per violation; an empty vector means the trace
    /// is well formed.
    pub fn lane_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for lane in 0..self.lanes.len() {
            // Enclosing spans sort first (start asc, end desc), so a stack
            // of open end-times detects partial overlap.
            let mut ends: Vec<u64> = Vec::new();
            for span in self.lane_spans(lane) {
                while ends.last().is_some_and(|&top| top <= span.start_ns) {
                    ends.pop();
                }
                if let Some(&top) = ends.last() {
                    if span.end_ns() > top {
                        violations.push(format!(
                            "lane {lane} ({}): span {:?} [{}, {}) partially overlaps \
                             an enclosing span ending at {}",
                            self.lanes[lane],
                            span.name,
                            span.start_ns,
                            span.end_ns(),
                            top
                        ));
                    }
                }
                ends.push(span.end_ns());
            }
        }
        violations
    }

    /// Per-lane utilization and queue-wait percentiles.
    pub fn summary(&self) -> TraceSummary {
        stats::summarize(self)
    }

    /// Flat CSV (one row per span) for the bench crate and spreadsheets.
    pub fn to_csv(&self) -> String {
        stats::to_csv(self)
    }

    /// Chrome Trace Event JSON, loadable in Perfetto / `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sessions are globally exclusive, but spans recorded by *other*
    /// tests' threads while our session is open would still land in our
    /// trace. Serializing the whole test file keeps each test's trace its
    /// own.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_recording_is_inert() {
        let _t = TEST_LOCK.lock();
        assert!(!enabled());
        assert!(stamp().is_none());
        {
            let _span = begin(Cat::Chunk);
            annotate(|a| a.name = "ignored".into());
        }
        let session = TraceSession::start();
        let trace = session.finish();
        assert!(trace.spans.is_empty(), "{:?}", trace.spans);
    }

    #[test]
    fn session_records_annotated_spans() {
        let _t = TEST_LOCK.lock();
        let session = TraceSession::start();
        assert!(enabled());
        {
            let _span = begin(Cat::Process);
            annotate(|a| {
                a.name = "ev/#3".into();
                a.process = Some(3);
                a.event = "ev".into();
                a.bytes = 77;
            });
            std::thread::sleep(Duration::from_millis(1));
        }
        let trace = session.finish();
        assert!(!enabled());
        let span = trace
            .spans
            .iter()
            .find(|s| s.name == "ev/#3")
            .expect("span recorded");
        assert_eq!(span.cat, Cat::Process);
        assert_eq!(span.process, Some(3));
        assert_eq!(span.event, "ev");
        assert_eq!(span.bytes, 77);
        assert!(span.dur_ns >= 1_000_000, "dur {}", span.dur_ns);
        assert!(span.lane < trace.lanes.len());
        assert!(trace.wall >= Duration::from_millis(1));
    }

    #[test]
    fn queue_wait_measures_dispatch_to_start() {
        let _t = TEST_LOCK.lock();
        let session = TraceSession::start();
        let queued = stamp();
        assert!(queued.is_some());
        std::thread::sleep(Duration::from_millis(2));
        {
            let _span = begin_queued(Cat::DagNode, queued);
            annotate(|a| a.name = "queued".into());
        }
        let trace = session.finish();
        let span = trace.spans.iter().find(|s| s.name == "queued").unwrap();
        assert!(span.queue_ns >= 2_000_000, "queue {}", span.queue_ns);
    }

    #[test]
    fn nested_spans_are_well_formed() {
        let _t = TEST_LOCK.lock();
        let session = TraceSession::start();
        {
            let _outer = begin(Cat::DagNode);
            annotate(|a| a.name = "outer".into());
            for i in 0..3 {
                let _inner = begin(Cat::Chunk);
                annotate(|a| a.name = format!("inner-{i}"));
            }
        }
        let trace = session.finish();
        assert_eq!(trace.spans.len(), 4);
        assert!(trace.lane_violations().is_empty());
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        for inner in trace.spans.iter().filter(|s| s.cat == Cat::Chunk) {
            assert!(outer.start_ns <= inner.start_ns);
            assert!(inner.end_ns() <= outer.end_ns());
            assert_eq!(inner.lane, outer.lane);
        }
    }

    #[test]
    fn lane_violations_flags_partial_overlap() {
        let fake = |start, dur| Span {
            name: "x".into(),
            cat: Cat::Chunk,
            process: None,
            event: String::new(),
            lane: 0,
            start_ns: start,
            dur_ns: dur,
            queue_ns: 0,
            bytes: 0,
        };
        let clean = Trace {
            spans: vec![fake(0, 100), fake(10, 20), fake(50, 50)],
            lanes: vec!["w".into()],
            counters: Vec::new(),
            wall: Duration::from_nanos(100),
            dropped: 0,
        };
        assert!(clean.lane_violations().is_empty());
        let dirty = Trace {
            spans: vec![fake(0, 100), fake(50, 100)],
            lanes: vec!["w".into()],
            counters: Vec::new(),
            wall: Duration::from_nanos(150),
            dropped: 0,
        };
        assert_eq!(dirty.lane_violations().len(), 1);
    }

    #[test]
    fn spans_from_many_threads_get_distinct_lanes() {
        let _t = TEST_LOCK.lock();
        let session = TraceSession::start();
        std::thread::scope(|scope| {
            for k in 0..3 {
                scope.spawn(move || {
                    let _span = begin(Cat::Process);
                    annotate(|a| a.name = format!("t{k}"));
                });
            }
        });
        let trace = session.finish();
        let mut lanes: Vec<usize> = trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with('t'))
            .map(|s| s.lane)
            .collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert_eq!(lanes.len(), 3, "{:?}", trace.spans);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let mut ring = Ring::new(RING_CAPACITY);
        for i in 0..(RING_CAPACITY as u64 + 10) {
            ring.push(Span {
                name: String::new(),
                cat: Cat::Chunk,
                process: None,
                event: String::new(),
                lane: 0,
                start_ns: i,
                dur_ns: 1,
                queue_ns: 0,
                bytes: 0,
            });
        }
        assert_eq!(ring.iter().count(), RING_CAPACITY);
        assert_eq!(ring.dropped(), 10);
        // The oldest 10 spans were overwritten.
        assert!(ring.iter().all(|s| s.start_ns >= 10));
    }

    #[test]
    fn counter_samples_record_only_inside_a_session() {
        let _t = TEST_LOCK.lock();
        counter("workers-busy", 9.0); // inert: disabled
        let session = TraceSession::start();
        counter("workers-busy", 1.0);
        counter("ready-queue-depth", 2.0);
        counter("ready-queue-depth", 1.0);
        std::thread::scope(|scope| {
            scope.spawn(|| counter("ready-queue-depth", 3.0));
        });
        let trace = session.finish();
        assert_eq!(trace.counters.len(), 4, "{:?}", trace.counters);
        // Sorted by track then time, so per-track timestamps are monotonic.
        assert!(trace
            .counters
            .windows(2)
            .all(|w| (w[0].track.as_str(), w[0].ts_ns) <= (w[1].track.as_str(), w[1].ts_ns)));
        assert_eq!(trace.counter_peak("ready-queue-depth"), Some(3.0));
        assert_eq!(trace.counter_peak("workers-busy"), Some(1.0));
        assert_eq!(trace.counters_of("ready-queue-depth").count(), 3);
        assert_eq!(
            trace.counter_tracks(),
            vec!["ready-queue-depth", "workers-busy"]
        );

        // The next session starts clean of counter samples too.
        let session = TraceSession::start();
        let trace = session.finish();
        assert!(trace.counters.is_empty());
    }

    #[test]
    fn sessions_do_not_leak_spans_between_each_other() {
        let _t = TEST_LOCK.lock();
        let first = TraceSession::start();
        {
            let _span = begin(Cat::Process);
            annotate(|a| a.name = "first".into());
        }
        let trace1 = first.finish();
        assert!(trace1.spans.iter().any(|s| s.name == "first"));

        let second = TraceSession::start();
        let trace2 = second.finish();
        assert!(
            trace2.spans.iter().all(|s| s.name != "first"),
            "second session must start clean"
        );
    }

    #[test]
    fn lanes_of_exited_threads_are_pruned_at_next_session_start() {
        let _t = TEST_LOCK.lock();
        // A worker thread records a span, then exits before finish: its
        // lane (and span) must survive into this session's trace...
        let session = TraceSession::start();
        std::thread::Builder::new()
            .name("ephemeral".into())
            .spawn(|| {
                let _span = begin(Cat::Chunk);
                annotate(|a| a.name = "dying-work".into());
            })
            .unwrap()
            .join()
            .unwrap();
        let trace = session.finish();
        assert!(trace.lanes.iter().any(|l| l == "ephemeral"));
        assert!(trace.spans.iter().any(|s| s.name == "dying-work"));

        // ...but the dead lane must not linger into the *next* session,
        // and the surviving lanes are re-indexed densely.
        let session = TraceSession::start();
        {
            let _span = begin(Cat::Process);
            annotate(|a| a.name = "alive".into());
        }
        let trace = session.finish();
        assert!(
            trace.lanes.iter().all(|l| l != "ephemeral"),
            "stale lane survived pruning: {:?}",
            trace.lanes
        );
        let alive = trace.spans.iter().find(|s| s.name == "alive").unwrap();
        assert!(alive.lane < trace.lanes.len());
    }
}

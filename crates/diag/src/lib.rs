//! # arp-diag — structured diagnostics and the flight recorder
//!
//! The third observability pillar next to `arp-trace` (spans) and
//! `arp-metrics` (counters): leveled, attributed **log records**. Every
//! record carries a monotonic timestamp ([`arp_trace::now_ns`], the clock
//! spans are stamped on), the worker thread that produced it, and — when
//! the pipeline has told us — the event / process / DAG node it was working
//! on at the time.
//!
//! The design follows the sibling crates' idiom exactly:
//!
//! * **One relaxed load when disabled.** [`enabled`] compares the record's
//!   level against a single atomic gate; below the gate the call site does
//!   no formatting, no locking, no clock read. The gate is the minimum of
//!   the console threshold (default [`Level::Warn`], so warnings still
//!   reach stderr in an unconfigured process) and the ring threshold
//!   ([`Level::Trace`] while the ring is armed, off otherwise).
//! * **Rings on the trace layer's lanes.** This crate keeps no per-thread
//!   state of its own. Armed recording appends to the log ring of the
//!   thread's [`arp_trace::Lane`] (the pool's `arp-par-*` / `arp-io-*`
//!   workers each get one); overflow drops the *oldest* record and counts
//!   it. No cross-thread contention on the hot path. The node attribution
//!   ([`set_context`]) and the steal count ([`workers`]) live on the same
//!   lane, and lanes of exited threads go by the trace layer's one rule.
//! * **First-party JSONL.** [`export_jsonl`] writes one JSON object per
//!   line; [`parse_jsonl`] / [`validate_jsonl`] read it back with the
//!   workspace's own parser (`arp_trace::json`) — the `arp diag-check`
//!   validator is built on them.
//!
//! The ring switch ([`set_ring_enabled`], `--diag`) and a trace session
//! (`--trace`) stay separate: arming the log ring neither records spans nor
//! touches a session's rings, and a session leaves armed records in place.
//!
//! On top of the logger sits the flight recorder ([`recorder`]): arm it
//! with a run id and an output directory, and a worker panic (or an
//! explicit abort) writes a `postmortem-<run-id>/` bundle — the log-ring
//! tail, the live super-DAG frontier, per-worker state, and whatever extra
//! sources (metrics snapshot, trace tail) the host process registered.
//!
//! [`workers`] renders the per-worker state: which node each worker is
//! executing right now, since when, and how many tasks it has stolen — the
//! data the `/statusz` endpoint and the postmortem bundle both render.

#![warn(missing_docs)]

pub mod recorder;
pub mod workers;

pub use arp_trace::{Level, Record};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Gate value meaning "no level passes" (one past [`Level::Error`]).
const LEVEL_OFF: usize = 5;

/// Minimum level that is recorded *anywhere* (console or ring), encoded as
/// `Level as usize` (or [`LEVEL_OFF`]). The disabled fast path of [`log`]
/// is exactly one relaxed load against this.
static GATE: AtomicUsize = AtomicUsize::new(Level::Warn as usize);

/// Console (stderr) threshold; [`LEVEL_OFF`] silences the console.
static CONSOLE: AtomicUsize = AtomicUsize::new(Level::Warn as usize);

/// Whether records are captured into the lanes' log rings.
static RING_ON: AtomicBool = AtomicBool::new(false);

/// Whether any reader of node attribution is on; see [`attributing`].
static ATTRIBUTING: AtomicBool = AtomicBool::new(false);

/// Global record sequence counter.
static SEQ: AtomicU64 = AtomicU64::new(0);

fn recompute_gate() {
    let console = CONSOLE.load(Ordering::SeqCst);
    let ring = if RING_ON.load(Ordering::SeqCst) {
        Level::Trace as usize
    } else {
        LEVEL_OFF
    };
    let gate = console.min(ring);
    GATE.store(gate, Ordering::SeqCst);
    ATTRIBUTING.store(
        gate <= Level::Info as usize || workers::tracking(),
        Ordering::SeqCst,
    );
}

/// Sets the console (stderr) threshold; `None` silences the console
/// entirely. The default is [`Level::Warn`].
pub fn set_console_level(level: Option<Level>) {
    CONSOLE.store(level.map_or(LEVEL_OFF, |l| l as usize), Ordering::SeqCst);
    recompute_gate();
}

/// Arms or disarms ring capture. Arming clears every lane's log ring so
/// the rings hold only the new run's records (and, outside a trace
/// session, drops the lanes of exited threads).
pub fn set_ring_enabled(on: bool) {
    if on {
        arp_trace::clear_logs();
    }
    RING_ON.store(on, Ordering::SeqCst);
    recompute_gate();
}

/// Whether a record at `level` would be recorded anywhere. One relaxed
/// load — the whole cost of a disabled call site.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as usize >= GATE.load(Ordering::Relaxed)
}

/// Whether any reader of a thread's node attribution is on: the armed
/// ring, the console at [`Level::Info`] or below, or worker tracking. One
/// relaxed load; executors set [`set_context`] only when it holds, so the
/// all-off path allocates nothing.
#[inline]
pub fn attributing() -> bool {
    ATTRIBUTING.load(Ordering::Relaxed)
}

/// Sets this thread's pipeline attribution, stamped now; subsequent
/// records carry it and [`workers`] reports the node as running.
pub fn set_context(event: Option<String>, process: Option<u8>, node: Option<String>) {
    *arp_trace::current_lane().attribution.lock() = arp_trace::Attribution {
        event,
        process,
        node,
        since_ns: arp_trace::now_ns(),
    };
}

/// Clears this thread's pipeline attribution.
pub fn clear_context() {
    if let Some(lane) = arp_trace::try_current_lane() {
        *lane.attribution.lock() = arp_trace::Attribution::default();
    }
}

/// Snapshot of this thread's current attribution:
/// `(event, process, node)`. The recorder stamps the incident record with
/// it when a panic hook fires on a worker.
pub fn current_context() -> (Option<String>, Option<u8>, Option<String>) {
    let a = arp_trace::try_current_lane()
        .map(|lane| lane.attribution.lock().clone())
        .unwrap_or_default();
    (a.event, a.process, a.node)
}

/// The message of a caught panic payload (`panic!` with a literal yields
/// `&str`, with formatting a `String`), so unwind boundaries and the panic
/// hook keep it instead of dropping the payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Logs a record at `level`. The message closure runs only when the level
/// passes the gate, so disabled call sites pay one relaxed load and no
/// formatting.
#[inline]
pub fn log(level: Level, message: impl FnOnce() -> String) {
    if !enabled(level) {
        return;
    }
    log_slow(level, message());
}

/// Convenience: [`log`] at [`Level::Trace`].
#[inline]
pub fn trace(message: impl FnOnce() -> String) {
    log(Level::Trace, message);
}

/// Convenience: [`log`] at [`Level::Debug`].
#[inline]
pub fn debug(message: impl FnOnce() -> String) {
    log(Level::Debug, message);
}

/// Convenience: [`log`] at [`Level::Info`].
#[inline]
pub fn info(message: impl FnOnce() -> String) {
    log(Level::Info, message);
}

/// Convenience: [`log`] at [`Level::Warn`].
#[inline]
pub fn warn(message: impl FnOnce() -> String) {
    log(Level::Warn, message);
}

/// Convenience: [`log`] at [`Level::Error`].
#[inline]
pub fn error(message: impl FnOnce() -> String) {
    log(Level::Error, message);
}

fn log_slow(level: Level, message: String) {
    let ring = RING_ON.load(Ordering::Relaxed);
    // A lane is registered only for a record the ring keeps; a console-only
    // record borrows the attribution of a lane the thread already has.
    let lane = if ring {
        Some(arp_trace::current_lane())
    } else {
        arp_trace::try_current_lane()
    };
    let context = lane
        .as_ref()
        .map(|lane| lane.attribution.lock().clone())
        .unwrap_or_default();
    let record = Record {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        t_ns: arp_trace::now_ns(),
        level,
        worker: std::thread::current()
            .name()
            .unwrap_or("caller")
            .to_string(),
        event: context.event,
        process: context.process,
        node: context.node,
        message,
    };
    if level as usize >= CONSOLE.load(Ordering::Relaxed) {
        let at = match &record.node {
            Some(node) => format!(" [{node}]"),
            None => String::new(),
        };
        eprintln!("arp[{level}]{at} {}", record.message);
    }
    if let Some(lane) = lane.filter(|_| ring) {
        lane.logs.lock().push(record);
    }
}

/// Copies every lane's log ring (without clearing), merged and sorted by
/// sequence number. Safe to call mid-run — the flight recorder uses it
/// from a panic hook while workers are still logging.
pub fn snapshot() -> Vec<Record> {
    collect(|ring| ring.iter().cloned().collect())
}

/// Drains every lane's log ring, merged and sorted by sequence number.
pub fn drain() -> Vec<Record> {
    collect(arp_trace::Ring::take)
}

fn collect(read: impl Fn(&mut arp_trace::Ring<Record>) -> Vec<Record>) -> Vec<Record> {
    let mut records: Vec<Record> = arp_trace::lanes()
        .iter()
        .flat_map(|lane| read(&mut lane.logs.lock()))
        .collect();
    records.sort_by_key(|r| r.seq);
    records
}

/// Total records lost to ring overflow across all lanes.
pub fn dropped() -> u64 {
    arp_trace::lanes()
        .iter()
        .map(|lane| lane.logs.lock().dropped())
        .sum()
}

/// Serializes records as JSONL: one JSON object per line, stable key
/// order, optional attribution keys omitted when absent.
pub fn export_jsonl(records: &[Record]) -> String {
    // `escape` produces the full string literal, quotes included.
    use arp_trace::json::escape;
    let mut out = String::new();
    for r in records {
        out.push_str(&format!(
            "{{\"seq\":{},\"t_ns\":{},\"level\":\"{}\",\"worker\":{}",
            r.seq,
            r.t_ns,
            r.level,
            escape(&r.worker)
        ));
        if let Some(event) = &r.event {
            out.push_str(&format!(",\"event\":{}", escape(event)));
        }
        if let Some(p) = r.process {
            out.push_str(&format!(",\"process\":{p}"));
        }
        if let Some(node) = &r.node {
            out.push_str(&format!(",\"node\":{}", escape(node)));
        }
        out.push_str(&format!(",\"msg\":{}}}\n", escape(&r.message)));
    }
    out
}

/// Parses a JSONL log back into records. Blank lines are ignored; any
/// malformed line is an error naming its line number.
pub fn parse_jsonl(text: &str) -> std::result::Result<Vec<Record>, String> {
    use arp_trace::json;
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        let v = json::parse(line).map_err(|e| at(e.to_string()))?;
        let req_u64 = |key: &str| {
            v.get(key)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| at(format!("missing or non-integer {key:?}")))
        };
        let req_str = |key: &str| {
            v.get(key)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| at(format!("missing or non-string {key:?}")))
        };
        let level_name = req_str("level")?;
        let level =
            Level::parse(&level_name).ok_or_else(|| at(format!("unknown level {level_name:?}")))?;
        let process = match v.get("process") {
            None => None,
            Some(x) => Some(
                x.as_u64()
                    .filter(|&p| p <= u8::MAX as u64)
                    .ok_or_else(|| at("\"process\" out of range".into()))? as u8,
            ),
        };
        records.push(Record {
            seq: req_u64("seq")?,
            t_ns: req_u64("t_ns")?,
            level,
            worker: req_str("worker")?,
            event: v.get("event").and_then(|x| x.as_str()).map(str::to_string),
            process,
            node: v.get("node").and_then(|x| x.as_str()).map(str::to_string),
            message: req_str("msg")?,
        });
    }
    Ok(records)
}

/// Validates a JSONL log: every line parses with the required fields, and
/// sequence numbers are strictly increasing (the export is seq-sorted and
/// seqs are globally unique, so duplicates or disorder mean a corrupt or
/// hand-edited file). Returns the record count.
pub fn validate_jsonl(text: &str) -> std::result::Result<usize, String> {
    let records = parse_jsonl(text)?;
    for pair in records.windows(2) {
        if pair[1].seq <= pair[0].seq {
            return Err(format!(
                "sequence numbers not strictly increasing: {} then {}",
                pair[0].seq, pair[1].seq
            ));
        }
    }
    Ok(records.len())
}

/// Logger/recorder state is process-global; every test that toggles it
/// (across this crate's modules) serializes on this lock.
#[cfg(test)]
pub(crate) static TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_levels_do_not_format() {
        let _guard = crate::TEST_LOCK.lock();
        set_console_level(Some(Level::Error));
        set_ring_enabled(false);
        let mut ran = false;
        log(Level::Debug, || {
            ran = true;
            String::new()
        });
        assert!(!ran, "message closure ran below the gate");
        set_console_level(Some(Level::Warn));
    }

    #[test]
    fn ring_captures_attributed_records_in_seq_order() {
        let _guard = crate::TEST_LOCK.lock();
        set_console_level(None);
        set_ring_enabled(true);
        set_context(Some("ev1".into()), Some(7), Some("ev1/#7".into()));
        info(|| "first".into());
        clear_context();
        error(|| "second".into());
        let records = drain();
        set_ring_enabled(false);
        set_console_level(Some(Level::Warn));
        assert_eq!(records.len(), 2);
        assert!(records[0].seq < records[1].seq);
        assert_eq!(records[0].event.as_deref(), Some("ev1"));
        assert_eq!(records[0].process, Some(7));
        assert_eq!(records[0].node.as_deref(), Some("ev1/#7"));
        assert_eq!(records[1].level, Level::Error);
        assert_eq!(records[1].event, None);
    }

    #[test]
    fn jsonl_roundtrips_and_validates() {
        let _guard = crate::TEST_LOCK.lock();
        set_console_level(None);
        set_ring_enabled(true);
        set_context(Some("ev \"q\"".into()), Some(3), Some("ev \"q\"/#3".into()));
        warn(|| "needs \"escaping\"\n".into());
        clear_context();
        debug(|| "plain".into());
        let records = drain();
        set_ring_enabled(false);
        set_console_level(Some(Level::Warn));
        let text = export_jsonl(&records);
        assert_eq!(validate_jsonl(&text).expect("valid"), records.len());
        let parsed = parse_jsonl(&text).expect("parses");
        assert_eq!(parsed, records);
    }

    #[test]
    fn validator_rejects_corruption() {
        assert!(validate_jsonl("not json\n").is_err());
        // Missing "worker".
        assert!(
            validate_jsonl("{\"seq\":0,\"t_ns\":1,\"level\":\"info\",\"msg\":\"x\"}\n").is_err()
        );
        // Unknown level.
        assert!(validate_jsonl(
            "{\"seq\":0,\"t_ns\":1,\"level\":\"loud\",\"worker\":\"w\",\"msg\":\"x\"}\n"
        )
        .is_err());
        // Out-of-order seq.
        let two = "{\"seq\":5,\"t_ns\":1,\"level\":\"info\",\"worker\":\"w\",\"msg\":\"a\"}\n\
                   {\"seq\":5,\"t_ns\":2,\"level\":\"info\",\"worker\":\"w\",\"msg\":\"b\"}\n";
        assert!(validate_jsonl(two).is_err());
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _guard = crate::TEST_LOCK.lock();
        set_console_level(None);
        set_ring_enabled(true);
        for i in 0..(arp_trace::LOG_RING_CAPACITY + 10) {
            info(move || format!("r{i}"));
        }
        let dropped_now = dropped();
        let records = drain();
        set_ring_enabled(false);
        set_console_level(Some(Level::Warn));
        assert_eq!(records.len(), arp_trace::LOG_RING_CAPACITY);
        assert!(dropped_now >= 10);
        assert_eq!(records.last().expect("tail").message, "r8201");
    }

    #[test]
    fn lanes_of_exited_threads_go_once_their_records_are_read() {
        let _guard = crate::TEST_LOCK.lock();
        set_console_level(None);
        set_ring_enabled(true);
        let exit_after = |name: &str, work: fn()| {
            std::thread::Builder::new()
                .name(name.into())
                .spawn(work)
                .unwrap()
                .join()
                .unwrap();
        };
        exit_after("exited-0", || info(|| "last words".into()));
        exit_after("exited-1", || info(|| "last words".into()));
        // A session start keeps dead lanes whose records are unread...
        let _ = arp_trace::TraceSession::start().finish();
        let records = drain();
        for name in ["exited-0", "exited-1"] {
            assert!(
                records.iter().any(|r| r.worker == name),
                "{name} lost its records: {records:?}"
            );
        }
        // ...and the next arming, with them read, drops them.
        set_ring_enabled(true);
        let names: Vec<String> = arp_trace::lanes()
            .iter()
            .map(|lane| lane.name().to_string())
            .collect();
        assert!(
            names.iter().all(|n| !n.starts_with("exited-")),
            "dead lanes survived re-arming: {names:?}"
        );

        // Re-arming inside an open session drops nothing, so a live
        // thread's spans keep one lane id.
        let session = arp_trace::TraceSession::start();
        exit_after("exited-2", || {
            let _span = arp_trace::begin(arp_trace::Cat::Chunk);
            arp_trace::annotate(|a| a.name = "theirs".into());
            info(|| "bye".into());
        });
        let span = |name: &'static str| {
            let _span = arp_trace::begin(arp_trace::Cat::Process);
            arp_trace::annotate(|a| a.name = name.into());
        };
        span("before");
        set_ring_enabled(true);
        span("after");
        let trace = session.finish();
        set_ring_enabled(false);
        set_console_level(Some(Level::Warn));
        let lane_of = |name: &str| trace.spans.iter().find(|s| s.name == name).unwrap().lane;
        assert_eq!(lane_of("before"), lane_of("after"), "{trace:?}");
        let me = arp_trace::current_lane().name().to_string();
        assert_eq!(trace.lanes[lane_of("after")], me);
        assert_eq!(trace.lanes[lane_of("theirs")], "exited-2");
    }

    #[test]
    fn trace_sessions_and_the_log_ring_keep_separate_lifecycles() {
        let _guard = crate::TEST_LOCK.lock();
        set_console_level(None);
        set_ring_enabled(true);
        // A session's start and finish leave armed records in place.
        info(|| "before the session".into());
        let session = arp_trace::TraceSession::start();
        info(|| "inside the session".into());
        let _ = session.finish();
        let messages: Vec<String> = drain().into_iter().map(|r| r.message).collect();
        assert_eq!(messages, ["before the session", "inside the session"]);

        // Arming and draining the log ring leave an open session's spans
        // and counter samples in place.
        let session = arp_trace::TraceSession::start();
        {
            let _span = arp_trace::begin(arp_trace::Cat::Process);
            arp_trace::annotate(|a| a.name = "kept".into());
            arp_trace::counter("steals", 1.0);
        }
        set_ring_enabled(true);
        let _ = drain();
        let trace = session.finish();
        set_ring_enabled(false);
        set_console_level(Some(Level::Warn));
        assert!(trace.spans.iter().any(|s| s.name == "kept"), "{trace:?}");
        assert_eq!(trace.counter_peak("steals"), Some(1.0));
    }

    #[test]
    fn level_parse_roundtrip() {
        for level in [
            Level::Trace,
            Level::Debug,
            Level::Info,
            Level::Warn,
            Level::Error,
        ] {
            assert_eq!(Level::parse(level.as_str()), Some(level));
        }
        assert_eq!(Level::parse("loud"), None);
    }
}

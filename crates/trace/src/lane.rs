//! The per-thread recorder every observability layer writes into.
//!
//! Each thread that records anything registers one [`Lane`] in a
//! process-global registry, named after the thread (`arp-par-3` for pool
//! workers, `caller` when unnamed). A lane holds three instances of one
//! overwrite-oldest [`Ring`]: trace spans, counter samples and `arp-diag`
//! log records. It also holds the thread's current node [`Attribution`] and
//! its steal count. Only the owning thread writes its lane, so every lock on
//! the recording path is uncontended; readers (a session's drain, the log
//! drain, `/statusz`, the panic hook) take the registry lock, then each
//! lane's.
//!
//! **One clock.** Every timestamp is [`now_ns`]: nanoseconds since a process
//! epoch pinned by its first use, whichever layer makes it. A session
//! rebases its spans to its own start, so a log record's `t_ns` lies inside
//! the span it was logged in once both are on this clock.
//!
//! **One dead-lane rule.** A thread's exit marks its lane dead. A dead lane
//! is dropped at the first session start or log-ring arming after none of
//! its records can still be read: never while a session is open (dropping
//! re-indexes the lanes, which would give one thread's spans two lane ids),
//! and never while its log ring holds records a drain could still return.

use crate::{CounterEntry, Span};
use parking_lot::{Mutex, MutexGuard};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Log records each lane retains; the oldest are overwritten (and counted)
/// once the ring is full.
pub const LOG_RING_CAPACITY: usize = 8192;

/// A fixed-capacity buffer that overwrites its oldest entry when full and
/// counts what it overwrote, so recording degrades by forgetting history,
/// never by blocking or growing.
#[derive(Debug)]
pub struct Ring<T> {
    items: Vec<T>,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` (> 0) entries.
    pub const fn new(capacity: usize) -> Ring<T> {
        Ring {
            items: Vec::new(),
            head: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Appends `item`, overwriting the oldest entry when full.
    pub fn push(&mut self, item: T) {
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            self.items[self.head] = item;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// The retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (newer, older) = self.items.split_at(self.head);
        older.iter().chain(newer)
    }

    /// Removes and returns the retained entries, oldest first, and resets
    /// the overwrite count.
    pub fn take(&mut self) -> Vec<T> {
        self.items.rotate_left(self.head);
        self.head = 0;
        self.dropped = 0;
        std::mem::take(&mut self.items)
    }

    /// Empties the ring and resets the overwrite count.
    pub fn clear(&mut self) {
        self.items.clear();
        self.head = 0;
        self.dropped = 0;
    }

    /// True when the ring retains nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Entries overwritten since the ring was last cleared or taken.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Severity of a log record, ordered `Trace < Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Scheduler-internal chatter (steals, dispatches).
    Trace,
    /// Per-node lifecycle records.
    Debug,
    /// Run milestones.
    Info,
    /// Recoverable anomalies — the default console threshold.
    Warn,
    /// Failures: panics, aborted batches.
    Error,
}

impl Level {
    /// Lower-case display name (`"warn"`), also the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a level name as written by [`Level::as_str`].
    pub fn parse(s: &str) -> Option<Level> {
        Some(match s {
            "trace" => Level::Trace,
            "debug" => Level::Debug,
            "info" => Level::Info,
            "warn" => Level::Warn,
            "error" => Level::Error,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured log record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Global sequence number — a total order across all threads.
    pub seq: u64,
    /// Nanoseconds since the process epoch ([`now_ns`], the clock spans
    /// are stamped on).
    pub t_ns: u64,
    /// Severity.
    pub level: Level,
    /// Name of the thread that produced the record.
    pub worker: String,
    /// Event label the worker was processing, when attributed.
    pub event: Option<String>,
    /// Pipeline process number (`#p`), when attributed.
    pub process: Option<u8>,
    /// Super-DAG node label (`"<event>/#<p>"`), when attributed.
    pub node: Option<String>,
    /// Human-readable message.
    pub message: String,
}

/// What a thread is working on: mirrored onto its log records, stamped on
/// a panic's incident, and shown as its running node in `/statusz`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Event label.
    pub event: Option<String>,
    /// Pipeline process number.
    pub process: Option<u8>,
    /// Super-DAG node label (`"<event>/#<p>"`).
    pub node: Option<String>,
    /// When the attribution was set, on the [`now_ns`] clock.
    pub since_ns: u64,
}

/// One thread's recorder. See the [module docs](self).
pub struct Lane {
    name: String,
    /// Position in the registry (and the lane id spans carry). Reassigned
    /// when dead lanes are dropped.
    pub(crate) index: AtomicUsize,
    pub(crate) spans: Mutex<Ring<Span>>,
    pub(crate) counters: Mutex<Ring<CounterEntry>>,
    /// Log records, written by `arp-diag`'s logger while its ring is armed.
    pub logs: Mutex<Ring<Record>>,
    /// The node this thread is executing, when a reader asked for it.
    pub attribution: Mutex<Attribution>,
    /// Tasks this thread has stolen while worker tracking was on.
    pub steals: AtomicU64,
    /// Set by the owning thread's exit (thread-local destructor).
    dead: AtomicBool,
}

impl Lane {
    /// The owning thread's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the owning thread has exited.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }
}

/// The thread-local owner of a lane registration; marks the lane dead when
/// the thread exits.
struct LaneHandle(Arc<Lane>);

impl Drop for LaneHandle {
    fn drop(&mut self) {
        self.0.dead.store(true, Ordering::SeqCst);
    }
}

thread_local! {
    static LANE: RefCell<Option<LaneHandle>> = const { RefCell::new(None) };
}

pub(crate) fn registry() -> MutexGuard<'static, Vec<Arc<Lane>>> {
    static REGISTRY: Mutex<Vec<Arc<Lane>>> = Mutex::new(Vec::new());
    REGISTRY.lock()
}

/// The calling thread's lane, registered on first use.
pub fn current_lane() -> Arc<Lane> {
    LANE.with(|cell| {
        let mut slot = cell.borrow_mut();
        if let Some(handle) = slot.as_ref() {
            return handle.0.clone();
        }
        let name = std::thread::current()
            .name()
            .unwrap_or("caller")
            .to_string();
        let mut reg = registry();
        let lane = Arc::new(Lane {
            name,
            index: AtomicUsize::new(reg.len()),
            spans: Mutex::new(Ring::new(crate::RING_CAPACITY)),
            counters: Mutex::new(Ring::new(crate::RING_CAPACITY)),
            logs: Mutex::new(Ring::new(LOG_RING_CAPACITY)),
            attribution: Mutex::new(Attribution::default()),
            steals: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        });
        reg.push(lane.clone());
        *slot = Some(LaneHandle(lane.clone()));
        lane
    })
}

/// The calling thread's lane if it has one; never registers.
pub fn try_current_lane() -> Option<Arc<Lane>> {
    LANE.with(|cell| cell.borrow().as_ref().map(|handle| handle.0.clone()))
}

/// Every registered lane in lane-id order, dead ones included until they
/// are dropped.
pub fn lanes() -> Vec<Arc<Lane>> {
    registry().to_vec()
}

/// Drops the dead lanes whose log records are gone and re-indexes the rest.
/// Callers hold the registry lock and no session is open.
pub(crate) fn prune(reg: &mut Vec<Arc<Lane>>) {
    reg.retain(|lane| !lane.is_dead() || !lane.logs.lock().is_empty());
    for (i, lane) in reg.iter().enumerate() {
        lane.index.store(i, Ordering::SeqCst);
    }
}

/// Empties every lane's log ring (arming `arp-diag`'s ring) and, unless a
/// session is open, drops the dead lanes — their records are gone now.
pub fn clear_logs() {
    let mut reg = registry();
    for lane in reg.iter() {
        lane.logs.lock().clear();
    }
    if !crate::enabled() {
        prune(&mut reg);
    }
}

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// `t` in nanoseconds since the process epoch.
pub(crate) fn epoch_ns(t: Instant) -> u64 {
    t.saturating_duration_since(process_epoch()).as_nanos() as u64
}

/// Nanoseconds since the process epoch: the one clock spans, counter
/// samples, log records and node attributions are stamped on.
pub fn now_ns() -> u64 {
    epoch_ns(Instant::now())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_iterates_and_takes_oldest_first_after_wrapping() {
        let mut ring = Ring::new(3);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.take(), [2, 3, 4]);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        ring.push(9);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [9]);
    }
}

//! The worker pool and its worksharing constructs.
//!
//! [`ThreadPool`] keeps a fixed set of worker threads fed from work-stealing
//! deques, and offers the two constructs the paper's parallelization uses:
//!
//! * [`ThreadPool::parallel_for`] — an OpenMP `parallel for`/`OMP DO`
//!   equivalent with [`Schedule::Static`], [`Schedule::Dynamic`], and
//!   [`Schedule::Guided`] chunking;
//! * [`ThreadPool::scope`] — OpenMP `task` + `taskwait`: spawn a set of
//!   heterogeneous tasks, return when all have completed.
//!
//! The **calling thread always participates** in the work, so constructs
//! complete even when every pool worker is busy elsewhere (this is what
//! makes nesting deadlock-free: the nested construct can be finished
//! entirely by its caller).
//!
//! **Scheduling substrate.** Each worker owns a Chase-Lev-style deque
//! ([`crossbeam::deque`]): it pushes and pops its own work LIFO (hot in
//! cache) while idle workers steal FIFO from the front of other workers'
//! deques. Work submitted from outside the pool enters per-lane
//! [`crossbeam::deque::Injector`] queues that every worker of the lane
//! drains.
//!
//! Besides the compute workers, a pool may own a small **I/O lane**
//! (`arp-io-{k}` threads, default [`default_io_threads`]): DAG nodes
//! tagged I/O via [`ThreadPool::run_dag`] carry an *affinity hint*,
//! not a hard placement. An I/O-tagged node is queued toward the I/O
//! workers, but lane classification only biases each worker's victim
//! order — an idle compute worker steals I/O nodes (capped so blocking
//! I/O can never occupy *every* compute worker) and an idle I/O worker
//! steals compute nodes, so neither lane sits idle while the other is
//! backlogged. With the lane sized zero every node routes to the compute
//! lane — scheduling changes *when and where* nodes run, never what they
//! produce, so lane-on and lane-off runs emit identical artifacts.

use crate::latch::CountdownLatch;
use crate::metrics;
use crossbeam::deque::{self, Steal};
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Loop-scheduling policy, mirroring OpenMP's `schedule` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Contiguous blocks of roughly `n / threads` iterations.
    Static,
    /// Fixed-size chunks claimed on demand (the argument is the chunk size;
    /// 0 is treated as 1).
    Dynamic(usize),
    /// Exponentially shrinking chunks: each claim takes
    /// `max(min_chunk, remaining / (2 · threads))`.
    Guided(usize),
}

impl Schedule {
    /// Size of the chunk claimed next from an `n`-iteration loop run by a
    /// team of `threads` (at least 1) once `claimed < n` iterations are
    /// taken: the rule [`ThreadPool::parallel_for`] claims with, shared
    /// with the pipeline's simulated timing so a recorded loop is cut into
    /// the same chunks the pool would run.
    pub fn chunk(self, n: usize, claimed: usize, threads: usize) -> usize {
        let size = match self {
            Schedule::Static => n.div_ceil(threads).max(1),
            Schedule::Dynamic(c) => c.max(1),
            Schedule::Guided(min) => ((n - claimed) / (2 * threads)).max(min.max(1)),
        };
        size.min(n - claimed)
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A borrowed task accepted by [`ThreadPool::run_tasks`].
pub type BorrowedTask<'env> = Box<dyn FnOnce() + Send + 'env>;

/// The pool's one store of facts. The `--stats` table, `/statusz`, the
/// `arp_pool_*` families of `/metrics` (see [`crate::metrics`]) and the
/// trace's counter tracks all read it; nothing counts these facts twice.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Jobs executed by dedicated worker threads.
    jobs_on_workers: AtomicU64,
    /// Jobs executed by *helping* threads (blocked constructs draining the
    /// queue while they wait).
    jobs_helped: AtomicU64,
    /// `parallel_for` constructs completed.
    loops_completed: AtomicU64,
    /// Panics caught inside jobs.
    panics_caught: AtomicU64,
    /// Nodes handed to the dependency scheduler by [`ThreadPool::run_dag`]
    /// (each node is dispatched exactly once, when its last predecessor
    /// completes).
    dag_dispatches: AtomicU64,
    /// `run_dag` constructs completed.
    dags_completed: AtomicU64,
    /// Jobs executed by dedicated I/O-lane workers.
    io_jobs_on_workers: AtomicU64,
    /// DAG nodes routed to the I/O lane (a subset of `dag_dispatches`).
    io_dispatches: AtomicU64,
    /// Probes of another worker's deque or a cross-lane queue (hits and
    /// misses alike).
    steal_attempts: AtomicU64,
    /// Compute-tagged jobs obtained by stealing (from a sibling deque or
    /// across lanes).
    steals_compute: AtomicU64,
    /// I/O-tagged jobs obtained by stealing.
    steals_io: AtomicU64,
    /// Jobs executed by a worker of the *other* lane than their tag —
    /// a subset of the steals.
    cross_lane_steals: AtomicU64,
    /// Dispatched-but-not-yet-started DAG nodes on the compute lane; its
    /// peak is the snapshot's `dag_ready_peak`.
    pub(crate) ready: Level,
    /// As `ready`, for nodes routed to the I/O lane (`io_ready_peak`).
    pub(crate) io_ready: Level,
    /// Threads currently executing a job (workers plus helpers).
    pub(crate) busy: Level,
    /// As `busy`, for the I/O-lane workers.
    pub(crate) io_busy: Level,
    /// Total tasks currently sitting in worker-local deques — feeds the
    /// `deque-depth` counter track; each worker's own depth is its
    /// stealer's length.
    local_depth: AtomicI64,
}

/// An instantaneous level and its high-water mark.
#[derive(Debug, Default)]
pub(crate) struct Level {
    now: AtomicU64,
    peak: AtomicU64,
}

impl Level {
    /// Raises the level by one and returns it. Every rise happens before
    /// its matching [`Level::fall`], so the level never underflows.
    fn rise(&self) -> u64 {
        let now = self.now.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Lowers the level by one and returns it.
    fn fall(&self) -> u64 {
        self.now.fetch_sub(1, Ordering::Relaxed) - 1
    }

    /// The current level.
    pub(crate) fn now(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    /// The highest level seen.
    pub(crate) fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

impl PoolStats {
    /// One thread entered a job: raise its lane's busy level and publish it
    /// to the trace counter track (a single relaxed load when tracing is
    /// disabled).
    fn job_started(&self, io: bool) {
        if io {
            arp_trace::counter("io-workers-busy", self.io_busy.rise() as f64);
        } else {
            arp_trace::counter("workers-busy", self.busy.rise() as f64);
        }
    }

    /// The matching exit.
    fn job_finished(&self, io: bool) {
        if io {
            arp_trace::counter("io-workers-busy", self.io_busy.fall() as f64);
        } else {
            arp_trace::counter("workers-busy", self.busy.fall() as f64);
        }
    }

    /// One successful steal of an `io`-tagged job; `cross` marks a thief
    /// from the other lane. Publishes the cumulative steal count to the
    /// `steals` trace counter track.
    fn steal_recorded(&self, io: bool, cross: bool) {
        if io {
            self.steals_io.fetch_add(1, Ordering::Relaxed);
        } else {
            self.steals_compute.fetch_add(1, Ordering::Relaxed);
        }
        if cross {
            self.cross_lane_steals.fetch_add(1, Ordering::Relaxed);
        }
        let total =
            self.steals_io.load(Ordering::Relaxed) + self.steals_compute.load(Ordering::Relaxed);
        arp_trace::counter("steals", total as f64);
        arp_diag::workers::note_steal();
        if arp_diag::enabled(arp_diag::Level::Trace) {
            let lane = if io { "io" } else { "compute" };
            arp_diag::trace(move || format!("stole a {lane} job (cross-lane: {cross})"));
        }
    }

    /// Worker-local deque depth changed by `delta`; publishes the pool
    /// total to the `deque-depth` counter track.
    fn local_depth_changed(&self, delta: i64) {
        let depth = self.local_depth.fetch_add(delta, Ordering::Relaxed) + delta;
        arp_trace::counter("deque-depth", depth as f64);
    }
}

/// A point-in-time snapshot of [`PoolStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    /// Jobs executed by dedicated workers.
    pub jobs_on_workers: u64,
    /// Jobs executed by helping (blocked) threads.
    pub jobs_helped: u64,
    /// Completed `parallel_for` constructs.
    pub loops_completed: u64,
    /// Panics caught inside jobs.
    pub panics_caught: u64,
    /// Nodes dispatched by the DAG scheduler.
    pub dag_dispatches: u64,
    /// Deepest the DAG ready queue ever got.
    pub dag_ready_peak: u64,
    /// Completed `run_dag` constructs.
    pub dags_completed: u64,
    /// Jobs executed by dedicated I/O-lane workers.
    pub io_jobs_on_workers: u64,
    /// DAG nodes routed to the I/O lane (a subset of `dag_dispatches`).
    pub io_dispatches: u64,
    /// Deepest the I/O-lane ready queue ever got.
    pub io_ready_peak: u64,
    /// Probes of another worker's deque or a cross-lane queue.
    pub steal_attempts: u64,
    /// Compute-tagged jobs obtained by stealing.
    pub steals_compute: u64,
    /// I/O-tagged jobs obtained by stealing.
    pub steals_io: u64,
    /// Jobs executed by a worker of the other lane than their tag.
    pub cross_lane_steals: u64,
}

impl PoolStatsSnapshot {
    /// Counter growth between `before` and `self`. The ready-queue peaks
    /// are high-water marks, not counters, so the later values are kept
    /// as-is.
    pub fn delta_since(&self, before: &PoolStatsSnapshot) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            jobs_on_workers: self.jobs_on_workers.saturating_sub(before.jobs_on_workers),
            jobs_helped: self.jobs_helped.saturating_sub(before.jobs_helped),
            loops_completed: self.loops_completed.saturating_sub(before.loops_completed),
            panics_caught: self.panics_caught.saturating_sub(before.panics_caught),
            dag_dispatches: self.dag_dispatches.saturating_sub(before.dag_dispatches),
            dag_ready_peak: self.dag_ready_peak,
            dags_completed: self.dags_completed.saturating_sub(before.dags_completed),
            io_jobs_on_workers: self
                .io_jobs_on_workers
                .saturating_sub(before.io_jobs_on_workers),
            io_dispatches: self.io_dispatches.saturating_sub(before.io_dispatches),
            io_ready_peak: self.io_ready_peak,
            steal_attempts: self.steal_attempts.saturating_sub(before.steal_attempts),
            steals_compute: self.steals_compute.saturating_sub(before.steals_compute),
            steals_io: self.steals_io.saturating_sub(before.steals_io),
            cross_lane_steals: self
                .cross_lane_steals
                .saturating_sub(before.cross_lane_steals),
        }
    }
}

/// Default I/O-lane width for a pool with `threads` compute workers:
/// `max(2, threads / 4)`. Pure-I/O DAG nodes spend their time blocked on
/// the shared disk, so a small lane keeps them off the compute workers
/// without oversubscribing the device.
pub fn default_io_threads(threads: usize) -> usize {
    (threads / 4).max(2)
}

/// A fixed-size worker pool.
pub struct ThreadPool {
    core: Arc<PoolCore>,
    workers: Vec<JoinHandle<()>>,
    io_workers: Vec<JoinHandle<()>>,
    threads: usize,
    io_threads: usize,
    stats: Arc<PoolStats>,
}

/// A queued work item: the job plus its lane tag. The tag is the node's
/// affinity *hint* — any worker may execute the job; the tag only decides
/// which queue it waits in and how thieves prioritize it.
struct Tagged {
    job: Job,
    io: bool,
}

/// The scheduler core shared by workers, dispatchers, and helpers: one
/// global injector per lane, a stealer view of every worker's deque, and
/// the idle/wake machinery.
///
/// Queue invariant: a compute worker's deque only ever holds
/// compute-tagged jobs, an I/O worker's deque only I/O-tagged jobs, and
/// each injector only its own lane's jobs. Cross-lane execution happens
/// at *take* time (a thief running the other lane's job immediately),
/// never by re-queueing — which is what lets helpers drain compute-lane
/// queues knowing they will never pull a blocking I/O job.
struct PoolCore {
    /// Global FIFO queue of compute-lane work.
    injector: deque::Injector<Tagged>,
    /// Global FIFO queue of I/O-lane work (`None` = lane disabled; every
    /// job is then compute-tagged).
    io_injector: Option<deque::Injector<Tagged>>,
    /// Stealer views of the compute workers' deques.
    stealers: Vec<deque::Stealer<Tagged>>,
    /// Stealer views of the I/O workers' deques.
    io_stealers: Vec<deque::Stealer<Tagged>>,
    /// High-water mark of each worker's deque (compute workers, then I/O
    /// workers); the live depth is the stealer's length.
    deque_peaks: Vec<AtomicU64>,
    /// Compute workers currently executing cross-stolen I/O work. Capped
    /// at `threads - 1`: lane affinity biases victim order, and this cap
    /// is the second half of the guarantee — blocking I/O can occupy at
    /// most all-but-one compute worker.
    cross_io_active: AtomicUsize,
    threads: usize,
    shutdown: AtomicBool,
    /// Bumped by every push, by the `count_down` that opens a construct's
    /// latch and by shutdown; see [`PoolCore::idle_wait`].
    wake_gen: AtomicU64,
    /// Threads parked, or about to park, in [`PoolCore::idle_wait`].
    sleepers: AtomicUsize,
    idle_lock: parking_lot::Mutex<()>,
    idle_cv: parking_lot::Condvar,
    stats: Arc<PoolStats>,
}

/// The deque owned by the pool worker running on the current thread, if
/// any — how dispatch knows it can push locally instead of through the
/// injector.
struct LocalWorker {
    core: Arc<PoolCore>,
    worker: deque::Worker<Tagged>,
    io: bool,
    /// The worker's index in `deque_peaks` (compute workers first).
    slot: usize,
}

thread_local! {
    /// Set once at worker startup, `None` on every other thread.
    static LOCAL: RefCell<Option<LocalWorker>> = const { RefCell::new(None) };
    /// Whether the job currently executing on this thread was taken
    /// across lanes — read by DAG node spans for steal annotation.
    static CROSS_LANE: Cell<bool> = const { Cell::new(false) };
}

/// True when the job currently executing on this thread was stolen across
/// lanes (an I/O-tagged job on a compute worker or vice versa).
fn current_job_cross_lane() -> bool {
    CROSS_LANE.with(Cell::get)
}

/// Resolves a `Steal` probe, spinning through transient `Retry` races
/// (with the lock-backed deque these only last as long as a competing
/// lock hold).
fn resolve<T>(mut attempt: impl FnMut() -> Steal<T>) -> Option<T> {
    loop {
        match attempt() {
            Steal::Success(t) => return Some(t),
            Steal::Empty => return None,
            Steal::Retry => std::hint::spin_loop(),
        }
    }
}

impl PoolCore {
    /// True when the current thread is one of this pool's workers; the
    /// payload is its lane.
    fn local_lane(&self) -> Option<bool> {
        LOCAL.with(|l| {
            l.borrow()
                .as_ref()
                .filter(|lw| std::ptr::eq(Arc::as_ptr(&lw.core), self))
                .map(|lw| lw.io)
        })
    }

    /// Routes one work item: onto the current worker's own deque when
    /// `prefer_local` holds, the thread is one of this pool's workers,
    /// and the lanes match (preserving the queue invariant); onto the
    /// job's lane injector otherwise. Always wakes a sleeper.
    fn push(&self, t: Tagged, prefer_local: bool) {
        let leftover = if prefer_local {
            self.try_push_local(t)
        } else {
            Some(t)
        };
        if let Some(t) = leftover {
            match (&self.io_injector, t.io) {
                (Some(inj), true) => inj.push(t),
                _ => self.injector.push(t),
            }
        }
        self.wake();
    }

    /// Local-deque leg of [`PoolCore::push`]; returns the item back when
    /// the current thread can't take it.
    fn try_push_local(&self, t: Tagged) -> Option<Tagged> {
        LOCAL.with(|l| {
            let l = l.borrow();
            match l.as_ref() {
                Some(lw) if std::ptr::eq(Arc::as_ptr(&lw.core), self) && lw.io == t.io => {
                    lw.worker.push(t);
                    self.deque_peaks[lw.slot].fetch_max(lw.worker.len() as u64, Ordering::Relaxed);
                    self.stats.local_depth_changed(1);
                    None
                }
                _ => Some(t),
            }
        })
    }

    /// Pops the current worker's own deque (LIFO).
    fn pop_local(&self) -> Option<Tagged> {
        LOCAL.with(|l| {
            let l = l.borrow();
            let lw = l
                .as_ref()
                .filter(|lw| std::ptr::eq(Arc::as_ptr(&lw.core), self))?;
            let t = lw.worker.pop()?;
            self.stats.local_depth_changed(-1);
            Some(t)
        })
    }

    /// Steals from the victim deque at `idx` (compute workers first, then
    /// I/O workers).
    fn steal_deque(&self, idx: usize) -> Option<Tagged> {
        let stealer = if idx < self.stealers.len() {
            &self.stealers[idx]
        } else {
            &self.io_stealers[idx - self.stealers.len()]
        };
        self.stats.steal_attempts.fetch_add(1, Ordering::Relaxed);
        let t = resolve(|| stealer.steal())?;
        self.stats.local_depth_changed(-1);
        Some(t)
    }

    /// Finds work for a worker of lane `worker_io` with worker index
    /// `me` (lane-local): own-lane injector first, then sibling deques,
    /// then — lane affinity permitting — the other lane's injector and
    /// deques. The returned job may belong to either lane; cross-lane
    /// I/O work taken by a compute worker has already been counted
    /// against the occupancy cap (released in [`PoolCore::execute`]).
    fn find_work(&self, worker_io: bool, me: usize) -> Option<Tagged> {
        let (own_injector, own_range, other_injector, other_range) = if worker_io {
            let c = self.stealers.len();
            let io = self.io_stealers.len();
            (
                self.io_injector.as_ref(),
                c..c + io,
                Some(&self.injector),
                0..c,
            )
        } else {
            let c = self.stealers.len();
            let io = self.io_stealers.len();
            (
                Some(&self.injector),
                0..c,
                self.io_injector.as_ref(),
                c..c + io,
            )
        };
        let my_abs = if worker_io {
            self.stealers.len() + me
        } else {
            me
        };
        // Own lane: the shared injector, then siblings' deques.
        if let Some(inj) = own_injector {
            if let Some(t) = resolve(|| inj.steal()) {
                return Some(t);
            }
        }
        for idx in own_range {
            if idx == my_abs {
                continue;
            }
            if let Some(t) = self.steal_deque(idx) {
                self.stats.steal_recorded(t.io, t.io != worker_io);
                return Some(t);
            }
        }
        // Cross-lane: compute thieves must reserve an occupancy slot so
        // blocking I/O never covers every compute worker; I/O thieves
        // take compute work freely (compute jobs don't block the lane).
        let reserved = worker_io || self.try_reserve_cross_io();
        if !reserved {
            return None;
        }
        let found = (|| {
            if let Some(inj) = other_injector {
                self.stats.steal_attempts.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = resolve(|| inj.steal()) {
                    return Some(t);
                }
            }
            for idx in other_range {
                if let Some(t) = self.steal_deque(idx) {
                    return Some(t);
                }
            }
            None
        })();
        match found {
            Some(t) => {
                let cross = t.io != worker_io;
                self.stats.steal_recorded(t.io, cross);
                // The reservation covers exactly the cross case a compute
                // thief was gated on.
                if !worker_io && !cross {
                    self.release_cross_io();
                }
                Some(t)
            }
            None => {
                if !worker_io {
                    self.release_cross_io();
                }
                None
            }
        }
    }

    /// Claims one cross-lane occupancy slot for a compute worker about to
    /// take I/O work. At most `threads - 1` slots exist, so a pool always
    /// keeps one compute worker free of blocking I/O (single-worker pools
    /// never cross-steal I/O).
    fn try_reserve_cross_io(&self) -> bool {
        let cap = self.threads.saturating_sub(1);
        let mut current = self.cross_io_active.load(Ordering::Relaxed);
        loop {
            if current >= cap {
                return false;
            }
            match self.cross_io_active.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => current = seen,
            }
        }
    }

    fn release_cross_io(&self) {
        self.cross_io_active.fetch_sub(1, Ordering::AcqRel);
    }

    /// Compute-lane-only work search for *helping* threads (blocked
    /// construct callers and nested workers): own deque when the caller
    /// is one of this pool's compute workers, then the compute injector
    /// and compute deques. Never touches I/O-lane queues, so an I/O node
    /// can nest compute constructs without its helper loop swallowing a
    /// blocking sibling.
    fn find_help_work(&self) -> Option<Tagged> {
        if self.local_lane() == Some(false) {
            if let Some(t) = self.pop_local() {
                return Some(t);
            }
        }
        if let Some(t) = resolve(|| self.injector.steal()) {
            return Some(t);
        }
        for idx in 0..self.stealers.len() {
            if let Some(t) = self.steal_deque(idx) {
                self.stats.steal_recorded(t.io, false);
                return Some(t);
            }
        }
        None
    }

    /// Executes one taken job with lane-keyed busy accounting and panic
    /// containment. `helped` selects the helper counter; a cross-lane job
    /// is flagged for span annotation and, for compute thieves, releases
    /// the occupancy slot reserved at steal time.
    fn execute(&self, t: Tagged, worker_io: bool, helped: bool) {
        let cross = t.io != worker_io;
        if helped {
            self.stats.jobs_helped.fetch_add(1, Ordering::Relaxed);
        } else if worker_io {
            self.stats
                .io_jobs_on_workers
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.jobs_on_workers.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.job_started(worker_io);
        let prev = CROSS_LANE.with(|c| c.replace(cross));
        if let Err(payload) = catch_unwind(AssertUnwindSafe(t.job)) {
            self.stats.panics_caught.fetch_add(1, Ordering::Relaxed);
            arp_diag::error(|| {
                format!(
                    "worker contained a panicking job: {}",
                    arp_diag::panic_message(&*payload)
                )
            });
        }
        CROSS_LANE.with(|c| c.set(prev));
        self.stats.job_finished(worker_io);
        if cross && !worker_io {
            self.release_cross_io();
        }
    }

    /// Wakes every parked worker and helper: bumps the generation, then
    /// notifies if anyone is parked (see [`PoolCore::idle_wait`]).
    fn wake(&self) {
        self.wake_gen.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.idle_lock.lock();
            self.idle_cv.notify_all();
        }
    }

    /// Parks until the wake generation moves past `seen_gen` (read before
    /// the caller's last look for work or at its latch) or the pool shuts
    /// down. There is no timeout, and none is needed: the sleeper joins
    /// `sleepers` before it re-checks the generation, and [`PoolCore::wake`]
    /// bumps the generation before it reads `sleepers`, all `SeqCst`, so
    /// either the re-check sees the bump or the waker sees the sleeper and
    /// notifies under `idle_lock`, which the sleeper holds until it waits.
    fn idle_wait(&self, seen_gen: u64) {
        let mut guard = self.idle_lock.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.wake_gen.load(Ordering::SeqCst) == seen_gen
            && !self.shutdown.load(Ordering::SeqCst)
        {
            self.idle_cv.wait(&mut guard);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Counts one job of a construct down on the construct's latch when the
/// job ends, panicking or not. The `count_down` that opens the latch wakes
/// the pool, so a caller parked in `help_until_open` sees it at once.
struct CountOnDrop {
    latch: Arc<CountdownLatch>,
    core: Arc<PoolCore>,
}

impl Drop for CountOnDrop {
    fn drop(&mut self) {
        if self.latch.count_down() {
            self.core.wake();
        }
    }
}

/// Shared state of one `parallel_for` invocation.
struct ForState<'f> {
    cursor: AtomicUsize,
    start: usize,
    end: usize,
    threads: usize,
    schedule: Schedule,
    body: &'f (dyn Fn(usize) + Sync),
    panicked: AtomicBool,
    /// Message of the first observed panic, re-raised on the caller.
    panic_msg: parking_lot::Mutex<Option<String>>,
}

impl ForState<'_> {
    /// Claims the next chunk, returning a sub-range or `None` when the
    /// iteration space is exhausted.
    fn claim(&self) -> Option<Range<usize>> {
        let n = self.end - self.start;
        loop {
            let claimed = self.cursor.load(Ordering::Relaxed);
            if claimed >= n {
                return None;
            }
            let size = self.schedule.chunk(n, claimed, self.threads);
            match self.cursor.compare_exchange_weak(
                claimed,
                claimed + size,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    let lo = self.start + claimed;
                    return Some(lo..lo + size);
                }
                Err(_) => continue,
            }
        }
    }

    /// Runs chunks until the space is exhausted or a panic is observed.
    fn drive(&self) {
        while !self.panicked.load(Ordering::Relaxed) {
            let Some(chunk) = self.claim() else { break };
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _span = arp_trace::begin(arp_trace::Cat::Chunk);
                arp_trace::annotate(|a| a.name = format!("for[{}..{})", chunk.start, chunk.end));
                for i in chunk {
                    (self.body)(i);
                }
            }));
            if let Err(payload) = result {
                let msg = arp_diag::panic_message(&*payload);
                arp_diag::error(|| format!("parallel_for chunk panicked: {msg}"));
                self.panic_msg.lock().get_or_insert(msg);
                self.panicked.store(true, Ordering::Relaxed);
                break;
            }
        }
    }
}

/// Shared state of one `run_dag` invocation, reached by node jobs through a
/// raw pointer (same soundness argument as [`ForState`]: the caller blocks
/// on the latch until every node has counted down).
struct DagState<'env> {
    slots: Vec<parking_lot::Mutex<Option<BorrowedTask<'env>>>>,
    succs: Vec<Vec<usize>>,
    /// Remaining predecessor count per node; the node is dispatched by
    /// whoever decrements it to zero.
    pending: Vec<AtomicUsize>,
    /// Dispatch priority per node (empty = submission order). When several
    /// nodes become ready at once they are enqueued highest-priority first,
    /// and the FIFO pool channel preserves that order.
    priority: Vec<u64>,
    /// Per-node lane hint (empty = every node on the compute lane).
    io_lane: Vec<bool>,
    panicked: AtomicBool,
    /// Message of the first observed panic, re-raised on the caller.
    panic_msg: parking_lot::Mutex<Option<String>>,
}

/// Orders a set of simultaneously-ready node indices for dispatch: highest
/// priority first, index order breaking ties (and preserved entirely when no
/// priorities were supplied).
fn order_ready(ready: &mut [usize], priority: &[u64]) {
    if priority.is_empty() {
        ready.sort_unstable();
        return;
    }
    ready.sort_unstable_by_key(|&i| (std::cmp::Reverse(priority[i]), i));
}

/// Enqueues node `i`: builds its job and pushes it onto the queue its lane
/// hint selects. `prefer_local` marks the first successor a completing
/// node unlocks — it lands on the completing worker's own deque (when the
/// lanes match) so dependency chains stay on one core; everything else
/// goes through the lane injector, whose FIFO preserves priority order.
fn dispatch_dag_node(
    state_ptr: usize,
    i: usize,
    core: &Arc<PoolCore>,
    stats: &Arc<PoolStats>,
    latch: &Arc<CountdownLatch>,
    prefer_local: bool,
) {
    // SAFETY: see `DagState` — the caller of `run_dag` keeps the state
    // alive until the latch opens, which requires this node to finish.
    let state = unsafe { &*(state_ptr as *const DagState<'static>) };
    let io_hint = state.io_lane.get(i).copied().unwrap_or(false);
    let io = io_hint && core.io_injector.is_some();
    stats.dag_dispatches.fetch_add(1, Ordering::Relaxed);
    // The counter track samples the same value the peak statistic takes its
    // max over, so the exported track's peak equals `dag_ready_peak`.
    if io {
        stats.io_dispatches.fetch_add(1, Ordering::Relaxed);
        arp_trace::counter("io-lane-depth", stats.io_ready.rise() as f64);
    } else {
        arp_trace::counter("ready-queue-depth", stats.ready.rise() as f64);
    }
    // Stamped at enqueue so the span (and the queue-wait histogram) can
    // separate how long the node sat in the queue from its execute time,
    // without paying for a clock read when both layers are disabled.
    let queued_at = if arp_trace::enabled() || arp_metrics::enabled() {
        Some(Instant::now())
    } else {
        None
    };

    let core_clone = core.clone();
    let stats_clone = stats.clone();
    let latch_clone = latch.clone();
    let job: Job = Box::new(move || {
        // Declared first so it drops last: the latch must not open until
        // every access to the shared state is over.
        let guard = CountOnDrop {
            latch: latch_clone,
            core: core_clone,
        };
        let state = unsafe { &*(state_ptr as *const DagState<'static>) };
        let metrics_on = arp_metrics::enabled();
        if io {
            arp_trace::counter("io-lane-depth", stats_clone.io_ready.fall() as f64);
        } else {
            arp_trace::counter("ready-queue-depth", stats_clone.ready.fall() as f64);
        }
        if metrics_on {
            if let Some(t) = queued_at {
                metrics::lane_queue_wait(io).record(t.elapsed().as_nanos() as u64);
            }
        }
        // After a panic the remaining nodes still cascade (so the latch
        // fully counts down) but their bodies are skipped.
        if !state.panicked.load(Ordering::Relaxed) {
            if let Some(task) = state.slots[i].lock().take() {
                // The span covers only the task body (closed before
                // successors are unlocked); the task itself annotates
                // pipeline attribution over this default name.
                let _span = arp_trace::begin_queued(arp_trace::Cat::DagNode, queued_at);
                arp_trace::annotate(|a| {
                    a.name = if io {
                        format!("node-{i} [io]")
                    } else {
                        format!("node-{i}")
                    };
                    // Mark nodes that ran on the other lane's worker so the
                    // trace shows where stealing actually rebalanced load.
                    if current_job_cross_lane() {
                        a.name.push_str(" [stolen]");
                    }
                });
                let exec_start = metrics_on.then(Instant::now);
                if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                    let msg = arp_diag::panic_message(&*payload);
                    arp_diag::error(|| format!("dag node {i} panicked: {msg}"));
                    state.panic_msg.lock().get_or_insert(msg);
                    state.panicked.store(true, Ordering::Relaxed);
                    stats_clone.panics_caught.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(t0) = exec_start {
                    metrics::execute_time().record(t0.elapsed().as_nanos() as u64);
                }
            }
        }
        metrics::nodes_completed().inc();
        let mut unlocked: Vec<usize> = state.succs[i]
            .iter()
            .copied()
            .filter(|&s| state.pending[s].fetch_sub(1, Ordering::AcqRel) == 1)
            .collect();
        order_ready(&mut unlocked, &state.priority);
        // The highest-priority successor stays on this worker's deque
        // (popped next, LIFO); the rest go through the injectors.
        let mut first = true;
        for s in unlocked {
            dispatch_dag_node(state_ptr, s, &guard.core, &stats_clone, &guard.latch, first);
            first = false;
        }
    });
    core.push(Tagged { job, io }, prefer_local);
}

/// The process-wide shared pool (held at module scope so the sizing hook
/// below can tell whether it has been built yet).
static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The I/O-lane width the global pool will be built with. `usize::MAX`
/// means "unset" and resolves to [`default_io_threads`].
static GLOBAL_IO_THREADS: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Sets the I/O-lane width the global pool is created with (`0` disables
/// the lane). Returns `true` when the setting will take effect — i.e. the
/// global pool has not been built yet. Call before the first
/// [`ThreadPool::global`] use; a later call is a silent no-op apart from
/// the `false` return.
pub fn configure_global_io_threads(io_threads: usize) -> bool {
    GLOBAL_IO_THREADS.store(io_threads, Ordering::Relaxed);
    GLOBAL.get().is_none()
}

/// Spawns one worker owning `worker_deque`. `io` selects the worker's lane
/// (its accounting, its victim order, and the thread-name prefix the trace
/// layer keys its timeline lanes on); `index` is lane-local.
fn spawn_worker(
    name: String,
    io: bool,
    index: usize,
    core: Arc<PoolCore>,
    worker_deque: deque::Worker<Tagged>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            LOCAL.with(|l| {
                *l.borrow_mut() = Some(LocalWorker {
                    core: core.clone(),
                    worker: worker_deque,
                    io,
                    slot: if io { core.threads + index } else { index },
                });
            });
            loop {
                // Snapshot the wake generation *before* scanning: a push
                // racing the scan bumps it, so `idle_wait` returns at once
                // and the scan reruns instead of parking through work.
                let gen = core.wake_gen.load(Ordering::SeqCst);
                if let Some(t) = core.pop_local().or_else(|| core.find_work(io, index)) {
                    // Jobs carry their own completion/panic accounting;
                    // a panicking job must not kill the worker.
                    core.execute(t, io, false);
                    continue;
                }
                if core.shutdown.load(Ordering::Acquire) {
                    break;
                }
                core.idle_wait(gen);
            }
            LOCAL.with(|l| *l.borrow_mut() = None);
        })
        .expect("failed to spawn pool worker")
}

impl ThreadPool {
    /// Creates a pool with `threads` compute workers (at least 1) and the
    /// default I/O lane ([`default_io_threads`]).
    pub fn new(threads: usize) -> Self {
        Self::with_io(threads, default_io_threads(threads.max(1)))
    }

    /// Creates a pool with `threads` compute workers (at least 1) and
    /// `io_threads` I/O-lane workers. `io_threads == 0` disables the lane
    /// entirely: every DAG node runs on the compute workers exactly as if
    /// no lane hints were given.
    pub fn with_io(threads: usize, io_threads: usize) -> Self {
        let threads = threads.max(1);
        let stats = Arc::new(PoolStats::default());
        let compute_deques: Vec<deque::Worker<Tagged>> =
            (0..threads).map(|_| deque::Worker::new_lifo()).collect();
        let io_deques: Vec<deque::Worker<Tagged>> =
            (0..io_threads).map(|_| deque::Worker::new_lifo()).collect();
        let core = Arc::new(PoolCore {
            injector: deque::Injector::new(),
            io_injector: (io_threads > 0).then(deque::Injector::new),
            stealers: compute_deques.iter().map(|w| w.stealer()).collect(),
            io_stealers: io_deques.iter().map(|w| w.stealer()).collect(),
            deque_peaks: (0..threads + io_threads)
                .map(|_| AtomicU64::new(0))
                .collect(),
            cross_io_active: AtomicUsize::new(0),
            threads,
            shutdown: AtomicBool::new(false),
            wake_gen: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            idle_lock: parking_lot::Mutex::new(()),
            idle_cv: parking_lot::Condvar::new(),
            stats: stats.clone(),
        });
        let workers = compute_deques
            .into_iter()
            .enumerate()
            .map(|(k, w)| spawn_worker(format!("arp-par-{k}"), false, k, core.clone(), w))
            .collect();
        let io_workers = io_deques
            .into_iter()
            .enumerate()
            .map(|(k, w)| spawn_worker(format!("arp-io-{k}"), true, k, core.clone(), w))
            .collect();
        ThreadPool {
            core,
            workers,
            io_workers,
            threads,
            io_threads,
            stats,
        }
    }

    /// Snapshot of the pool's observability counters.
    pub fn stats(&self) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            jobs_on_workers: self.stats.jobs_on_workers.load(Ordering::Relaxed),
            jobs_helped: self.stats.jobs_helped.load(Ordering::Relaxed),
            loops_completed: self.stats.loops_completed.load(Ordering::Relaxed),
            panics_caught: self.stats.panics_caught.load(Ordering::Relaxed),
            dag_dispatches: self.stats.dag_dispatches.load(Ordering::Relaxed),
            dag_ready_peak: self.stats.ready.peak(),
            dags_completed: self.stats.dags_completed.load(Ordering::Relaxed),
            io_jobs_on_workers: self.stats.io_jobs_on_workers.load(Ordering::Relaxed),
            io_dispatches: self.stats.io_dispatches.load(Ordering::Relaxed),
            io_ready_peak: self.stats.io_ready.peak(),
            steal_attempts: self.stats.steal_attempts.load(Ordering::Relaxed),
            steals_compute: self.stats.steals_compute.load(Ordering::Relaxed),
            steals_io: self.stats.steals_io.load(Ordering::Relaxed),
            cross_lane_steals: self.stats.cross_lane_steals.load(Ordering::Relaxed),
        }
    }

    /// Runs queued jobs until `latch` opens. This is the cooperative wait
    /// that makes nesting safe: if all workers are blocked inside outer
    /// constructs, the blocked threads themselves drain the queues.
    ///
    /// A helper with nothing to run parks on the pool's wake generation:
    /// a pushed job or the `count_down` that opens a latch wakes it. The
    /// generation is read before the latch check, so an opening after the
    /// check has bumped past it. Helpers only ever drain compute-lane
    /// queues — an I/O-tagged job could block the helping thread
    /// indefinitely, stalling the very construct it is trying to finish.
    fn help_until_open(&self, latch: &CountdownLatch) {
        loop {
            let gen = self.core.wake_gen.load(Ordering::SeqCst);
            if latch.is_open() {
                return;
            }
            match self.core.find_help_work() {
                Some(t) => self.core.execute(t, false, true),
                None => self.core.idle_wait(gen),
            }
        }
    }

    /// The process-wide shared pool, sized to the machine's parallelism
    /// (I/O lane per [`configure_global_io_threads`], defaulting to
    /// [`default_io_threads`]).
    pub fn global() -> &'static ThreadPool {
        GLOBAL.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4);
            let io = match GLOBAL_IO_THREADS.load(Ordering::Relaxed) {
                usize::MAX => default_io_threads(n),
                configured => configured,
            };
            metrics::register();
            ThreadPool::with_io(n, io)
        })
    }

    /// The process-wide shared pool if something has already built it, so
    /// a caller that only reads its counters never starts its workers.
    pub fn global_if_started() -> Option<&'static ThreadPool> {
        GLOBAL.get()
    }

    /// Number of compute worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of I/O-lane worker threads (0 = lane disabled).
    pub fn io_threads(&self) -> usize {
        self.io_threads
    }

    /// Live per-worker deque depth and its high-water mark, `(worker name,
    /// queued jobs, peak)` for every compute and I/O worker. Reads the
    /// work-stealing deques directly (the same `Stealer::len` the
    /// victim-selection loop uses), so it never blocks a worker.
    pub fn deque_depths(&self) -> Vec<(String, usize, u64)> {
        let core = &self.core;
        let compute = (0..core.stealers.len()).map(|k| format!("arp-par-{k}"));
        let io = (0..core.io_stealers.len()).map(|k| format!("arp-io-{k}"));
        compute
            .chain(io)
            .zip(core.stealers.iter().chain(&core.io_stealers))
            .zip(&core.deque_peaks)
            .map(|((worker, s), peak)| (worker, s.len(), peak.load(Ordering::Relaxed)))
            .collect()
    }

    /// The pool's store, for the `/metrics` families that read it.
    pub(crate) fn store(&self) -> &PoolStats {
        &self.stats
    }

    /// Executes `body(i)` for every `i` in `range`, in parallel, returning
    /// when all iterations are complete.
    ///
    /// The calling thread participates; pool workers join as they become
    /// free. Panics in any iteration are collected and re-raised on the
    /// caller after every in-flight chunk has finished.
    pub fn parallel_for<F>(&self, range: Range<usize>, schedule: Schedule, body: F)
    where
        F: Fn(usize) + Sync,
    {
        if range.is_empty() {
            return;
        }
        let state = ForState {
            cursor: AtomicUsize::new(0),
            start: range.start,
            end: range.end,
            threads: self.threads,
            schedule,
            body: &body,
            panicked: AtomicBool::new(false),
            panic_msg: parking_lot::Mutex::new(None),
        };

        // Helpers get a raw pointer to the stack-held state. Soundness: the
        // latch guarantees every helper has returned before `state` (and the
        // borrowed `body`) go out of scope — including on the panic path,
        // because the latch decrement lives in a drop guard inside the job.
        let helpers = self.threads.min(self.end_helpers(range.end - range.start));
        let latch = Arc::new(CountdownLatch::new(helpers));
        let state_ptr = &state as *const ForState<'_> as usize;
        for _ in 0..helpers {
            let guard = CountOnDrop {
                latch: latch.clone(),
                core: self.core.clone(),
            };
            let job: Job = Box::new(move || {
                let _guard = guard;
                // SAFETY: the caller blocks on the latch before the state is
                // dropped, so the pointee outlives this access.
                let state = unsafe { &*(state_ptr as *const ForState<'static>) };
                state.drive();
            });
            // Helper jobs go through the injector (not a worker's own
            // deque) so any free worker can claim one immediately.
            self.core.push(Tagged { job, io: false }, false);
        }

        state.drive();
        self.help_until_open(&latch);
        self.stats.loops_completed.fetch_add(1, Ordering::Relaxed);

        if state.panicked.load(Ordering::Relaxed) {
            match state.panic_msg.lock().take() {
                Some(msg) => panic!("a parallel_for iteration panicked: {msg}"),
                None => panic!("a parallel_for iteration panicked"),
            }
        }
    }

    /// Caps helper count so tiny loops don't enqueue useless jobs.
    fn end_helpers(&self, n: usize) -> usize {
        n.saturating_sub(1).min(self.threads)
    }

    /// Runs a set of heterogeneous tasks to completion (OpenMP
    /// `task`/`taskwait`). See [`ThreadPool::scope`] for the borrowing
    /// variant.
    pub fn run_tasks(&self, tasks: Vec<BorrowedTask<'_>>) {
        if tasks.is_empty() {
            return;
        }
        let slots: Vec<parking_lot::Mutex<Option<BorrowedTask<'_>>>> = tasks
            .into_iter()
            .map(|t| parking_lot::Mutex::new(Some(t)))
            .collect();
        self.parallel_for(0..slots.len(), Schedule::Dynamic(1), |i| {
            if let Some(task) = slots[i].lock().take() {
                task();
            }
        });
    }

    /// Runs a set of interdependent tasks, starting each one the moment its
    /// predecessors complete — a dependency-counting DAG scheduler.
    ///
    /// `preds[i]` lists the task indices that must finish before task `i`
    /// may start. Roots are dispatched immediately; every completing task
    /// decrements its successors' pending counters and dispatches those
    /// that reach zero. The calling thread participates (it drains the
    /// pool queue while waiting), so `run_dag` completes even when every
    /// worker is busy, and tasks may themselves use nested pool
    /// constructs.
    ///
    /// `priority` is the fair-scheduling knob for graphs that union several
    /// independent subgraphs (such as a multi-event batch). Whenever several
    /// tasks become ready at the same moment (the initial roots, or siblings
    /// unlocked by one completion), they are enqueued highest priority
    /// first. Passing each task's critical-path weight (its longest
    /// remaining path to an exit) yields critical-path list scheduling: long
    /// chains start early and short subgraphs fill the idle tails instead of
    /// being starved behind one giant subgraph's unordered nodes. An empty
    /// slice means submission (index) order; otherwise `priority` must have
    /// one entry per task.
    ///
    /// `io_lane` is a per-task lane hint: tasks whose entry is `true` are
    /// dispatched to the pool's I/O workers (when the lane exists), so a
    /// task blocked on disk never occupies a compute worker. An empty slice
    /// — or a pool built with `io_threads == 0` — routes every task to the
    /// compute lane; otherwise `io_lane` must have one entry per task.
    ///
    /// Priorities and lane hints influence only the dispatch *order* and
    /// *where* a task runs, never correctness: dependency counting and panic
    /// accounting are the same for any of them, so runs of the same graph
    /// with any priorities, lane on or lane off, produce identical results.
    ///
    /// Panics if the graph references an out-of-range index, depends on
    /// itself, or contains a cycle; a panic inside a task is re-raised on
    /// the caller after the whole graph has drained.
    ///
    /// ```
    /// let pool = arp_par::ThreadPool::with_io(2, 1);
    /// let order = parking_lot::Mutex::new(Vec::new());
    /// // diamond: 0 -> {1, 2} -> 3, in submission order, lane off
    /// pool.run_dag(
    ///     (0..4).map(|i| {
    ///         let order = &order;
    ///         Box::new(move || order.lock().push(i)) as Box<dyn FnOnce() + Send>
    ///     }).collect(),
    ///     &[vec![], vec![0], vec![0], vec![1, 2]],
    ///     &[],
    ///     &[],
    /// );
    /// let order = order.into_inner();
    /// assert_eq!(order[0], 0);
    /// assert_eq!(order[3], 3);
    ///
    /// // Two chains, the heavier one first; each chain's second task is
    /// // tagged I/O and queued toward the `arp-io-*` workers.
    /// let done = std::sync::atomic::AtomicUsize::new(0);
    /// pool.run_dag(
    ///     (0..4).map(|_| {
    ///         let done = &done;
    ///         Box::new(move || {
    ///             done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    ///         }) as Box<dyn FnOnce() + Send>
    ///     }).collect(),
    ///     &[vec![], vec![0], vec![], vec![2]],
    ///     &[10, 10, 3, 3],
    ///     &[false, true, false, true],
    /// );
    /// assert_eq!(done.load(std::sync::atomic::Ordering::Relaxed), 4);
    /// assert!(pool.stats().io_dispatches >= 2);
    /// ```
    pub fn run_dag<'env>(
        &self,
        tasks: Vec<BorrowedTask<'env>>,
        preds: &[Vec<usize>],
        priority: &[u64],
        io_lane: &[bool],
    ) {
        let n = tasks.len();
        assert!(
            io_lane.is_empty() || io_lane.len() == n,
            "run_dag: one lane hint per task (or none)"
        );
        assert_eq!(preds.len(), n, "run_dag: one predecessor list per task");
        assert!(
            priority.is_empty() || priority.len() == n,
            "run_dag: one priority per task (or none)"
        );
        if n == 0 {
            return;
        }
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indegree = vec![0usize; n];
        for (i, ps) in preds.iter().enumerate() {
            for &p in ps {
                assert!(p < n, "run_dag: task {i} depends on out-of-range {p}");
                assert_ne!(p, i, "run_dag: task {i} depends on itself");
                succs[p].push(i);
                indegree[i] += 1;
            }
        }
        // Kahn's algorithm up front: a cyclic graph would deadlock the
        // latch, so refuse it loudly instead.
        {
            let mut remaining = indegree.clone();
            let mut queue: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
            let mut seen = 0;
            while let Some(i) = queue.pop() {
                seen += 1;
                for &s in &succs[i] {
                    remaining[s] -= 1;
                    if remaining[s] == 0 {
                        queue.push(s);
                    }
                }
            }
            assert_eq!(seen, n, "run_dag: dependency graph contains a cycle");
        }

        let state = DagState {
            slots: tasks
                .into_iter()
                .map(|t| parking_lot::Mutex::new(Some(t)))
                .collect(),
            succs,
            pending: indegree.iter().map(|&d| AtomicUsize::new(d)).collect(),
            priority: priority.to_vec(),
            io_lane: io_lane.to_vec(),
            panicked: AtomicBool::new(false),
            panic_msg: parking_lot::Mutex::new(None),
        };
        let latch = Arc::new(CountdownLatch::new(n));
        let state_ptr = &state as *const DagState<'_> as usize;
        let mut roots: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        order_ready(&mut roots, priority);
        for i in roots {
            // Roots all go through the injectors: the caller is about to
            // help, not to run its own deque as a worker.
            dispatch_dag_node(state_ptr, i, &self.core, &self.stats, &latch, false);
        }
        self.help_until_open(&latch);
        self.stats.dags_completed.fetch_add(1, Ordering::Relaxed);
        if state.panicked.load(Ordering::Relaxed) {
            match state.panic_msg.lock().take() {
                Some(msg) => panic!("a dag task panicked: {msg}"),
                None => panic!("a dag task panicked"),
            }
        }
    }

    /// Spawns tasks that may borrow from the enclosing scope and waits for
    /// all of them — the runtime's `#pragma omp task` + `taskwait`.
    ///
    /// ```
    /// let pool = arp_par::ThreadPool::new(4);
    /// let mut a = 0u64;
    /// let mut b = 0u64;
    /// pool.scope(|s| {
    ///     s.spawn(|| a = 1);
    ///     s.spawn(|| b = 2);
    /// });
    /// assert_eq!((a, b), (1, 2));
    /// ```
    pub fn scope<'env, F>(&self, build: F)
    where
        F: FnOnce(&mut TaskScope<'env>),
    {
        let mut scope = TaskScope { tasks: Vec::new() };
        build(&mut scope);
        self.run_tasks(scope.tasks);
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Workers exit when a full scan finds nothing after the flag is
        // raised, so any straggler jobs still drain first.
        self.core.shutdown.store(true, Ordering::Release);
        self.core.wake();
        for w in self.workers.drain(..).chain(self.io_workers.drain(..)) {
            let _ = w.join();
        }
    }
}

/// Collects tasks for [`ThreadPool::scope`].
pub struct TaskScope<'env> {
    tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
}

impl<'env> TaskScope<'env> {
    /// Registers a task. Tasks run when the scope closure returns; there are
    /// no ordering guarantees between them.
    pub fn spawn<F>(&mut self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.tasks.push(Box::new(f));
    }

    /// Number of tasks registered so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if no tasks registered.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let p = pool();
        for schedule in [
            Schedule::Static,
            Schedule::Dynamic(1),
            Schedule::Dynamic(7),
            Schedule::Guided(1),
            Schedule::Guided(4),
        ] {
            let n = 1000;
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            p.parallel_for(0..n, schedule, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "index {i} under {schedule:?}");
            }
        }
    }

    #[test]
    fn parallel_for_nonzero_start() {
        let p = pool();
        let sum = AtomicU64::new(0);
        p.parallel_for(10..20, Schedule::Dynamic(3), |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (10..20).sum::<u64>());
    }

    #[test]
    fn empty_range_is_noop() {
        let p = pool();
        p.parallel_for(5..5, Schedule::Static, |_| panic!("must not run"));
    }

    #[test]
    fn single_iteration_runs_on_caller() {
        let p = pool();
        let hit = AtomicUsize::new(0);
        p.parallel_for(0..1, Schedule::Static, |_| {
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn matches_sequential_result() {
        let p = pool();
        let n = 10_000;
        let par: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        p.parallel_for(0..n, Schedule::Guided(8), |i| {
            par[i].store((i * i) as u64 % 97, Ordering::Relaxed);
        });
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            assert_eq!(par[i].load(Ordering::Relaxed), (i * i) as u64 % 97);
        }
    }

    #[test]
    fn uses_multiple_threads() {
        use std::collections::HashSet;
        let p = ThreadPool::new(4);
        let ids = parking_lot::Mutex::new(HashSet::new());
        p.parallel_for(0..64, Schedule::Dynamic(1), |_| {
            // Make work slow enough that helpers join in.
            std::thread::sleep(std::time::Duration::from_millis(2));
            ids.lock().insert(std::thread::current().id());
        });
        assert!(
            ids.lock().len() >= 2,
            "only {} thread(s) used",
            ids.lock().len()
        );
    }

    #[test]
    fn nested_parallel_for_completes() {
        let p = pool();
        let total = AtomicUsize::new(0);
        p.parallel_for(0..8, Schedule::Dynamic(1), |_| {
            p.parallel_for(0..8, Schedule::Dynamic(1), |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn panic_propagates_to_caller() {
        let p = pool();
        let result = catch_unwind(AssertUnwindSafe(|| {
            p.parallel_for(0..100, Schedule::Dynamic(1), |i| {
                if i == 37 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool still usable afterwards.
        let ok = AtomicUsize::new(0);
        p.parallel_for(0..10, Schedule::Static, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn scope_runs_all_tasks_with_borrows() {
        let p = pool();
        let mut results = vec![0u64; 5];
        {
            let chunks: Vec<&mut u64> = results.iter_mut().collect();
            p.scope(|s| {
                for (k, slot) in chunks.into_iter().enumerate() {
                    s.spawn(move || *slot = (k as u64 + 1) * 11);
                }
            });
        }
        assert_eq!(results, vec![11, 22, 33, 44, 55]);
    }

    #[test]
    fn empty_scope_is_noop() {
        let p = pool();
        p.scope(|_| {});
    }

    #[test]
    fn scope_len_tracks_spawns() {
        let p = pool();
        p.scope(|s| {
            assert!(s.is_empty());
            s.spawn(|| {});
            s.spawn(|| {});
            assert_eq!(s.len(), 2);
        });
    }

    #[test]
    fn global_pool_is_shared_and_usable() {
        let g1 = ThreadPool::global();
        let g2 = ThreadPool::global();
        assert!(std::ptr::eq(g1, g2));
        let sum = AtomicU64::new(0);
        g1.parallel_for(0..100, Schedule::Static, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn single_thread_pool_works() {
        let p = ThreadPool::new(1);
        let sum = AtomicU64::new(0);
        p.parallel_for(0..50, Schedule::Guided(2), |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1225);
    }

    #[test]
    fn zero_thread_request_clamped() {
        let p = ThreadPool::new(0);
        assert_eq!(p.threads(), 1);
    }

    #[test]
    fn stats_track_work() {
        // Compute workers only: an I/O-lane worker may take the loop's
        // helper jobs, and it counts them as `io_jobs_on_workers`.
        let p = ThreadPool::with_io(2, 0);
        let before = p.stats();
        assert_eq!(before.loops_completed, 0);
        let on_worker = AtomicBool::new(false);
        p.parallel_for(0..64, Schedule::Dynamic(1), |_| {
            if std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("arp-par-"))
            {
                on_worker.store(true, Ordering::Release);
            }
            // No iteration finishes before one has run on a pool worker, so
            // the calling thread cannot drain the loop alone.
            while !on_worker.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        let after = p.stats();
        assert_eq!(after.loops_completed, 1);
        assert!(after.jobs_on_workers + after.jobs_helped >= 1);
        assert_eq!(after.panics_caught, 0);
    }

    #[test]
    fn idle_pool_parks() {
        // After its constructs finish, every worker parks: nothing probes a
        // deque or runs a job until the next push.
        let p = ThreadPool::with_io(2, 2);
        p.parallel_for(0..64, Schedule::Dynamic(1), |_| {
            std::thread::sleep(std::time::Duration::from_micros(50));
        });
        p.run_dag(
            (0..8).map(|_| task(|| {})).collect(),
            &vec![Vec::new(); 8],
            &[],
            &[true, false, true, false, true, false, true, false],
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
        let before = p.stats();
        std::thread::sleep(std::time::Duration::from_millis(200));
        let after = p.stats();
        assert_eq!(
            after.steal_attempts, before.steal_attempts,
            "idle workers kept probing: {before:?} -> {after:?}"
        );
        assert_eq!(after.jobs_on_workers, before.jobs_on_workers);
    }

    #[test]
    fn stats_count_panics() {
        let p = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            p.parallel_for(0..8, Schedule::Dynamic(1), |i| {
                // Make workers likely to pick up chunks before the panic.
                std::thread::sleep(std::time::Duration::from_micros(100));
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The construct completed (with a panic), counters finite & sane.
        let s = p.stats();
        assert_eq!(s.loops_completed, 1);
    }

    /// Boxes a closure as a borrowed task.
    fn task<'env, F: FnOnce() + Send + 'env>(f: F) -> BorrowedTask<'env> {
        Box::new(f)
    }

    #[test]
    fn run_dag_respects_dependencies() {
        let p = pool();
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 4 independent (a small diamond).
        let preds = vec![vec![], vec![0], vec![0], vec![1, 2], vec![]];
        for _ in 0..50 {
            let log = parking_lot::Mutex::new(Vec::new());
            let log_ref = &log;
            p.run_dag(
                (0..5)
                    .map(|i| task(move || log_ref.lock().push(i)))
                    .collect(),
                &preds,
                &[],
                &[],
            );
            let log = log.into_inner();
            assert_eq!(log.len(), 5);
            let pos = |v: usize| log.iter().position(|&x| x == v).unwrap();
            assert!(pos(0) < pos(1));
            assert!(pos(0) < pos(2));
            assert!(pos(1) < pos(3));
            assert!(pos(2) < pos(3));
        }
    }

    #[test]
    fn run_dag_chain_runs_in_order() {
        let p = pool();
        let n = 64;
        let preds: Vec<Vec<usize>> = (0..n)
            .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
            .collect();
        let log = parking_lot::Mutex::new(Vec::new());
        let log_ref = &log;
        p.run_dag(
            (0..n)
                .map(|i| task(move || log_ref.lock().push(i)))
                .collect(),
            &preds,
            &[],
            &[],
        );
        assert_eq!(log.into_inner(), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn order_ready_sorts_by_priority_then_index() {
        let mut v = vec![3, 0, 2, 1];
        order_ready(&mut v, &[]);
        assert_eq!(v, vec![0, 1, 2, 3], "no priorities: index order");
        let mut v = vec![0, 1, 2, 3];
        order_ready(&mut v, &[5, 9, 9, 1]);
        assert_eq!(v, vec![1, 2, 0, 3], "descending priority, index ties");
    }

    #[test]
    fn run_dag_is_correct_under_any_priorities() {
        let p = pool();
        // Same diamond as `run_dag_respects_dependencies`.
        let preds = vec![vec![], vec![0], vec![0], vec![1, 2], vec![]];
        for prio in [
            vec![0u64, 0, 0, 0, 0],
            vec![4, 3, 2, 1, 9],
            vec![1, 2, 3, 4, 5],
        ] {
            let log = parking_lot::Mutex::new(Vec::new());
            let log_ref = &log;
            p.run_dag(
                (0..5)
                    .map(|i| task(move || log_ref.lock().push(i)))
                    .collect(),
                &preds,
                &prio,
                &[],
            );
            let log = log.into_inner();
            assert_eq!(log.len(), 5, "priorities {prio:?}");
            let pos = |v: usize| log.iter().position(|&x| x == v).unwrap();
            assert!(pos(0) < pos(1));
            assert!(pos(0) < pos(2));
            assert!(pos(1) < pos(3));
            assert!(pos(2) < pos(3));
        }
    }

    #[test]
    #[should_panic(expected = "one priority per task")]
    fn run_dag_rejects_wrong_priority_len() {
        let p = pool();
        p.run_dag(vec![task(|| {}), task(|| {})], &[vec![], vec![]], &[1], &[]);
    }

    #[test]
    fn run_dag_empty_and_independent() {
        let p = pool();
        p.run_dag(Vec::new(), &[], &[], &[]);
        let sum = AtomicU64::new(0);
        let sum_ref = &sum;
        let preds = vec![Vec::new(); 100];
        p.run_dag(
            (0..100u64)
                .map(|i| {
                    task(move || {
                        sum_ref.fetch_add(i, Ordering::Relaxed);
                    })
                })
                .collect(),
            &preds,
            &[],
            &[],
        );
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn run_dag_tasks_may_nest_parallel_for() {
        let p = pool();
        let total = AtomicUsize::new(0);
        let preds = vec![vec![], vec![0], vec![0]];
        p.run_dag(
            (0..3)
                .map(|_| {
                    task(|| {
                        p.parallel_for(0..32, Schedule::Dynamic(4), |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    })
                })
                .collect(),
            &preds,
            &[],
            &[],
        );
        assert_eq!(total.load(Ordering::Relaxed), 96);
    }

    #[test]
    fn run_dag_panic_propagates_and_pool_survives() {
        let p = pool();
        let ran_after = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            p.run_dag(
                vec![
                    task(|| panic!("node boom")),
                    task(|| {
                        ran_after.fetch_add(1, Ordering::Relaxed);
                    }),
                ],
                &[vec![], vec![0]],
                &[],
                &[],
            );
        }));
        assert!(result.is_err());
        // The dependent node was skipped, not run against broken inputs.
        assert_eq!(ran_after.load(Ordering::Relaxed), 0);
        // And the pool is still usable.
        let ok = AtomicUsize::new(0);
        p.run_dag(
            vec![task(|| {
                ok.fetch_add(1, Ordering::Relaxed);
            })],
            &[vec![]],
            &[],
            &[],
        );
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_dag_rejects_cycles() {
        let p = pool();
        let result = catch_unwind(AssertUnwindSafe(|| {
            p.run_dag(
                vec![task(|| {}), task(|| {})],
                &[vec![1], vec![0]],
                &[],
                &[],
            );
        }));
        assert!(result.is_err());
    }

    #[test]
    fn run_dag_stats_count_dispatches() {
        let p = ThreadPool::new(2);
        let before = p.stats();
        let preds = vec![vec![], vec![], vec![0, 1]];
        p.run_dag((0..3).map(|_| task(|| {})).collect(), &preds, &[], &[]);
        let delta = p.stats().delta_since(&before);
        assert_eq!(delta.dag_dispatches, 3);
        assert_eq!(delta.dags_completed, 1);
        // Two roots were ready at once at dispatch time.
        assert!(delta.dag_ready_peak >= 1);
        assert_eq!(delta.panics_caught, 0);
    }

    #[test]
    fn default_io_threads_floor_and_scaling() {
        assert_eq!(default_io_threads(1), 2);
        assert_eq!(default_io_threads(4), 2);
        assert_eq!(default_io_threads(8), 2);
        assert_eq!(default_io_threads(16), 4);
        assert_eq!(default_io_threads(64), 16);
    }

    #[test]
    fn io_nodes_route_to_io_lane() {
        let p = ThreadPool::with_io(2, 2);
        let names = parking_lot::Mutex::new(Vec::<(usize, String)>::new());
        let names_ref = &names;
        // 0 (compute) -> {1 io, 2 compute} -> 3 (io)
        let preds = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let lanes = [false, true, false, true];
        p.run_dag(
            (0..4)
                .map(|i| {
                    task(move || {
                        let name = std::thread::current().name().unwrap_or("").to_string();
                        names_ref.lock().push((i, name));
                    })
                })
                .collect(),
            &preds,
            &[],
            &lanes,
        );
        let names = names.into_inner();
        assert_eq!(names.len(), 4);
        // Lanes are affinity hints, not placements: any pool thread (or
        // the helping caller) may have executed any node. What must hold
        // is the routing accounting.
        for (_, name) in &names {
            assert!(
                name.starts_with("arp-par-") || name.starts_with("arp-io-") || !name.is_empty(),
                "node ran on an unexpected thread {name:?}"
            );
        }
        let s = p.stats();
        assert_eq!(s.io_dispatches, 2);
        assert!(s.io_ready_peak >= 1);
    }

    #[test]
    fn idle_compute_workers_steal_io_nodes() {
        // One I/O worker, a pile of independent I/O nodes that each block
        // for a while: the two idle compute workers must steal from the
        // I/O lane instead of watching it drain serially.
        let p = ThreadPool::with_io(2, 1);
        let n = 16;
        let names = parking_lot::Mutex::new(Vec::<String>::new());
        let names_ref = &names;
        p.run_dag(
            (0..n)
                .map(|_| {
                    task(move || {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        let name = std::thread::current().name().unwrap_or("").to_string();
                        names_ref.lock().push(name);
                    })
                })
                .collect(),
            &vec![Vec::new(); n],
            &[],
            &vec![true; n],
        );
        let names = names.into_inner();
        assert_eq!(names.len(), n);
        let s = p.stats();
        assert_eq!(s.io_dispatches, n as u64);
        assert!(
            s.steals_io >= 1,
            "expected compute workers to steal I/O nodes, stats: {s:?}"
        );
        assert!(s.cross_lane_steals >= 1);
        assert!(s.steal_attempts >= s.steals_io);
        assert!(
            names.iter().any(|name| name.starts_with("arp-par-")),
            "no I/O node ever ran on a compute worker: {names:?}"
        );
    }

    #[test]
    fn io_workers_steal_compute_nodes() {
        // Inverse direction: one compute worker, two I/O workers, only
        // compute-tagged nodes. The I/O workers must not sit idle.
        let p = ThreadPool::with_io(1, 2);
        let n = 16;
        let names = parking_lot::Mutex::new(Vec::<String>::new());
        let names_ref = &names;
        p.run_dag(
            (0..n)
                .map(|_| {
                    task(move || {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        let name = std::thread::current().name().unwrap_or("").to_string();
                        names_ref.lock().push(name);
                    })
                })
                .collect(),
            &vec![Vec::new(); n],
            &[],
            &vec![false; n],
        );
        let names = names.into_inner();
        assert_eq!(names.len(), n);
        let s = p.stats();
        assert!(
            s.steals_compute >= 1,
            "expected I/O workers to steal compute nodes, stats: {s:?}"
        );
        assert!(
            names.iter().any(|name| name.starts_with("arp-io-")),
            "no compute node ever ran on an I/O worker: {names:?}"
        );
    }

    #[test]
    fn single_compute_worker_never_cross_steals_io() {
        // With one compute worker the cross-lane cap is zero: blocking
        // I/O must never occupy the only compute thread.
        let p = ThreadPool::with_io(1, 1);
        let names = parking_lot::Mutex::new(Vec::<String>::new());
        let names_ref = &names;
        let n = 8;
        p.run_dag(
            (0..n)
                .map(|_| {
                    task(move || {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        let name = std::thread::current().name().unwrap_or("").to_string();
                        names_ref.lock().push(name);
                    })
                })
                .collect(),
            &vec![Vec::new(); n],
            &[],
            &vec![true; n],
        );
        let names = names.into_inner();
        assert_eq!(names.len(), n);
        assert!(
            names.iter().all(|name| !name.starts_with("arp-par-")),
            "a lone compute worker took blocking I/O work: {names:?}"
        );
    }

    #[test]
    fn lane_hints_are_inert_when_lane_disabled() {
        let p = ThreadPool::with_io(2, 0);
        assert_eq!(p.io_threads(), 0);
        let sum = AtomicU64::new(0);
        let sum_ref = &sum;
        p.run_dag(
            (0..4)
                .map(|i| {
                    task(move || {
                        sum_ref.fetch_add(i, Ordering::Relaxed);
                    })
                })
                .collect(),
            &[vec![], vec![0], vec![0], vec![1, 2]],
            &[],
            &[false, true, false, true],
        );
        assert_eq!(sum.load(Ordering::Relaxed), 6);
        let s = p.stats();
        assert_eq!(s.io_dispatches, 0, "disabled lane must route to compute");
        assert_eq!(s.io_jobs_on_workers, 0);
        assert_eq!(s.dag_dispatches, 4);
    }

    #[test]
    #[should_panic(expected = "one lane hint per task")]
    fn run_dag_rejects_wrong_hint_len() {
        let p = pool();
        p.run_dag(
            vec![task(|| {}), task(|| {})],
            &[vec![], vec![]],
            &[],
            &[true],
        );
    }

    #[test]
    fn io_node_panic_propagates_and_pool_survives() {
        let p = ThreadPool::with_io(2, 1);
        let ran_after = AtomicUsize::new(0);
        let ran_ref = &ran_after;
        let result = catch_unwind(AssertUnwindSafe(|| {
            p.run_dag(
                vec![
                    task(|| panic!("io node boom")),
                    task(move || {
                        ran_ref.fetch_add(1, Ordering::Relaxed);
                    }),
                ],
                &[vec![], vec![0]],
                &[],
                &[true, false],
            );
        }));
        assert!(result.is_err());
        assert_eq!(ran_after.load(Ordering::Relaxed), 0);
        assert_eq!(p.stats().panics_caught, 1);
        // The pool (both lanes) is still usable.
        let ok = AtomicUsize::new(0);
        let ok_ref = &ok;
        p.run_dag(
            vec![task(move || {
                ok_ref.fetch_add(1, Ordering::Relaxed);
            })],
            &[vec![]],
            &[],
            &[true],
        );
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn io_nodes_may_nest_parallel_for() {
        let pool = ThreadPool::with_io(2, 1);
        let p = &pool;
        let total = AtomicUsize::new(0);
        let total_ref = &total;
        p.run_dag(
            (0..3)
                .map(|_| {
                    task(move || {
                        p.parallel_for(0..32, Schedule::Dynamic(4), |_| {
                            total_ref.fetch_add(1, Ordering::Relaxed);
                        });
                    })
                })
                .collect(),
            &[vec![], vec![0], vec![0]],
            &[],
            &[true, true, false],
        );
        assert_eq!(total.load(Ordering::Relaxed), 96);
    }

    #[test]
    fn help_accounting_covers_every_job() {
        // A 1-compute-thread pool with a long dependency chain forces the
        // caller to help; the blocking-receive wait must not lose or
        // double-count any job.
        let p = ThreadPool::with_io(1, 0);
        let before = p.stats();
        let n = 32;
        let preds: Vec<Vec<usize>> = (0..n)
            .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
            .collect();
        let hits = AtomicUsize::new(0);
        let hits_ref = &hits;
        p.run_dag(
            (0..n)
                .map(|_| {
                    task(move || {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                        hits_ref.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect(),
            &preds,
            &[],
            &[],
        );
        assert_eq!(hits.load(Ordering::Relaxed), n);
        let delta = p.stats().delta_since(&before);
        assert_eq!(delta.dag_dispatches, n as u64);
        assert_eq!(
            delta.jobs_on_workers + delta.jobs_helped,
            n as u64,
            "every job accounted to exactly one of worker/helper"
        );
        assert_eq!(delta.panics_caught, 0);
    }

    #[test]
    fn stress_many_small_loops() {
        let p = pool();
        for round in 0..200 {
            let sum = AtomicUsize::new(0);
            p.parallel_for(0..round % 17, Schedule::Dynamic(1), |_| {
                sum.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), round % 17);
        }
    }
}

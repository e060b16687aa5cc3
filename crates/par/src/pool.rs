//! The worker pool and its worksharing constructs.
//!
//! [`ThreadPool`] keeps a fixed set of worker threads fed from work-stealing
//! deques, and offers the two constructs the paper's parallelization uses:
//!
//! * [`ThreadPool::parallel_for`] — an OpenMP `parallel for`/`OMP DO`
//!   equivalent with [`Schedule::Static`], [`Schedule::Dynamic`], and
//!   [`Schedule::Guided`] chunking;
//! * [`ThreadPool::run_dag`] — OpenMP `task depend`: each task starts the
//!   moment its predecessors complete. With no edges it is `task` +
//!   `taskwait`: a set of heterogeneous tasks, returning when all have
//!   completed.
//!
//! The **calling thread always participates** in the work, so constructs
//! complete even when every pool worker is busy elsewhere (this is what
//! makes nesting deadlock-free: the nested construct can be finished
//! entirely by its caller).
//!
//! **Scheduling substrate.** Each worker (`arp-par-{k}`) owns a
//! Chase-Lev-style deque ([`crossbeam::deque`]): it pushes and pops its own
//! work LIFO (hot in cache) while idle workers and helping callers steal
//! FIFO from the front of other workers' deques. Work submitted from
//! outside the pool enters one shared [`crossbeam::deque::Injector`] that
//! every worker drains. All workers are alike, the one team of the paper's
//! OpenMP runtime: scheduling changes *when and where* a job runs, never
//! what it produces.

use crate::latch::CountdownLatch;
use crate::metrics;
use crossbeam::deque::{self, Steal};
use std::cell::RefCell;
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
    /// taken: the rule [`ThreadPool::parallel_for`] claims with. (The
    /// pipeline's simulated timing does not use it: it records one branch
    /// per iteration, which is what the pipeline's `Dynamic(1)` loops
    /// claim.)
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

/// A borrowed task accepted by [`ThreadPool::run_dag`].
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
    /// Probes of another worker's deque (hits and misses alike).
    steal_attempts: AtomicU64,
    /// Jobs obtained by stealing from another worker's deque.
    steals: AtomicU64,
    /// Dispatched-but-not-yet-started DAG nodes; its peak is the snapshot's
    /// `dag_ready_peak`.
    pub(crate) ready: Level,
    /// Threads currently executing a job (workers plus helpers).
    pub(crate) busy: Level,
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
    /// One successful steal. Publishes the cumulative steal count to the
    /// `steals` trace counter track.
    fn steal_recorded(&self) {
        let total = self.steals.fetch_add(1, Ordering::Relaxed) + 1;
        arp_trace::counter("steals", total as f64);
        arp_diag::workers::note_steal();
        arp_diag::trace(|| "stole a job".to_string());
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
    /// Probes of another worker's deque.
    pub steal_attempts: u64,
    /// Jobs obtained by stealing from another worker's deque.
    pub steals_compute: u64,
    /// Always 0: the pool has one kind of worker. A stand-in kept only
    /// because the benchmark harness (`perfbench/`) still reads it; it
    /// goes when the harness next changes.
    pub steals_io: u64,
    /// Always 0, a stand-in like [`PoolStatsSnapshot::steals_io`].
    pub cross_lane_steals: u64,
    /// Always 0, a stand-in like [`PoolStatsSnapshot::steals_io`].
    pub io_ready_peak: u64,
}

impl PoolStatsSnapshot {
    /// Counter growth between `before` and `self`. The ready-queue peak is
    /// a high-water mark, not a counter, so the later value is kept as-is.
    pub fn delta_since(&self, before: &PoolStatsSnapshot) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            jobs_on_workers: self.jobs_on_workers.saturating_sub(before.jobs_on_workers),
            jobs_helped: self.jobs_helped.saturating_sub(before.jobs_helped),
            loops_completed: self.loops_completed.saturating_sub(before.loops_completed),
            panics_caught: self.panics_caught.saturating_sub(before.panics_caught),
            dag_dispatches: self.dag_dispatches.saturating_sub(before.dag_dispatches),
            dag_ready_peak: self.dag_ready_peak,
            dags_completed: self.dags_completed.saturating_sub(before.dags_completed),
            steal_attempts: self.steal_attempts.saturating_sub(before.steal_attempts),
            steals_compute: self.steals_compute.saturating_sub(before.steals_compute),
            ..PoolStatsSnapshot::default()
        }
    }
}

/// A fixed-size worker pool.
pub struct ThreadPool {
    core: Arc<PoolCore>,
    workers: Vec<JoinHandle<()>>,
}

/// The scheduler core shared by workers, dispatchers, and helpers: the
/// global injector, a stealer view of every worker's deque, and the
/// idle/wake machinery.
struct PoolCore {
    /// Global FIFO queue of work submitted from outside a worker.
    injector: deque::Injector<Job>,
    /// Stealer views of the workers' deques, in worker order.
    stealers: Vec<deque::Stealer<Job>>,
    /// High-water mark of each worker's deque; the live depth is the
    /// stealer's length.
    deque_peaks: Vec<AtomicU64>,
    shutdown: AtomicBool,
    /// Bumped by every push, by the `count_down` that opens a construct's
    /// latch and by shutdown; see [`PoolCore::idle_wait`].
    wake_gen: AtomicU64,
    /// Threads parked, or about to park, in [`PoolCore::idle_wait`].
    sleepers: AtomicUsize,
    idle_lock: parking_lot::Mutex<()>,
    idle_cv: parking_lot::Condvar,
    stats: PoolStats,
}

/// The deque owned by the pool worker running on the current thread, if
/// any — how dispatch knows it can push locally instead of through the
/// injector.
struct LocalWorker {
    core: Arc<PoolCore>,
    worker: deque::Worker<Job>,
    /// The worker's index in `stealers` and `deque_peaks`.
    index: usize,
}

thread_local! {
    /// Set once at worker startup, `None` on every other thread.
    static LOCAL: RefCell<Option<LocalWorker>> = const { RefCell::new(None) };
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
    /// Runs `f` on the current thread's worker state when the thread is
    /// one of this pool's workers; `None` otherwise.
    fn with_local<R>(&self, f: impl FnOnce(&LocalWorker) -> R) -> Option<R> {
        LOCAL.with(|l| {
            l.borrow()
                .as_ref()
                .filter(|lw| std::ptr::eq(Arc::as_ptr(&lw.core), self))
                .map(f)
        })
    }

    /// Routes one job: onto the current worker's own deque when
    /// `prefer_local` holds and the thread is one of this pool's workers,
    /// onto the injector otherwise. Always wakes a sleeper.
    fn push(&self, job: Job, prefer_local: bool) {
        let mut job = Some(job);
        if prefer_local {
            self.with_local(|lw| {
                lw.worker.push(job.take().expect("job pushed once"));
                self.deque_peaks[lw.index].fetch_max(lw.worker.len() as u64, Ordering::Relaxed);
                self.stats.local_depth_changed(1);
            });
        }
        if let Some(job) = job {
            self.injector.push(job);
        }
        self.wake();
    }

    /// Finds the next job for the current thread: its own deque (LIFO)
    /// when it is one of this pool's workers, then the injector, then the
    /// other workers' deques (FIFO steals).
    fn find_work(&self) -> Option<Job> {
        let (me, popped) = self
            .with_local(|lw| (Some(lw.index), lw.worker.pop()))
            .unwrap_or((None, None));
        if let Some(job) = popped {
            self.stats.local_depth_changed(-1);
            return Some(job);
        }
        if let Some(job) = resolve(|| self.injector.steal()) {
            return Some(job);
        }
        for (idx, stealer) in self.stealers.iter().enumerate() {
            if Some(idx) == me {
                continue;
            }
            self.stats.steal_attempts.fetch_add(1, Ordering::Relaxed);
            if let Some(job) = resolve(|| stealer.steal()) {
                self.stats.local_depth_changed(-1);
                self.stats.steal_recorded();
                return Some(job);
            }
        }
        None
    }

    /// Executes one taken job with busy accounting and panic containment.
    /// `helped` selects the helper counter.
    fn execute(&self, job: Job, helped: bool) {
        if helped {
            self.stats.jobs_helped.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.jobs_on_workers.fetch_add(1, Ordering::Relaxed);
        }
        // The busy level is published to its trace counter track (a single
        // relaxed load when tracing is disabled).
        arp_trace::counter("workers-busy", self.stats.busy.rise() as f64);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
            self.stats.panics_caught.fetch_add(1, Ordering::Relaxed);
            arp_diag::error(|| {
                format!(
                    "worker contained a panicking job: {}",
                    arp_diag::panic_message(&*payload)
                )
            });
        }
        arp_trace::counter("workers-busy", self.stats.busy.fall() as f64);
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
    /// and the FIFO injector preserves that order.
    priority: Vec<u64>,
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

/// Enqueues node `i`: builds its job and pushes it. `prefer_local` marks
/// the first successor a completing node unlocks — it lands on the
/// completing worker's own deque so dependency chains stay on one core;
/// everything else goes through the injector, whose FIFO preserves
/// priority order.
fn dispatch_dag_node(
    state_ptr: usize,
    i: usize,
    core: &Arc<PoolCore>,
    latch: &Arc<CountdownLatch>,
    prefer_local: bool,
) {
    core.stats.dag_dispatches.fetch_add(1, Ordering::Relaxed);
    // The counter track samples the same value the peak statistic takes its
    // max over, so the exported track's peak equals `dag_ready_peak`.
    arp_trace::counter("ready-queue-depth", core.stats.ready.rise() as f64);
    // Stamped at enqueue so the span (and the queue-wait histogram) can
    // separate how long the node sat in the queue from its execute time,
    // without paying for a clock read when both layers are disabled.
    let queued_at = if arp_trace::enabled() || arp_metrics::enabled() {
        Some(Instant::now())
    } else {
        None
    };

    // Declared first in the job so it drops last: the latch must not open
    // until every access to the shared state is over.
    let guard = CountOnDrop {
        latch: latch.clone(),
        core: core.clone(),
    };
    let job: Job = Box::new(move || {
        let guard = guard;
        let core = &guard.core;
        // SAFETY: see `DagState` — the caller of `run_dag` keeps the state
        // alive until the latch opens, which requires this node to finish.
        let state = unsafe { &*(state_ptr as *const DagState<'static>) };
        let metrics_on = arp_metrics::enabled();
        arp_trace::counter("ready-queue-depth", core.stats.ready.fall() as f64);
        if metrics_on {
            if let Some(t) = queued_at {
                metrics::queue_wait().record(t.elapsed().as_nanos() as u64);
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
                arp_trace::annotate(|a| a.name = format!("node-{i}"));
                let exec_start = metrics_on.then(Instant::now);
                if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                    let msg = arp_diag::panic_message(&*payload);
                    arp_diag::error(|| format!("dag node {i} panicked: {msg}"));
                    state.panic_msg.lock().get_or_insert(msg);
                    state.panicked.store(true, Ordering::Relaxed);
                    core.stats.panics_caught.fetch_add(1, Ordering::Relaxed);
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
        // (popped next, LIFO); the rest go through the injector.
        for (k, s) in unlocked.into_iter().enumerate() {
            dispatch_dag_node(state_ptr, s, core, &guard.latch, k == 0);
        }
    });
    core.push(job, prefer_local);
}

/// The process-wide shared pool.
static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// Spawns worker `index` owning `worker_deque`. Its thread name,
/// `arp-par-{index}`, is what the trace layer keys its timeline lane on.
fn spawn_worker(
    index: usize,
    core: Arc<PoolCore>,
    worker_deque: deque::Worker<Job>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("arp-par-{index}"))
        .spawn(move || {
            LOCAL.with(|l| {
                *l.borrow_mut() = Some(LocalWorker {
                    core: core.clone(),
                    worker: worker_deque,
                    index,
                });
            });
            loop {
                // Snapshot the wake generation *before* scanning: a push
                // racing the scan bumps it, so `idle_wait` returns at once
                // and the scan reruns instead of parking through work.
                let gen = core.wake_gen.load(Ordering::SeqCst);
                if let Some(job) = core.find_work() {
                    // Jobs carry their own completion/panic accounting;
                    // a panicking job must not kill the worker.
                    core.execute(job, false);
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
    /// Creates a pool with `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let deques: Vec<deque::Worker<Job>> =
            (0..threads).map(|_| deque::Worker::new_lifo()).collect();
        let core = Arc::new(PoolCore {
            injector: deque::Injector::new(),
            stealers: deques.iter().map(|w| w.stealer()).collect(),
            deque_peaks: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            shutdown: AtomicBool::new(false),
            wake_gen: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            idle_lock: parking_lot::Mutex::new(()),
            idle_cv: parking_lot::Condvar::new(),
            stats: PoolStats::default(),
        });
        let workers = deques
            .into_iter()
            .enumerate()
            .map(|(k, w)| spawn_worker(k, core.clone(), w))
            .collect();
        ThreadPool { core, workers }
    }

    /// [`ThreadPool::new`]`(threads)`; `io_threads` must be 0. A stand-in
    /// kept only because the benchmark harness (`perfbench/`) still calls
    /// it; it goes when the harness next changes.
    pub fn with_io(threads: usize, io_threads: usize) -> Self {
        assert_eq!(io_threads, 0, "the pool has one kind of worker");
        Self::new(threads)
    }

    /// Snapshot of the pool's observability counters.
    pub fn stats(&self) -> PoolStatsSnapshot {
        let s = &self.core.stats;
        PoolStatsSnapshot {
            jobs_on_workers: s.jobs_on_workers.load(Ordering::Relaxed),
            jobs_helped: s.jobs_helped.load(Ordering::Relaxed),
            loops_completed: s.loops_completed.load(Ordering::Relaxed),
            panics_caught: s.panics_caught.load(Ordering::Relaxed),
            dag_dispatches: s.dag_dispatches.load(Ordering::Relaxed),
            dag_ready_peak: s.ready.peak(),
            dags_completed: s.dags_completed.load(Ordering::Relaxed),
            steal_attempts: s.steal_attempts.load(Ordering::Relaxed),
            steals_compute: s.steals.load(Ordering::Relaxed),
            ..PoolStatsSnapshot::default()
        }
    }

    /// Runs queued jobs until `latch` opens. This is the cooperative wait
    /// that makes nesting safe: if all workers are blocked inside outer
    /// constructs, the blocked threads themselves drain the queues.
    ///
    /// A helper with nothing to run parks on the pool's wake generation:
    /// a pushed job or the `count_down` that opens a latch wakes it. The
    /// generation is read before the latch check, so an opening after the
    /// check has bumped past it.
    fn help_until_open(&self, latch: &CountdownLatch) {
        loop {
            let gen = self.core.wake_gen.load(Ordering::SeqCst);
            if latch.is_open() {
                return;
            }
            match self.core.find_work() {
                Some(job) => self.core.execute(job, true),
                None => self.core.idle_wait(gen),
            }
        }
    }

    /// The process-wide shared pool, sized to the machine's parallelism.
    pub fn global() -> &'static ThreadPool {
        GLOBAL.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4);
            metrics::register();
            ThreadPool::new(n)
        })
    }

    /// The process-wide shared pool if something has already built it, so
    /// a caller that only reads its counters never starts its workers.
    pub fn global_if_started() -> Option<&'static ThreadPool> {
        GLOBAL.get()
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.core.stealers.len()
    }

    /// Always 0: the pool has one kind of worker. A stand-in like
    /// [`ThreadPool::with_io`].
    pub fn io_threads(&self) -> usize {
        0
    }

    /// Live per-worker deque depth and its high-water mark, `(worker name,
    /// queued jobs, peak)` for every worker. Reads the work-stealing deques
    /// directly (the same `Stealer::len` the victim-selection loop uses),
    /// so it never blocks a worker.
    pub fn deque_depths(&self) -> Vec<(String, usize, u64)> {
        let core = &self.core;
        core.stealers
            .iter()
            .zip(&core.deque_peaks)
            .enumerate()
            .map(|(k, (s, peak))| {
                (
                    format!("arp-par-{k}"),
                    s.len(),
                    peak.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// The pool's store, for the `/metrics` families that read it.
    pub(crate) fn store(&self) -> &PoolStats {
        &self.core.stats
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
        let threads = self.threads();
        let state = ForState {
            cursor: AtomicUsize::new(0),
            start: range.start,
            end: range.end,
            threads,
            schedule,
            body: &body,
            panicked: AtomicBool::new(false),
            panic_msg: parking_lot::Mutex::new(None),
        };

        // Helpers get a raw pointer to the stack-held state. Soundness: the
        // latch guarantees every helper has returned before `state` (and the
        // borrowed `body`) go out of scope — including on the panic path,
        // because the latch decrement lives in a drop guard inside the job.
        // Tiny loops don't enqueue useless helpers.
        let helpers = (range.end - range.start - 1).min(threads);
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
            self.core.push(job, false);
        }

        state.drive();
        self.help_until_open(&latch);
        self.core
            .stats
            .loops_completed
            .fetch_add(1, Ordering::Relaxed);

        if state.panicked.load(Ordering::Relaxed) {
            match state.panic_msg.lock().take() {
                Some(msg) => panic!("a parallel_for iteration panicked: {msg}"),
                None => panic!("a parallel_for iteration panicked"),
            }
        }
    }

    /// Runs a set of interdependent tasks, starting each one the moment its
    /// predecessors complete — a dependency-counting DAG scheduler. With no
    /// edges it runs a set of independent tasks and waits for all of them
    /// (OpenMP `task` + `taskwait`).
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
    /// Priorities influence only the dispatch *order*, never correctness:
    /// dependency counting and panic accounting are the same for any of
    /// them, so runs of the same graph with any priorities produce
    /// identical results.
    ///
    /// Panics if the graph references an out-of-range index, depends on
    /// itself, or contains a cycle; a panic inside a task is re-raised on
    /// the caller after the whole graph has drained.
    ///
    /// ```
    /// let pool = arp_par::ThreadPool::new(2);
    /// let order = parking_lot::Mutex::new(Vec::new());
    /// // diamond: 0 -> {1, 2} -> 3, in submission order
    /// pool.run_dag(
    ///     (0..4).map(|i| {
    ///         let order = &order;
    ///         Box::new(move || order.lock().push(i)) as Box<dyn FnOnce() + Send>
    ///     }).collect(),
    ///     &[vec![], vec![0], vec![0], vec![1, 2]],
    ///     &[],
    /// );
    /// let order = order.into_inner();
    /// assert_eq!(order[0], 0);
    /// assert_eq!(order[3], 3);
    ///
    /// // Two chains, the heavier one first.
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
    /// );
    /// assert_eq!(done.load(std::sync::atomic::Ordering::Relaxed), 4);
    /// assert_eq!(pool.stats().dag_dispatches, 8);
    /// ```
    pub fn run_dag<'env>(
        &self,
        tasks: Vec<BorrowedTask<'env>>,
        preds: &[Vec<usize>],
        priority: &[u64],
    ) {
        let n = tasks.len();
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
            panicked: AtomicBool::new(false),
            panic_msg: parking_lot::Mutex::new(None),
        };
        let latch = Arc::new(CountdownLatch::new(n));
        let state_ptr = &state as *const DagState<'_> as usize;
        let mut roots: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        order_ready(&mut roots, priority);
        for i in roots {
            // Roots all go through the injector: the caller is about to
            // help, not to run its own deque as a worker.
            dispatch_dag_node(state_ptr, i, &self.core, &latch, false);
        }
        self.help_until_open(&latch);
        self.core
            .stats
            .dags_completed
            .fetch_add(1, Ordering::Relaxed);
        if state.panicked.load(Ordering::Relaxed) {
            match state.panic_msg.lock().take() {
                Some(msg) => panic!("a dag task panicked: {msg}"),
                None => panic!("a dag task panicked"),
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Workers exit when a full scan finds nothing after the flag is
        // raised, so any straggler jobs still drain first.
        self.core.shutdown.store(true, Ordering::Release);
        self.core.wake();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
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
    fn independent_tasks_run_with_borrows() {
        let p = pool();
        let mut results = vec![0u64; 5];
        let tasks: Vec<BorrowedTask<'_>> = results
            .iter_mut()
            .enumerate()
            .map(|(k, slot)| task(move || *slot = (k as u64 + 1) * 11))
            .collect();
        p.run_dag(tasks, &[vec![], vec![], vec![], vec![], vec![]], &[]);
        assert_eq!(results, vec![11, 22, 33, 44, 55]);
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
        let p = ThreadPool::new(2);
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
        let p = ThreadPool::new(2);
        p.parallel_for(0..64, Schedule::Dynamic(1), |_| {
            std::thread::sleep(std::time::Duration::from_micros(50));
        });
        p.run_dag(
            (0..8).map(|_| task(|| {})).collect(),
            &vec![Vec::new(); 8],
            &[],
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
        p.run_dag(vec![task(|| {}), task(|| {})], &[vec![], vec![]], &[1]);
    }

    #[test]
    fn run_dag_empty_and_independent() {
        let p = pool();
        p.run_dag(Vec::new(), &[], &[]);
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
        );
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_dag_rejects_cycles() {
        let p = pool();
        let result = catch_unwind(AssertUnwindSafe(|| {
            p.run_dag(vec![task(|| {}), task(|| {})], &[vec![1], vec![0]], &[]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn run_dag_stats_count_dispatches() {
        let p = ThreadPool::new(2);
        let before = p.stats();
        let preds = vec![vec![], vec![], vec![0, 1]];
        p.run_dag((0..3).map(|_| task(|| {})).collect(), &preds, &[]);
        let delta = p.stats().delta_since(&before);
        assert_eq!(delta.dag_dispatches, 3);
        assert_eq!(delta.dags_completed, 1);
        // Two roots were ready at once at dispatch time.
        assert!(delta.dag_ready_peak >= 1);
        assert_eq!(delta.panics_caught, 0);
    }

    #[test]
    fn help_accounting_covers_every_job() {
        // A 1-thread pool with a long dependency chain forces the caller
        // to help; the parked wait must not lose or double-count any job.
        let p = ThreadPool::new(1);
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

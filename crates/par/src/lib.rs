//! # arp-par — an OpenMP-style parallel runtime
//!
//! The paper parallelizes its pipeline with OpenMP `parallel for` loops,
//! Fortran `OMP DO` loops, and `task`/`taskwait` blocks. Rayon covers the
//! same ground but hides the scheduling policy; this crate implements the
//! OpenMP constructs directly on `std::thread` + atomics so the pipeline can
//! reproduce — and ablate — the original scheduling choices:
//!
//! * [`ThreadPool`] — fixed worker pool (the `OMP_NUM_THREADS` team);
//! * [`ThreadPool::parallel_for`] with [`Schedule::Static`],
//!   [`Schedule::Dynamic`], and [`Schedule::Guided`] — the `schedule`
//!   clause;
//! * [`ThreadPool::scope`] — `task` + `taskwait`;
//! * [`ThreadPool::run_dag`] — a dependency-counting DAG scheduler that
//!   starts each task the moment its predecessors complete (OpenMP `task
//!   depend` rather than barrier-separated stages). A per-task dispatch
//!   priority critical-path-orders the union of several independent graphs
//!   (a multi-event batch) so no subgraph starves the others, and a
//!   per-task lane hint sends nodes tagged I/O to a small dedicated worker
//!   set (`--io-threads`), so disk-bound nodes never occupy compute workers;
//! * [`CountdownLatch`] — the completion primitive underneath;
//! * [`replay`] — the deterministic list-scheduling replay that predicts
//!   how a recorded graph of timed work would run on more processors.
//!
//! The calling thread always participates in work, which makes nested
//! constructs deadlock-free by construction.

#![warn(missing_docs)]

pub mod latch;
pub mod metrics;
pub mod pool;
pub mod sim;

pub use latch::CountdownLatch;
pub use pool::{
    configure_global_io_threads, default_io_threads, BorrowedTask, PoolStatsSnapshot, Schedule,
    TaskScope, ThreadPool,
};
pub use sim::{replay, Replay};

//! # arp-par — an OpenMP-style parallel runtime
//!
//! The paper parallelizes its pipeline with OpenMP `parallel for` loops,
//! Fortran `OMP DO` loops, and `task`/`taskwait` blocks. This crate
//! implements those constructs directly on `std::thread` + atomics, with
//! the scheduling policy explicit, and every parallel construct of the
//! pipeline runs on its global pool. The pipeline's loops all use
//! `schedule(dynamic, 1)`; the other schedules stay for the schedule
//! ablation:
//!
//! * [`ThreadPool`] — fixed worker pool (the `OMP_NUM_THREADS` team);
//! * [`ThreadPool::parallel_for`] with [`Schedule::Static`],
//!   [`Schedule::Dynamic`], and [`Schedule::Guided`] — the `schedule`
//!   clause;
//! * [`ThreadPool::run_dag`] — a dependency-counting DAG scheduler that
//!   starts each task the moment its predecessors complete (OpenMP `task
//!   depend`; with no edges, `task` + `taskwait`). A per-task dispatch
//!   priority critical-path-orders the union of several independent graphs
//!   (a multi-event batch) so no subgraph starves the others;
//! * [`CountdownLatch`] — the completion primitive underneath;
//! * [`replay`] — the deterministic list-scheduling replay that predicts
//!   how a recorded graph of timed work would run on more processors.
//!
//! The calling thread always participates in work, which makes nested
//! constructs deadlock-free by construction. Idle workers and waiting
//! callers park until a push or a construct's completion wakes them, so an
//! idle pool uses no CPU.

#![warn(missing_docs)]

pub mod latch;
pub mod metrics;
pub mod pool;
pub mod sim;

pub use latch::CountdownLatch;
pub use pool::{BorrowedTask, PoolStatsSnapshot, Schedule, ThreadPool};
pub use sim::{replay, Replay};

//! # arp-core — the accelerographic-records processing pipeline
//!
//! Reproduction of "Parallelizing Accelerographic Records Processing"
//! (IPPS 2024): twenty file-to-file processes (Fig. 5), reordered into
//! eleven stages (Fig. 9), executed by five implementations:
//!
//! | Implementation | Paper § | Processes | Parallel stages |
//! |---|---|---|---|
//! | [`ImplKind::SequentialOriginal`] | III | 20 | 0 |
//! | [`ImplKind::SequentialOptimized`] | IV | 17 | 0 |
//! | [`ImplKind::PartiallyParallel`] | V | 17 | 5 (I, II, VI, X, XI) |
//! | [`ImplKind::FullyParallel`] | VI | 17 | 10 (all but VII) |
//! | [`ImplKind::DagParallel`] | — | 17 | no stages: artifact DAG |
//!
//! The fifth implementation goes beyond the paper: instead of the barrier-
//! synchronized stage plan it schedules the process dependency graph of
//! [`dag::ProcessDag`] directly, starting each process the moment its
//! artifact predecessors complete. Whole batches go one step further:
//! [`run_batch_dag`] unions every event's DAG into one cross-event
//! super-graph and submits it to the pool in a single call, so small
//! events fill the idle tails of big ones. Every one of these schedules is
//! a graph of process nodes built in [`plan`] and run by one node runner
//! ([`executor`]); the batch's priorities and labels, and the profile's
//! fold of a batch trace, read the same graph.
//!
//! ```no_run
//! use arp_core::{run_pipeline, ImplKind, PipelineConfig, RunContext};
//!
//! let ctx = RunContext::new("inputs", "work", PipelineConfig::default())?;
//! let report = run_pipeline(&ctx, ImplKind::FullyParallel)?;
//! println!("processed {} points in {:?}", report.data_points, report.total);
//! # Ok::<(), arp_core::PipelineError>(())
//! ```
//!
//! All five implementations produce identical final artifacts; the paper's
//! claim under test is their relative wall time.

#![warn(missing_docs)]

pub mod batch;
pub mod config;
pub mod context;
pub mod dag;
pub mod error;
pub mod executor;
pub mod inventory;
pub mod metrics;
pub mod output;
pub mod plan;
pub mod process;
pub mod profile;
pub mod report;
mod sim;
pub mod stagedir;
pub mod summary;
pub mod timeline;

pub use batch::{
    discover_batch, frontier_json, run_batch, run_batch_dag, BatchDagReport, BatchItem,
    BatchReport, ReadyOrder,
};
pub use config::PipelineConfig;
pub use context::RunContext;
pub use dag::{CriticalPath, DagEdge, EdgeKind, ProcessDag};
pub use error::{PipelineError, Result};
pub use executor::{
    measure_input_shape, run_pipeline, run_pipeline_labeled, run_stages_sequential,
};
pub use inventory::{expected_artifacts, verify_run, VerifyIssue};
pub use plan::{StageId, Strategy, STAGE_TABLE};
pub use process::{ProcessId, ProcessKind, PROCESS_TABLE};
pub use profile::{
    kind_label, profile_trace, profile_trace_what_if, realize_batch, RealizedBatch,
    WHAT_IF_SPEEDUPS, WHAT_IF_TOP_K,
};
pub use report::{DagReport, ImplKind, RunReport, StageTiming};
pub use summary::{event_summary, summary_csv, SummaryRow};
pub use timeline::{timeline_svg, worker_timeline_svg};

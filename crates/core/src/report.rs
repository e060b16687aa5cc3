//! Run reports: per-process and per-stage timings.
//!
//! Every executor returns a [`RunReport`]; the bench harness aggregates
//! them into the paper's Table I and Figures 11–13.

use crate::plan::StageId;
use crate::process::ProcessId;
use arp_par::PoolStatsSnapshot;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Which implementation produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ImplKind {
    /// The 20-process original sequential chain (§III).
    SequentialOriginal,
    /// The 17-process optimized sequential chain (§IV).
    SequentialOptimized,
    /// Five parallel stages (§V).
    PartiallyParallel,
    /// Ten parallel stages (§VI).
    FullyParallel,
    /// No stages at all: the artifact-dependency DAG is scheduled directly,
    /// each process starting the moment its predecessors complete.
    DagParallel,
    /// Cross-event super-DAG batching: the per-event DAGs of a whole batch
    /// are unioned (namespaced by event, no cross-event edges) and
    /// submitted to the pool in one call, so small events fill the idle
    /// tails of big ones. Only meaningful for `run_batch`; on a single
    /// event it degenerates to [`ImplKind::DagParallel`].
    BatchDag,
}

impl ImplKind {
    /// The five single-event implementations in the paper's comparison
    /// order (with the DAG scheduler, which goes beyond the paper, last).
    /// [`ImplKind::BatchDag`] is deliberately absent: it schedules whole
    /// batches, not one event, so it has no place in Table I.
    pub const ALL: [ImplKind; 5] = [
        ImplKind::SequentialOriginal,
        ImplKind::SequentialOptimized,
        ImplKind::PartiallyParallel,
        ImplKind::FullyParallel,
        ImplKind::DagParallel,
    ];

    /// Short display label (Table I column headers).
    pub fn label(self) -> &'static str {
        match self {
            ImplKind::SequentialOriginal => "Seq. Ori.",
            ImplKind::SequentialOptimized => "Seq. Opt.",
            ImplKind::PartiallyParallel => "Part. Par.",
            ImplKind::FullyParallel => "Full Par.",
            ImplKind::DagParallel => "DAG Par.",
            ImplKind::BatchDag => "Batch DAG",
        }
    }
}

/// Timing of one process execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProcessTiming {
    /// Which process ran.
    pub process: ProcessId,
    /// Wall time.
    pub elapsed: Duration,
}

/// Timing of one stage execution (parallel implementations only).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageTiming {
    /// Which stage ran.
    pub stage: StageId,
    /// Wall time of the whole stage.
    pub elapsed: Duration,
}

/// Schedule analysis of a DAG run, decomposing the speedup over the
/// sequential baseline into its two independent sources: parallelism
/// *inside* the stage plan, and removal of the stage barriers themselves.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DagReport {
    /// Processes on the critical (longest weighted) path, in order.
    pub critical_path: Vec<ProcessId>,
    /// Total weight of the critical path — the floor no schedule can beat.
    pub critical_path_len: Duration,
    /// Makespan of the dependency-driven schedule on `threads` threads
    /// (clamped to the barrier plan's, which is one valid schedule of the
    /// same graph).
    pub dag_makespan: Duration,
    /// Makespan the same recorded work would need under the eleven-stage
    /// barrier plan of Fig. 9 on the same threads.
    pub barrier_makespan: Duration,
    /// Sum of all recorded durations (the fully serialized cost).
    pub node_total: Duration,
    /// Thread count the schedules were computed for.
    pub threads: usize,
}

impl DagReport {
    /// Virtual time recovered by deleting the stage barriers (what the DAG
    /// scheduler buys beyond the paper's fully parallel plan).
    pub fn barrier_saving(&self) -> Duration {
        self.barrier_makespan.saturating_sub(self.dag_makespan)
    }

    /// Virtual time recovered by the stage plan's own parallelism (tasks
    /// and loops) relative to running every node back to back.
    pub fn stage_saving(&self) -> Duration {
        self.node_total.saturating_sub(self.barrier_makespan)
    }
}

/// The result of one pipeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Implementation used.
    pub implementation: ImplKind,
    /// Event label (for the harness tables).
    pub event: String,
    /// Number of V1 station files processed.
    pub v1_files: usize,
    /// Total data points of the event.
    pub data_points: usize,
    /// Total wall time.
    pub total: Duration,
    /// Per-process wall times in execution order.
    pub processes: Vec<ProcessTiming>,
    /// Per-stage wall times (empty for the sequential implementations).
    pub stages: Vec<StageTiming>,
    /// Schedule analysis ([`ImplKind::DagParallel`] runs only).
    pub dag: Option<DagReport>,
    /// Work-pool counter deltas observed during this run (dispatches,
    /// helped jobs, DAG scheduler activity). `None` when the run never
    /// touched the shared pool.
    pub pool: Option<PoolStatsSnapshot>,
    /// DSP kernel backend the run was configured with (`auto`/`scalar`/
    /// `simd`; empty on reports written before the selector existed).
    #[serde(default)]
    pub dsp_backend: String,
}

impl RunReport {
    /// Data points processed per second of wall time.
    pub fn throughput(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.data_points as f64 / self.total.as_secs_f64()
    }

    /// Wall time of a specific process, if it ran.
    pub fn process_time(&self, id: ProcessId) -> Option<Duration> {
        self.processes
            .iter()
            .find(|t| t.process == id)
            .map(|t| t.elapsed)
    }

    /// Wall time of a specific stage, if recorded.
    pub fn stage_time(&self, id: StageId) -> Option<Duration> {
        self.stages
            .iter()
            .find(|t| t.stage == id)
            .map(|t| t.elapsed)
    }

    /// Speedup of this run relative to a baseline run of the same event.
    pub fn speedup_vs(&self, baseline: &RunReport) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        baseline.total.as_secs_f64() / self.total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(total_ms: u64) -> RunReport {
        RunReport {
            implementation: ImplKind::FullyParallel,
            event: "EV".into(),
            v1_files: 5,
            data_points: 56_000,
            total: Duration::from_millis(total_ms),
            processes: vec![ProcessTiming {
                process: ProcessId(16),
                elapsed: Duration::from_millis(total_ms / 2),
            }],
            stages: vec![StageTiming {
                stage: StageId::IX,
                elapsed: Duration::from_millis(total_ms / 2),
            }],
            dag: None,
            pool: None,
            dsp_backend: "auto".into(),
        }
    }

    #[test]
    fn throughput_and_speedup() {
        let fast = report(1_000);
        let slow = report(2_900);
        assert!((fast.throughput() - 56_000.0).abs() < 1e-6);
        assert!((fast.speedup_vs(&slow) - 2.9).abs() < 1e-9);
    }

    #[test]
    fn lookups() {
        let r = report(100);
        assert!(r.process_time(ProcessId(16)).is_some());
        assert!(r.process_time(ProcessId(3)).is_none());
        assert!(r.stage_time(StageId::IX).is_some());
        assert!(r.stage_time(StageId::I).is_none());
    }

    #[test]
    fn zero_total_guards() {
        let mut r = report(100);
        r.total = Duration::ZERO;
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.speedup_vs(&report(100)), 0.0);
    }

    #[test]
    fn labels() {
        assert_eq!(ImplKind::SequentialOriginal.label(), "Seq. Ori.");
        assert_eq!(ImplKind::DagParallel.label(), "DAG Par.");
        assert_eq!(ImplKind::BatchDag.label(), "Batch DAG");
        // Table I compares the five single-event implementations; the
        // batch scheduler is not one of them.
        assert_eq!(ImplKind::ALL.len(), 5);
        assert!(!ImplKind::ALL.contains(&ImplKind::BatchDag));
    }

    #[test]
    fn dag_report_decomposition() {
        let d = DagReport {
            critical_path: vec![ProcessId(1), ProcessId(3)],
            critical_path_len: Duration::from_millis(40),
            dag_makespan: Duration::from_millis(50),
            barrier_makespan: Duration::from_millis(70),
            node_total: Duration::from_millis(100),
            threads: 8,
        };
        assert_eq!(d.barrier_saving(), Duration::from_millis(20));
        assert_eq!(d.stage_saving(), Duration::from_millis(30));
        // Savings are saturating, never negative.
        let inverted = DagReport {
            barrier_makespan: Duration::from_millis(10),
            ..d
        };
        assert_eq!(inverted.barrier_saving(), Duration::ZERO);
    }
}

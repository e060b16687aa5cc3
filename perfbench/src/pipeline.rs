//! The workloads' pipeline calls, as a user makes them.
//!
//! archive-batch (and product-query's untimed set-up build) submit every
//! event as one super-DAG through `run_batch_dag`; quake-response runs its
//! one event through `run_pipeline` with the CLI's default `full`
//! implementation. Products land in `work/<label>/` either way.

use crate::check;
use crate::inputs::{Fixture, Workload};
use crate::sys;
use arp_core::config::TimingModel;
use arp_core::{
    run_batch_dag, run_pipeline, ImplKind, PipelineConfig, ReadyOrder, RunContext, RunReport,
};
use arp_par::{PoolStatsSnapshot, ThreadPool};
use std::path::Path;
use std::time::{Duration, Instant};

/// What one pipeline call measured.
pub struct Call {
    /// Wall time of the call.
    pub wall: Duration,
    /// Process CPU time during the call.
    pub cpu: Duration,
    /// Growth of the global pool's counters across the call.
    pub pool: PoolStatsSnapshot,
    /// Per-event run reports (process timings as measured in the call).
    pub events: Vec<RunReport>,
    /// In simulated timing mode, the simulator's makespan (the lane-on
    /// super-DAG makespan for batches); `None` when measured.
    pub predicted: Option<Duration>,
}

impl Call {
    /// Time the call spent in process `p`, summed over events.
    pub fn process_time(&self, p: u8) -> Duration {
        self.events
            .iter()
            .filter_map(|r| r.process_time(arp_core::ProcessId(p)))
            .sum()
    }
}

/// Runs the workload's pipeline call on the fixture's inputs, writing the
/// products under `work`. `config.timing` selects measured or simulated.
pub fn call(fx: &Fixture, work: &Path, config: &PipelineConfig) -> Result<Call, String> {
    let pool = ThreadPool::global();
    let simulated = matches!(config.timing, TimingModel::Simulated { .. });
    match fx.workload {
        Workload::ArchiveBatch | Workload::ProductQuery => {
            let stats0 = pool.stats();
            let cpu0 = sys::process_cpu();
            let t0 = Instant::now();
            let report = run_batch_dag(&fx.items, work, config, ReadyOrder::CriticalPath)
                .map_err(|e| format!("run_batch_dag: {e}"))?;
            let wall = t0.elapsed();
            let cpu = sys::process_cpu() - cpu0;
            let predicted = match (simulated, &report.dag) {
                (true, Some(dag)) => Some(dag.lane_makespan),
                _ => None,
            };
            Ok(Call {
                wall,
                cpu,
                pool: pool.stats().delta_since(&stats0),
                events: report.events,
                predicted,
            })
        }
        Workload::QuakeResponse => {
            let mut events = Vec::with_capacity(fx.items.len());
            let (mut wall, mut cpu) = (Duration::ZERO, Duration::ZERO);
            let mut predicted = Duration::ZERO;
            let stats0 = pool.stats();
            for item in &fx.items {
                let ctx = RunContext::new(&item.input_dir, work.join(&item.label), config.clone())
                    .map_err(|e| e.to_string())?;
                let cpu0 = sys::process_cpu();
                let t0 = Instant::now();
                let report = run_pipeline(&ctx, ImplKind::FullyParallel)
                    .map_err(|e| format!("run_pipeline(full): {e}"))?;
                wall += t0.elapsed();
                cpu += sys::process_cpu() - cpu0;
                predicted += report.total;
                events.push(report);
            }
            Ok(Call {
                wall,
                cpu,
                pool: pool.stats().delta_since(&stats0),
                events,
                predicted: simulated.then_some(predicted),
            })
        }
    }
}

/// Writes the reference product tree under `dir` with the `seq-optimized`
/// implementation, one event after another, and checks it with
/// `verify_run`. Returns the run's wall time.
pub fn reference(fx: &Fixture, dir: &Path) -> Result<Duration, String> {
    let mut wall = Duration::ZERO;
    for item in &fx.items {
        let ctx = RunContext::new(
            &item.input_dir,
            dir.join(&item.label),
            PipelineConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        run_pipeline(&ctx, ImplKind::SequentialOptimized)
            .map_err(|e| format!("reference run of {}: {e}", item.label))?;
        wall += t0.elapsed();
    }
    let problems = check::verify_products(&fx.items, dir)?;
    if !problems.is_empty() {
        return Err(format!(
            "reference tree fails verify_run: {}",
            problems.join("; ")
        ));
    }
    Ok(wall)
}

/// The simulated-timing configuration: the same inputs replayed by
/// `arp-par::sim` on `available_parallelism` threads.
pub fn simulated_config() -> PipelineConfig {
    PipelineConfig {
        timing: TimingModel::Simulated {
            threads: sys::available_parallelism(),
        },
        ..PipelineConfig::default()
    }
}

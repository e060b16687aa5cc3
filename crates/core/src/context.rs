//! Run context: directories, discovered stations, and the parallel
//! construct the processes use — a loop (OpenMP `parallel for` with
//! `schedule(dynamic, 1)`) on the shared `arp-par` pool. Task sets are
//! nodes of the run's plan graph (see [`crate::executor`]).

use crate::config::{PipelineConfig, TimingModel};
use crate::error::{PipelineError, Result};
use arp_par::{Schedule, ThreadPool};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};

/// The schedule of every parallel loop: one iteration per claim. OpenMP's
/// default is `schedule(static)`, but stations differ in length: static
/// blocks split quake-response's 19 stations 52,387 / 43,613 samples on
/// two threads, so one worker idles at every loop's join. Claiming one
/// station (or component, or staged file) at a time evens the load; the
/// products do not depend on the schedule.
const LOOP_SCHEDULE: Schedule = Schedule::Dynamic(1);

/// Everything a process needs to run: where the inputs live, where artifacts
/// go, and the configuration.
#[derive(Debug)]
pub struct RunContext {
    /// Directory containing the raw `<station>.v1` files.
    pub input_dir: PathBuf,
    /// Directory where all intermediate and final artifacts are written.
    pub work_dir: PathBuf,
    /// Pipeline configuration.
    pub config: PipelineConfig,
}

impl RunContext {
    /// Creates a context, validating the config and creating `work_dir`.
    pub fn new(
        input_dir: impl Into<PathBuf>,
        work_dir: impl Into<PathBuf>,
        config: PipelineConfig,
    ) -> Result<Self> {
        config.validate()?;
        let input_dir = input_dir.into();
        let work_dir = work_dir.into();
        std::fs::create_dir_all(&work_dir).map_err(|e| PipelineError::io(&work_dir, e))?;
        Ok(RunContext {
            input_dir,
            work_dir,
            config,
        })
    }

    /// Path of an artifact in the work directory.
    pub fn artifact(&self, name: &str) -> PathBuf {
        self.work_dir.join(name)
    }

    /// Reads the station list (the `v1list` metadata produced by process
    /// #1), i.e. the dependency every downstream process shares.
    pub fn stations(&self) -> Result<Vec<String>> {
        let list = arp_formats::FileList::read(&self.artifact(crate::process::gather::V1LIST))
            .map_err(|_| PipelineError::MissingArtifact {
                process: "downstream",
                artifact: crate::process::gather::V1LIST.into(),
            })?;
        Ok(list
            .entries
            .iter()
            .map(|f| f.trim_end_matches(".v1").to_string())
            .collect())
    }

    /// Runs `body(i)` for `i in 0..n`: in index order on the calling
    /// thread, stopping at the first error, unless `parallel`. A parallel
    /// loop claims one iteration at a time on the shared pool, runs every
    /// iteration and returns the error of the lowest failing index.
    ///
    /// In [`TimingModel::Simulated`] mode a parallel loop runs inline, each
    /// iteration recorded as a parallel vertex; it stops at the first
    /// error.
    pub fn for_each<F>(&self, n: usize, parallel: bool, body: F) -> Result<()>
    where
        F: Fn(usize) -> Result<()> + Sync,
    {
        if !parallel {
            return (0..n).try_for_each(body);
        }
        if matches!(self.config.timing, TimingModel::Simulated { .. }) {
            return crate::sim::run_inline(&vec![Vec::new(); n], body);
        }
        let errors = Mutex::new(Vec::new());
        ThreadPool::global().parallel_for(0..n, LOOP_SCHEDULE, |i| {
            if let Err(e) = body(i) {
                errors.lock().push((i, e));
            }
        });
        // The lowest failing index, so the result never depends on which
        // failing iteration finished first.
        match errors.into_inner().into_iter().min_by_key(|(i, _)| *i) {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }
}

/// Lists `*.v1` files (station files only, not per-component splits) in a
/// directory, sorted by name for determinism.
pub fn list_v1_station_files(dir: &Path) -> Result<Vec<String>> {
    let mut names = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| PipelineError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| PipelineError::io(dir, e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".v1") {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("arp-ctx-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn context_creates_work_dir() {
        let base = temp_dir("create");
        let work = base.join("deep/work");
        let ctx = RunContext::new(&base, &work, PipelineConfig::fast()).unwrap();
        assert!(work.is_dir());
        assert_eq!(ctx.artifact("x.txt"), work.join("x.txt"));
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn for_each_stops_at_the_first_error_or_runs_all_and_reports_the_lowest() {
        let base = temp_dir("foreach");
        let ctx = RunContext::new(&base, base.join("w"), PipelineConfig::fast()).unwrap();
        for parallel in [false, true] {
            let ran: Vec<AtomicBool> = (0..50).map(|_| AtomicBool::new(false)).collect();
            let err = ctx
                .for_each(50, parallel, |i| {
                    ran[i].store(true, Ordering::Relaxed);
                    if i == 13 || i == 31 {
                        Err(PipelineError::Config(format!("fail {i}")))
                    } else {
                        Ok(())
                    }
                })
                .unwrap_err();
            assert!(
                err.to_string().contains("fail 13"),
                "parallel {parallel}: {err}"
            );
            let ran: Vec<bool> = ran.iter().map(|r| r.load(Ordering::Relaxed)).collect();
            let want: Vec<bool> = (0..50).map(|i| parallel || i <= 13).collect();
            assert_eq!(ran, want, "parallel {parallel}");
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn simulated_loop_records_a_branch_per_iteration_and_stops_at_errors() {
        let base = temp_dir("sim");
        let mut cfg = PipelineConfig::fast();
        cfg.timing = TimingModel::Simulated { threads: 4 };
        let ctx = RunContext::new(&base, base.join("w"), cfg).unwrap();
        let count = AtomicUsize::new(0);
        let (result, graph) = crate::sim::record(ctx.config.timing, || {
            crate::sim::node(0, || {
                ctx.for_each(16, true, |_| {
                    count.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                })
            })
        });
        result.unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 16);
        // One branch per iteration between the node's entry and exit
        // segments.
        assert_eq!(graph.unwrap().durations.len(), 18);
        let err = ctx
            .for_each(10, true, |i| {
                if i == 3 {
                    Err(PipelineError::Config("sim fail".into()))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(err.to_string().contains("sim fail"));
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn list_v1_files_sorted_and_filtered() {
        let base = temp_dir("list");
        for f in ["b.v1", "a.v1", "c.v2", "notes.txt"] {
            std::fs::write(base.join(f), "x").unwrap();
        }
        let names = list_v1_station_files(&base).unwrap();
        assert_eq!(names, vec!["a.v1", "b.v1"]);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn list_v1_missing_dir_errors() {
        assert!(list_v1_station_files(Path::new("/nonexistent/arp")).is_err());
    }
}

//! Run context: directories, discovered stations, and parallel dispatch.

use crate::config::{ParallelBackend, PipelineConfig, TimingModel};
use crate::error::{PipelineError, Result};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::path::{Path, PathBuf};

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

    /// Runs `body(i)` for `i in 0..n` on the configured parallel backend.
    /// Errors from iterations are collected; the first (by index) is
    /// returned.
    ///
    /// In [`TimingModel::Simulated`] mode the loop runs inline, cut into
    /// the chunks the pool would claim on the virtual processors (rayon
    /// self-schedules like `Dynamic(1)`), each chunk recorded as a parallel
    /// vertex; it stops at the first error.
    pub fn par_for<F>(&self, n: usize, body: F) -> Result<()>
    where
        F: Fn(usize) -> Result<()> + Sync,
    {
        if let TimingModel::Simulated { threads } = self.config.timing {
            let schedule = match self.config.backend {
                ParallelBackend::Rayon => arp_par::Schedule::Dynamic(1),
                ParallelBackend::OmpStyle(s) => s,
            };
            let (mut chunks, mut lo) = (Vec::new(), 0);
            while lo < n {
                let hi = lo + schedule.chunk(n, lo, threads);
                chunks.push(lo..hi);
                lo = hi;
            }
            return crate::sim::fork_join(chunks, |mut chunk| chunk.try_for_each(&body));
        }

        let errors: Mutex<Vec<(usize, PipelineError)>> = Mutex::new(Vec::new());
        let wrapped = |i: usize| {
            if let Err(e) = body(i) {
                errors.lock().push((i, e));
            }
        };
        match self.config.backend {
            ParallelBackend::Rayon => (0..n).into_par_iter().for_each(wrapped),
            ParallelBackend::OmpStyle(schedule) => {
                arp_par::ThreadPool::global().parallel_for(0..n, schedule, wrapped)
            }
        }
        let mut errs = errors.into_inner();
        errs.sort_by_key(|(i, _)| *i);
        match errs.into_iter().next() {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Runs `body(i)` for `i in 0..n` sequentially (used by the sequential
    /// executors so both paths share process code).
    pub fn seq_for<F>(&self, n: usize, body: F) -> Result<()>
    where
        F: Fn(usize) -> Result<()> + Sync,
    {
        for i in 0..n {
            body(i)?;
        }
        Ok(())
    }

    /// Runs a set of heterogeneous tasks in parallel on the configured
    /// backend (OpenMP `task`/`taskwait`), collecting errors. Simulated
    /// timing runs them inline and stops at the first error.
    pub fn tasks(&self, tasks: Vec<Box<dyn FnOnce() -> Result<()> + Send + '_>>) -> Result<()> {
        if matches!(self.config.timing, TimingModel::Simulated { .. }) {
            // Inline, each task a parallel branch of the recorded graph.
            return crate::sim::fork_join(tasks, |task| task());
        }

        let errors: Mutex<Vec<PipelineError>> = Mutex::new(Vec::new());
        match self.config.backend {
            ParallelBackend::Rayon => {
                rayon::scope(|s| {
                    for t in tasks {
                        let errors = &errors;
                        s.spawn(move |_| {
                            if let Err(e) = t() {
                                errors.lock().push(e);
                            }
                        });
                    }
                });
            }
            ParallelBackend::OmpStyle(_) => {
                let wrapped: Vec<Box<dyn FnOnce() + Send + '_>> = tasks
                    .into_iter()
                    .map(|t| {
                        let errors = &errors;
                        Box::new(move || {
                            if let Err(e) = t() {
                                errors.lock().push(e);
                            }
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                arp_par::ThreadPool::global().run_tasks(wrapped);
            }
        }
        match errors.into_inner().into_iter().next() {
            Some(e) => Err(e),
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn par_for_runs_everything_on_both_backends() {
        let base = temp_dir("parfor");
        for backend in [
            ParallelBackend::Rayon,
            ParallelBackend::OmpStyle(arp_par::Schedule::Dynamic(1)),
        ] {
            let mut cfg = PipelineConfig::fast();
            cfg.backend = backend;
            let ctx = RunContext::new(&base, base.join("w"), cfg).unwrap();
            let count = AtomicUsize::new(0);
            ctx.par_for(100, |_| {
                count.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .unwrap();
            assert_eq!(count.load(Ordering::Relaxed), 100);
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn par_for_reports_first_error_by_index() {
        let base = temp_dir("parerr");
        let ctx = RunContext::new(&base, base.join("w"), PipelineConfig::fast()).unwrap();
        let err = ctx
            .par_for(50, |i| {
                if i == 13 || i == 31 {
                    Err(PipelineError::Config(format!("fail {i}")))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(err.to_string().contains("fail 13"), "{err}");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn tasks_run_on_both_backends() {
        let base = temp_dir("tasks");
        for backend in [
            ParallelBackend::Rayon,
            ParallelBackend::OmpStyle(arp_par::Schedule::Static),
        ] {
            let mut cfg = PipelineConfig::fast();
            cfg.backend = backend;
            let ctx = RunContext::new(&base, base.join("w"), cfg).unwrap();
            let count = AtomicUsize::new(0);
            let tasks: Vec<Box<dyn FnOnce() -> Result<()> + Send + '_>> = (0..7)
                .map(|_| {
                    let count = &count;
                    Box::new(move || {
                        count.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    }) as Box<dyn FnOnce() -> Result<()> + Send + '_>
                })
                .collect();
            ctx.tasks(tasks).unwrap();
            assert_eq!(count.load(Ordering::Relaxed), 7);
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn tasks_propagate_errors() {
        let base = temp_dir("taskerr");
        let ctx = RunContext::new(&base, base.join("w"), PipelineConfig::fast()).unwrap();
        let tasks: Vec<Box<dyn FnOnce() -> Result<()> + Send + '_>> = vec![
            Box::new(|| Ok(())),
            Box::new(|| Err(PipelineError::Config("task died".into()))),
        ];
        assert!(ctx.tasks(tasks).is_err());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn simulated_par_for_cuts_the_pool_chunks_and_stops_at_errors() {
        use crate::config::TimingModel;
        let base = temp_dir("sim");
        let mut cfg = PipelineConfig::fast();
        cfg.timing = TimingModel::Simulated { threads: 4 };
        cfg.backend = ParallelBackend::OmpStyle(arp_par::Schedule::Static);
        let ctx = RunContext::new(&base, base.join("w"), cfg).unwrap();
        let count = AtomicUsize::new(0);
        let (result, graph) = crate::sim::record(ctx.config.timing, || {
            crate::sim::node(0, || {
                ctx.par_for(16, |_| {
                    count.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                })
            })
        });
        result.unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 16);
        // Static on four virtual threads: four chunks between the node's
        // entry and exit segments.
        assert_eq!(graph.unwrap().durations.len(), 6);
        let err = ctx
            .par_for(10, |i| {
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

//! The temp-folder staging protocol (paper §VI-C/§VI-D).
//!
//! The legacy Fortran programs behind processes #4, #7, and #13 keep global
//! state and cannot run multithreaded within one working directory. The
//! paper's solution — reproduced here — executes one instance per station
//! inside its own temporary folder:
//!
//! 1. *(parallel)* create `tmp-<tag>-<i>/` and place the station's input
//!    files (and shared parameter files) in it;
//! 2. *(sequential, "to avoid races")* place the executable in each folder —
//!    modeled by writing a kernel marker file;
//! 3. *(parallel)* run the kernel inside the folder and move its outputs
//!    back to the work directory;
//! 4. *(parallel)* delete the remaining temporary files.
//!
//! The folders, the marker, the moves back and the deletes are performed
//! for real. Phase 1 hard-links the inputs instead of copying them: the
//! kernels only read their inputs and write new names, so a link gives
//! each folder the same bytes without writing them again (a filesystem
//! without hard links gets copies). The paper's copy overhead — its main
//! caveat about these stages — is therefore no longer reproduced; the
//! rest of the protocol's I/O is.

use crate::context::RunContext;
use crate::error::{PipelineError, Result};
use std::fs;
use std::path::{Path, PathBuf};

/// A kernel to run under the staging protocol.
pub struct StagedKernel<'a> {
    /// Short tag used in temp-folder names (e.g. `p04`).
    pub tag: &'a str,
    /// Input file names (in the work dir) each station's folder needs.
    pub inputs: &'a (dyn Fn(&str) -> Vec<String> + Sync),
    /// Output file names the kernel produces inside the folder.
    pub outputs: &'a (dyn Fn(&str) -> Vec<String> + Sync),
    /// The kernel body: runs with the temp folder as its working directory.
    /// Receives `(folder, station_index, station)`.
    pub run: &'a (dyn Fn(&Path, usize, &str) -> Result<()> + Sync),
}

/// Marker file standing in for the relocated legacy executable.
const EXE_MARKER: &str = "kernel.exe";

/// Removes the staging folders when a phase errors out before phase 4.
///
/// Phases 1 and 3 propagate failures with `?`, which used to skip the
/// phase-4 delete and leak every `tmp-<tag>-<i>/` folder into the work
/// directory — where the next run (or `discover_batch`) would trip over
/// them. The guard stays armed across the fallible phases and is disarmed
/// only once phase 4 has removed the folders itself.
struct StageCleanup {
    dirs: Vec<PathBuf>,
    armed: bool,
}

impl Drop for StageCleanup {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        for dir in &self.dirs {
            // Best-effort: the original phase error is already on its way
            // up, and a half-created folder may legitimately be absent.
            let _ = fs::remove_dir_all(dir);
        }
    }
}

/// Executes `kernel` for every station through the staging protocol.
pub fn run_staged(
    ctx: &RunContext,
    stations: &[String],
    parallel: bool,
    kernel: &StagedKernel<'_>,
) -> Result<()> {
    let n = stations.len();
    let folder = |i: usize| -> PathBuf { ctx.work_dir.join(format!("tmp-{}-{i}", kernel.tag)) };
    let mut cleanup = StageCleanup {
        dirs: (0..n).map(folder).collect(),
        armed: true,
    };

    // Phase 1 (parallel): create folders and link inputs in.
    ctx.for_each(n, parallel, |i| {
        let dir = folder(i);
        fs::create_dir_all(&dir).map_err(|e| PipelineError::io(&dir, e))?;
        for name in (kernel.inputs)(&stations[i]) {
            link_or_copy(&ctx.artifact(&name), &dir.join(&name))?;
        }
        Ok(())
    })?;

    // Phase 2 (sequential, as in the paper — "Seq. to avoid races"): place
    // the executable in each folder.
    for i in 0..n {
        let dst = folder(i).join(EXE_MARKER);
        fs::write(&dst, kernel.tag).map_err(|e| PipelineError::io(&dst, e))?;
    }

    // Phase 3 (parallel): run the kernel in each folder and move outputs
    // back to the work directory.
    ctx.for_each(n, parallel, |i| {
        let dir = folder(i);
        (kernel.run)(&dir, i, &stations[i])?;
        for name in (kernel.outputs)(&stations[i]) {
            let src = dir.join(&name);
            let dst = ctx.artifact(&name);
            // Same filesystem: rename is the "move" of the paper's protocol.
            fs::rename(&src, &dst).map_err(|e| PipelineError::io(&src, e))?;
        }
        Ok(())
    })?;

    // Phase 4 (parallel): delete the remaining temp files.
    ctx.for_each(n, parallel, |i| {
        let dir = folder(i);
        fs::remove_dir_all(&dir).map_err(|e| PipelineError::io(&dir, e))?;
        Ok(())
    })?;
    cleanup.armed = false;
    Ok(())
}

/// Places `src` at `dst` as a hard link. Where linking fails (a
/// filesystem without hard links, or a `dst` left by an interrupted run),
/// any old `dst` is removed and `src` copied, so the copy cannot write
/// through a link into `src`. A missing `src` fails in the copy, with the
/// error the protocol always gave.
fn link_or_copy(src: &Path, dst: &Path) -> Result<()> {
    if fs::hard_link(src, dst).is_ok() {
        return Ok(());
    }
    let _ = fs::remove_file(dst);
    fs::copy(src, dst)
        .map(drop)
        .map_err(|e| PipelineError::io(src, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn make_ctx(tag: &str) -> (PathBuf, RunContext) {
        let base = std::env::temp_dir().join(format!("arp-staged-{tag}-{}", std::process::id()));
        let ctx = RunContext::new(base.join("in"), base.join("w"), PipelineConfig::fast()).unwrap();
        (base, ctx)
    }

    #[test]
    fn protocol_moves_inputs_and_outputs() {
        let (base, ctx) = make_ctx("basic");
        let stations = vec!["AAA".to_string(), "BBB".to_string()];
        for s in &stations {
            std::fs::write(ctx.artifact(&format!("{s}.in")), format!("input-{s}")).unwrap();
        }
        let kernel = StagedKernel {
            tag: "test",
            inputs: &|s| vec![format!("{s}.in")],
            outputs: &|s| vec![format!("{s}.out")],
            run: &|dir, _i, s| {
                // Kernel sees its input inside the folder...
                let input = std::fs::read_to_string(dir.join(format!("{s}.in"))).unwrap();
                assert_eq!(input, format!("input-{s}"));
                // ...and the sequentially-placed executable marker.
                assert!(dir.join(EXE_MARKER).exists());
                std::fs::write(dir.join(format!("{s}.out")), format!("output-{s}")).unwrap();
                Ok(())
            },
        };
        for parallel in [false, true] {
            run_staged(&ctx, &stations, parallel, &kernel).unwrap();
            for s in &stations {
                let out = std::fs::read_to_string(ctx.artifact(&format!("{s}.out"))).unwrap();
                assert_eq!(out, format!("output-{s}"));
                assert!(!ctx.work_dir.join("tmp-test-0").exists());
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn inputs_are_linked_in_and_left_alone() {
        use std::os::unix::fs::MetadataExt;
        let (base, ctx) = make_ctx("links");
        let stations = vec!["AAA".to_string()];
        let input = ctx.artifact("AAA.in");
        std::fs::write(&input, "input-AAA").unwrap();
        // A stale folder from an interrupted run already links the input.
        let stale = ctx.work_dir.join("tmp-test-0");
        std::fs::create_dir_all(&stale).unwrap();
        std::fs::hard_link(&input, stale.join("AAA.in")).unwrap();
        let links_seen = AtomicU64::new(0);
        let kernel = StagedKernel {
            tag: "test",
            inputs: &|s| vec![format!("{s}.in")],
            outputs: &|_| vec![],
            run: &|dir, _i, s| {
                let meta = std::fs::metadata(dir.join(format!("{s}.in"))).unwrap();
                links_seen.store(meta.nlink(), Ordering::Relaxed);
                Ok(())
            },
        };
        // Over the stale link the input is copied; fresh, it is linked.
        for expected_links in [1, 2] {
            run_staged(&ctx, &stations, true, &kernel).unwrap();
            assert_eq!(links_seen.load(Ordering::Relaxed), expected_links);
            assert_eq!(std::fs::read_to_string(&input).unwrap(), "input-AAA");
            assert_eq!(std::fs::metadata(&input).unwrap().nlink(), 1);
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn missing_input_fails_cleanly() {
        let (base, ctx) = make_ctx("missing");
        let stations = vec!["GONE".to_string()];
        let kernel = StagedKernel {
            tag: "test",
            inputs: &|s| vec![format!("{s}.in")],
            outputs: &|_| vec![],
            run: &|_, _, _| Ok(()),
        };
        assert!(run_staged(&ctx, &stations, false, &kernel).is_err());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn kernel_error_propagates() {
        let (base, ctx) = make_ctx("kerr");
        let stations = vec!["AAA".to_string()];
        std::fs::write(ctx.artifact("AAA.in"), "x").unwrap();
        let kernel = StagedKernel {
            tag: "test",
            inputs: &|s| vec![format!("{s}.in")],
            outputs: &|_| vec![],
            run: &|_, _, _| Err(PipelineError::Config("kernel exploded".into())),
        };
        let err = run_staged(&ctx, &stations, false, &kernel).unwrap_err();
        assert!(err.to_string().contains("kernel exploded"));
        std::fs::remove_dir_all(&base).unwrap();
    }

    fn staging_leftovers(ctx: &RunContext) -> Vec<String> {
        std::fs::read_dir(&ctx.work_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("tmp-"))
            .collect()
    }

    #[test]
    fn failed_kernel_leaves_no_staging_folders() {
        let (base, ctx) = make_ctx("leak");
        let stations: Vec<String> = ["AAA", "BBB", "CCC"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        for s in &stations {
            std::fs::write(ctx.artifact(&format!("{s}.in")), "x").unwrap();
        }
        let kernel = StagedKernel {
            tag: "test",
            inputs: &|s| vec![format!("{s}.in")],
            outputs: &|_| vec![],
            // Phase 3 fails on the middle station, after phase 1 has
            // created a folder for every station.
            run: &|_, i, _| {
                if i == 1 {
                    Err(PipelineError::Config("kernel exploded".into()))
                } else {
                    Ok(())
                }
            },
        };
        for parallel in [false, true] {
            let err = run_staged(&ctx, &stations, parallel, &kernel).unwrap_err();
            assert!(err.to_string().contains("kernel exploded"));
            assert_eq!(
                staging_leftovers(&ctx),
                Vec::<String>::new(),
                "phase-3 failure must not leak tmp folders (parallel={parallel})"
            );
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn failed_copy_in_leaves_no_staging_folders() {
        let (base, ctx) = make_ctx("leak1");
        // Station AAA has its input; GONE does not, so phase 1 fails after
        // AAA's folder (and possibly GONE's empty folder) already exists.
        let stations = vec!["AAA".to_string(), "GONE".to_string()];
        std::fs::write(ctx.artifact("AAA.in"), "x").unwrap();
        let kernel = StagedKernel {
            tag: "test",
            inputs: &|s| vec![format!("{s}.in")],
            outputs: &|_| vec![],
            run: &|_, _, _| Ok(()),
        };
        assert!(run_staged(&ctx, &stations, false, &kernel).is_err());
        assert_eq!(
            staging_leftovers(&ctx),
            Vec::<String>::new(),
            "phase-1 failure must not leak tmp folders"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn empty_station_list_is_noop() {
        let (base, ctx) = make_ctx("empty");
        let kernel = StagedKernel {
            tag: "test",
            inputs: &|_| vec![],
            outputs: &|_| vec![],
            run: &|_, _, _| Ok(()),
        };
        run_staged(&ctx, &[], true, &kernel).unwrap();
        std::fs::remove_dir_all(&base).unwrap();
    }
}

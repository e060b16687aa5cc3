//! Process #1 — gather input data files.
//!
//! Scans the input directory for raw `<station>.v1` files, copies them into
//! the work directory, and writes the `v1list` metadata every later process
//! keys off. The copy loop is the parallelizable part (heavy I/O, one file
//! per station).

use crate::context::{list_v1_station_files, RunContext};
use crate::error::{PipelineError, Result};
use arp_formats::FileList;

/// Name of the station-list metadata artifact.
pub const V1LIST: &str = "v1list.txt";

/// Runs process #1. `parallel` chooses whether the per-file copy loop uses
/// the parallel backend.
pub fn gather_inputs(ctx: &RunContext, parallel: bool) -> Result<()> {
    let names = list_v1_station_files(&ctx.input_dir)?;
    let copy_one = |i: usize| -> Result<()> {
        let name = &names[i];
        let src = ctx.input_dir.join(name);
        let dst = ctx.artifact(name);
        std::fs::copy(&src, &dst).map_err(|e| PipelineError::io(&src, e))?;
        Ok(())
    };
    if parallel {
        ctx.par_for(names.len(), copy_one)?;
    } else {
        ctx.seq_for(names.len(), copy_one)?;
    }
    FileList::new("v1list", names)?.write(&ctx.artifact(V1LIST))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;

    #[test]
    fn copies_files_and_writes_list() {
        let base = std::env::temp_dir().join(format!("arp-gather-{}", std::process::id()));
        let input = base.join("in");
        std::fs::create_dir_all(&input).unwrap();
        for s in ["BBB", "AAA"] {
            std::fs::write(input.join(format!("{s}.v1")), "data").unwrap();
        }
        std::fs::write(input.join("ignore.txt"), "x").unwrap();

        for parallel in [false, true] {
            let work = base.join(format!("w-{parallel}"));
            let ctx = RunContext::new(&input, &work, PipelineConfig::fast()).unwrap();
            gather_inputs(&ctx, parallel).unwrap();
            let list = FileList::read(&ctx.artifact(V1LIST)).unwrap();
            assert_eq!(list.entries, vec!["AAA.v1", "BBB.v1"]); // sorted
            assert!(ctx.artifact("AAA.v1").exists());
            assert!(ctx.artifact("BBB.v1").exists());
            assert!(!ctx.artifact("ignore.txt").exists());
            // stations() derives station codes
            assert_eq!(ctx.stations().unwrap(), vec!["AAA", "BBB"]);
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn missing_input_dir_errors() {
        let base = std::env::temp_dir().join(format!("arp-gather2-{}", std::process::id()));
        let ctx =
            RunContext::new(base.join("missing"), base.join("w"), PipelineConfig::fast()).unwrap();
        assert!(gather_inputs(&ctx, false).is_err());
        std::fs::remove_dir_all(&base).unwrap();
    }
}

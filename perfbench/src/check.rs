//! Output checks: product trees against the `seq-optimized` reference,
//! byte for byte, plus `arp_core::verify_run` on every event.

use crate::inputs::tree_files;
use arp_core::{verify_run, BatchItem, PipelineConfig, RunContext};
use std::path::{Path, PathBuf};

/// At most this many problems are listed per check; the count is exact.
const MAX_LISTED: usize = 5;

/// Compares two trees file by file. Returns one line per missing, extra
/// or differing file (empty = identical).
pub fn compare_trees(reference: &Path, candidate: &Path) -> Result<Vec<String>, String> {
    let want = tree_files(reference)?;
    let got = tree_files(candidate)?;
    let mut problems = Vec::new();
    for rel in &want {
        if got.binary_search(rel).is_err() {
            problems.push(format!("missing {}", candidate.join(rel).display()));
        } else {
            let read = |p: PathBuf| std::fs::read(&p).map_err(|e| format!("{}: {e}", p.display()));
            if read(reference.join(rel))? != read(candidate.join(rel))? {
                problems.push(format!("bytes differ: {}", candidate.join(rel).display()));
            }
        }
    }
    for rel in &got {
        if want.binary_search(rel).is_err() {
            problems.push(format!("unexpected {}", candidate.join(rel).display()));
        }
    }
    Ok(problems)
}

/// Runs `verify_run` on every event's products under `work/<label>`.
pub fn verify_products(items: &[BatchItem], work: &Path) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    for item in items {
        let ctx = RunContext::new(
            &item.input_dir,
            work.join(&item.label),
            PipelineConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let issues = verify_run(&ctx).map_err(|e| format!("{}: {e}", item.label))?;
        problems.extend(
            issues
                .iter()
                .map(|i| format!("{}: verify_run: {i}", item.label)),
        );
    }
    Ok(problems)
}

/// Checks every event's products under `work/<label>` against the
/// reference tree `reference/<label>`, which passed `verify_run` when it
/// was written. A tree byte-identical to it passes `verify_run` too, so
/// `verify_run` runs again only on an event whose bytes differ, to name
/// what broke.
pub fn check_products(
    items: &[BatchItem],
    reference: &Path,
    work: &Path,
) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    for item in items {
        let differences = compare_trees(&reference.join(&item.label), &work.join(&item.label))?;
        if !differences.is_empty() {
            problems.extend(differences);
            problems.extend(verify_products(std::slice::from_ref(item), work)?);
        }
    }
    Ok(problems)
}

/// Prints a failed check's problems to stderr; returns whether it passed.
pub fn report(what: &str, problems: &[String]) -> bool {
    if problems.is_empty() {
        return true;
    }
    eprintln!("check failed: {what}: {} problem(s)", problems.len());
    for p in problems.iter().take(MAX_LISTED) {
        eprintln!("  {p}");
    }
    false
}

/// Removes `dir` if it exists.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("{}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// Serializes the tests that run the pipeline, so that one test's timings
/// are not taken while another loads the machine.
#[cfg(test)]
pub fn serial_test() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A fresh per-test directory under the checkout's `.bench_work`.
#[cfg(test)]
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../.bench_work/tests")
        .join(format!("{tag}-{}", std::process::id()));
    remove_dir(&dir).unwrap();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Fixture, Workload};
    use crate::pipeline::reference;

    #[test]
    fn one_flipped_byte_in_a_copied_product_fails_the_check() {
        let _serial = serial_test();
        let dir = scratch_dir("flip");
        let fx = Fixture::generate(Workload::QuakeResponse, 3, 0.02, &dir.join("in")).unwrap();
        let refdir = dir.join("ref");
        reference(&fx, &refdir).unwrap();
        let label = &fx.items[0].label;
        let copy = dir.join("copy");
        for rel in tree_files(&refdir).unwrap() {
            let to = copy.join(&rel);
            std::fs::create_dir_all(to.parent().unwrap()).unwrap();
            std::fs::copy(refdir.join(&rel), &to).unwrap();
        }
        assert_eq!(
            check_products(&fx.items, &refdir, &copy).unwrap(),
            Vec::<String>::new()
        );

        let victim = copy.join(label).join(
            tree_files(&copy.join(label))
                .unwrap()
                .into_iter()
                .find(|p| p.extension().is_some_and(|e| e == "v2"))
                .unwrap(),
        );
        // Flip the last digit to another digit: the file still parses, so
        // only the byte comparison can catch it.
        let mut bytes = std::fs::read(&victim).unwrap();
        let pos = bytes.iter().rposition(u8::is_ascii_digit).unwrap();
        bytes[pos] ^= 0x01;
        std::fs::write(&victim, bytes).unwrap();
        let problems = check_products(&fx.items, &refdir, &copy).unwrap();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("bytes differ"), "{problems:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Output snapshots — used to prove the five implementations equivalent.
//!
//! A snapshot maps artifact names to content hashes for the *final* outputs
//! of a run (V2, F, R, GEM, plots, max values, filter params). Flag files
//! and the intermediate copies are excluded: the original and optimized
//! versions intentionally differ in scratch artifacts, while their final
//! products must match.

use crate::error::{PipelineError, Result};
use std::collections::BTreeMap;
use std::path::Path;

/// FNV-1a content hash (stable, dependency-free).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// True if a file name is one of the pipeline's *final products*.
pub fn is_final_product(name: &str) -> bool {
    name.ends_with(".v2")
        || name.ends_with(".f")
        || name.ends_with(".r")
        || name.ends_with(".gem")
        || name.ends_with(".ps")
        || name == arp_formats::MaxValues::FILE_NAME
        || name == arp_formats::FilterParams::FILE_NAME
}

/// Collects a snapshot of a work directory's final products.
pub fn snapshot(dir: &Path) -> Result<BTreeMap<String, u64>> {
    let mut map = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| PipelineError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| PipelineError::io(dir, e))?;
        if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if !is_final_product(&name) {
            continue;
        }
        let bytes = std::fs::read(entry.path()).map_err(|e| PipelineError::io(entry.path(), e))?;
        map.insert(name, fnv1a(&bytes));
    }
    Ok(map)
}

/// Compares two snapshots, returning human-readable differences.
pub fn diff_snapshots(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> Vec<String> {
    let mut diffs = Vec::new();
    for (name, hash) in a {
        match b.get(name) {
            None => diffs.push(format!("{name}: missing from second run")),
            Some(other) if other != hash => diffs.push(format!("{name}: content differs")),
            _ => {}
        }
    }
    for name in b.keys() {
        if !a.contains_key(name) {
            diffs.push(format!("{name}: missing from first run"));
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_product_filter() {
        assert!(is_final_product("SSLBl.v2"));
        assert!(is_final_product("SSLBl.f"));
        assert!(is_final_product("SSLBl.r"));
        assert!(is_final_product("SSLBlGEM2A.gem"));
        assert!(is_final_product("SSLB.ps"));
        assert!(is_final_product("max-values.txt"));
        assert!(is_final_product("filter-params.txt"));
        assert!(!is_final_product("flag0.txt"));
        assert!(!is_final_product("SSLB.v1"));
        assert!(!is_final_product("SSLBl.v1"));
        assert!(!is_final_product("v1list.txt"));
    }

    #[test]
    fn snapshot_and_diff() {
        let base = std::env::temp_dir().join(format!("arp-snap-{}", std::process::id()));
        let a = base.join("a");
        let b = base.join("b");
        std::fs::create_dir_all(&a).unwrap();
        std::fs::create_dir_all(&b).unwrap();

        std::fs::write(a.join("X.v2"), "same").unwrap();
        std::fs::write(b.join("X.v2"), "same").unwrap();
        std::fs::write(a.join("Y.v2"), "one").unwrap();
        std::fs::write(b.join("Y.v2"), "two").unwrap();
        std::fs::write(a.join("only-a.r"), "x").unwrap();
        std::fs::write(b.join("only-b.gem"), "y").unwrap();
        std::fs::write(a.join("flag0.txt"), "ignored").unwrap();

        let sa = snapshot(&a).unwrap();
        let sb = snapshot(&b).unwrap();
        assert!(!sa.contains_key("flag0.txt"));
        let diffs = diff_snapshots(&sa, &sb);
        assert_eq!(diffs.len(), 3, "{diffs:?}");
        assert!(diffs.iter().any(|d| d.contains("Y.v2")));
        assert!(diffs.iter().any(|d| d.contains("only-a.r")));
        assert!(diffs.iter().any(|d| d.contains("only-b.gem")));

        // Identical dirs diff empty.
        assert!(diff_snapshots(&sa, &sa).is_empty());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn missing_dir_errors() {
        assert!(snapshot(Path::new("/nonexistent/arp-snap")).is_err());
    }
}

//! Workloads and their seeded inputs.
//!
//! Inputs come from `arp-synth`: the paper's Table I event shapes with
//! `EventSpec.seed` derived from the benchmark seed, written as `.v1`
//! station files before anything is timed.

use arp_core::BatchItem;
use arp_synth::{paper_event, write_event_inputs, EventSpec, PAPER_EVENT_SHAPES};
use std::path::{Path, PathBuf};

/// Scale of the six archive events: 1/10 of the paper's record length
/// (137,000 samples over 71 stations).
pub const ARCHIVE_SCALE: f64 = 0.1;
/// Scale of the quake-response event: 1/4 of the paper's length.
pub const QUAKE_SCALE: f64 = 0.25;
/// The largest paper event (Jul-31-2019 shape, 19 stations).
pub const QUAKE_EVENT: usize = 5;

/// One benchmark workload. Every workload is a closed loop with one
/// operation in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The six paper events submitted as one cross-event super-DAG
    /// (`run_batch_dag`): an observatory clearing a backlog.
    ArchiveBatch,
    /// The largest event alone through the paper's stage plan
    /// (`run_pipeline(full)`): time to products after an earthquake.
    QuakeResponse,
    /// A fixed query mix over the archive's product tree: the analysts'
    /// read path (`arp-formats` only, no DSP, no pool).
    ProductQuery,
}

impl Workload {
    /// Every workload the command runs. `BENCHMARK.json` registers those
    /// that measured steady (see README.md).
    pub const ALL: [Workload; 3] = [
        Workload::ArchiveBatch,
        Workload::QuakeResponse,
        Workload::ProductQuery,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ArchiveBatch => "archive-batch",
            Workload::QuakeResponse => "quake-response",
            Workload::ProductQuery => "product-query",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The events the workload processes, labelled by paper event, with
    /// every record length multiplied by `shrink` (1.0 in benchmark runs;
    /// tests shrink the inputs).
    pub fn events(self, seed: u64, shrink: f64) -> Vec<(String, EventSpec)> {
        let (indices, scale) = match self {
            Workload::ArchiveBatch | Workload::ProductQuery => (0..6, ARCHIVE_SCALE),
            Workload::QuakeResponse => (QUAKE_EVENT..QUAKE_EVENT + 1, QUAKE_SCALE),
        };
        indices
            .map(|i| {
                let mut spec = paper_event(i, scale * shrink);
                spec.seed = event_seed(seed, i);
                (PAPER_EVENT_SHAPES[i].0.to_string(), spec)
            })
            .collect()
    }
}

/// The synthesis seed of paper event `index` under benchmark seed `seed`:
/// distinct per event, and a bijection of `seed` for each event.
pub fn event_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64 + 1)
}

/// A workload's generated inputs.
pub struct Fixture {
    /// The workload the inputs belong to.
    pub workload: Workload,
    /// The benchmark seed.
    pub seed: u64,
    /// Directory holding one input subdirectory per event.
    pub dir: PathBuf,
    /// The generated events, in `items` order.
    pub specs: Vec<EventSpec>,
    /// One batch item (input directory of `.v1` files) per event.
    pub items: Vec<BatchItem>,
    /// Acceleration samples over all events.
    pub points: usize,
    /// Input component records (three per station) over all events.
    pub records: usize,
    /// Digest of the input tree; see [`tree_digest`].
    pub digest: u64,
}

impl Fixture {
    /// Writes the workload's inputs for `seed` under `dir`, one
    /// subdirectory per event.
    pub fn generate(
        workload: Workload,
        seed: u64,
        shrink: f64,
        dir: &Path,
    ) -> Result<Fixture, String> {
        let events = workload.events(seed, shrink);
        let mut items = Vec::with_capacity(events.len());
        for (label, spec) in &events {
            let input_dir = dir.join(label);
            std::fs::create_dir_all(&input_dir)
                .map_err(|e| format!("{}: {e}", input_dir.display()))?;
            write_event_inputs(spec, &input_dir).map_err(|e| format!("{label}: {e}"))?;
            items.push(BatchItem {
                label: label.clone(),
                input_dir,
            });
        }
        Ok(Fixture {
            workload,
            seed,
            dir: dir.to_path_buf(),
            items,
            points: events.iter().map(|(_, s)| s.total_data_points()).sum(),
            records: events.iter().map(|(_, s)| 3 * s.v1_file_count()).sum(),
            digest: tree_digest(dir)?,
            specs: events.into_iter().map(|(_, s)| s).collect(),
        })
    }
}

/// Every regular file under `root`, as sorted paths relative to `root`.
pub fn tree_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = entry.path();
            let kind = entry
                .file_type()
                .map_err(|e| format!("{}: {e}", path.display()))?;
            if kind.is_dir() {
                walk(root, &path, out)?;
            } else if kind.is_file() {
                let rel = path
                    .strip_prefix(root)
                    .expect("walked path lies under its root");
                out.push(rel.to_path_buf());
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

/// 64-bit FNV-1a over every file's relative path and bytes, in path order.
pub fn tree_digest(root: &Path) -> Result<u64, String> {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    for rel in tree_files(root)? {
        let bytes =
            std::fs::read(root.join(&rel)).map_err(|e| format!("{}: {e}", rel.display()))?;
        feed(rel.to_string_lossy().as_bytes());
        feed(&[0]);
        feed(&(bytes.len() as u64).to_le_bytes());
        feed(&bytes);
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{scratch_dir, serial_test};

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("archive"), None);
    }

    #[test]
    fn archive_and_quake_have_the_paper_shapes() {
        let archive = Workload::ArchiveBatch.events(1, 1.0);
        let points: usize = archive.iter().map(|(_, s)| s.total_data_points()).sum();
        let stations: usize = archive.iter().map(|(_, s)| s.v1_file_count()).sum();
        assert_eq!((archive.len(), points, stations), (6, 137_000, 71));
        let quake = Workload::QuakeResponse.events(1, 1.0);
        assert_eq!(quake.len(), 1);
        assert_eq!(quake[0].1.total_data_points(), 96_000);
        assert_eq!(quake[0].1.v1_file_count(), 19);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let _serial = serial_test();
        let dir = scratch_dir("seed-digest");
        let digest = |seed: u64, tag: &str| {
            let d = dir.join(tag);
            Fixture::generate(Workload::QuakeResponse, seed, 0.02, &d)
                .unwrap()
                .digest
        };
        let a = digest(7, "a");
        assert_eq!(a, digest(7, "b"), "same seed must give identical inputs");
        assert_ne!(a, digest(8, "c"), "another seed must give other inputs");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

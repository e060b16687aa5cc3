//! The product-query mix: the analysts' read path over a product tree.

use arp_formats::query::PRODUCT_EXTENSIONS;
use arp_formats::{
    iter::read_records, Component, Filter, Query, Record, RecordEncoder, RecordKind,
};
use std::path::{Path, PathBuf};

/// One query of the mix.
pub struct QuerySpec {
    /// Short name (span names, messages).
    pub name: &'static str,
    /// Conjunction of filters.
    pub filters: Vec<Filter>,
    /// Whether the hits are re-encoded into the emit directory.
    pub emit: bool,
}

/// The fixed mix: an unfiltered scan, one station's V2 records, V2 with
/// PGA >= 50 cm/s^2, vertical response spectra overlapping 0.1-2 s, and
/// a re-emit of the V2 records with PGA >= 25 cm/s^2.
pub fn mix(station: &str) -> Vec<QuerySpec> {
    vec![
        QuerySpec {
            name: "scan",
            filters: vec![],
            emit: false,
        },
        QuerySpec {
            name: "station-v2",
            filters: vec![
                Filter::Kind(RecordKind::V2),
                Filter::Station(station.to_string()),
            ],
            emit: false,
        },
        QuerySpec {
            name: "pga50-v2",
            filters: vec![
                Filter::Kind(RecordKind::V2),
                Filter::pga_range(Some(50.0), None),
            ],
            emit: false,
        },
        QuerySpec {
            name: "vertical-r-0.1-2s",
            filters: vec![
                Filter::Kind(RecordKind::Response),
                Filter::Component(Component::Vertical),
                Filter::period_band(Some(0.1), Some(2.0)),
            ],
            emit: false,
        },
        QuerySpec {
            name: "emit-pga25-v2",
            filters: vec![
                Filter::Kind(RecordKind::V2),
                Filter::pga_range(Some(25.0), None),
            ],
            emit: true,
        },
    ]
}

/// What identifies a hit for the output check: its file and the record's
/// header facts, PGA bits included.
#[derive(Debug, PartialEq)]
pub struct Hit {
    path: PathBuf,
    kind: RecordKind,
    station: String,
    component: Option<Component>,
    points: usize,
    pga_bits: Option<u64>,
}

impl Hit {
    fn of(path: &Path, record: &Record) -> Hit {
        Hit {
            path: path.to_path_buf(),
            kind: record.kind(),
            station: record.station().to_string(),
            component: record.component(),
            points: record.data_points(),
            pga_bits: record.pga().map(f64::to_bits),
        }
    }
}

/// One run of the mix over every event directory.
pub struct MixRun {
    /// Hits per query, in mix order.
    pub hits: Vec<Vec<Hit>>,
    /// Samples in the records the mix returned.
    pub points: usize,
    /// `(emitted file, source file)` per re-encoded hit.
    pub emitted: Vec<(PathBuf, PathBuf)>,
}

/// Runs the mix through `arp_formats::Query` over each directory of
/// `dirs`, re-encoding the emitting query's hits into `emit/<dir name>/`.
pub fn run_mix(mix: &[QuerySpec], dirs: &[PathBuf], emit: &Path) -> Result<MixRun, String> {
    let mut out = MixRun {
        hits: Vec::with_capacity(mix.len()),
        points: 0,
        emitted: Vec::new(),
    };
    for q in mix {
        let mut hits = Vec::new();
        for dir in dirs {
            let iter = Query::new(dir)
                .filters(q.filters.clone())
                .run()
                .map_err(|e| e.to_string())?;
            for hit in iter {
                let hit = hit.map_err(|e| format!("query {}: {e}", q.name))?;
                out.points += hit.record.data_points();
                if q.emit {
                    let name = dir.file_name().expect("event directories are named");
                    let to = emit.join(name).join(hit.record.file_name());
                    let mut enc = RecordEncoder::create(&to).map_err(|e| e.to_string())?;
                    enc.write_record(&hit.record).map_err(|e| e.to_string())?;
                    enc.finish().map_err(|e| e.to_string())?;
                    out.emitted.push((to, hit.path.clone()));
                }
                hits.push(Hit::of(&hit.path, &hit.record));
            }
        }
        out.hits.push(hits);
    }
    Ok(out)
}

/// The product files of `dir` a query visits, sorted by name, listed
/// without the query layer.
pub fn product_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.is_file()
                && p.extension()
                    .and_then(|e| e.to_str())
                    .is_some_and(|e| PRODUCT_EXTENSIONS.contains(&e))
        })
        .collect();
    files.sort_by(|a, b| a.file_name().cmp(&b.file_name()));
    Ok(files)
}

/// The brute-force answer: every record of every product file read with
/// `read_records`, kept when every filter `matches` it, in the order the
/// query layer yields (directory, then file name, then position). Also
/// returns the number of records one pass over all files scans.
pub fn brute_force(mix: &[QuerySpec], dirs: &[PathBuf]) -> Result<(Vec<Vec<Hit>>, usize), String> {
    let mut expected: Vec<Vec<Hit>> = mix.iter().map(|_| Vec::new()).collect();
    let mut records = 0;
    for dir in dirs {
        for file in product_files(dir)? {
            let recs = read_records(&file).map_err(|e| e.to_string())?;
            records += recs.len();
            for rec in &recs {
                for (q, hits) in mix.iter().zip(expected.iter_mut()) {
                    if q.filters.iter().all(|f| f.matches(rec)) {
                        hits.push(Hit::of(&file, rec));
                    }
                }
            }
        }
    }
    Ok((expected, records))
}

/// Checks a mix run against the brute-force answer and every re-encoded
/// file against its source, byte for byte.
pub fn check_mix(mix: &[QuerySpec], run: &MixRun, expected: &[Vec<Hit>]) -> Vec<String> {
    let mut problems = Vec::new();
    for ((q, got), want) in mix.iter().zip(&run.hits).zip(expected) {
        if got != want {
            problems.push(format!(
                "query {}: {} hit(s), brute force finds {}{}",
                q.name,
                got.len(),
                want.len(),
                if got.len() == want.len() {
                    " (different records)"
                } else {
                    ""
                }
            ));
        }
    }
    for (emitted, source) in &run.emitted {
        match (std::fs::read(emitted), std::fs::read(source)) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(_), Ok(_)) => problems.push(format!(
                "re-emitted {} differs from {}",
                emitted.display(),
                source.display()
            )),
            (a, b) => problems.push(format!(
                "re-emit check cannot read {}: {:?} / {:?}",
                emitted.display(),
                a.err(),
                b.err()
            )),
        }
    }
    problems
}

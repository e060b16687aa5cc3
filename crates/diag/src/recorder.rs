//! The flight recorder: turns a panic (or an explicit abort) into a
//! durable `postmortem-<run-id>/` bundle.
//!
//! A host process [`arm`]s the recorder with a run id and an output
//! directory, registers extra bundle sources ([`add_source`] — the CLI
//! wires a Prometheus snapshot, the live trace tail, and the super-DAG
//! frontier), and runs its workload. If any thread panics while the
//! recorder is armed, a process-wide panic hook writes the bundle *at the
//! moment of failure* — the log rings, the per-worker state, and every
//! registered source are frozen before the unwind reaches a `catch_unwind`
//! and the pipeline's fail-fast machinery starts tearing the run down.
//! Hosts whose failure is an error value rather than a panic call
//! [`write_postmortem`] themselves. Either way at most one bundle is
//! written per armed run.
//!
//! ## Bundle layout
//!
//! ```text
//! postmortem-<run-id>/
//!   MANIFEST.txt     run id, reason, capture origin (ns since epoch)
//!   incident.json    reason + failing worker/node/event attribution
//!   log.jsonl        merged log-ring tail (see crate-level JSONL schema)
//!   workers.json     per-worker state: running node, lane, steals
//!   <source>         one file per registered source (metrics.prom,
//!                    trace.csv, frontier.json, ... — host-defined)
//! ```

use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// A named bundle contributor: returns the file body, or `None` to skip
/// the file this time (e.g. no trace session active).
type Source = Box<dyn Fn() -> Option<String> + Send + Sync>;

struct Armed {
    run_id: String,
    dir: PathBuf,
}

static ARMED: Mutex<Option<Armed>> = Mutex::new(None);
static WRITTEN: AtomicBool = AtomicBool::new(false);

fn sources() -> &'static Mutex<Vec<(String, Source)>> {
    static SOURCES: OnceLock<Mutex<Vec<(String, Source)>>> = OnceLock::new();
    SOURCES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers (or replaces, by file name) a bundle source. `name` is the
/// file name inside the bundle (`"metrics.prom"`, `"frontier.json"`).
pub fn add_source(name: &str, f: impl Fn() -> Option<String> + Send + Sync + 'static) {
    let mut sources = sources().lock();
    sources.retain(|(n, _)| n != name);
    sources.push((name.to_string(), Box::new(f)));
}

/// Arms the recorder: the next panic on any thread (or explicit
/// [`write_postmortem`] call) writes `dir/postmortem-<run_id>/`. Also
/// installs the process-wide panic hook (once), enables ring capture and
/// worker tracking, and resets the once-per-run bundle guard.
pub fn arm(run_id: &str, dir: &Path) {
    install_hook();
    crate::set_ring_enabled(true);
    crate::workers::set_tracking(true);
    WRITTEN.store(false, Ordering::SeqCst);
    *ARMED.lock() = Some(Armed {
        run_id: run_id.to_string(),
        dir: dir.to_path_buf(),
    });
}

/// Disarms the recorder (a run that completed cleanly writes nothing).
/// Ring capture stays on — the host toggles it with the `--diag` flag's
/// lifetime, not per workload.
pub fn disarm() {
    *ARMED.lock() = None;
}

/// Whether the recorder is currently armed.
pub fn armed() -> bool {
    ARMED.lock().is_some()
}

fn install_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Freeze first, then let the default hook print: the bundle
            // must capture the worker's state before unwinding starts.
            let payload = crate::panic_message(info.payload());
            let worker = std::thread::current()
                .name()
                .unwrap_or("caller")
                .to_string();
            crate::error(|| format!("panic: {payload}"));
            write_postmortem(&format!("panic on {worker}: {payload}"));
            previous(info);
        }));
    });
}

/// Writes the postmortem bundle if the recorder is armed and none has been
/// written for this run yet. Returns the bundle directory when written.
/// Safe to call from the panic hook (allocates and does file I/O, takes no
/// lock that the logging fast path holds).
pub fn write_postmortem(reason: &str) -> Option<PathBuf> {
    let (run_id, dir) = {
        let armed = ARMED.lock();
        let armed = armed.as_ref()?;
        (armed.run_id.clone(), armed.dir.clone())
    };
    if WRITTEN.swap(true, Ordering::SeqCst) {
        return None;
    }
    let bundle = dir.join(format!("postmortem-{run_id}"));
    if std::fs::create_dir_all(&bundle).is_err() {
        return None;
    }
    let write = |name: &str, body: &str| {
        let _ = std::fs::write(bundle.join(name), body);
    };

    let records = crate::snapshot();
    let (event, process, node) = crate::current_context();
    write(
        "MANIFEST.txt",
        &format!(
            "run: {run_id}\nreason: {reason}\ncaptured_t_ns: {}\nrecords: {}\ndropped: {}\n",
            records.last().map_or(0, |r| r.t_ns),
            records.len(),
            crate::dropped()
        ),
    );
    {
        use arp_trace::json::escape;
        let opt = |v: &Option<String>| v.as_ref().map_or("null".to_string(), |s| escape(s));
        write(
            "incident.json",
            &format!(
                "{{\"reason\":{},\"worker\":{},\"event\":{},\"process\":{},\"node\":{}}}\n",
                escape(reason),
                escape(std::thread::current().name().unwrap_or("caller")),
                opt(&event),
                process.map_or("null".to_string(), |p| p.to_string()),
                opt(&node)
            ),
        );
    }
    write("log.jsonl", &crate::export_jsonl(&records));
    write("workers.json", &crate::workers::to_json(8));
    for (name, source) in sources().lock().iter() {
        if let Some(body) = source() {
            write(name, &body);
        }
    }
    eprintln!("postmortem: wrote {}", bundle.display());
    Some(bundle)
}

/// Validates a bundle directory: the required files exist, `log.jsonl`
/// passes [`crate::validate_jsonl`], and the JSON files parse. Returns a
/// one-line summary.
pub fn check_bundle(bundle: &Path) -> Result<String, String> {
    let read = |name: &str| {
        std::fs::read_to_string(bundle.join(name))
            .map_err(|e| format!("{}: {e}", bundle.join(name).display()))
    };
    let manifest = read("MANIFEST.txt")?;
    if !manifest.contains("run: ") || !manifest.contains("reason: ") {
        return Err("MANIFEST.txt: missing run/reason lines".into());
    }
    let incident = read("incident.json")?;
    arp_trace::json::parse(&incident).map_err(|e| format!("incident.json: {e}"))?;
    let records =
        crate::validate_jsonl(&read("log.jsonl")?).map_err(|e| format!("log.jsonl: {e}"))?;
    let workers = read("workers.json")?;
    arp_trace::json::parse(&workers).map_err(|e| format!("workers.json: {e}"))?;
    // Optional sources validate only when present.
    if let Ok(frontier) = read("frontier.json") {
        arp_trace::json::parse(&frontier).map_err(|e| format!("frontier.json: {e}"))?;
    }
    Ok(format!(
        "{}: valid postmortem bundle — {records} log records",
        bundle.display()
    ))
}

/// Renders a bundle as a human-readable incident report: the failing node
/// and event, the failing worker's last records, the slowest in-flight
/// nodes, and per-event frontier progress when the bundle carries it.
pub fn render_report(bundle: &Path) -> Result<String, String> {
    use arp_trace::json::{parse, Value};
    let read = |name: &str| {
        std::fs::read_to_string(bundle.join(name))
            .map_err(|e| format!("{}: {e}", bundle.join(name).display()))
    };
    let manifest = read("MANIFEST.txt")?;
    let incident = parse(&read("incident.json")?).map_err(|e| format!("incident.json: {e}"))?;
    let records = crate::parse_jsonl(&read("log.jsonl")?).map_err(|e| format!("log.jsonl: {e}"))?;
    let workers = parse(&read("workers.json")?).map_err(|e| format!("workers.json: {e}"))?;

    let str_of = |v: &Value, key: &str| v.get(key).and_then(|x| x.as_str()).map(str::to_string);
    let reason = str_of(&incident, "reason").unwrap_or_else(|| "unknown".into());
    let worker = str_of(&incident, "worker").unwrap_or_else(|| "unknown".into());
    let node = str_of(&incident, "node");
    let event = str_of(&incident, "event");

    let mut out = format!("incident report — {}\n\n", bundle.display());
    for line in manifest.lines() {
        out.push_str(&format!("  {line}\n"));
    }
    out.push_str(&format!("\nreason: {reason}\n"));
    match (&node, &event) {
        (Some(node), Some(event)) => out.push_str(&format!(
            "failing node: {node} (event {event}) on worker {worker}\n"
        )),
        _ => out.push_str(&format!("failing worker: {worker} (no node attribution)\n")),
    }

    const LAST: usize = 10;
    let last: Vec<&crate::Record> = records
        .iter()
        .filter(|r| r.worker == worker)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .take(LAST)
        .rev()
        .collect();
    out.push_str(&format!("\nlast {} record(s) from {worker}:\n", last.len()));
    for r in last {
        let at = r
            .node
            .as_deref()
            .map_or(String::new(), |n| format!(" [{n}]"));
        out.push_str(&format!(
            "  {:>12.6}s {:<5}{} {}\n",
            r.t_ns as f64 / 1e9,
            r.level.as_str(),
            at,
            r.message
        ));
    }

    if let Some(longest) = workers.get("longest_running").and_then(|v| v.as_arr()) {
        if !longest.is_empty() {
            out.push_str("\nslowest in-flight nodes at capture:\n");
            for entry in longest {
                let node = str_of(entry, "node").unwrap_or_default();
                let on = str_of(entry, "worker").unwrap_or_default();
                let busy = entry.get("busy_ns").and_then(|x| x.as_f64()).unwrap_or(0.0);
                out.push_str(&format!("  {node} on {on} ({:.3}s)\n", busy / 1e9));
            }
        }
    }

    if let Ok(text) = read("frontier.json") {
        if let Ok(frontier) = parse(&text) {
            if let Some(events) = frontier.get("events").and_then(|v| v.as_arr()) {
                out.push_str("\nper-event progress at capture:\n");
                for ev in events {
                    let label = str_of(ev, "label").unwrap_or_default();
                    let count = |key: &str| ev.get(key).and_then(|x| x.as_u64()).unwrap_or(0);
                    out.push_str(&format!(
                        "  {label:<12} {} done, {} running, {} pending, {} failed, {} skipped\n",
                        count("completed"),
                        count("running"),
                        count("pending"),
                        count("failed"),
                        count("skipped")
                    ));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_bundle_roundtrips_through_check_and_report() {
        let _guard = crate::TEST_LOCK.lock();
        let dir = std::env::temp_dir().join(format!("arp-diag-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        add_source("frontier.json", || {
            Some(
                "{\"events\":[{\"label\":\"ev1\",\"pending\":2,\"running\":1,\
                 \"completed\":14,\"failed\":0,\"skipped\":0}]}\n"
                    .to_string(),
            )
        });
        arm("unit", &dir);
        crate::set_console_level(None);
        crate::set_context(Some("ev1".into()), Some(7), Some("ev1/#7".into()));
        crate::error(|| "kernel exploded".into());
        let bundle = write_postmortem("abort: kernel exploded").expect("bundle written");
        // Second write is suppressed by the once-per-run guard.
        assert!(write_postmortem("again").is_none());
        crate::clear_context();
        disarm();
        crate::set_ring_enabled(false);
        crate::workers::set_tracking(false);
        crate::set_console_level(Some(crate::Level::Warn));

        let summary = check_bundle(&bundle).expect("bundle validates");
        assert!(summary.contains("valid postmortem bundle"), "{summary}");
        let report = render_report(&bundle).expect("report renders");
        assert!(report.contains("ev1/#7"), "{report}");
        assert!(report.contains("event ev1"), "{report}");
        assert!(report.contains("kernel exploded"), "{report}");
        assert!(report.contains("per-event progress"), "{report}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn unarmed_recorder_writes_nothing() {
        let _guard = crate::TEST_LOCK.lock();
        disarm();
        assert!(write_postmortem("nope").is_none());
    }
}

//! Integration: corrupted or missing inputs produce typed errors, never
//! panics, and never partial silent success.

use arp_core::output::{diff_snapshots, snapshot};
use arp_core::{
    run_batch_dag, run_pipeline, BatchItem, ImplKind, PipelineConfig, PipelineError, ReadyOrder,
    RunContext,
};
use arp_formats::{names, Component};
use arp_synth::{paper_event, write_event_inputs};
use std::path::{Path, PathBuf};
use std::process::Command;

fn setup(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("arp-fail-{tag}-{}", std::process::id()));
    let input = base.join("inputs");
    std::fs::create_dir_all(&input).unwrap();
    write_event_inputs(&paper_event(0, 0.003), &input).unwrap();
    (base, input)
}

fn run(input: &PathBuf, work: PathBuf, kind: ImplKind) -> Result<(), PipelineError> {
    let ctx = RunContext::new(input, work, PipelineConfig::fast())?;
    run_pipeline(&ctx, kind).map(|_| ())
}

#[test]
fn empty_input_directory_completes_with_no_products() {
    let base = std::env::temp_dir().join(format!("arp-fail-empty-{}", std::process::id()));
    let input = base.join("inputs");
    std::fs::create_dir_all(&input).unwrap();
    // Zero stations is a valid (degenerate) event: all loops are empty.
    run(&input, base.join("work"), ImplKind::FullyParallel).unwrap();
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn missing_input_directory_is_an_error() {
    let base = std::env::temp_dir().join(format!("arp-fail-miss-{}", std::process::id()));
    let input = base.join("never-created");
    let err = run(&input, base.join("work"), ImplKind::SequentialOriginal).unwrap_err();
    assert!(matches!(err, PipelineError::Io { .. }), "{err}");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn garbage_v1_file_is_rejected_with_format_error() {
    let (base, input) = setup("garbage");
    std::fs::write(input.join("BOGUS.v1"), "this is not a V1 file\n").unwrap();
    for kind in [
        ImplKind::SequentialOriginal,
        ImplKind::FullyParallel,
        ImplKind::DagParallel,
    ] {
        let err = run(&input, base.join(format!("w-{kind:?}")), kind).unwrap_err();
        assert!(matches!(err, PipelineError::Format(_)), "{kind:?}: {err}");
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn truncated_v1_file_is_rejected() {
    let (base, input) = setup("trunc");
    // Truncate one station file halfway through a numeric block.
    let victim = input.join(
        std::fs::read_dir(&input)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".v1"))
            .unwrap()
            .file_name(),
    );
    let text = std::fs::read_to_string(&victim).unwrap();
    std::fs::write(&victim, &text[..text.len() / 2]).unwrap();
    let err = run(&input, base.join("work"), ImplKind::SequentialOptimized).unwrap_err();
    assert!(matches!(err, PipelineError::Format(_)), "{err}");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn corrupted_numeric_value_is_rejected() {
    let (base, input) = setup("nanvals");
    let victim = input.join(
        std::fs::read_dir(&input)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".v1"))
            .unwrap()
            .file_name(),
    );
    let mut text = std::fs::read_to_string(&victim).unwrap();
    // Replace a numeric token inside the ACC block with junk.
    let pos = text.find("BEGIN ACC").unwrap();
    let line_start = text[pos..].find('\n').unwrap() + pos + 1;
    let line_end = text[line_start..].find('\n').unwrap() + line_start;
    text.replace_range(line_start..line_end, "1.0 not_a_number 2.0");
    std::fs::write(&victim, text).unwrap();
    let err = run(&input, base.join("work"), ImplKind::SequentialOptimized).unwrap_err();
    assert!(matches!(err, PipelineError::Format(_)), "{err}");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn non_finite_v1_sample_stops_the_run_at_separation_naming_file_and_component() {
    let (base, input) = setup("nonfinite");
    let victim = std::fs::read_dir(&input)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "v1"))
        .unwrap();
    let text = std::fs::read_to_string(&victim).unwrap();
    // The first sample of the first component's ACC block.
    let body = text.find("BEGIN ACC").unwrap();
    let start = text[body..].find('\n').unwrap() + body + 1;
    let end = text[start..].find(' ').unwrap() + start;
    std::fs::write(&victim, format!("{}NaN{}", &text[..start], &text[end..])).unwrap();
    for kind in [
        ImplKind::SequentialOptimized,
        ImplKind::FullyParallel,
        ImplKind::DagParallel,
    ] {
        let work = base.join(format!("w-{kind:?}"));
        let err = run(&input, work.clone(), kind).unwrap_err().to_string();
        // #1 gathered the file into the work directory; #3 read it there.
        let want = format!(
            "{}: invalid value: non-finite LONGITUDINAL ACC sample NaN at index 0",
            work.join(victim.file_name().unwrap()).display()
        );
        assert!(err.contains(&want), "{kind:?}: {err}");
        let v2 = std::fs::read_dir(&work)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "v2"))
            .count();
        assert_eq!(v2, 0, "{kind:?} wrote V2 files");
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn overflowing_v1_record_stops_the_run_at_the_default_filter_naming_file_and_component() {
    let (base, input) = setup("overflow");
    let mut v1s: Vec<PathBuf> = std::fs::read_dir(&input)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "v1"))
        .collect();
    v1s.sort();
    let victim = &v1s[0];
    let station = victim.file_stem().unwrap().to_str().unwrap().to_string();
    // The first three lines of the first component's ACC block become
    // ±f64::MAX: finite, so #3 passes them, but the linear baseline fit
    // overflows and the corrected record is all NaN.
    let text = std::fs::read_to_string(victim).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let acc = lines
        .iter()
        .position(|l| l.starts_with("BEGIN ACC"))
        .unwrap();
    for line in &mut lines[acc + 1..acc + 4] {
        let count = line.split_whitespace().count();
        *line = (0..count)
            .map(|i| format!("{:e}", if i % 2 == 0 { f64::MAX } else { -f64::MAX }))
            .collect::<Vec<_>>()
            .join(" ");
    }
    std::fs::write(victim, lines.join("\n") + "\n").unwrap();
    let comp = Component::Longitudinal;
    for kind in [
        ImplKind::SequentialOptimized,
        ImplKind::FullyParallel,
        ImplKind::DagParallel,
    ] {
        let work = base.join(format!("w-{kind:?}"));
        let err = run(&input, work.clone(), kind).unwrap_err().to_string();
        // #3 wrote the component file into the work directory; #4 read it
        // there (or a staged copy of it).
        let want = format!(
            "{}: LONGITUDINAL component: signal-processing error: non-finite sample at index 0",
            work.join(names::v1_component(&station, comp)).display()
        );
        assert!(err.contains(&want), "{kind:?}: {err}");
        let v2 = work.join(names::v2_component(&station, comp));
        assert!(!v2.exists(), "{kind:?} wrote {}", v2.display());
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn deleting_intermediate_midway_is_detected() {
    // Run the first half of the pipeline, delete a V2 file, and confirm the
    // response-spectrum process reports the missing artifact.
    use arp_core::process::{filter, filterinit, gather, respspec, separate};
    let (base, input) = setup("midway");
    let ctx = RunContext::new(&input, base.join("work"), PipelineConfig::fast()).unwrap();
    gather::gather_inputs(&ctx, false).unwrap();
    filterinit::init_filter_params(&ctx).unwrap();
    separate::separate_components(&ctx, false).unwrap();
    filter::correct_signals(&ctx, filter::CorrectionPass::Default, false).unwrap();

    let station = ctx.stations().unwrap()[0].clone();
    std::fs::remove_file(ctx.artifact(&names::v2_component(
        &station,
        arp_formats::Component::Vertical,
    )))
    .unwrap();
    let err = respspec::response_spectrum_calc(&ctx, false).unwrap_err();
    assert!(matches!(err, PipelineError::Format(_)), "{err}");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn work_dir_inside_input_dir_is_rejected_by_gather_scan() {
    // A work dir nested in the input dir must not confuse the .v1 scan
    // (gather only picks files, and only *.v1).
    let (base, input) = setup("nested");
    let work = input.join("work");
    run(&input, work, ImplKind::SequentialOptimized).unwrap();
    std::fs::remove_dir_all(&base).unwrap();
}

fn stage_two_events(base: &Path) -> Vec<BatchItem> {
    let mut items = Vec::new();
    for (i, label) in ["ev-a", "ev-b"].iter().enumerate() {
        let dir = base.join("batch").join(label);
        std::fs::create_dir_all(&dir).unwrap();
        write_event_inputs(&paper_event(i, 0.002), &dir).unwrap();
        items.push(BatchItem {
            label: label.to_string(),
            input_dir: dir,
        });
    }
    items
}

/// Every `tmp-*` staging folder found anywhere under `root`.
fn staging_dirs(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            if !entry.file_type().map(|t| t.is_dir()).unwrap_or(false) {
                continue;
            }
            let path = entry.path();
            if entry.file_name().to_string_lossy().starts_with("tmp-") {
                found.push(path.clone());
            }
            stack.push(path);
        }
    }
    found
}

#[test]
fn failed_event_is_attributed_and_isolated() {
    // Corrupt one event's data mid-file (the header stays valid, so the
    // failure happens inside the scheduled super-graph, not during setup)
    // and check three things: the error names the failing event, the
    // sibling event's finished products are byte-identical to a clean run,
    // and no staging folders survive.
    let base = std::env::temp_dir().join(format!("arp-iolane-isol-{}", std::process::id()));
    let items = stage_two_events(&base);

    let clean_work = base.join("work-clean");
    run_batch_dag(
        &items,
        &clean_work,
        &PipelineConfig::fast(),
        ReadyOrder::CriticalPath,
    )
    .unwrap();

    // Keep the BEGIN ACC header but replace the first data line with junk.
    let victim = items[1].input_dir.join(
        std::fs::read_dir(&items[1].input_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".v1"))
            .unwrap()
            .file_name(),
    );
    let mut text = std::fs::read_to_string(&victim).unwrap();
    let pos = text.find("BEGIN ACC").unwrap();
    let line_start = text[pos..].find('\n').unwrap() + pos + 1;
    let line_end = text[line_start..].find('\n').unwrap() + line_start;
    text.replace_range(line_start..line_end, "1.0 not_a_number 2.0");
    std::fs::write(&victim, text).unwrap();

    // Simulated timing runs events sequentially (ev-a completes before
    // ev-b starts), so the sibling comparison is exact — and deterministic.
    let mut sim = PipelineConfig::fast();
    sim.timing = arp_core::config::TimingModel::Simulated { threads: 4 };
    let failed_work = base.join("work-failed");
    let err = run_batch_dag(&items, &failed_work, &sim, ReadyOrder::CriticalPath).unwrap_err();
    // The failure is attributed to the event's node...
    assert!(matches!(err, PipelineError::Node { .. }), "{err}");
    assert!(err.to_string().contains("ev-b"), "{err}");
    // ...the healthy sibling is not contaminated: its products are
    // byte-identical to the clean run...
    let diffs = diff_snapshots(
        &snapshot(&clean_work.join("ev-a")).unwrap(),
        &snapshot(&failed_work.join("ev-a")).unwrap(),
    );
    assert!(
        diffs.is_empty(),
        "ev-a diverged after ev-b failed: {diffs:#?}"
    );
    // ...and no staging folders leak from the interrupted protocol.
    assert_eq!(staging_dirs(&failed_work), Vec::<PathBuf>::new());

    // The measured path goes through the pool scheduler instead of the
    // sequential loop; it must attribute and fail-fast the same way. A
    // failure skips only the nodes after it, so ev-a's nodes, which come
    // first, all finish whatever the timing.
    let measured_work = base.join("work-failed-measured");
    let err = run_batch_dag(
        &items,
        &measured_work,
        &PipelineConfig::fast(),
        ReadyOrder::CriticalPath,
    )
    .unwrap_err();
    assert!(matches!(err, PipelineError::Node { .. }), "{err}");
    assert!(err.to_string().contains("ev-b"), "{err}");
    let diffs = diff_snapshots(
        &snapshot(&clean_work.join("ev-a")).unwrap(),
        &snapshot(&measured_work.join("ev-a")).unwrap(),
    );
    assert!(
        diffs.is_empty(),
        "measured ev-a diverged after ev-b failed: {diffs:#?}"
    );
    assert_eq!(staging_dirs(&measured_work), Vec::<PathBuf>::new());
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn a_panicking_process_ends_in_a_typed_error_under_every_implementation() {
    // `arp run` labels its event `cli`. A panic in #10 must come back as
    // an error naming the node, with exit status 1 (an unwinding panic
    // exits 101) and no staging folder left behind.
    let (base, input) = setup("panic");
    for imp in ["seq-optimized", "partial", "full", "dag"] {
        let work = base.join(format!("w-{imp}"));
        let out = Command::new(env!("CARGO_BIN_EXE_arp"))
            .args(["run", "--in", input.to_str().unwrap()])
            .args(["--work", work.to_str().unwrap(), "--impl", imp])
            .env("ARP_INJECT_PANIC", "cli/#10")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{imp}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("error:") && l.contains("cli/#10")),
            "{imp}: {stderr}"
        );
        assert_eq!(staging_dirs(&work), Vec::<PathBuf>::new(), "{imp}");
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn unknown_flags_stop_the_command_before_any_work() {
    // A retired flag and a typo: each must fail before the command starts
    // (no work directory appears), with an error naming the flag.
    let (base, input) = setup("flags");
    let root = base.join("root");
    let event = root.join("ev");
    std::fs::create_dir_all(&root).unwrap();
    std::fs::rename(&input, &event).unwrap();
    let work = base.join("work");
    let cases: [(&[&str], &str); 2] = [
        (
            &[
                "batch",
                "--root",
                root.to_str().unwrap(),
                "--impl",
                "dag",
                "--io-threads",
                "2",
            ],
            "--io-threads",
        ),
        (
            &["run", "--in", event.to_str().unwrap(), "--imp", "dag"],
            "--imp",
        ),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_arp"))
            .args(args)
            .args(["--work", work.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} ran: {stderr}");
        assert!(
            stderr.contains(&format!("no flag {flag} ")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} started work");
        assert!(!work.exists(), "{args:?} created its work directory");
    }
    std::fs::remove_dir_all(&base).unwrap();
}

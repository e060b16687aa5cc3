//! Integration: corrupted or missing inputs produce typed errors, never
//! panics, and never partial silent success.

use arp_core::{run_pipeline, ImplKind, PipelineConfig, PipelineError, RunContext};
use arp_formats::{names, Component};
use arp_synth::{paper_event, write_event_inputs};
use std::path::PathBuf;

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

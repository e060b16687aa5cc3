//! Cross-crate integration: the five pipeline implementations are
//! output-equivalent, deterministic, and correct in both timing models.

use arp_core::config::TimingModel;
use arp_core::output::{diff_snapshots, snapshot};
use arp_core::{run_pipeline, ImplKind, PipelineConfig, RunContext};
use arp_synth::{paper_event, write_event_inputs};
use std::path::PathBuf;

fn setup(tag: &str, event_index: usize, scale: f64) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("arp-it-{tag}-{}", std::process::id()));
    let input = base.join("inputs");
    std::fs::create_dir_all(&input).unwrap();
    let event = paper_event(event_index, scale);
    write_event_inputs(&event, &input).unwrap();
    (base, input)
}

fn fast_config() -> PipelineConfig {
    PipelineConfig::fast()
}

#[test]
fn all_five_implementations_produce_identical_final_products() {
    let (base, input) = setup("equiv", 0, 0.004);
    let mut reference = None;
    for kind in ImplKind::ALL {
        let work = base.join(format!("work-{kind:?}"));
        let ctx = RunContext::new(&input, &work, fast_config()).unwrap();
        run_pipeline(&ctx, kind).unwrap();
        let snap = snapshot(&work).unwrap();
        assert!(!snap.is_empty());
        match &reference {
            None => reference = Some(snap),
            Some(r) => {
                let diffs = diff_snapshots(r, &snap);
                assert!(diffs.is_empty(), "{kind:?} diverged: {diffs:#?}");
            }
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn reruns_are_deterministic() {
    let (base, input) = setup("determ", 0, 0.003);
    let mut snaps = Vec::new();
    for run in 0..2 {
        let work = base.join(format!("work-{run}"));
        let ctx = RunContext::new(&input, &work, fast_config()).unwrap();
        run_pipeline(&ctx, ImplKind::FullyParallel).unwrap();
        snaps.push(snapshot(&work).unwrap());
    }
    assert!(diff_snapshots(&snaps[0], &snaps[1]).is_empty());
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn simulated_timing_mode_matches_measured_outputs() {
    let (base, input) = setup("simout", 0, 0.003);
    let work_m = base.join("measured");
    let ctx_m = RunContext::new(&input, &work_m, fast_config()).unwrap();
    run_pipeline(&ctx_m, ImplKind::FullyParallel).unwrap();

    let mut sim_cfg = fast_config();
    sim_cfg.timing = TimingModel::Simulated { threads: 8 };
    let work_s = base.join("simulated");
    let ctx_s = RunContext::new(&input, &work_s, sim_cfg).unwrap();
    let report = run_pipeline(&ctx_s, ImplKind::FullyParallel).unwrap();

    let diffs = diff_snapshots(&snapshot(&work_m).unwrap(), &snapshot(&work_s).unwrap());
    assert!(diffs.is_empty(), "{diffs:#?}");
    // The simulated run reports plausible virtual times.
    assert!(report.total > std::time::Duration::ZERO);
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn simulated_parallel_run_is_faster_than_sequential_in_virtual_time() {
    let (base, input) = setup("simspeed", 1, 0.01);
    let mut config = fast_config();
    config.timing = TimingModel::Simulated { threads: 8 };

    let ctx_seq = RunContext::new(&input, base.join("w-seq"), config.clone()).unwrap();
    let seq = run_pipeline(&ctx_seq, ImplKind::SequentialOriginal).unwrap();

    let ctx_par = RunContext::new(&input, base.join("w-par"), config).unwrap();
    let par = run_pipeline(&ctx_par, ImplKind::FullyParallel).unwrap();

    let speedup = seq.total.as_secs_f64() / par.total.as_secs_f64();
    // Unit durations are still wall-clock measurements, so concurrent
    // test load adds noise; assert a modest virtual speedup only.
    assert!(
        speedup > 1.1,
        "expected a virtual speedup, got {speedup:.2}x (seq {:?}, par {:?})",
        seq.total,
        par.total
    );
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn dag_matches_sequential_optimized_on_every_paper_event() {
    // The tentpole guarantee: deleting the stage barriers changes the
    // schedule, never the artifacts — on all six paper events.
    for event_index in 0..6 {
        let (base, input) = setup(&format!("dagev{event_index}"), event_index, 0.002);
        let work_seq = base.join("w-seq");
        let ctx_seq = RunContext::new(&input, &work_seq, fast_config()).unwrap();
        run_pipeline(&ctx_seq, ImplKind::SequentialOptimized).unwrap();

        let work_dag = base.join("w-dag");
        let ctx_dag = RunContext::new(&input, &work_dag, fast_config()).unwrap();
        let report = run_pipeline(&ctx_dag, ImplKind::DagParallel).unwrap();

        let diffs = diff_snapshots(&snapshot(&work_seq).unwrap(), &snapshot(&work_dag).unwrap());
        assert!(diffs.is_empty(), "event {event_index} diverged: {diffs:#?}");
        assert_eq!(report.processes.len(), 17);
        assert!(report.dag.is_some());
        std::fs::remove_dir_all(&base).unwrap();
    }
}

#[test]
fn simulated_dag_schedule_never_loses_to_the_barrier_plan() {
    // Fig. 9's stage plan is one linearization of the dependency graph, so
    // dependency-driven scheduling can only remove waiting, never add it.
    // Both makespans come from the same per-node durations of one run,
    // making the comparison exact for every paper event.
    for event_index in 0..6 {
        let (base, input) = setup(&format!("dagsim{event_index}"), event_index, 0.002);
        let mut config = fast_config();
        config.timing = TimingModel::Simulated { threads: 8 };
        let ctx = RunContext::new(&input, base.join("w"), config).unwrap();
        let report = run_pipeline(&ctx, ImplKind::DagParallel).unwrap();
        let dag = report.dag.expect("DAG runs carry a schedule report");
        assert!(
            dag.dag_makespan <= dag.barrier_makespan,
            "event {event_index}: dag {:?} > barrier {:?}",
            dag.dag_makespan,
            dag.barrier_makespan
        );
        assert!(dag.critical_path_len <= dag.dag_makespan);
        std::fs::remove_dir_all(&base).unwrap();
    }
}

#[test]
fn single_station_event_works_end_to_end() {
    let base = std::env::temp_dir().join(format!("arp-it-single-{}", std::process::id()));
    let input = base.join("inputs");
    std::fs::create_dir_all(&input).unwrap();
    let mut event = paper_event(0, 0.004);
    event.stations.truncate(1);
    write_event_inputs(&event, &input).unwrap();

    for kind in ImplKind::ALL {
        let work = base.join(format!("w-{kind:?}"));
        let ctx = RunContext::new(&input, &work, fast_config()).unwrap();
        let report = run_pipeline(&ctx, kind).unwrap();
        assert_eq!(report.v1_files, 1);
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn duhamel_and_nigam_jennings_runs_both_complete() {
    // The two response-spectrum kernels produce numerically different R
    // files (different integration), but both pipelines must complete and
    // the Duhamel one is never *less* expensive.
    use arp_core::ProcessId;
    use arp_dsp::respspec::ResponseMethod;
    let (base, input) = setup("kernels", 0, 0.004);
    let mut p16_times = Vec::new();
    for method in [ResponseMethod::NigamJennings, ResponseMethod::Duhamel] {
        let mut config = fast_config();
        config.response_method = method;
        let work = base.join(format!("w-{method:?}"));
        let ctx = RunContext::new(&input, &work, config).unwrap();
        let report = run_pipeline(&ctx, ImplKind::SequentialOptimized).unwrap();
        p16_times.push(report.process_time(ProcessId(16)).unwrap());
    }
    // The O(D²)-per-period kernel is more expensive than the O(D)
    // recurrence on the same records. The exact ratio varies with host
    // core count and load, so only the direction is asserted.
    assert!(
        p16_times[1] > p16_times[0],
        "Duhamel {:?} should dwarf Nigam-Jennings {:?} on process #16",
        p16_times[1],
        p16_times[0]
    );
    std::fs::remove_dir_all(&base).unwrap();
}

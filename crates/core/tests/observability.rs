//! Telemetry contract tests: recording must never change the search, and
//! the deterministic variants must produce byte-identical event streams
//! for a fixed seed.

use std::sync::Arc;
use tsmo_core::{Clock, ParallelVariant, RunOptions, TsmoConfig, TsmoOutcome};
use tsmo_obs::metrics::names;
use tsmo_obs::{parse_events_jsonl, MemoryRecorder, Recorder, SearchEvent};
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::Instance;

fn inst() -> Arc<Instance> {
    Arc::new(GeneratorConfig::new(InstanceClass::R1, 30, 7).build())
}

fn cfg() -> TsmoConfig {
    TsmoConfig {
        max_evaluations: 3_000,
        neighborhood_size: 60,
        stagnation_limit: 20,
        ..TsmoConfig::default()
    }
}

/// Runs `variant` on the virtual clock with `recorder` attached.
fn on_virtual_clock(
    variant: ParallelVariant,
    inst: &Arc<Instance>,
    cfg: &TsmoConfig,
    recorder: Arc<dyn Recorder>,
) -> TsmoOutcome {
    variant.run_opts(
        inst,
        cfg,
        RunOptions {
            recorder,
            clock: Clock::Virtual { speeds: None },
            ..RunOptions::default()
        },
    )
}

fn fronts(out: &TsmoOutcome) -> Vec<[f64; 3]> {
    out.archive
        .iter()
        .map(|e| e.objectives.to_vector())
        .collect()
}

#[test]
fn noop_and_recording_runs_are_identical_sequential() {
    let inst = inst();
    let plain = ParallelVariant::Sequential.run(&inst, &cfg());
    let recorder = MemoryRecorder::shared();
    let recorded = ParallelVariant::Sequential.run_with(
        &inst,
        &cfg(),
        Arc::clone(&recorder) as Arc<dyn Recorder>,
    );
    assert_eq!(plain.evaluations, recorded.evaluations);
    assert_eq!(plain.iterations, recorded.iterations);
    assert_eq!(fronts(&plain), fronts(&recorded));
    // And the recorder actually saw the run.
    assert_eq!(
        recorder.metrics().counter(names::EVALUATIONS),
        recorded.evaluations
    );
    assert!(recorder.event_count() > 0);
}

#[test]
fn noop_and_recording_runs_are_identical_for_every_sim_variant() {
    let inst = inst();
    for variant in [
        ParallelVariant::Synchronous(3),
        ParallelVariant::Asynchronous(3),
        ParallelVariant::Collaborative(3),
    ] {
        let plain = on_virtual_clock(variant, &inst, &cfg(), tsmo_obs::noop());
        let recorder = MemoryRecorder::shared();
        let recorded = on_virtual_clock(
            variant,
            &inst,
            &cfg(),
            Arc::clone(&recorder) as Arc<dyn Recorder>,
        );
        assert_eq!(plain.evaluations, recorded.evaluations, "{variant:?}");
        assert_eq!(plain.iterations, recorded.iterations, "{variant:?}");
        assert_eq!(fronts(&plain), fronts(&recorded), "{variant:?}");
        assert!(recorder.event_count() > 0, "{variant:?} emitted no events");
    }
}

/// The determinism proof: with a fixed seed and a fixed virtual evaluation
/// cost, two recorded asynchronous runs on the virtual clock produce
/// byte-identical JSONL event streams, and the same front as an unrecorded
/// run. (The threaded
/// async variant interleaves events by wall-clock timing, so the proof
/// uses the virtual clock, which runs the same algorithm.)
#[test]
fn sim_async_event_stream_is_byte_identical_across_runs() {
    let inst = inst();
    let async3 = ParallelVariant::Asynchronous(3);
    let noop_run = on_virtual_clock(async3, &inst, &cfg(), tsmo_obs::noop());
    let (r1, r2) = (MemoryRecorder::shared(), MemoryRecorder::shared());
    let rec1 = on_virtual_clock(async3, &inst, &cfg(), Arc::clone(&r1) as Arc<dyn Recorder>);
    let rec2 = on_virtual_clock(async3, &inst, &cfg(), Arc::clone(&r2) as Arc<dyn Recorder>);

    assert_eq!(
        fronts(&noop_run),
        fronts(&rec1),
        "recording changed the search"
    );
    assert_eq!(fronts(&rec1), fronts(&rec2));
    let (jsonl1, jsonl2) = (r1.events_jsonl(), r2.events_jsonl());
    assert!(!jsonl1.is_empty());
    assert_eq!(jsonl1, jsonl2, "event streams must be byte-identical");
}

/// tsmo-trace determinism: with a fixed seed, a fixed virtual evaluation
/// cost, an explicit trace id, and timeline sampling on, repeated runs
/// produce byte-identical span + timeline streams — the span layer adds
/// no wall-clock-dependent bytes to the deterministic stream.
#[test]
fn span_and_timeline_streams_are_byte_identical_across_runs() {
    let inst = inst();
    let trace_id = tsmo_obs::trace_id_from_seed(7);
    let traced_cfg = || TsmoConfig {
        trace_id: Some(trace_id),
        timeline_every: Some(500),
        ..cfg()
    };
    let (r1, r2) = (
        Arc::new(MemoryRecorder::new().with_span_events()),
        Arc::new(MemoryRecorder::new().with_span_events()),
    );
    for r in [&r1, &r2] {
        let recorder = Arc::clone(r) as Arc<dyn Recorder>;
        on_virtual_clock(
            ParallelVariant::Asynchronous(3),
            &inst,
            &traced_cfg(),
            recorder,
        );
    }
    let (jsonl1, jsonl2) = (r1.events_jsonl(), r2.events_jsonl());
    assert!(!jsonl1.is_empty());
    assert_eq!(
        jsonl1, jsonl2,
        "span + timeline streams must be byte-identical"
    );

    let events = r1.events();
    let mut open: Vec<u64> = Vec::new();
    let mut saw_sample = false;
    for ev in &events {
        match &ev.event {
            SearchEvent::SpanEnter { trace, span, .. } => {
                assert_eq!(*trace, trace_id);
                open.push(*span);
            }
            SearchEvent::SpanExit { trace, span, .. } => {
                assert_eq!(*trace, trace_id);
                assert!(
                    open.contains(span),
                    "span {span} exited without a matching enter"
                );
                open.retain(|s| s != span);
            }
            SearchEvent::FrontSample { evaluations, .. } => {
                saw_sample = true;
                assert!(*evaluations > 0);
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "spans left open: {open:?}");
    assert!(saw_sample, "no timeline samples were recorded");
}

/// The default recorder keeps the pre-span stream: span markers are
/// opt-in, but the wall-time profile folds either way.
#[test]
fn default_stream_has_no_span_events_but_the_profile_still_folds() {
    let inst = inst();
    let recorder = MemoryRecorder::shared();
    ParallelVariant::Sequential.run_with(&inst, &cfg(), Arc::clone(&recorder) as Arc<dyn Recorder>);
    assert!(
        !recorder.events().iter().any(|e| matches!(
            e.event,
            SearchEvent::SpanEnter { .. } | SearchEvent::SpanExit { .. }
        )),
        "span events must be opt-in"
    );
    let profile = recorder.profile();
    for phase in [
        "search",
        "construct",
        "tabu",
        "select",
        "archive",
        "evaluate",
    ] {
        let stat = profile
            .get(phase)
            .unwrap_or_else(|| panic!("phase {phase:?} missing from the profile"));
        assert!(stat.calls > 0, "{phase} recorded no calls");
        assert!(stat.seconds >= 0.0);
    }
    // The root span covers the whole run, so every child phase's wall
    // time is bounded by it.
    let root = profile["search"].seconds;
    for phase in ["construct", "tabu", "select", "archive", "evaluate"] {
        assert!(
            profile[phase].seconds <= root,
            "{phase} outlived the root span"
        );
    }
}

#[test]
fn recorded_events_round_trip_through_jsonl() {
    let inst = inst();
    let recorder = MemoryRecorder::shared();
    let recorder_dyn = Arc::clone(&recorder) as Arc<dyn Recorder>;
    on_virtual_clock(
        ParallelVariant::Asynchronous(3),
        &inst,
        &cfg(),
        recorder_dyn,
    );
    let parsed = parse_events_jsonl(&recorder.events_jsonl()).expect("stream parses back");
    assert_eq!(parsed, recorder.events());
    // The stream covers the event families the async runtime emits.
    let has = |pred: fn(&SearchEvent) -> bool| parsed.iter().any(|e| pred(&e.event));
    assert!(has(|e| matches!(e, SearchEvent::Iteration { .. })));
    assert!(has(|e| matches!(e, SearchEvent::WorkerTask { .. })));
    assert!(has(|e| matches!(e, SearchEvent::WorkerResult { .. })));
    assert!(has(|e| matches!(e, SearchEvent::ArchiveInsert { .. })));
}

#[test]
fn collaborative_sim_records_exchange_traffic() {
    let inst = inst();
    let recorder = MemoryRecorder::shared();
    let cfg = TsmoConfig {
        max_evaluations: 4_000,
        neighborhood_size: 40,
        stagnation_limit: 5, // leave the initial phase quickly
        ..TsmoConfig::default()
    };
    let recorder_dyn = Arc::clone(&recorder) as Arc<dyn Recorder>;
    on_virtual_clock(ParallelVariant::Collaborative(3), &inst, &cfg, recorder_dyn);
    let metrics = recorder.metrics();
    let sent = metrics.counter(names::EXCHANGE_SENT);
    let received = metrics.counter(names::EXCHANGE_RECEIVED);
    assert!(sent > 0, "no archive-improving solution was ever exchanged");
    assert!(received <= sent, "cannot receive more than was sent");
    // Every send and receive became an event tagged with its searcher.
    let events = recorder.events();
    let exchanges = events
        .iter()
        .filter(|e| matches!(e.event, SearchEvent::Exchange { .. }))
        .count() as u64;
    assert_eq!(exchanges, sent + received);
}

#[test]
fn threaded_variants_accept_a_recorder_and_count_evaluations() {
    let inst = inst();
    let base = cfg();
    for variant in [
        ParallelVariant::Sequential,
        ParallelVariant::Synchronous(3),
        ParallelVariant::Asynchronous(3),
        ParallelVariant::Collaborative(3),
    ] {
        let recorder = MemoryRecorder::shared();
        let out = variant.run_with(&inst, &base, Arc::clone(&recorder) as Arc<dyn Recorder>);
        let metrics = recorder.metrics();
        assert_eq!(
            metrics.counter(names::EVALUATIONS),
            out.evaluations,
            "{variant:?} did not count every evaluation"
        );
        assert!(metrics.counter(names::ITERATIONS) > 0, "{variant:?}");
        let prom = recorder.prometheus();
        assert!(prom.contains("tsmo_runtime_seconds"), "{variant:?}");
        assert!(
            prom.contains("tsmo_worker_busy_fraction"),
            "{variant:?} reported no utilization"
        );
    }
}

//! General-purpose solver CLI: load (or generate) an instance, run any of
//! the algorithm variants, print the Pareto front, and optionally export
//! the solutions.
//!
//! ```text
//! cargo run --release -p bench --bin solve -- [FILE]
//!     [--variant seq|sync|async|coll|hybrid|nsga2] [--procs P]
//!     [--searchers S] [--evals E] [--seed S] [--class R1] [--size N]
//!     [--out solutions.txt] [--metrics-out metrics.txt]
//!     [--events-out events.jsonl] [--profile-out profile.json]
//!     [--span-events] [--timeline-every K]
//!     [--fault-seed S] [--fault-rate R]
//!     [--deadline-ms D] [--cancel-after-iters K]
//! ```
//!
//! With a FILE argument the instance is parsed from Solomon format;
//! otherwise one is generated from `--class`/`--size`/`--seed`.
//! The front is checked with [`tsmo_core::verify_front`] after it is
//! printed; a failing front exits 1 with the reason on stderr.
//!
//! `--metrics-out` writes the run's metrics in Prometheus text exposition
//! (and prints a human-readable summary on stderr); `--events-out` writes
//! the structured JSONL event stream (see the `tsmo-obs` crate). All
//! apply to the TSMO variants; the `hybrid` and `nsga2` baselines are not
//! instrumented.
//!
//! `--profile-out` writes the folded span profile — wall seconds and
//! call counts per search phase — as one JSON document.
//! `--span-events` additionally records span enter/exit markers in the
//! `--events-out` stream (off by default to keep the default stream a
//! byte-stable prefix under truncation); `--timeline-every K` samples
//! the live archive's hypervolume and coverage every `K` evaluations
//! into the event stream as `front_sample` events.
//!
//! `--deadline-ms D` stops the run after `D` milliseconds of wall clock;
//! `--cancel-after-iters K` stops it deterministically after `K`
//! iterations. Both use the same cooperative [`tsmo_core::CancelToken`]
//! the solver service threads into every job: the run ends at an
//! iteration boundary and the best-so-far front is printed as a valid,
//! truncated result (the cause lands on stderr). TSMO variants only —
//! the `hybrid` and `nsga2` baselines reject the flags.
//!
//! `--fault-rate R` (with an optional `--fault-seed S`, default 0) arms
//! deterministic chaos: worker tasks panic or stall and exchange messages
//! drop or lag at the given per-site rate (see the `tsmo-faults` crate),
//! and the self-healing runtime must absorb it. Applies to the `async`
//! and `coll` variants; the others have no fault surface and reject it.
//! Recovery totals (`tsmo_tasks_resent_total` etc.) land in
//! `--metrics-out`.

use moea::{Nsga2, Nsga2Config};
use std::sync::Arc;
use tsmo_core::{
    verify_front, CancelToken, Clock, FrontEntry, HybridTsmo, ParallelVariant, RunOptions,
    TsmoConfig,
};
use tsmo_faults::{FaultConfig, FaultHook, FaultPlan};
use tsmo_obs::{MemoryRecorder, Recorder};
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::solomon;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let file = args.first().filter(|a| !a.starts_with("--")).cloned();
    let variant = get("--variant").unwrap_or_else(|| "seq".into());
    let procs: usize = get("--procs").map_or(4, |s| s.parse().expect("--procs"));
    let searchers: usize = get("--searchers").map_or(4, |s| s.parse().expect("--searchers"));
    let evals: u64 = get("--evals").map_or(50_000, |s| s.parse().expect("--evals"));
    let seed: u64 = get("--seed").map_or(0, |s| s.parse().expect("--seed"));
    let fault_seed: u64 = get("--fault-seed").map_or(0, |s| s.parse().expect("--fault-seed"));
    let fault_rate: f64 = get("--fault-rate").map_or(0.0, |s| s.parse().expect("--fault-rate"));
    let deadline_ms: Option<u64> = get("--deadline-ms").map(|s| s.parse().expect("--deadline-ms"));
    let cancel_after_iters: Option<u64> =
        get("--cancel-after-iters").map(|s| s.parse().expect("--cancel-after-iters"));
    if (deadline_ms.is_some() || cancel_after_iters.is_some())
        && matches!(variant.as_str(), "hybrid" | "nsga2")
    {
        panic!("--deadline-ms/--cancel-after-iters apply to the TSMO variants only");
    }
    let cancel = CancelToken::with_limits(
        deadline_ms.map(std::time::Duration::from_millis),
        cancel_after_iters,
    );
    assert!(
        (0.0..=1.0).contains(&fault_rate),
        "--fault-rate must be in [0, 1]"
    );
    let fault_plan: Option<Arc<FaultPlan>> =
        (fault_rate > 0.0).then(|| FaultPlan::shared(FaultConfig::uniform(fault_seed, fault_rate)));
    if fault_plan.is_some() {
        assert!(
            matches!(variant.as_str(), "async" | "coll"),
            "--fault-rate applies to the async and coll variants only"
        );
        // Injected worker panics are expected events, not crashes: keep the
        // default hook from printing a backtrace per fault, but let every
        // other panic through untouched.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected fault:"));
            if !injected {
                default_hook(info);
            }
        }));
    }
    let faults: Arc<dyn FaultHook> = fault_plan
        .clone()
        .map_or_else(tsmo_faults::none, |p| p as Arc<dyn FaultHook>);

    let inst = Arc::new(match &file {
        Some(path) => solomon::read_file(path).expect("failed to parse Solomon file"),
        None => {
            let class = match get("--class").as_deref() {
                None | Some("R1") => InstanceClass::R1,
                Some("R2") => InstanceClass::R2,
                Some("C1") => InstanceClass::C1,
                Some("C2") => InstanceClass::C2,
                Some("RC1") => InstanceClass::RC1,
                Some("RC2") => InstanceClass::RC2,
                Some(other) => panic!("unknown class {other:?}"),
            };
            let size: usize = get("--size").map_or(100, |s| s.parse().expect("--size"));
            GeneratorConfig::new(class, size, seed).build()
        }
    });
    eprintln!(
        "instance {}: {} customers, R = {}, capacity = {}",
        inst.name,
        inst.n_customers(),
        inst.max_vehicles(),
        inst.capacity()
    );

    let metrics_out = get("--metrics-out");
    let events_out = get("--events-out");
    let profile_out = get("--profile-out");
    let span_events = args.iter().any(|a| a == "--span-events");
    let timeline_every: Option<u64> =
        get("--timeline-every").map(|s| s.parse().expect("--timeline-every"));
    let memory =
        (metrics_out.is_some() || events_out.is_some() || profile_out.is_some()).then(|| {
            let recorder = MemoryRecorder::new();
            Arc::new(if span_events {
                recorder.with_span_events()
            } else {
                recorder
            })
        });
    let recorder: Arc<dyn Recorder> = memory
        .clone()
        .map_or_else(tsmo_obs::noop, |m| m as Arc<dyn Recorder>);
    if memory.is_some() && matches!(variant.as_str(), "hybrid" | "nsga2") {
        eprintln!("note: the {variant} baseline is not instrumented; telemetry will be empty");
    }

    let cfg = TsmoConfig {
        max_evaluations: evals,
        seed,
        timeline_every,
        ..TsmoConfig::default()
    };
    let opts = RunOptions {
        recorder,
        faults,
        cancel: cancel.clone(),
        clock: Clock::Wall,
    };
    let run = |v: ParallelVariant| v.run_opts(&inst, &cfg, opts).archive;
    let front: Vec<FrontEntry> = match variant.as_str() {
        "seq" => run(ParallelVariant::Sequential),
        "sync" => run(ParallelVariant::Synchronous(procs)),
        "async" => run(ParallelVariant::Asynchronous(procs)),
        "coll" => run(ParallelVariant::Collaborative(searchers)),
        "hybrid" => {
            HybridTsmo::new(cfg.clone(), searchers, procs)
                .run(&inst)
                .archive
        }
        "nsga2" => {
            Nsga2::new(Nsga2Config {
                max_evaluations: evals,
                seed,
                ..Default::default()
            })
            .run(&inst, &cancel)
            .archive
        }
        other => panic!("unknown variant {other:?} (seq|sync|async|coll|hybrid|nsga2)"),
    };

    if let Some(cause) = cancel.cause() {
        eprintln!(
            "run truncated: {} (best-so-far front below)",
            cause.as_str()
        );
    }

    if let Some(plan) = &fault_plan {
        let s = plan.stats();
        eprintln!(
            "chaos: injected {} faults ({} panics, {} stalls, {} late, {} drops, {} delays); \
             the run above survived them",
            s.total(),
            s.task_panics,
            s.task_stalls,
            s.task_lates,
            s.exchange_drops,
            s.exchange_delays
        );
    }

    if let Some(memory) = &memory {
        if let Some(path) = &metrics_out {
            std::fs::write(path, memory.prometheus()).expect("failed to write metrics");
            eprintln!("wrote {path}");
        }
        if let Some(path) = &events_out {
            std::fs::write(path, memory.events_jsonl()).expect("failed to write events");
            eprintln!("wrote {path} ({} events)", memory.event_count());
        }
        if let Some(path) = &profile_out {
            std::fs::write(path, memory.profile_json()).expect("failed to write profile");
            eprintln!("wrote {path}");
        }
        eprint!("{}", memory.summary());
    }

    println!("{:>12} {:>9} {:>11}", "distance", "vehicles", "tardiness");
    let mut rows: Vec<_> = front.iter().map(|e| e.objectives).collect();
    rows.sort_by(|a, b| a.distance.partial_cmp(&b.distance).expect("not NaN"));
    for o in &rows {
        println!(
            "{:>12.2} {:>9} {:>11.2}",
            o.distance, o.vehicles, o.tardiness
        );
    }

    if let Some(path) = get("--out") {
        let mut text = String::new();
        for (i, e) in front.iter().enumerate() {
            let o = e.objectives;
            text.push_str(&format!(
                "# solution {i}: distance {:.2}, vehicles {}, tardiness {:.2}\n",
                o.distance, o.vehicles, o.tardiness
            ));
            for (ri, route) in e.solution.routes().iter().enumerate() {
                let stops: Vec<String> = route.iter().map(|c| c.to_string()).collect();
                text.push_str(&format!("route {ri}: 0 {} 0\n", stops.join(" ")));
            }
            text.push('\n');
        }
        std::fs::write(&path, text).expect("failed to write solutions");
        eprintln!("wrote {path}");
    }
    if let Err(e) = verify_front(&inst, &front) {
        eprintln!("solve: front failed verification: {e}");
        std::process::exit(1);
    }
}

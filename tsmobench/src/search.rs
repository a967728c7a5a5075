//! The search workloads: whole TSMO solves at paper settings, one after
//! another on one process, for as long as the run lasts.

use crate::driver::{drive, same_archive, Counts, Times};
use crate::report::{ratio, Report};
use crate::verify::{check_front, from_entries, Tally};
use crate::workload::{derive, inputs, GenerationTimes, Input, Workload};
use crate::{end_to_end, layer_metrics, repeated_setup, Layers, Options, REPLAYED};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsmo_core::{ParallelVariant, TsmoConfig};
use tsmo_obs::metrics::names;
use tsmo_obs::MemoryRecorder;

/// Paper settings (§IV): 100,000 evaluations, neighborhood 200.
pub fn paper_config(seed: u64) -> TsmoConfig {
    TsmoConfig::default().with_seed(seed)
}

/// Evaluations of the warm-up solve made during set-up.
const WARM_UP_EVALUATIONS: u64 = 4_000;

fn variant(workload: Workload) -> ParallelVariant {
    match workload {
        Workload::SearchAsyncC2 => ParallelVariant::Asynchronous(2),
        _ => ParallelVariant::Sequential,
    }
}

/// Solves a run makes at least, and over which `front_hv` is averaged, so
/// that front quality does not depend on how many solves fit in the run.
/// C2-400 fronts vary more between instances and its solves are shorter.
fn quality_solves(workload: Workload) -> usize {
    match workload {
        Workload::SearchR1 => 4,
        _ => 12,
    }
}

/// The search seed of solve `i` of a run.
fn solve_seed(seed: u64, i: usize) -> u64 {
    derive(seed, 100 + i as u64)
}

/// Generates the inputs and warms the search up with one short solve.
fn set_up(workload: Workload, seed: u64) -> (Vec<Input>, GenerationTimes) {
    let (inputs, times) = inputs(workload, seed);
    let warm = TsmoConfig {
        max_evaluations: WARM_UP_EVALUATIONS,
        ..paper_config(derive(seed, 99))
    };
    std::hint::black_box(variant(workload).run(&inputs[0].inst, &warm));
    (inputs, times)
}

/// One verified solve: its latency, evaluations and hypervolume.
struct Solve {
    seconds: f64,
    evaluations: u64,
    hypervolume: f64,
}

fn solve_and_check(
    v: ParallelVariant,
    input: &Input,
    cfg: &TsmoConfig,
    recorder: Option<&Arc<MemoryRecorder>>,
    tally: &mut Tally,
) -> Solve {
    let started = Instant::now();
    let out = match recorder {
        Some(r) => v.run_with(
            &input.inst,
            cfg,
            Arc::clone(r) as Arc<dyn tsmo_obs::Recorder>,
        ),
        None => v.run(&input.inst, cfg),
    };
    let seconds = started.elapsed().as_secs_f64();
    let front = from_entries(&out.archive);
    tally.verified(check_front(
        &input.inst,
        &front,
        out.evaluations,
        cfg.max_evaluations,
    ));
    let vectors: Vec<[f64; 3]> = front.iter().map(|m| m.objectives).collect();
    Solve {
        seconds,
        evaluations: out.evaluations,
        hypervolume: input.normalized_hypervolume(&vectors),
    }
}

/// Runs a search workload.
pub fn run(workload: Workload, opts: &Options) -> Result<Report, String> {
    let ((inputs, generation), setup_s) = repeated_setup(|| Ok(set_up(workload, opts.seed)), drop)?;
    if opts.trace {
        return Ok(traced(workload, opts, &inputs, generation));
    }
    let v = variant(workload);
    let quality = quality_solves(workload);
    let mut tally = Tally::default();
    let mut solves = Vec::new();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(opts.seconds);
    while solves.len() < quality || Instant::now() < deadline {
        let i = solves.len();
        let cfg = paper_config(solve_seed(opts.seed, i));
        solves.push(solve_and_check(
            v,
            &inputs[i % inputs.len()],
            &cfg,
            None,
            &mut tally,
        ));
    }
    let wall = started.elapsed().as_secs_f64();
    let latencies: Vec<f64> = solves.iter().map(|s| s.seconds * 1e3).collect();
    let solve_seconds: f64 = solves.iter().map(|s| s.seconds).sum();
    let evaluations: u64 = solves.iter().map(|s| s.evaluations).sum();
    let hv = solves[..quality].iter().map(|s| s.hypervolume).sum::<f64>() / quality as f64;
    Ok(Report {
        correct: tally.wrong == 0,
        metrics: end_to_end(setup_s, evaluations as f64 / solve_seconds, hv, &latencies),
        notes: vec![format!(
            "{} solves of {} evaluations on {} instances in {:.1} s",
            solves.len(),
            paper_config(0).max_evaluations,
            inputs.len().min(solves.len()),
            wall
        )],
        tally,
    })
}

/// What the outside-in driver measured over one or more driven solves,
/// each paired with a library solve of the same seed.
#[derive(Default)]
pub struct Probe {
    /// Summed work counts.
    pub counts: Counts,
    /// Summed layer times.
    pub times: Times,
    /// Driven solves.
    pub solves: u64,
    /// Evaluations and seconds of the library solves.
    pub library_evaluations: u64,
    /// See `library_evaluations`.
    pub library_seconds: f64,
    /// Evaluations of the driven solves.
    pub driven_evaluations: u64,
    /// First archive mismatch between driver and library, if any.
    pub mismatch: Option<String>,
}

impl Probe {
    /// Library (untraced) evaluations per second.
    pub fn library_rate(&self) -> f64 {
        ratio(self.library_evaluations as f64, self.library_seconds)
    }

    /// Driven (traced) evaluations per second.
    pub fn driven_rate(&self) -> f64 {
        ratio(self.driven_evaluations as f64, self.times.total)
    }
}

/// Pairs a library sequential solve with a driven solve of the same seed
/// until `deadline`, and at least `min_solves` times. Every driven archive
/// is verified and compared with the library's.
pub fn probe(
    inputs: &[Input],
    cfg_of: impl Fn(usize) -> TsmoConfig,
    deadline: Instant,
    min_solves: usize,
    tally: &mut Tally,
) -> Probe {
    let mut p = Probe::default();
    let mut i = 0;
    while i < min_solves || Instant::now() < deadline {
        let input = &inputs[i % inputs.len()];
        let cfg = cfg_of(i);
        let started = Instant::now();
        let library = ParallelVariant::Sequential.run(&input.inst, &cfg);
        p.library_seconds += started.elapsed().as_secs_f64();
        p.library_evaluations += library.evaluations;
        let run = drive(&input.inst, &cfg);
        tally.verified(check_front(
            &input.inst,
            &from_entries(&run.archive),
            run.evaluations,
            cfg.max_evaluations,
        ));
        if let Err(e) = same_archive(&run.archive, &library.archive) {
            p.mismatch
                .get_or_insert(format!("driver vs library, solve {i}: {e}"));
        }
        p.counts.add(&run.counts);
        p.times.add(&run.times);
        p.driven_evaluations += run.evaluations;
        p.solves += 1;
        i += 1;
    }
    p
}

fn traced(
    workload: Workload,
    opts: &Options,
    inputs: &[Input],
    generation: GenerationTimes,
) -> Report {
    let mut tally = Tally::default();
    let started = Instant::now();
    let mut layers = Layers::default();
    let mut notes = Vec::new();
    if workload == Workload::SearchAsyncC2 {
        // Half the run pairs untraced asynchronous solves with solves
        // recorded through a metrics-only registry; the other half drives
        // the same solves' search work sequentially from outside.
        let v = variant(workload);
        let half = started + Duration::from_secs_f64(opts.seconds / 2.0);
        let (mut plain, mut recorded) = ((0u64, 0.0), (0u64, 0.0));
        let (mut busy, mut stale, mut considered) = (0.0, 0.0, 0.0);
        let mut i = 0;
        while i == 0 || Instant::now() < half {
            let input = &inputs[i % inputs.len()];
            let cfg = paper_config(solve_seed(opts.seed, i));
            let a = solve_and_check(v, input, &cfg, None, &mut tally);
            let recorder = Arc::new(MemoryRecorder::metrics_only());
            let b = solve_and_check(v, input, &cfg, Some(&recorder), &mut tally);
            plain = (plain.0 + a.evaluations, plain.1 + a.seconds);
            recorded = (recorded.0 + b.evaluations, recorded.1 + b.seconds);
            let m = recorder.metrics();
            // Worker 1 is the only worker of a 2-processor run.
            busy += m.gauge(&names::worker_busy_fraction(1)).unwrap_or(0.0);
            stale += m.counter(names::STALE_NEIGHBORS) as f64;
            considered += m.histogram(names::POOL_SIZE).map_or(0.0, |h| h.sum);
            layers.tasks_resent += m.counter(names::TASKS_RESENT) as f64;
            i += 1;
        }
        layers.worker_busy_fraction = busy / i as f64;
        layers.stale_neighbor_ratio = ratio(stale, considered);
        let rate = |(e, s): (u64, f64)| ratio(e as f64, s);
        layers.overhead_pct = 100.0 * (1.0 - ratio(rate(recorded), rate(plain)));
        notes.push(format!(
            "{i} asynchronous solve pairs, untraced and recorded; deme.* from the recorded ones"
        ));
    }
    let p = probe(
        inputs,
        |i| paper_config(solve_seed(opts.seed, i)),
        started + Duration::from_secs_f64(opts.seconds),
        1,
        &mut tally,
    );
    if workload != Workload::SearchAsyncC2 {
        layers.overhead_pct = 100.0 * (1.0 - ratio(p.driven_rate(), p.library_rate()));
    }
    notes.push(format!(
        "{} driven solves, each paired with a library solve of the same seed",
        p.solves
    ));
    notes.push(REPLAYED.to_string());
    if let Some(m) = &p.mismatch {
        tally.messages.push(m.clone());
    }
    Report {
        correct: tally.wrong == 0 && p.mismatch.is_none(),
        metrics: layer_metrics(&p, generation, inputs.len(), &layers),
        notes,
        tally,
    }
}

//! The outside-in sequential driver: Algorithm 1 re-driven through the
//! library's public calls, with every layer timed from outside.
//!
//! It makes the same calls in the same order as `SequentialTsmo` —
//! `SearchCore::new`, `chunk_seeds`, `sample_move`, `Solution::patched`,
//! `Move::arcs_created` / `arcs_removed`, then `SearchCore::step` — so for
//! one seed its archive equals `ParallelVariant::Sequential.run` (checked
//! by every traced run and by the tests). No library code is instrumented:
//! the time of the sample/filter loop is the chunk's wall time minus the
//! timed neighbor-building calls, and the costs of `Move::expand`,
//! `EvaluatedSolution::preview` and `Move::arc_delta`, which run inside
//! `sample_move`, are measured by calling them a second time on each
//! accepted candidate ("replayed").

use crate::alloc::thread_allocations;
use detrand::Xoshiro256StarStar;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tsmo_core::{FrontEntry, Neighbor, SearchCore, TsmoConfig};
use tsmo_obs::Recorder;
use vrptw::Instance;
use vrptw_operators::{sample_move, SampleParams};

/// Work counts of one driven run. Deterministic for a given instance,
/// configuration and build, so two runs must agree exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `sample_move` calls.
    pub draws: u64,
    /// Draws that returned no candidate (rejected by the operator, the
    /// arc feasibility filter or the capacity check).
    pub failed_draws: u64,
    /// Neighbors built (accepted candidates).
    pub neighbors: u64,
    /// Customers on the routes `preview` re-simulated for the accepted
    /// candidates.
    pub sites_resimulated: u64,
    /// Customers copied by `Solution::patched` to materialize neighbors.
    pub materialized_sites: u64,
    /// Heap allocations on the driving thread, replays excluded.
    pub allocations: u64,
    /// `SearchCore::step` calls.
    pub iterations: u64,
    /// Steps that restarted from memory.
    pub restarts: u64,
}

impl Counts {
    /// Adds another run's counts into this one.
    pub fn add(&mut self, o: &Counts) {
        self.draws += o.draws;
        self.failed_draws += o.failed_draws;
        self.neighbors += o.neighbors;
        self.sites_resimulated += o.sites_resimulated;
        self.materialized_sites += o.materialized_sites;
        self.allocations += o.allocations;
        self.iterations += o.iterations;
        self.restarts += o.restarts;
    }
}

/// Wall time, in seconds, spent in each layer of one driven run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Times {
    /// The whole run, `SearchCore::new` to `finish`, replays included.
    pub total: f64,
    /// The draw loop: `sample_move` calls and the loop around them.
    pub sample: f64,
    /// `Solution::patched` on accepted candidates.
    pub materialize: f64,
    /// `arcs_created` + `arcs_removed` on accepted candidates.
    pub neighbor_arcs: f64,
    /// `SearchCore::step`.
    pub step: f64,
    /// The `tabu`, `select` and `archive` spans of the library's span
    /// profiler, inside `step`.
    pub step_tabu: f64,
    /// See `step_tabu`.
    pub step_select: f64,
    /// See `step_tabu`.
    pub step_archive: f64,
    /// Replayed `Move::expand`.
    pub replay_expand: f64,
    /// Replayed `EvaluatedSolution::preview`.
    pub replay_preview: f64,
    /// Replayed `Move::arc_delta`.
    pub replay_arc_delta: f64,
    /// All replay work, timers included.
    pub replay: f64,
}

impl Times {
    /// Adds another run's times into this one.
    pub fn add(&mut self, o: &Times) {
        self.total += o.total;
        self.sample += o.sample;
        self.materialize += o.materialize;
        self.neighbor_arcs += o.neighbor_arcs;
        self.step += o.step;
        self.step_tabu += o.step_tabu;
        self.step_select += o.step_select;
        self.step_archive += o.step_archive;
        self.replay_expand += o.replay_expand;
        self.replay_preview += o.replay_preview;
        self.replay_arc_delta += o.replay_arc_delta;
        self.replay += o.replay;
    }
}

/// What one driven run returns.
pub struct DriverRun {
    /// The final archive.
    pub archive: Vec<FrontEntry>,
    /// Evaluations consumed.
    pub evaluations: u64,
    /// Work counts.
    pub counts: Counts,
    /// Layer times.
    pub times: Times,
}

/// Folds the step-phase spans of the library's span profiler. It records
/// nothing else and never allocates, so attaching it leaves the
/// allocation count and the search itself unchanged.
#[derive(Default)]
struct StepSpans {
    nanos: [AtomicU64; 3],
}

impl Recorder for StepSpans {
    fn profiling(&self) -> bool {
        true
    }

    fn span_end(&self, name: &'static str, _trace: u64, _span: u64, wall_seconds: f64) {
        let slot = match name {
            "tabu" => 0,
            "select" => 1,
            "archive" => 2,
            _ => return,
        };
        self.nanos[slot].fetch_add((wall_seconds * 1e9) as u64, Ordering::Relaxed);
    }
}

fn seconds(nanos: &AtomicU64) -> f64 {
    nanos.load(Ordering::Relaxed) as f64 * 1e-9
}

/// Runs Algorithm 1 on `inst` under `cfg`, from outside.
pub fn drive(inst: &Arc<Instance>, cfg: &TsmoConfig) -> DriverRun {
    let started = Instant::now();
    let allocs_before = thread_allocations();
    let spans = Arc::new(StepSpans::default());
    let mut core = SearchCore::with_recorder(
        Arc::clone(inst),
        cfg.clone(),
        Xoshiro256StarStar::seed_from_u64(cfg.seed),
        Arc::clone(&spans) as Arc<dyn Recorder>,
        0,
    );
    let params = SampleParams {
        feasibility: cfg.feasibility_criterion,
    };
    let sizes = cfg.chunk_sizes();
    let mut counts = Counts::default();
    let mut t = Times::default();
    let mut replay_allocs = 0u64;
    let mut consumed = 0u64;
    while consumed < cfg.max_evaluations {
        let seeds = core.chunk_seeds();
        let mut pool: Vec<Neighbor> = Vec::with_capacity(cfg.neighborhood_size);
        for (&seed, &size) in seeds.iter().zip(&sizes) {
            let granted = (size as u64).min(cfg.max_evaluations - consumed) as usize;
            if granted == 0 {
                break;
            }
            consumed += granted as u64;
            // The draw loop of `generate_chunk`, with its attempt cap.
            let chunk_started = Instant::now();
            let mut building = 0.0;
            let snapshot = core.current();
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let max_attempts = granted.saturating_mul(60).max(64);
            let mut attempts = 0;
            let mut built = 0;
            while built < granted && attempts < max_attempts {
                attempts += 1;
                counts.draws += 1;
                let Some(c) = sample_move(&mut rng, inst, snapshot, params) else {
                    counts.failed_draws += 1;
                    continue;
                };
                let t0 = Instant::now();
                let solution = snapshot.solution().patched(&c.patch);
                let t1 = Instant::now();
                let arcs_created = c.mv.arcs_created(snapshot);
                let arcs_removed = c.mv.arcs_removed(snapshot);
                let t2 = Instant::now();
                let replay_allocs_before = thread_allocations();
                let patch = black_box(c.mv.expand(snapshot));
                let t3 = Instant::now();
                black_box(snapshot.preview(inst, &c.patch));
                let t4 = Instant::now();
                black_box(c.mv.arc_delta(snapshot));
                let t5 = Instant::now();
                drop(patch);
                replay_allocs += thread_allocations() - replay_allocs_before;
                counts.neighbors += 1;
                counts.sites_resimulated += c
                    .patch
                    .replace
                    .iter()
                    .map(|(_, r)| r)
                    .chain(&c.patch.append)
                    .map(|r| r.len() as u64)
                    .sum::<u64>();
                counts.materialized_sites += solution
                    .routes()
                    .iter()
                    .map(|r| r.len() as u64)
                    .sum::<u64>();
                pool.push(Neighbor {
                    solution,
                    objectives: c.preview.objectives,
                    arcs_created,
                    arcs_removed,
                    operator: c.mv.kind(),
                    created_iteration: core.iteration(),
                });
                built += 1;
                let t6 = Instant::now();
                t.materialize += (t1 - t0).as_secs_f64();
                t.neighbor_arcs += (t2 - t1).as_secs_f64();
                t.replay_expand += (t3 - t2).as_secs_f64();
                t.replay_preview += (t4 - t3).as_secs_f64();
                t.replay_arc_delta += (t5 - t4).as_secs_f64();
                t.replay += (t5 - t2).as_secs_f64();
                building += (t6 - t0).as_secs_f64();
            }
            t.sample += chunk_started.elapsed().as_secs_f64() - building;
        }
        if pool.is_empty() && consumed >= cfg.max_evaluations {
            break;
        }
        let step_started = Instant::now();
        let report = core.step(pool);
        t.step += step_started.elapsed().as_secs_f64();
        counts.iterations += 1;
        counts.restarts += u64::from(report.restarted);
    }
    let (archive, _, _) = core.finish();
    counts.allocations = thread_allocations() - allocs_before - replay_allocs;
    t.total = started.elapsed().as_secs_f64();
    t.step_tabu = seconds(&spans.nanos[0]);
    t.step_select = seconds(&spans.nanos[1]);
    t.step_archive = seconds(&spans.nanos[2]);
    DriverRun {
        archive,
        evaluations: consumed,
        counts,
        times: t,
    }
}

/// Compares a driven archive with the library's, member by member:
/// equal solutions and bit-equal objective vectors, in the same order.
pub fn same_archive(a: &[FrontEntry], b: &[FrontEntry]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("archive sizes differ: {} vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.solution != y.solution || x.objectives.to_vector() != y.objectives.to_vector() {
            return Err(format!("archive member {i} differs"));
        }
    }
    Ok(())
}

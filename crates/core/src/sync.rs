//! The synchronous master–worker variant (§III.C), and with no workers
//! the sequential algorithm (Algorithm 1).
//!
//! "The master sends to each worker the current individual and the number
//! of neighbors to generate … When all neighbors are collected the master
//! continues with the selection and the rest of the iteration." The
//! neighborhood is generated in `cfg.chunks` seed-derived chunks: worker
//! `w` computes chunk `w + 1` while the master computes chunk 0 and every
//! chunk beyond the workers, and the barrier reassembles them in chunk
//! order. The trajectory therefore depends only on the chunk count: the
//! synchronous variant with `P` processors is bit-identical to the
//! sequential algorithm with `cfg.chunks = P` and the same seed, on either
//! clock (tested). Injected faults are ignored: the barrier has no
//! recovery path.

use crate::cancel::CancelToken;
use crate::config::TsmoConfig;
use crate::core_search::SearchCore;
use crate::exec::{Executor, Wait};
use crate::neighborhood::{generate_chunk_tallied, Chunk};
use crate::outcome::TsmoOutcome;
use deme::EvaluationBudget;
use detrand::Xoshiro256StarStar;
use std::sync::Arc;
use tsmo_obs::{metrics::names, Recorder, SearchEvent, Span};
use vrptw::Instance;

/// Runs the synchronous loop over `exec`, which must have fewer workers
/// than `cfg.chunks`. `cancel` is consulted at the top of each iteration,
/// before that iteration's randomness is drawn, so a stopped run is a
/// byte-identical prefix of the unstopped run (see [`CancelToken`]).
pub(crate) fn run_sync(
    mut exec: impl Executor,
    inst: &Arc<Instance>,
    cfg: &TsmoConfig,
    recorder: &Arc<dyn Recorder>,
    cancel: &CancelToken,
) -> TsmoOutcome {
    let budget = EvaluationBudget::new(cfg.max_evaluations);
    let mut core = SearchCore::with_recorder(
        Arc::clone(inst),
        cfg.clone(),
        Xoshiro256StarStar::seed_from_u64(cfg.seed),
        Arc::clone(recorder),
        0,
    );
    let sizes = cfg.chunk_sizes();
    let n_workers = exec.n_workers();
    let mut tally = vrptw_operators::SampleTally::default();
    while !budget.exhausted() && !cancel.should_stop(core.iteration()) {
        let seeds = core.chunk_seeds();
        let iteration = core.iteration();
        // Reserve budget per chunk in chunk order, so every chunk count
        // splits the budget the same way.
        let granted: Vec<usize> = sizes
            .iter()
            .map(|&s| budget.try_consume(s as u64) as usize)
            .collect();
        recorder.counter_add(names::EVALUATIONS, granted.iter().map(|&g| g as u64).sum());
        // Dispatch chunks 1..=workers.
        if n_workers > 0 {
            let _span = Span::enter(recorder, "dispatch", core.trace_id(), core.span_parent());
            for w in 0..n_workers {
                if recorder.enabled() {
                    recorder.event(SearchEvent::WorkerTask {
                        worker: (w + 1) as u32,
                        iteration: iteration as u64,
                        count: granted[w + 1] as u32,
                    });
                }
                exec.dispatch(w, core.current(), seeds[w + 1], granted[w + 1], iteration);
            }
        }
        // The master computes its chunks meanwhile. The "evaluate" span
        // also covers the barrier below: waiting for worker chunks is
        // evaluation time from the master's perspective.
        let eval_span = Span::enter(recorder, "evaluate", core.trace_id(), core.span_parent());
        let mut chunks: Vec<Option<Chunk>> = (0..sizes.len()).map(|_| None).collect();
        for i in std::iter::once(0).chain(n_workers + 1..sizes.len()) {
            chunks[i] = Some(exec.on_master(granted[i], || {
                generate_chunk_tallied(
                    inst,
                    core.current(),
                    seeds[i],
                    granted[i],
                    core.sample_params(),
                    iteration,
                )
            }));
        }
        // Barrier: one result per worker.
        for (w, chunk) in exec.collect(Wait::All, iteration as u64) {
            if recorder.enabled() {
                recorder.event(SearchEvent::WorkerResult {
                    worker: (w + 1) as u32,
                    iteration: iteration as u64,
                    neighbors: chunk.neighbors.len() as u32,
                });
            }
            chunks[w + 1] = Some(chunk);
        }
        let mut neighborhood = Vec::with_capacity(cfg.neighborhood_size);
        for chunk in chunks {
            let chunk = chunk.expect("barrier collected every worker");
            tally.merge(&chunk.tally);
            neighborhood.extend(chunk.neighbors);
        }
        drop(eval_span);
        if neighborhood.is_empty() && budget.exhausted() {
            break;
        }
        exec.on_master(neighborhood.len(), || core.step(neighborhood));
    }
    let runtime_seconds = exec.finish(core.iteration() as u64);
    core.note_tally(&tally);
    let (archive, trace, iterations) = core.finish();
    TsmoOutcome {
        archive,
        evaluations: budget.consumed(),
        iterations,
        runtime_seconds,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use crate::{on_virtual_clock, ParallelVariant, SequentialTsmo, TsmoConfig};
    use std::sync::Arc;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn cfg() -> TsmoConfig {
        TsmoConfig {
            max_evaluations: 2_400,
            neighborhood_size: 60,
            ..TsmoConfig::default()
        }
    }

    fn norm(mut v: Vec<[f64; 3]>) -> Vec<[f64; 3]> {
        v.sort_by(|a, b| a.partial_cmp(b).expect("not NaN"));
        v
    }

    /// The paper's central claim for the synchronous variant: "the behavior
    /// remains unchanged" w.r.t. the sequential algorithm. With the chunked
    /// neighborhood scheme this is exact: same seed, same trajectory, same
    /// front.
    #[test]
    fn bit_identical_to_sequential_with_matching_chunks() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 6).build());
        for p in [2, 3, 4] {
            let seq_cfg = TsmoConfig { chunks: p, ..cfg() }.with_seed(77);
            let seq = SequentialTsmo::new(seq_cfg).run(&inst);
            let par = ParallelVariant::Synchronous(p).run(&inst, &cfg().with_seed(77));
            assert_eq!(seq.iterations, par.iterations, "p = {p}");
            let sv = seq.feasible_vectors();
            let pv = par.feasible_vectors();
            assert_eq!(sv.len(), pv.len(), "p = {p}");
            assert_eq!(norm(sv), norm(pv), "p = {p}: fronts must be identical");
        }
    }

    #[test]
    fn virtual_clock_reproduces_sequential_trajectory() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 6).build());
        for p in [2usize, 3] {
            let mut seq_cfg = cfg().with_seed(7);
            seq_cfg.chunks = p;
            let seq = SequentialTsmo::new(seq_cfg).run(&inst);
            let sim = on_virtual_clock(ParallelVariant::Synchronous(p), &inst, &cfg().with_seed(7));
            assert_eq!(
                norm(seq.feasible_vectors()),
                norm(sim.feasible_vectors()),
                "p = {p}"
            );
            assert_eq!(seq.iterations, sim.iterations);
        }
    }

    #[test]
    fn virtual_clock_shows_speedup() {
        // On ANY host — even single-core — the virtual makespan of the
        // synchronous variant must beat the sequential wall time, because
        // chunk generation dominates and parallelizes.
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 80, 3).build());
        let c = TsmoConfig {
            max_evaluations: 6_000,
            neighborhood_size: 120,
            sim_comm_latency: 0.0001,
            ..TsmoConfig::default()
        };
        let mut seq_cfg = c.clone();
        seq_cfg.chunks = 4;
        let seq = SequentialTsmo::new(seq_cfg).run(&inst);
        let sim = on_virtual_clock(ParallelVariant::Synchronous(4), &inst, &c);
        assert!(
            sim.runtime_seconds < seq.runtime_seconds,
            "virtual {:.3}s should beat sequential {:.3}s",
            sim.runtime_seconds,
            seq.runtime_seconds
        );
    }

    #[test]
    fn one_processor_degenerates_to_sequential() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 30, 3).build());
        let seq = SequentialTsmo::new(cfg().with_seed(5)).run(&inst);
        let par = ParallelVariant::Synchronous(1).run(&inst, &cfg().with_seed(5));
        assert_eq!(seq.feasible_vectors(), par.feasible_vectors());
    }

    #[test]
    fn consumes_exact_budget_with_workers() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 40, 2).build());
        let out = ParallelVariant::Synchronous(4).run(&inst, &cfg());
        assert_eq!(out.evaluations, 2_400);
        assert!(!out.archive.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_processors_rejected() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 10, 2).build());
        ParallelVariant::Synchronous(0).run(&inst, &cfg());
    }
}

//! The asynchronous master–worker variant (§III.D).
//!
//! Like the synchronous variant the master distributes neighborhood chunks
//! "among himself and the workers, but when it is finished with its part,
//! the master will use a decision function to decide if workers should be
//! given more time or if it should continue by selecting the next current
//! individual from the N that has been collected so far" (Algorithm 2).
//! Results that arrive after the master moved on are *folded into the next
//! iteration's pool* — the search "can select solutions that were neighbors
//! of a previous solution", which is why a [`LazyNeighbor`] keeps a handle to
//! its snapshot.
//!
//! The decision function's four conditions:
//! * `c1` — some worker is idle (has delivered and waits for work);
//! * `c2` — a collected neighbor dominates the current solution;
//! * `c3` — the master has waited longer than `cfg.async_max_wait_ms`;
//! * `c4` — the evaluation budget is exhausted.
//!
//! On the wall clock the workers run under a `deme::Supervisor`: a
//! panicked chunk task is resent to the next live worker, repeatedly
//! failing workers are quarantined and respawned once, and if no worker
//! is left the master evaluates alone (degraded mode). A resent task keeps
//! its original `iteration`, so its neighbors count as *stale* in the
//! sense of Algorithm 2 — the recovery path needs no special treatment in
//! the search itself. On the virtual clock the same `deme::SupervisorPolicy`
//! decides in virtual time (see [`exec`](crate::exec)).

use crate::cancel::CancelToken;
use crate::config::TsmoConfig;
use crate::core_search::{SearchCore, StepReport};
use crate::exec::{Executor, Wait};
use crate::neighborhood::{generate_chunk, Chunk, LazyNeighbor, StepNeighbor};
use crate::outcome::TsmoOutcome;
use deme::EvaluationBudget;
use detrand::Xoshiro256StarStar;
use std::sync::Arc;
use tsmo_obs::{metrics::names, Recorder, SearchEvent, Span};
use vrptw::Instance;
use vrptw_operators::SampleTally;

/// What a searcher does around each asynchronous round besides searching.
/// A lone master does nothing; a hybrid searcher drains its inbox into
/// `M_nondom` and migrates archive improvements to its peers.
pub(crate) trait Collaboration {
    /// Called at the top of every round, before results are folded.
    fn receive(&mut self, _core: &mut SearchCore) {}
    /// Called with the report of every selection step of the main loop.
    fn after_step(&mut self, _report: StepReport) {}
}

impl Collaboration for () {}

/// The search state one asynchronous searcher starts from.
pub(crate) struct AsyncSearcher<'a> {
    pub(crate) inst: &'a Arc<Instance>,
    /// Its configuration; `chunks` is set to the processor count.
    pub(crate) cfg: TsmoConfig,
    pub(crate) rng: Xoshiro256StarStar,
    pub(crate) recorder: &'a Arc<dyn Recorder>,
    pub(crate) id: u32,
}

/// Runs Algorithm 2 over `exec` until the budget is spent or `cancel`
/// stops it. A stopped run skips the final leftover-pool step, so its
/// iteration count is an exact prefix of the unstopped run.
pub(crate) fn run_async(
    mut exec: impl Executor,
    searcher: AsyncSearcher<'_>,
    cancel: &CancelToken,
    collab: &mut impl Collaboration,
) -> TsmoOutcome {
    let AsyncSearcher {
        inst,
        mut cfg,
        rng,
        recorder,
        id,
    } = searcher;
    let processors = exec.n_workers() + 1;
    cfg.chunks = processors;
    let budget = EvaluationBudget::new(cfg.max_evaluations);
    let chunk = (cfg.neighborhood_size / processors).max(1);
    let max_wait = cfg.async_max_wait_ms as f64 / 1_000.0;
    let mut core = SearchCore::with_recorder(Arc::clone(inst), cfg, rng, Arc::clone(recorder), id);
    let mut pool: Vec<LazyNeighbor> = Vec::new();
    let mut tally = SampleTally::default();

    // Folds collected worker results into the pool; `iter` is the master's
    // iteration at collection time (for events).
    let fold = |arrived: Vec<(usize, Chunk)>,
                pool: &mut Vec<LazyNeighbor>,
                tally: &mut SampleTally,
                iter: usize| {
        for (w, chunk) in arrived {
            if recorder.enabled() {
                recorder.event(SearchEvent::WorkerResult {
                    worker: (w + 1) as u32,
                    iteration: iter as u64,
                    neighbors: chunk.neighbors.len() as u32,
                });
            }
            tally.merge(&chunk.tally);
            pool.extend(chunk.neighbors);
        }
    };

    loop {
        collab.receive(&mut core);
        let iter = core.iteration();
        fold(
            exec.collect(Wait::Now, iter as u64),
            &mut pool,
            &mut tally,
            iter,
        );
        if budget.exhausted() || cancel.should_stop(iter) {
            break;
        }
        // Give every idle live worker a chunk of the *current*
        // neighborhood. A degraded executor has no idle worker, so the
        // master continues alone (master-local evaluation).
        if exec.n_workers() > 0 {
            let _span = Span::enter(recorder, "dispatch", core.trace_id(), core.span_parent());
            for w in exec.idle_workers() {
                let granted = budget.try_consume(chunk as u64) as usize;
                if granted == 0 {
                    break;
                }
                recorder.counter_add(names::EVALUATIONS, granted as u64);
                if recorder.enabled() {
                    recorder.event(SearchEvent::WorkerTask {
                        worker: (w + 1) as u32,
                        iteration: iter as u64,
                        count: granted as u32,
                    });
                }
                let seed = core.next_seed();
                exec.dispatch(w, core.snapshot(), seed, granted, iter);
            }
        }
        // The master computes its own part. The "evaluate" span also
        // covers the decision-function wait: from the master's
        // perspective that time is spent collecting evaluations.
        let eval_span = Span::enter(recorder, "evaluate", core.trace_id(), core.span_parent());
        let granted = budget.try_consume(chunk as u64) as usize;
        if granted > 0 {
            recorder.counter_add(names::EVALUATIONS, granted as u64);
            let seed = core.next_seed();
            let own = exec.on_master(granted, || {
                generate_chunk(
                    inst,
                    core.snapshot(),
                    seed,
                    granted,
                    core.sample_params(),
                    iter,
                )
            });
            tally.merge(&own.tally);
            pool.extend(own.neighbors);
        }
        // Decision function (Algorithm 2).
        let wait_start = exec.now();
        loop {
            fold(
                exec.collect(Wait::Now, iter as u64),
                &mut pool,
                &mut tally,
                iter,
            );
            let current = core.current().objectives().to_vector();
            let c1 = !exec.idle_workers().is_empty();
            let c2 = pool
                .iter()
                .any(|nb| pareto::dominates(&nb.objectives().to_vector(), &current));
            let c3 = exec.now() - wait_start >= max_wait;
            let c4 = budget.exhausted();
            // With no worker at all there is nothing to wait for.
            if c1 || c2 || c3 || c4 || exec.degraded() || exec.n_workers() == 0 {
                break;
            }
            let arrived = exec.collect(Wait::Until(wait_start + max_wait), iter as u64);
            fold(arrived, &mut pool, &mut tally, iter);
        }
        drop(eval_span);
        // Nothing collected yet (slow workers): wait another round rather
        // than burning a restart on timing noise. The top of the loop ends
        // the search once the budget is spent.
        if pool.is_empty() {
            continue;
        }
        let taken = std::mem::take(&mut pool);
        let report = exec.on_master(taken.len(), || core.step(taken));
        collab.after_step(report);
    }
    // Final partial pool: give the leftovers one last consideration —
    // unless the run was stopped early, where an extra step would break
    // the prefix property.
    if !pool.is_empty() && !cancel.is_stopped() {
        let taken = std::mem::take(&mut pool);
        exec.on_master(taken.len(), || core.step(taken));
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
    use crate::{on_virtual_clock, ParallelVariant, TsmoConfig};
    use pareto::non_dominated_indices;
    use std::sync::Arc;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn cfg() -> TsmoConfig {
        TsmoConfig {
            max_evaluations: 2_400,
            neighborhood_size: 60,
            ..TsmoConfig::default()
        }
    }

    #[test]
    fn consumes_exact_budget() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 4).build());
        let out = ParallelVariant::Asynchronous(3).run(&inst, &cfg());
        assert_eq!(out.evaluations, 2_400);
        assert!(!out.archive.is_empty());
        assert!(out.iterations > 0);
    }

    #[test]
    fn archive_valid_and_non_dominated() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C1, 40, 9).build());
        let out = ParallelVariant::Asynchronous(4).run(&inst, &cfg());
        assert_eq!(non_dominated_indices(&out.archive).len(), out.archive.len());
        for e in &out.archive {
            assert!(e.solution.check(&inst).is_empty());
        }
    }

    #[test]
    fn trace_shows_stale_neighbors_are_possible() {
        // With several workers and a generous pool the async variant should
        // consider at least some neighbors created in an earlier iteration.
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 60, 3).build());
        let mut c = cfg();
        c.trace = true;
        c.max_evaluations = 6_000;
        let out = ParallelVariant::Asynchronous(4).run(&inst, &c);
        let trace = out.trace.expect("tracing enabled");
        assert!(!trace.is_empty());
        // Staleness is timing-dependent; assert the mechanism rather than a
        // specific value: all points have iter_considered >= iter_created.
        for p in trace.iter() {
            assert!(p.iter_considered >= p.iter_created);
        }
    }

    #[test]
    fn single_processor_still_works() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 25, 2).build());
        let out = ParallelVariant::Asynchronous(1).run(&inst, &cfg());
        assert_eq!(out.evaluations, 2_400);
        assert!(!out.archive.is_empty());
    }

    #[test]
    fn quality_comparable_to_sequential() {
        // §IV: the async variant "obtains results that are comparable" to
        // the sequential TS on the same evaluation budget. Allow slack —
        // this is a statistical statement — but the fronts should be in the
        // same ballpark.
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 50, 11).build());
        let c = TsmoConfig {
            max_evaluations: 6_000,
            neighborhood_size: 60,
            ..TsmoConfig::default()
        };
        let seq = ParallelVariant::Sequential.run(&inst, &c.clone().with_seed(3));
        let asy = ParallelVariant::Asynchronous(3).run(&inst, &c.with_seed(3));
        let (s, a) = (
            seq.best_distance().expect("seq feasible"),
            asy.best_distance().expect("async feasible"),
        );
        assert!(
            a < s * 1.35,
            "async best {a} too far above sequential best {s}"
        );
    }

    #[test]
    fn virtual_clock_consumes_budget_and_produces_front() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 40, 4).build());
        let out = on_virtual_clock(ParallelVariant::Asynchronous(3), &inst, &cfg());
        assert_eq!(out.evaluations, 2_400);
        assert!(!out.archive.is_empty());
        assert!(out.runtime_seconds > 0.0);
        for e in &out.archive {
            assert!(e.solution.check(&inst).is_empty());
        }
    }

    #[test]
    fn virtual_async_is_faster_than_virtual_sync_with_heterogeneous_latency() {
        // The async variant's reason to exist: it avoids barrier waiting.
        // Under the same latency its virtual makespan should not exceed the
        // synchronous one by much; typically it is smaller.
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 80, 8).build());
        let c = TsmoConfig {
            max_evaluations: 6_000,
            neighborhood_size: 120,
            sim_comm_latency: 0.002,
            ..TsmoConfig::default()
        }
        .with_seed(5);
        let sync = on_virtual_clock(ParallelVariant::Synchronous(6), &inst, &c);
        let asy = on_virtual_clock(ParallelVariant::Asynchronous(6), &inst, &c);
        assert!(
            asy.runtime_seconds <= sync.runtime_seconds * 1.15,
            "async virtual {:.3}s should be at most ~sync virtual {:.3}s",
            asy.runtime_seconds,
            sync.runtime_seconds
        );
    }
}

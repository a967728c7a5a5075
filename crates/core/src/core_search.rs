//! The algorithm core shared by all variants: current solution, memories,
//! selection, and restart logic (lines 8–17 of Algorithm 1).

use crate::config::TsmoConfig;
use crate::neighborhood::StepNeighbor;
use crate::outcome::FrontEntry;
use crate::tabu::TabuList;
use crate::trace::{Trace, TracePoint};
use detrand::{RandomSource, Rng, Xoshiro256StarStar};
use pareto::{non_dominated_indices, Archive};
use std::sync::Arc;
use tsmo_obs::{metrics::names, Recorder, RestartReason, SearchEvent, Span};
use vrptw::solution::EvaluatedSolution;
use vrptw::{Instance, Objectives};
use vrptw_construct::randomized_i1;
use vrptw_operators::{OperatorKind, SampleParams, SampleTally};

/// Per-operator outcome counters accumulated by the step loop. One cell
/// per operator in [`OperatorKind::ALL`] order; plain array increments,
/// so the instrumented hot path costs a handful of integer adds per
/// step regardless of the attached recorder.
#[derive(Debug, Clone, Copy, Default)]
struct OperatorOutcomes {
    accepted: [u64; OperatorKind::ALL.len()],
    improving: [u64; OperatorKind::ALL.len()],
    tabu_rejected: [u64; OperatorKind::ALL.len()],
}

/// What one selection step did, for the caller's bookkeeping.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Objectives of the new current solution (`None` if the pool was empty
    /// and the step degenerated to a restart).
    pub selected: Option<Objectives>,
    /// Whether the chosen solution entered `M_archive` — the paper's
    /// "improving solution", which the collaborative variant broadcasts.
    pub improved_archive: Option<FrontEntry>,
    /// Whether the step restarted from memory instead of moving to a
    /// neighbor.
    pub restarted: bool,
}

/// Shared state and step logic of the TSMO search.
///
/// Variants differ only in *how neighborhoods are produced* (inline, via a
/// synchronous barrier, or asynchronously collected); everything from
/// selection onward is this struct.
pub struct SearchCore {
    inst: Arc<Instance>,
    cfg: TsmoConfig,
    rng: Xoshiro256StarStar,
    tabu: TabuList,
    nondom: Archive<FrontEntry>,
    archive: Archive<FrontEntry>,
    current: Arc<EvaluatedSolution>,
    iteration: usize,
    stagnation: usize,
    trace: Option<Trace>,
    recorder: Arc<dyn Recorder>,
    searcher_id: u32,
    trace_id: u64,
    root_span: Option<Span>,
    /// Neighbors evaluated so far (the searcher-local evaluation count
    /// driving the convergence timeline).
    evals_seen: u64,
    next_sample: u64,
    /// Hypervolume reference point in (distance, vehicles), fixed
    /// deterministically from the I1 start so samples are comparable
    /// within a run.
    timeline_ref: [f64; 2],
    /// Per-operator sampling tally handed in by the runner
    /// ([`note_tally`](Self::note_tally)); flushed to metrics at finish.
    tally: SampleTally,
    /// Per-operator step outcomes (accepted / improving / tabu-rejected);
    /// flushed to metrics at finish.
    outcomes: OperatorOutcomes,
    /// Archive entries displaced by dominating insertions.
    archive_prunes: u64,
    /// Longest stagnation streak observed over the run.
    stagnation_streak_max: usize,
    /// Archive hypervolume right after construction, for the
    /// end-of-run delta gauge.
    initial_hypervolume: f64,
}

impl SearchCore {
    /// Initializes memories and the I1 starting solution (Algorithm 1,
    /// lines 2–4). `rng` must be the searcher's dedicated stream.
    pub fn new(inst: Arc<Instance>, cfg: TsmoConfig, rng: Xoshiro256StarStar) -> Self {
        Self::with_recorder(inst, cfg, rng, tsmo_obs::noop(), 0)
    }

    /// Like [`new`](Self::new) with a telemetry sink attached. `searcher_id`
    /// tags every emitted event (0 for single-searcher variants, the
    /// searcher index in collaborative runs). The recorder observes the
    /// search but never influences it — no RNG draws, no control flow.
    pub fn with_recorder(
        inst: Arc<Instance>,
        cfg: TsmoConfig,
        mut rng: Xoshiro256StarStar,
        recorder: Arc<dyn Recorder>,
        searcher_id: u32,
    ) -> Self {
        let trace_id = cfg.effective_trace_id();
        let root_span = Span::enter(&recorder, "search", trace_id, 0);
        let current = {
            let _span = Span::enter(
                &recorder,
                "construct",
                trace_id,
                root_span.as_ref().map_or(0, Span::id),
            );
            // Warm start: take the searcher's slice of the pool instead of
            // constructing from scratch (no RNG draw — the cold path below
            // stays byte-identical when the pool is empty).
            let start = if cfg.warm_start.is_empty() {
                randomized_i1(&inst, &mut rng)
            } else {
                let pick = cfg.warm_start[searcher_id as usize % cfg.warm_start.len()].clone();
                debug_assert!(
                    pick.check(&inst).is_empty(),
                    "warm-start solution invalid for instance: {:?}",
                    pick.check(&inst)
                );
                pick
            };
            Arc::new(EvaluatedSolution::new(start, &inst))
        };
        let mut archive = Archive::new(cfg.archive_capacity);
        let mut nondom = Archive::new(cfg.nondom_capacity);
        archive.insert(FrontEntry::new(
            current.solution().clone(),
            current.objectives(),
        ));
        // Every pool member seeds both memories: the archive so prior-epoch
        // elites survive even if the trajectory never revisits them, and
        // `M_nondom` so restarts can jump back into the pool.
        for s in &cfg.warm_start {
            let o = s.evaluate(&inst);
            archive.insert(FrontEntry::new(s.clone(), o));
            nondom.insert(FrontEntry::new(s.clone(), o));
        }
        let trace = cfg.trace.then(Trace::default);
        let timeline_ref = [
            current.objectives().distance * 1.1 + 1.0,
            (current.objectives().vehicles + 2) as f64,
        ];
        let initial_hypervolume = projected_hypervolume(archive.items(), timeline_ref);
        Self {
            inst,
            tabu: TabuList::new(cfg.tabu_tenure),
            nondom,
            archive,
            current,
            iteration: 0,
            stagnation: 0,
            trace,
            next_sample: cfg.timeline_every.unwrap_or(u64::MAX).max(1),
            cfg,
            rng,
            recorder,
            searcher_id,
            trace_id,
            root_span,
            evals_seen: 0,
            timeline_ref,
            tally: SampleTally::default(),
            outcomes: OperatorOutcomes::default(),
            archive_prunes: 0,
            stagnation_streak_max: 0,
            initial_hypervolume,
        }
    }

    /// Folds a chunk's per-operator sampling tally into the run-level
    /// attribution. Runners call this for every chunk that reaches the
    /// core (or once with a pre-merged run total); the counts surface as
    /// `tsmo_operator_proposed_total` / `tsmo_operator_feasible_total`
    /// at finish.
    pub fn note_tally(&mut self, tally: &SampleTally) {
        self.tally.merge(tally);
    }

    /// The instance being solved.
    pub fn instance(&self) -> &Arc<Instance> {
        &self.inst
    }

    /// The configuration in effect.
    pub fn config(&self) -> &TsmoConfig {
        &self.cfg
    }

    /// The current solution snapshot neighborhoods are generated from.
    pub fn current(&self) -> &EvaluatedSolution {
        &self.current
    }

    /// A shared handle to [`current`](Self::current), which the neighbors
    /// generated from it keep until they are judged.
    pub fn snapshot(&self) -> &Arc<EvaluatedSolution> {
        &self.current
    }

    /// Completed iterations.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// The run's trace id (shared across a distributed run).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The root span id, for parenting spans opened by the runners
    /// (0 when profiling is off).
    pub fn span_parent(&self) -> u64 {
        tsmo_obs::span_parent(&self.root_span)
    }

    /// Current archive contents.
    pub fn archive_entries(&self) -> &[FrontEntry] {
        self.archive.items()
    }

    /// Sampling parameters derived from the configuration.
    pub fn sample_params(&self) -> SampleParams {
        SampleParams {
            feasibility: self.cfg.feasibility_criterion,
        }
    }

    /// Draws the seeds for this iteration's neighborhood chunks.
    pub fn chunk_seeds(&mut self) -> Vec<u64> {
        (0..self.cfg.chunks.max(1))
            .map(|_| self.rng.next_u64())
            .collect()
    }

    /// Draws one seed (asynchronous dispatching draws per task).
    pub fn next_seed(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Offers an externally received solution to `M_nondom` (collaborative
    /// variant: "the process receiving the individual tries to store the
    /// solution in its memory of non-dominated solutions"). Returns whether
    /// it was accepted.
    pub fn offer_to_nondom(&mut self, entry: FrontEntry) -> bool {
        self.nondom.insert(entry)
    }

    /// Runs selection and memory update on the evaluated neighbors (lines
    /// 8–17 of Algorithm 1). Neighbors are judged by their objectives and
    /// arcs; a neighbor's solution is built only when `M_nondom` or
    /// `M_archive` admits it or the selection picks it.
    pub fn step<N: StepNeighbor>(&mut self, pool: Vec<N>) -> StepReport {
        // The trace records this step under the iteration number the
        // neighbors were generated for (`iteration()` at generation time),
        // so freshly generated neighbors have staleness 0 and the
        // asynchronous variant's leftovers show up as genuinely stale.
        let iter = self.iteration;
        self.iteration += 1;
        self.evals_seen += pool.len() as u64;
        self.recorder.counter_add(names::ITERATIONS, 1);
        self.recorder.observe(names::POOL_SIZE, pool.len() as f64);
        let span_parent = self.span_parent();

        // Staleness: the asynchronous variants fold in neighbors generated
        // from an older current solution (`created_iteration < iter`).
        let mut stale = 0u64;
        let mut max_staleness = 0usize;
        for nb in &pool {
            let age = iter.saturating_sub(nb.created_iteration());
            if age > 0 {
                stale += 1;
                max_staleness = max_staleness.max(age);
            }
            self.recorder.observe(names::NEIGHBOR_STALENESS, age as f64);
        }
        if stale > 0 {
            self.recorder.counter_add(names::STALE_NEIGHBORS, stale);
            self.recorder
                .gauge_max(names::STALENESS_MAX, max_staleness as f64);
            if self.recorder.enabled() {
                self.recorder.event(SearchEvent::Staleness {
                    searcher: self.searcher_id,
                    iteration: iter as u64,
                    max_staleness: max_staleness as u64,
                    stale: stale as u32,
                });
            }
        }

        // Selection: non-tabu neighbors only (§III.B has no aspiration rule).
        let tabu_span = Span::enter(&self.recorder, "tabu", self.trace_id, span_parent);
        let mut admissible: Vec<usize> = Vec::with_capacity(pool.len());
        for (i, nb) in pool.iter().enumerate() {
            if self.tabu.is_tabu(nb.arcs_created()) {
                self.recorder.counter_add(names::TABU_HITS, 1);
                self.outcomes.tabu_rejected[nb.operator().index()] += 1;
                if self.recorder.enabled() {
                    self.recorder.event(SearchEvent::TabuHit {
                        searcher: self.searcher_id,
                        iteration: iter as u64,
                    });
                }
            } else {
                admissible.push(i);
            }
        }
        drop(tabu_span);
        let select_span = Span::enter(&self.recorder, "select", self.trace_id, span_parent);
        let vectors: Vec<[f64; 3]> = admissible
            .iter()
            .map(|&i| pool[i].objectives().to_vector())
            .collect();
        let chosen_idx = if vectors.is_empty() {
            None
        } else {
            let nd = non_dominated_indices(&vectors);
            let pick = match self.cfg.selection {
                crate::config::SelectionRule::RandomNonDominated => nd[self.rng.index(nd.len())],
                crate::config::SelectionRule::PreferDominating => {
                    let current = self.current.objectives().to_vector();
                    let improving: Vec<usize> = nd
                        .iter()
                        .copied()
                        .filter(|&k| pareto::dominates(&vectors[k], &current))
                        .collect();
                    if improving.is_empty() {
                        nd[self.rng.index(nd.len())]
                    } else {
                        improving[self.rng.index(improving.len())]
                    }
                }
            };
            Some(admissible[pick])
        };
        drop(select_span);

        if let Some(t) = self.trace.as_mut() {
            for (i, nb) in pool.iter().enumerate() {
                t.record(TracePoint {
                    iter_created: nb.created_iteration(),
                    iter_considered: iter,
                    objectives: nb.objectives(),
                    chosen: Some(i) == chosen_idx,
                });
            }
        }

        if self.recorder.enabled() {
            self.recorder.event(SearchEvent::Iteration {
                searcher: self.searcher_id,
                iteration: iter as u64,
                pool: pool.len() as u32,
                admissible: admissible.len() as u32,
                chosen: chosen_idx.map(|i| pool[i].objectives().to_vector()),
            });
        }

        // Memory update: every neighbor is offered to M_nondom ("additional
        // non-dominated solutions that were found in the neighborhood N"),
        // and only the ones it admits are built.
        let archive_span = Span::enter(&self.recorder, "archive", self.trace_id, span_parent);
        for nb in &pool {
            let objectives = nb.objectives();
            if self.nondom.insert_with(&objectives.to_vector(), || {
                FrontEntry::new(nb.solution(), objectives)
            }) {
                self.recorder.counter_add(names::NONDOM_INSERTS, 1);
            }
        }

        let mut report = StepReport {
            selected: None,
            improved_archive: None,
            restarted: false,
        };
        match chosen_idx {
            Some(i) => {
                let nb = &pool[i];
                let objectives = nb.objectives();
                let op = nb.operator().index();
                self.tabu.push(nb.arcs_removed().to_vec());
                // Built once: the archive entry (if admitted) copies it,
                // then it becomes the new current.
                let solution = nb.solution();
                report.selected = Some(objectives);
                self.outcomes.accepted[op] += 1;
                let size_before = self.archive.len();
                let admitted = self.archive.insert_with(&objectives.to_vector(), || {
                    FrontEntry::new(solution.clone(), objectives)
                });
                self.current = Arc::new(EvaluatedSolution::new(solution, &self.inst));
                if admitted {
                    // An accepted insert that shrank (or held) the archive
                    // displaced dominated entries.
                    self.archive_prunes += (size_before + 1 - self.archive.len()) as u64;
                    self.outcomes.improving[op] += 1;
                    self.recorder.counter_add(names::ARCHIVE_INSERTS, 1);
                    if self.recorder.enabled() {
                        self.recorder.event(SearchEvent::ArchiveInsert {
                            searcher: self.searcher_id,
                            iteration: iter as u64,
                            objectives: objectives.to_vector(),
                        });
                    }
                    self.stagnation = 0;
                    report.improved_archive =
                        Some(FrontEntry::new(self.current.solution().clone(), objectives));
                } else {
                    self.stagnation += 1;
                    self.stagnation_streak_max = self.stagnation_streak_max.max(self.stagnation);
                }
            }
            None => {
                // `s ∉ N`: nothing selectable — restart from memory.
                self.record_restart(iter, RestartReason::EmptyPool);
                self.restart_from_memory();
                report.restarted = true;
                self.stagnation = 0;
                drop(archive_span);
                self.maybe_sample_front(iter);
                return report;
            }
        }
        drop(archive_span);

        // Line 14: isUnchanged(M_archive) for too long => restart next.
        if self.stagnation >= self.cfg.stagnation_limit {
            self.recorder.counter_add(names::SEARCH_STAGNATED, 1);
            if self.recorder.enabled() {
                self.recorder.event(SearchEvent::SearchStagnated {
                    searcher: self.searcher_id,
                    iteration: iter as u64,
                    streak: self.stagnation as u64,
                });
            }
            self.record_restart(iter, RestartReason::Stagnation);
            self.restart_from_memory();
            report.restarted = true;
            self.stagnation = 0;
        }
        self.maybe_sample_front(iter);
        report
    }

    /// Convergence timeline: once the evaluated-neighbor count crosses the
    /// next sampling threshold, emits one `FrontSample` with the archive's
    /// 2-D hypervolume (distance × vehicles, tardiness dropped — it is zero
    /// for feasible fronts) and its coverage of `M_nondom`. Driven by
    /// `evals_seen`, never by wall time, so timelines replay byte-identically.
    fn maybe_sample_front(&mut self, iter: usize) {
        let Some(every) = self.cfg.timeline_every else {
            return;
        };
        if !self.recorder.enabled() || self.evals_seen < self.next_sample {
            return;
        }
        let every = every.max(1);
        while self.next_sample <= self.evals_seen {
            self.next_sample += every;
        }
        let hypervolume = projected_hypervolume(self.archive.items(), self.timeline_ref);
        let coverage = pareto::coverage(self.archive.items(), self.nondom.items());
        self.recorder.event(SearchEvent::FrontSample {
            searcher: self.searcher_id,
            iteration: iter as u64,
            evaluations: self.evals_seen,
            size: self.archive.len() as u32,
            hypervolume,
            coverage,
        });
    }

    /// Counts and (when enabled) emits one restart event.
    fn record_restart(&self, iter: usize, reason: RestartReason) {
        self.recorder.counter_add(names::RESTARTS, 1);
        let by_reason = match reason {
            RestartReason::EmptyPool => names::RESTARTS_EMPTY_POOL,
            RestartReason::Stagnation => names::RESTARTS_STAGNATION,
        };
        self.recorder.counter_add(by_reason, 1);
        if self.recorder.enabled() {
            self.recorder.event(SearchEvent::Restart {
                searcher: self.searcher_id,
                iteration: iter as u64,
                reason,
            });
        }
    }

    /// Line 10: `s ← SelectFrom(M_nondom ∪ M_archive)`.
    fn restart_from_memory(&mut self) {
        let n_nondom = self.nondom.len();
        let total = n_nondom + self.archive.len();
        debug_assert!(total > 0, "archive always holds the initial solution");
        let k = self.rng.index(total);
        let entry = if k < n_nondom {
            &self.nondom.items()[k]
        } else {
            &self.archive.items()[k - n_nondom]
        };
        self.current = Arc::new(EvaluatedSolution::new(entry.solution.clone(), &self.inst));
    }

    /// Finalizes the search, handing the archive and trace to the caller.
    /// Flushes the per-operator attribution and archive-dynamics metrics
    /// accumulated over the run — one batch of recorder calls here keeps
    /// the per-step hot path at plain array increments.
    pub fn finish(self) -> (Vec<FrontEntry>, Option<Trace>, usize) {
        self.recorder
            .gauge_max(names::ARCHIVE_SIZE, self.archive.len() as f64);
        for op in OperatorKind::ALL {
            let i = op.index();
            let label = op.label();
            for (family, value) in [
                (names::OPERATOR_PROPOSED, self.tally.proposed[i]),
                (names::OPERATOR_FEASIBLE, self.tally.feasible[i]),
                (names::OPERATOR_ACCEPTED, self.outcomes.accepted[i]),
                (names::OPERATOR_IMPROVING, self.outcomes.improving[i]),
                (
                    names::OPERATOR_TABU_REJECTED,
                    self.outcomes.tabu_rejected[i],
                ),
            ] {
                self.recorder
                    .counter_add(&names::operator_counter(family, label), value);
            }
        }
        self.recorder
            .counter_add(names::ARCHIVE_PRUNES, self.archive_prunes);
        let hypervolume = projected_hypervolume(self.archive.items(), self.timeline_ref);
        self.recorder
            .gauge_max(names::ARCHIVE_HYPERVOLUME, hypervolume);
        self.recorder.gauge_max(
            names::ARCHIVE_HYPERVOLUME_DELTA,
            hypervolume - self.initial_hypervolume,
        );
        self.recorder.gauge_max(
            names::STAGNATION_STREAK_MAX,
            self.stagnation_streak_max as f64,
        );
        (self.archive.into_items(), self.trace, self.iteration)
    }
}

/// 2-D hypervolume of a front projected to (distance, vehicles) against
/// a fixed reference point (tardiness is dropped — it is zero for
/// feasible fronts).
fn projected_hypervolume(items: &[FrontEntry], reference: [f64; 2]) -> f64 {
    let projected: Vec<Vec<f64>> = items
        .iter()
        .map(|e| vec![e.objectives.distance, e.objectives.vehicles as f64])
        .collect();
    pareto::hypervolume_2d(&projected, reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighborhood::{generate_chunk, LazyNeighbor};
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn core(seed: u64) -> SearchCore {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 7).build());
        let cfg = TsmoConfig {
            neighborhood_size: 30,
            stagnation_limit: 10,
            trace: true,
            ..TsmoConfig::default()
        };
        SearchCore::new(
            Arc::clone(&inst),
            cfg,
            Xoshiro256StarStar::seed_from_u64(seed),
        )
    }

    fn one_pool(c: &mut SearchCore) -> Vec<LazyNeighbor> {
        let seed = c.next_seed();
        generate_chunk(
            c.instance().clone().as_ref(),
            c.snapshot(),
            seed,
            30,
            c.sample_params(),
            c.iteration(),
        )
        .neighbors
    }

    #[test]
    fn steps_advance_and_archive_fills() {
        let mut c = core(1);
        for _ in 0..30 {
            let pool = one_pool(&mut c);
            c.step(pool);
        }
        assert_eq!(c.iteration(), 30);
        assert!(!c.archive_entries().is_empty());
        // All archive members are valid, mutually non-dominated solutions.
        let inst = Arc::clone(c.instance());
        for e in c.archive_entries() {
            assert!(e.solution.check(&inst).is_empty());
        }
        let nd = non_dominated_indices(c.archive_entries());
        assert_eq!(nd.len(), c.archive_entries().len());
    }

    #[test]
    fn empty_pool_restarts_from_memory() {
        let mut c = core(2);
        let before = c.current().solution().clone();
        let report = c.step(Vec::<LazyNeighbor>::new());
        assert!(report.restarted);
        assert!(report.selected.is_none());
        // Restart re-materializes a memorized solution (may equal the
        // initial one — the archive holds it — but must be valid).
        let inst = Arc::clone(c.instance());
        assert!(c.current().solution().check(&inst).is_empty());
        let _ = before;
    }

    #[test]
    fn search_improves_distance_over_time() {
        let mut c = core(3);
        let initial = c.current().objectives().distance;
        for _ in 0..80 {
            let pool = one_pool(&mut c);
            c.step(pool);
        }
        let best = c
            .archive_entries()
            .iter()
            .map(|e| e.objectives.distance)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best < initial,
            "80 iterations should beat the I1 start ({best} !< {initial})"
        );
    }

    #[test]
    fn trace_records_every_considered_neighbor() {
        let mut c = core(4);
        let pool = one_pool(&mut c);
        let n = pool.len();
        c.step(pool);
        let (_, trace, _) = c.finish();
        let trace = trace.expect("tracing enabled");
        assert_eq!(trace.len(), n);
        assert_eq!(trace.trajectory().len(), 1);
    }

    #[test]
    fn selected_neighbor_becomes_current() {
        let mut c = core(5);
        let pool = one_pool(&mut c);
        let report = c.step(pool);
        if let Some(obj) = report.selected {
            assert_eq!(c.current().objectives().vehicles, obj.vehicles);
            assert!((c.current().objectives().distance - obj.distance).abs() < 1e-6);
        }
    }

    #[test]
    fn stagnation_triggers_restart() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 20, 9).build());
        let cfg = TsmoConfig {
            neighborhood_size: 5,
            stagnation_limit: 3,
            archive_capacity: 2,
            ..TsmoConfig::default()
        };
        let mut c = SearchCore::new(inst, cfg, Xoshiro256StarStar::seed_from_u64(8));
        let mut restarts = 0;
        for _ in 0..60 {
            let pool = one_pool(&mut c);
            if c.step(pool).restarted {
                restarts += 1;
            }
        }
        assert!(
            restarts > 0,
            "a tiny archive must stagnate within 60 iterations"
        );
    }

    #[test]
    fn attribution_counters_flush_at_finish() {
        use tsmo_obs::MemoryRecorder;
        use vrptw_operators::SampleTally;

        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 7).build());
        let cfg = TsmoConfig {
            neighborhood_size: 30,
            stagnation_limit: 10,
            ..TsmoConfig::default()
        };
        let recorder = MemoryRecorder::shared();
        let mut c = SearchCore::with_recorder(
            Arc::clone(&inst),
            cfg,
            Xoshiro256StarStar::seed_from_u64(11),
            recorder.clone(),
            0,
        );
        let mut tally = SampleTally::default();
        let mut accepted_steps = 0u64;
        for _ in 0..40 {
            let seed = c.next_seed();
            let chunk = generate_chunk(
                c.instance().clone().as_ref(),
                c.snapshot(),
                seed,
                30,
                c.sample_params(),
                c.iteration(),
            );
            tally.merge(&chunk.tally);
            accepted_steps += u64::from(c.step(chunk.neighbors).selected.is_some());
        }
        c.note_tally(&tally);
        c.finish();

        let m = recorder.metrics();
        let sum_over_ops = |family: &str| -> u64 {
            vrptw_operators::OperatorKind::ALL
                .iter()
                .map(|op| m.counter(&names::operator_counter(family, op.label())))
                .sum()
        };
        // Every operator's proposed counter exists and the totals line up
        // with the untallied counters the step loop already kept.
        assert_eq!(
            sum_over_ops(names::OPERATOR_PROPOSED),
            tally.total_proposed()
        );
        assert!(sum_over_ops(names::OPERATOR_FEASIBLE) <= sum_over_ops(names::OPERATOR_PROPOSED));
        assert_eq!(sum_over_ops(names::OPERATOR_ACCEPTED), accepted_steps);
        assert_eq!(
            sum_over_ops(names::OPERATOR_IMPROVING),
            m.counter(names::ARCHIVE_INSERTS)
        );
        assert_eq!(
            sum_over_ops(names::OPERATOR_TABU_REJECTED),
            m.counter(names::TABU_HITS)
        );
        assert!(m.gauge(names::ARCHIVE_HYPERVOLUME).unwrap_or(0.0) > 0.0);
        assert!(m.gauge(names::ARCHIVE_HYPERVOLUME_DELTA).unwrap_or(-1.0) >= 0.0);
        assert!(m.gauge(names::STAGNATION_STREAK_MAX).is_some());
    }

    #[test]
    fn stagnation_limit_emits_search_stagnated_event() {
        use tsmo_obs::MemoryRecorder;

        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 20, 9).build());
        let cfg = TsmoConfig {
            neighborhood_size: 5,
            stagnation_limit: 3,
            archive_capacity: 2,
            ..TsmoConfig::default()
        };
        let recorder = MemoryRecorder::shared();
        let mut c = SearchCore::with_recorder(
            inst,
            cfg,
            Xoshiro256StarStar::seed_from_u64(8),
            recorder.clone(),
            0,
        );
        for _ in 0..60 {
            let pool = one_pool(&mut c);
            c.step(pool);
        }
        c.finish();
        let stagnations = recorder
            .events()
            .iter()
            .filter(
                |e| matches!(e.event, SearchEvent::SearchStagnated { streak, .. } if streak >= 3),
            )
            .count();
        assert!(
            stagnations > 0,
            "tiny archive must hit the stagnation limit"
        );
        assert_eq!(
            recorder.metrics().counter(names::SEARCH_STAGNATED) as usize,
            stagnations
        );
    }

    #[test]
    fn external_offers_enter_nondom() {
        let mut c = core(6);
        // A wildly good fake entry must be accepted.
        let entry = FrontEntry::new(
            c.current().solution().clone(),
            Objectives {
                distance: 0.1,
                vehicles: 1,
                tardiness: 0.0,
            },
        );
        assert!(c.offer_to_nondom(entry.clone()));
        // Offering the identical point again is a duplicate.
        assert!(!c.offer_to_nondom(entry));
    }
}

//! The collaborative multisearch variant (§III.E).
//!
//! `P` searchers run the sequential algorithm concurrently, each with its
//! own evaluation budget and — except for the first — parameters disturbed
//! by `N(0, param/4)`. After an *initial phase* (which ends once a
//! searcher's archive has stagnated for its stagnation limit), archive
//! improvements are sent to exactly one peer: the head of the searcher's
//! randomly initialized communication list, which then rotates. Receivers
//! offer incoming solutions to their `M_nondom`, from which the restart
//! mechanism can pick them up.
//!
//! The returned archive is the non-dominated merge of the searchers'
//! archives, truncated to the configured capacity with the same crowding
//! rule; evaluations and iterations are summed over searchers.
//!
//! Both clocks drive the same [`CollabSearcher`]s: on the wall clock each
//! runs on its own thread; on the virtual clock one thread steps the
//! searcher with the earliest virtual clock, and exchanges arrive after a
//! modeled latency.
//!
//! # Robustness
//!
//! Exchange traffic is fault-injectable: messages can be dropped in
//! transit or delayed by a number of sender iterations. Each endpoint
//! tracks peer liveness — a peer whose mailbox is gone is skipped by the
//! rotation (the message fails over to the next live peer) and probed
//! periodically for re-admission. Undeliverable entries are counted in
//! `tsmo_exchange_undeliverable_total` and simply dropped: collaboration
//! is an optimization, never a correctness dependency.

use crate::cancel::CancelToken;
use crate::config::TsmoConfig;
use crate::exec::{cluster, record_busy, record_virtual_run};
use crate::outcome::{FrontEntry, TsmoOutcome};
use crate::searcher::{searcher_cfg, CollabSearcher};
use deme::multisearch::{self, comm_order, Endpoint, Transport};
use deme::RunClock;
use detrand::{streams, Xoshiro256StarStar};
use pareto::Archive;
use parking_lot::Mutex;
use std::sync::Arc;
use tsmo_faults::FaultHook;
use tsmo_obs::{metrics::names, Recorder};
use vrptw::Instance;

/// Merges per-searcher `(archive, evaluations, iterations)` into one
/// outcome: the archives through a crowding-bounded archive of
/// `capacity`, the counters summed.
pub(crate) fn merge_searchers(
    capacity: usize,
    parts: impl IntoIterator<Item = (Vec<FrontEntry>, u64, usize)>,
    runtime_seconds: f64,
) -> TsmoOutcome {
    let mut merged = Archive::new(capacity);
    let mut evaluations = 0;
    let mut iterations = 0;
    for (archive, evals, iters) in parts {
        evaluations += evals;
        iterations += iters;
        merged.absorb(archive);
    }
    TsmoOutcome {
        archive: merged.into_items(),
        evaluations,
        iterations,
        runtime_seconds,
        trace: None,
    }
}

/// Runs one thread per searcher over an in-process network: `search`
/// gets each searcher's id, endpoint, configuration (see [`searcher_cfg`])
/// and RNG stream; the results come back in id order.
pub(crate) fn on_threads<R: Send>(
    cfg: &TsmoConfig,
    n: usize,
    search: impl Fn(usize, Endpoint<FrontEntry>, TsmoConfig, Xoshiro256StarStar) -> R + Sync,
) -> Vec<R> {
    let mut rngs: Vec<Xoshiro256StarStar> = streams(cfg.seed, n);
    let endpoints = multisearch::network::<FrontEntry, _>(n, &mut rngs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .zip(rngs)
            .enumerate()
            .map(|(id, (endpoint, mut rng))| {
                let (cfg, search) = (searcher_cfg(cfg, id, &mut rng), &search);
                scope.spawn(move || search(id, endpoint, cfg, rng))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("searcher panicked"))
            .collect()
    })
}

/// Runs `n` searchers on their own threads, on the wall clock.
pub(crate) fn run_threads(
    inst: &Arc<Instance>,
    cfg: &TsmoConfig,
    n: usize,
    recorder: &Arc<dyn Recorder>,
    hook: &Arc<dyn FaultHook>,
    cancel: &CancelToken,
) -> TsmoOutcome {
    let clock = RunClock::start();
    let results = on_threads(cfg, n, |id, mut endpoint, cfg, rng| {
        let (inst, recorder, hook) = (Arc::clone(inst), Arc::clone(recorder), Arc::clone(hook));
        let mut searcher = CollabSearcher::new(inst, cfg, rng, recorder, id, cancel.clone(), hook);
        while searcher.step_once(&mut endpoint) {}
        searcher.finish(&mut endpoint)
    });
    let runtime_seconds = clock.seconds();
    for (id, result) in results.iter().enumerate() {
        // Searchers are peers: "busy" is the fraction of the run they
        // were still searching (they stop when their budget is spent).
        record_busy(&**recorder, id, result.active_seconds, runtime_seconds);
    }
    recorder.gauge_set(names::RUNTIME_SECONDS, runtime_seconds);
    merge_searchers(
        cfg.archive_capacity,
        results
            .into_iter()
            .map(|r| (r.archive, r.evaluations, r.iterations)),
        runtime_seconds,
    )
}

/// Exchanges a searcher sent during its current step, as `(to, entry)`:
/// the virtual driver stamps their arrival once the step is charged.
type Outbox = Arc<Mutex<Vec<(usize, FrontEntry)>>>;

/// The virtual run's link to one peer: it queues the message for the
/// driver to stamp, and never fails.
struct VirtualLink {
    to: usize,
    outbox: Outbox,
}

impl Transport<FrontEntry> for VirtualLink {
    fn send(&self, msg: FrontEntry) -> Result<(), FrontEntry> {
        self.outbox.lock().push((self.to, msg));
        Ok(())
    }
}

/// Runs `n` searchers on one thread in virtual time: the live searcher
/// with the earliest clock takes the next step. Each step charges its
/// searcher's clock the work it did ([`CollabSearcher::work_done`]: its
/// received entries, evaluations and considered neighbors, each costing
/// `sim_eval_cost` over the searcher's speed). Each exchange occupies the
/// sender for one hop and arrives one hop later, where a hop is the latency
/// times `P/2` — interconnect contention on the modeled shared-memory
/// machine, which makes the collaborative runtime *grow* with the
/// processor count as in the paper's tables.
pub(crate) fn run_on_virtual_clock(
    inst: &Arc<Instance>,
    cfg: &TsmoConfig,
    n: usize,
    speeds: Option<&[f64]>,
    recorder: &Arc<dyn Recorder>,
    hook: &Arc<dyn FaultHook>,
    cancel: &CancelToken,
) -> TsmoOutcome {
    let mut cluster = cluster(n, speeds, cfg);
    let congestion = (n as f64 / 2.0).max(1.0);
    let hop = cluster.latency() * congestion;
    let outbox: Outbox = Arc::default();
    let mut inboxes = Vec::with_capacity(n);
    let mut endpoints = Vec::with_capacity(n);
    let mut searchers = Vec::with_capacity(n);
    for (id, mut rng) in streams(cfg.seed, n).into_iter().enumerate() {
        // The communication list is drawn first, as in `network`.
        let links = comm_order(n, id, &mut rng)
            .into_iter()
            .map(|to| {
                let link = VirtualLink {
                    to,
                    outbox: Arc::clone(&outbox),
                };
                (to, Box::new(link) as Box<dyn Transport<FrontEntry>>)
            })
            .collect();
        let (tx, rx) = crossbeam::channel::unbounded();
        inboxes.push(tx);
        endpoints.push(Endpoint::from_links(id, rx, links));
        let searcher_cfg = searcher_cfg(cfg, id, &mut rng);
        searchers.push(CollabSearcher::new(
            Arc::clone(inst),
            searcher_cfg,
            rng,
            Arc::clone(recorder),
            id,
            cancel.clone(),
            Arc::clone(hook),
        ));
    }

    // `(arrival, to, entry)` in send order.
    let mut in_flight: Vec<(f64, usize, FrontEntry)> = Vec::new();
    let mut live = vec![true; n];
    while let Some(s) = (0..n)
        .filter(|&s| live[s])
        .min_by(|&a, &b| cluster.clock(a).total_cmp(&cluster.clock(b)))
    {
        let now = cluster.clock(s);
        let (due, later): (Vec<_>, Vec<_>) = in_flight
            .into_iter()
            .partition(|&(at, to, _)| to == s && at <= now);
        in_flight = later;
        for (_, _, entry) in due {
            inboxes[s]
                .send(entry)
                .expect("the driver holds every inbox");
        }
        let searcher = &mut searchers[s];
        let before = searcher.work_done();
        live[s] = searcher.step_once(&mut endpoints[s]);
        cluster.work(s, searcher.work_done() - before);
        for (to, entry) in outbox.lock().drain(..) {
            cluster.advance(s, hop);
            in_flight.push((cluster.send_at(s, congestion), to, entry));
        }
    }

    let makespan = record_virtual_run(&**recorder, &cluster);
    let parts: Vec<_> = searchers
        .into_iter()
        .zip(&mut endpoints)
        .map(|(searcher, endpoint)| {
            let r = searcher.finish(endpoint);
            (r.archive, r.evaluations, r.iterations)
        })
        .collect();
    merge_searchers(cfg.archive_capacity, parts, makespan)
}

#[cfg(test)]
mod tests {
    use crate::{on_virtual_clock, ParallelVariant, TsmoConfig};
    use pareto::non_dominated_indices;
    use std::sync::Arc;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn cfg() -> TsmoConfig {
        TsmoConfig {
            max_evaluations: 1_500,
            neighborhood_size: 50,
            stagnation_limit: 10,
            ..TsmoConfig::default()
        }
    }

    #[test]
    fn per_searcher_budgets_are_summed() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 5).build());
        let out = ParallelVariant::Collaborative(3).run(&inst, &cfg());
        // Each of the 3 searchers spends its own 1,500 evaluations.
        assert_eq!(out.evaluations, 4_500);
        assert!(!out.archive.is_empty());
    }

    #[test]
    fn merged_archive_is_non_dominated_and_bounded() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C1, 30, 2).build());
        let out = ParallelVariant::Collaborative(4).run(&inst, &cfg());
        assert!(out.archive.len() <= cfg().archive_capacity);
        assert_eq!(non_dominated_indices(&out.archive).len(), out.archive.len());
        for e in &out.archive {
            assert!(e.solution.check(&inst).is_empty());
        }
    }

    #[test]
    fn single_searcher_matches_sequential_quality_shape() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 8).build());
        let out = ParallelVariant::Collaborative(1).run(&inst, &cfg());
        assert_eq!(out.evaluations, 1_500);
        assert!(!out.archive.is_empty());
    }

    #[test]
    fn more_searchers_do_not_hurt_the_front() {
        // With per-searcher budgets, P searchers explore P× as much; the
        // merged front should (statistically) dominate more than a single
        // searcher's. Use the coverage metric with a fixed seed.
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 13).build());
        let one = ParallelVariant::Collaborative(1).run(&inst, &cfg().with_seed(21));
        let four = ParallelVariant::Collaborative(4).run(&inst, &cfg().with_seed(21));
        let c_four_over_one = pareto::coverage(&four.archive, &one.archive);
        let c_one_over_four = pareto::coverage(&one.archive, &four.archive);
        assert!(
            c_four_over_one >= c_one_over_four,
            "4 searchers ({c_four_over_one:.2}) should cover at least as well as 1 ({c_one_over_four:.2})"
        );
    }

    #[test]
    fn virtual_clock_merges_and_sums() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 5).build());
        let c = TsmoConfig {
            max_evaluations: 2_400,
            neighborhood_size: 60,
            ..TsmoConfig::default()
        };
        let out = on_virtual_clock(ParallelVariant::Collaborative(3), &inst, &c);
        assert_eq!(out.evaluations, 3 * 2_400);
        assert!(out.archive.len() <= c.archive_capacity);
        assert!(!out.archive.is_empty());
    }

    /// A collaborative step is charged like a sequential one: its
    /// evaluations plus the neighbors its selection considers.
    #[test]
    fn one_searcher_costs_what_the_sequential_search_costs() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 5).build());
        let seq = on_virtual_clock(ParallelVariant::Sequential, &inst, &cfg());
        let coll = on_virtual_clock(ParallelVariant::Collaborative(1), &inst, &cfg());
        let (s, c) = (seq.runtime_seconds, coll.runtime_seconds);
        assert!(
            (s - c).abs() < 1e-9 * s,
            "sequential {s}s vs collaborative {c}s"
        );
    }

    #[test]
    fn virtual_runtime_grows_with_searchers() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 50, 13).build());
        let c = TsmoConfig {
            max_evaluations: 4_000,
            neighborhood_size: 80,
            stagnation_limit: 10,
            sim_comm_latency: 0.002,
            ..TsmoConfig::default()
        }
        .with_seed(2);
        let small = on_virtual_clock(ParallelVariant::Collaborative(2), &inst, &c);
        let large = on_virtual_clock(ParallelVariant::Collaborative(8), &inst, &c);
        // Each searcher does the same work; more searchers add comm cost,
        // so the makespan must not shrink.
        assert!(
            large.runtime_seconds >= small.runtime_seconds * 0.9,
            "8 searchers {:.3}s vs 2 searchers {:.3}s",
            large.runtime_seconds,
            small.runtime_seconds
        );
    }
}

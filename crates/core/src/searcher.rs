//! One collaborative searcher, step-wise.
//!
//! [`ParallelVariant::Collaborative`](crate::ParallelVariant) runs this
//! loop on a thread per searcher on the wall clock, and steps the
//! searchers earliest-virtual-clock-first on the virtual clock; a cluster
//! node (`tsmo-cluster`) runs it against TCP-backed endpoints; a virtual
//! mesh steps many of them round-robin on one thread for byte-reproducible
//! distributed runs. All of them drive the identical state machine — the
//! only degree of freedom is the endpoint's transport and who calls
//! [`CollabSearcher::step_once`] when.

use crate::cancel::CancelToken;
use crate::config::TsmoConfig;
use crate::core_search::SearchCore;
use crate::fault_obs::record_fault;
use crate::neighborhood::generate_chunk;
use crate::outcome::FrontEntry;
use deme::multisearch::{Endpoint, PeerEvent};
use deme::EvaluationBudget;
use detrand::Xoshiro256StarStar;
use std::sync::Arc;
use tsmo_faults::{FaultHook, MsgFault};
use tsmo_obs::{
    metrics::names, ExchangeDirection, FaultKind, Recorder, SearchEvent, Span, Stopwatch,
};
use vrptw::Instance;

/// Sends `entry` to the head of `endpoint`'s rotation (with liveness
/// failover) and publishes the exchange telemetry.
pub(crate) fn send_entry(
    endpoint: &mut Endpoint<FrontEntry>,
    recorder: &Arc<dyn Recorder>,
    id: usize,
    entry: FrontEntry,
) {
    let vector = entry.objectives.to_vector();
    match endpoint.send_next(entry) {
        Some(peer) => {
            recorder.counter_add(names::EXCHANGE_SENT, 1);
            recorder.counter_add(names::EXCHANGES_SENT, 1);
            recorder.counter_add(&names::exchanges_sent_to_peer(peer), 1);
            if recorder.enabled() {
                recorder.event(SearchEvent::Exchange {
                    searcher: id as u32,
                    peer: peer as u32,
                    direction: ExchangeDirection::Sent,
                    objectives: vector,
                });
            }
        }
        None => {
            // Every peer is dead or disconnected; the entry is dropped.
            recorder.counter_add(names::EXCHANGE_UNDELIVERABLE, 1);
        }
    }
}

/// Drains the endpoint's liveness transitions into telemetry.
fn publish_peer_events(
    endpoint: &mut Endpoint<FrontEntry>,
    recorder: &Arc<dyn Recorder>,
    id: usize,
) {
    for transition in endpoint.take_peer_events() {
        match transition {
            PeerEvent::Died(peer) => {
                recorder.counter_add(names::PEERS_DEAD, 1);
                if recorder.enabled() {
                    recorder.event(SearchEvent::PeerDead {
                        searcher: id as u32,
                        peer: peer as u32,
                    });
                }
            }
            PeerEvent::Readmitted(peer) => {
                recorder.counter_add(names::PEERS_READMITTED, 1);
                if recorder.enabled() {
                    recorder.event(SearchEvent::PeerReadmitted {
                        searcher: id as u32,
                        peer: peer as u32,
                    });
                }
            }
        }
    }
}

/// The parameters searcher `id` runs with: searcher 0 keeps the base
/// configuration, every other searcher gets the paper's `N(0, param/4)`
/// disturbance drawn from its own stream. The draw order (communication
/// list first, then perturbation — see
/// [`comm_order`](deme::multisearch::comm_order)) is part of the
/// determinism contract shared by the thread, cluster, and virtual runs.
pub fn searcher_cfg(base: &TsmoConfig, id: usize, rng: &mut Xoshiro256StarStar) -> TsmoConfig {
    if id == 0 {
        base.clone()
    } else {
        base.perturbed(rng)
    }
}

/// The collaborative migration policy (§III.E), fed one step at a time.
///
/// During the *initial phase* nothing migrates; the phase ends when the
/// searcher "could not add any new solutions to the set of pareto optimal
/// solutions found for a number of iterations" (its stagnation limit).
/// Afterwards every `exchange_interval`-th archive improvement is offered
/// to the rotation (interval 1 sends all, the paper's policy).
#[derive(Debug, Clone)]
pub(crate) struct Migration {
    stagnation_limit: usize,
    interval: u64,
    initial_phase: bool,
    stagnation: usize,
    /// Post-initial-phase archive improvements seen.
    improvements: u64,
}

impl Migration {
    pub(crate) fn new(cfg: &TsmoConfig) -> Self {
        Self {
            stagnation_limit: cfg.stagnation_limit,
            interval: cfg.exchange_interval.max(1) as u64,
            initial_phase: true,
            stagnation: 0,
            improvements: 0,
        }
    }

    /// Feeds one step's archive improvement (if any); returns it when the
    /// policy migrates it.
    pub(crate) fn offer(&mut self, improved: Option<FrontEntry>) -> Option<FrontEntry> {
        if self.initial_phase {
            if improved.is_some() {
                self.stagnation = 0;
            } else {
                self.stagnation += 1;
                self.initial_phase = self.stagnation < self.stagnation_limit;
            }
            return None;
        }
        let entry = improved?;
        self.improvements += 1;
        (self.improvements - 1)
            .is_multiple_of(self.interval)
            .then_some(entry)
    }
}

/// What a finished searcher hands back for merging.
pub struct SearcherResult {
    /// The searcher's final `M_archive`.
    pub archive: Vec<FrontEntry>,
    /// Evaluations this searcher consumed from its own budget.
    pub evaluations: u64,
    /// Iterations performed.
    pub iterations: usize,
    /// Wall-clock seconds the searcher was active.
    pub active_seconds: f64,
}

/// One collaborative searcher as an explicit state machine: construct,
/// call [`step_once`](Self::step_once) until it returns `false`, then
/// [`finish`](Self::finish). The endpoint is passed per call rather than
/// owned, so a driver can hold many searchers and their endpoints in one
/// place (the virtual mesh) or hand each pair to a thread.
pub struct CollabSearcher {
    inst: Arc<Instance>,
    cfg: TsmoConfig,
    core: SearchCore,
    budget: EvaluationBudget,
    cancel: CancelToken,
    hook: Arc<dyn FaultHook>,
    recorder: Arc<dyn Recorder>,
    id: usize,
    migration: Migration,
    /// Fault bookkeeping: decision counter, local iteration ticks, and
    /// delayed messages waiting for their tick.
    exchange_seq: u64,
    tick: u64,
    delayed: Vec<(u64, FrontEntry)>,
    /// Units of work done so far (see [`work_done`](Self::work_done)).
    work: u64,
    watch: Stopwatch,
}

impl CollabSearcher {
    /// Builds searcher `id` with its (already perturbed — see
    /// [`searcher_cfg`]) configuration and its own evaluation budget.
    pub fn new(
        inst: Arc<Instance>,
        cfg: TsmoConfig,
        rng: Xoshiro256StarStar,
        recorder: Arc<dyn Recorder>,
        id: usize,
        cancel: CancelToken,
        hook: Arc<dyn FaultHook>,
    ) -> Self {
        let budget = EvaluationBudget::new(cfg.max_evaluations);
        let migration = Migration::new(&cfg);
        let core = SearchCore::with_recorder(
            Arc::clone(&inst),
            cfg.clone(),
            rng,
            Arc::clone(&recorder),
            id as u32,
        );
        Self {
            inst,
            cfg,
            core,
            budget,
            cancel,
            hook,
            recorder,
            id,
            migration,
            exchange_seq: 0,
            tick: 0,
            delayed: Vec::new(),
            work: 0,
            watch: Stopwatch::start(),
        }
    }

    /// This searcher's index in the network.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the next [`step_once`](Self::step_once) would do no work.
    pub fn done(&self) -> bool {
        self.budget.exhausted() || self.cancel.should_stop(self.core.iteration())
    }

    /// A copy of the searcher's current `M_archive` — what an archive
    /// checkpoint ships to the ring successor while the searcher keeps
    /// running. Reading it consumes no randomness, so checkpointing never
    /// perturbs the search trajectory.
    pub fn archive_snapshot(&self) -> Vec<FrontEntry> {
        self.core.archive_entries().to_vec()
    }

    /// Evaluations consumed from this searcher's budget so far. A
    /// checkpoint records it so a restarted incarnation of the same
    /// searcher id resumes with the remaining budget.
    pub fn evaluations_consumed(&self) -> u64 {
        self.budget.consumed()
    }

    /// Units of work done so far, the measure the virtual clock charges:
    /// received exchange entries, evaluations, and neighbors considered
    /// by selection steps.
    pub(crate) fn work_done(&self) -> u64 {
        self.work
    }

    /// Runs one iteration: release due delayed messages, drain the inbox
    /// into `M_nondom`, consume budget, step the core, and (after the
    /// initial phase) offer an archive improvement to the rotation.
    /// Returns `false` once the budget or the cancel token stops the
    /// searcher; the call is then a no-op and the caller moves to
    /// [`finish`](Self::finish).
    pub fn step_once(&mut self, endpoint: &mut Endpoint<FrontEntry>) -> bool {
        if self.done() {
            return false;
        }
        self.tick += 1;
        let (trace_id, span_parent) = (self.core.trace_id(), self.core.span_parent());
        let exchange_span = Span::enter(&self.recorder, "exchange", trace_id, span_parent);
        // Release delayed messages whose tick has come.
        if !self.delayed.is_empty() {
            let mut keep = Vec::new();
            let mut due = Vec::new();
            for (at, entry) in self.delayed.drain(..) {
                if at <= self.tick {
                    due.push(entry);
                } else {
                    keep.push((at, entry));
                }
            }
            self.delayed = keep;
            for entry in due {
                send_entry(endpoint, &self.recorder, self.id, entry);
            }
        }
        // Collaborate: incoming solutions feed M_nondom.
        self.recorder
            .observe(names::RESULT_QUEUE_DEPTH, endpoint.inbox_len() as f64);
        for entry in endpoint.drain() {
            self.recorder.counter_add(names::EXCHANGE_RECEIVED, 1);
            self.recorder.counter_add(names::EXCHANGES_RECEIVED, 1);
            if self.recorder.enabled() {
                self.recorder.event(SearchEvent::Exchange {
                    searcher: self.id as u32,
                    // The wire format carries no sender id.
                    peer: self.id as u32,
                    direction: ExchangeDirection::Received,
                    objectives: entry.objectives.to_vector(),
                });
            }
            self.core.offer_to_nondom(entry);
            self.work += 1;
        }
        drop(exchange_span);
        let granted = self.budget.try_consume(self.cfg.neighborhood_size as u64) as usize;
        if granted == 0 {
            return false;
        }
        self.recorder
            .counter_add(names::EVALUATIONS, granted as u64);
        let seed = self.core.next_seed();
        let eval_span = Span::enter(&self.recorder, "evaluate", trace_id, span_parent);
        let chunk = generate_chunk(
            &self.inst,
            self.core.snapshot(),
            seed,
            granted,
            self.core.sample_params(),
            self.core.iteration(),
        );
        drop(eval_span);
        self.core.note_tally(&chunk.tally);
        self.work += (granted + chunk.neighbors.len()) as u64;
        let report = self.core.step(chunk.neighbors);
        // The migration decision precedes the fault draw, so skipped
        // improvements consume no fault sequence numbers.
        if let Some(entry) = self.migration.offer(report.improved_archive) {
            let _span = Span::enter(&self.recorder, "exchange", trace_id, span_parent);
            let fault = if self.hook.active() {
                let seq = self.exchange_seq;
                self.exchange_seq += 1;
                (seq, self.hook.on_exchange(self.id, seq))
            } else {
                (0, MsgFault::Deliver)
            };
            match fault {
                (_, MsgFault::Deliver) => {
                    send_entry(endpoint, &self.recorder, self.id, entry);
                }
                (seq, MsgFault::Drop) => {
                    record_fault(
                        &*self.recorder,
                        self.id as u32,
                        seq,
                        FaultKind::ExchangeDrop,
                    );
                }
                (seq, MsgFault::Delay { ticks }) => {
                    record_fault(
                        &*self.recorder,
                        self.id as u32,
                        seq,
                        FaultKind::ExchangeDelay,
                    );
                    self.delayed.push((self.tick + ticks.max(1), entry));
                }
            }
        }
        publish_peer_events(endpoint, &self.recorder, self.id);
        true
    }

    /// Flushes still-delayed messages (best-effort; peers that already
    /// finished simply never receive them) and returns the searcher's
    /// archive and counters.
    pub fn finish(mut self, endpoint: &mut Endpoint<FrontEntry>) -> SearcherResult {
        for (_, entry) in std::mem::take(&mut self.delayed) {
            send_entry(endpoint, &self.recorder, self.id, entry);
        }
        publish_peer_events(endpoint, &self.recorder, self.id);
        let (archive, _, iterations) = self.core.finish();
        SearcherResult {
            archive,
            evaluations: self.budget.consumed(),
            iterations,
            active_seconds: self.watch.seconds(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::{Objectives, Solution};

    fn entry() -> FrontEntry {
        FrontEntry::new(
            Solution::from_routes(vec![vec![1]]),
            Objectives {
                distance: 1.0,
                vehicles: 1,
                tardiness: 0.0,
            },
        )
    }

    #[test]
    fn migration_waits_out_the_initial_phase_then_gates_by_interval() {
        let cfg = TsmoConfig {
            stagnation_limit: 2,
            exchange_interval: 2,
            ..TsmoConfig::default()
        };
        let mut m = Migration::new(&cfg);
        // Improvements reset the stagnation count and never migrate early.
        assert!(m.offer(Some(entry())).is_none());
        assert!(m.offer(None).is_none());
        assert!(m.offer(Some(entry())).is_none());
        assert!(m.offer(None).is_none());
        assert!(m.offer(None).is_none(), "second idle step ends the phase");
        // Every second improvement migrates; idle steps change nothing.
        assert!(m.offer(Some(entry())).is_some());
        assert!(m.offer(None).is_none());
        assert!(m.offer(Some(entry())).is_none());
        assert!(m.offer(Some(entry())).is_some());
    }
}

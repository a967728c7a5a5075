//! The virtual mesh: a whole mesh in one process and one thread, with
//! dynamic membership, searcher rebalancing, and replicated archive
//! checkpoints — deterministic and replayable.
//!
//! Real distributed runs interleave exchanges by wall clock, so two runs
//! of the same seed differ. The virtual mesh removes that freedom: every
//! hosted searcher steps once per round, in global id order, and every
//! transport is an in-process channel that logs what it delivers. With
//! [`ElasticMeshConfig::fixed`] the result is a byte-reproducible
//! distributed run — the same streams, communication lists, perturbations,
//! and two-stage front merge as the TCP mesh (per-node archives first,
//! then the global archive).
//!
//! On top of that, nodes can be killed mid-run (their searcher
//! incarnations die with their un-flushed archives), rejoin later, or
//! start dead and join late. Whenever the member set changes, a
//! deterministic rebalancer reassigns contiguous searcher-id slices over
//! the live slots: a searcher id that changes owner is finished gracefully
//! (its archive banked, its consumed budget recorded) and restarted on the
//! new owner with the *remaining* budget, its RNG stream, communication
//! list, and parameter perturbation re-derived from scratch — so ids that
//! never move keep the trajectory they have at fixed membership.
//!
//! Durability comes from archive replication: every `replication_every`
//! rounds (and once when a node's searchers finish) each live node cuts a
//! checkpoint — its current merged front plus per-id consumed budgets —
//! and ships it to its ring successor. A killed node's front is recovered
//! from the newest surviving replica: at final merge if it never returns,
//! or on re-admission (the entries are banked for its node front and the
//! budgets prevent re-doing paid-for evaluations). Checkpoint traffic
//! passes the same fault hook as exchanges (site `n_total + node`), so
//! drops and delays are part of the recorded behavior. Which replica is
//! newest, and whether a late checkpoint may replace the copy a holder
//! has, follow the replica rule the TCP mesh applies too
//! ([`newest_replica`], [`supersedes`]).
//!
//! Everything the network does — exchanges, checkpoints, leaves, joins,
//! rebalances — lands in one ordered [`NetRecord`] log. Replaying a run
//! with the same configuration verifies every record in order and reports
//! the first divergence; matching logs plus matching merged fronts are the
//! reproducibility proof `clusterctl --virtual-net` and the tests rely on.

use crate::lock;
use crate::membership::{
    assign_slices, merge_warm, newest_replica, owner_of, supersedes, ChurnEvent, ChurnKind,
    Membership, ReplicaStamp,
};
use crate::mesh::merge_node_fronts;
use crossbeam::channel::{unbounded, Receiver, Sender};
use deme::multisearch::{comm_order, Endpoint, Transport};
use detrand::streams;
use pareto::Archive;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use tsmo_core::{searcher_cfg, CancelToken, CollabSearcher, FrontEntry, TsmoConfig};
use tsmo_faults::{FaultHook, MsgFault};
use tsmo_obs::{metrics::names, Recorder, SearchEvent};
use vrptw::Instance;

/// The shape of a virtual mesh run.
#[derive(Debug, Clone)]
pub struct ElasticMeshConfig {
    /// Number of node slots (the *slice attribution* grid; live membership
    /// varies underneath it).
    pub nodes: usize,
    /// Searchers per node slot; `nodes * searchers_per_node` global ids.
    pub searchers_per_node: usize,
    /// Base search configuration (seed included).
    pub cfg: TsmoConfig,
    /// Rounds between archive checkpoints to the ring successor
    /// (`0` disables replication entirely).
    pub replication_every: u64,
    /// Capacity of a checkpointed front (`0` = `cfg.archive_capacity`).
    pub elite_count: usize,
    /// Node slots that start dead — late joiners admitted by a
    /// [`ChurnKind::Join`] event. Their searcher slice starts distributed
    /// over the live slots.
    pub deferred: Vec<usize>,
    /// Scheduled membership transitions, applied at the top of their round.
    pub churn: Vec<ChurnEvent>,
}

impl ElasticMeshConfig {
    /// A fixed mesh: no churn, no replication, every slot live throughout.
    pub fn fixed(nodes: usize, searchers_per_node: usize, cfg: TsmoConfig) -> Self {
        Self {
            nodes,
            searchers_per_node,
            cfg,
            replication_every: 0,
            elite_count: 0,
            deferred: Vec::new(),
            churn: Vec::new(),
        }
    }

    fn elite(&self) -> usize {
        if self.elite_count == 0 {
            self.cfg.archive_capacity
        } else {
            self.elite_count
        }
    }
}

/// One delivered exchange, as recorded by the virtual mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeRecord {
    /// Sending searcher's global id.
    pub from: usize,
    /// Receiving searcher's global id.
    pub to: usize,
    /// The delivered solution's objective vector.
    pub objectives: [f64; 3],
}

/// One entry of the virtual mesh's ordered network log. Replay verifies
/// each record in order; a mismatch pinpoints the first divergence.
#[derive(Debug, Clone, PartialEq)]
pub enum NetRecord {
    /// A delivered searcher-to-searcher exchange.
    Exchange(ExchangeRecord),
    /// A delivered archive checkpoint: `node`'s front of `entries` members
    /// (fingerprint-hashed to `fp`) stored at `holder`.
    Checkpoint {
        /// The checkpointing node slot.
        node: usize,
        /// The ring successor storing the replica.
        holder: usize,
        /// Round the checkpoint was delivered.
        round: u64,
        /// Members in the replicated front.
        entries: usize,
        /// FNV-1a 64 hash of the front's canonical fingerprint.
        fp: u64,
    },
    /// Node `node` left the mesh.
    Left {
        /// The departing slot.
        node: usize,
        /// Membership epoch after the departure.
        epoch: u64,
        /// Round of the transition.
        round: u64,
    },
    /// Node `node` (re)joined the mesh.
    Joined {
        /// The admitted slot.
        node: usize,
        /// Membership epoch after admission.
        epoch: u64,
        /// Round of the transition.
        round: u64,
    },
    /// The searcher-slice assignment after a membership change:
    /// `(node, start, end)` triples, exclusive end, in slot order.
    Rebalanced {
        /// Membership epoch of the assignment.
        epoch: u64,
        /// The contiguous slices, one per live slot.
        assignment: Vec<(usize, usize, usize)>,
    },
}

/// Result of a virtual mesh run.
#[derive(Debug)]
pub struct ElasticOutcome {
    /// The global merged front (two-stage merge, like the TCP mesh).
    pub front: Vec<FrontEntry>,
    /// Per-node-slot fronts: each slot's searcher slice plus anything
    /// recovered from its replicas, in slot order.
    pub node_fronts: Vec<Vec<FrontEntry>>,
    /// Evaluations consumed across all incarnations (killed ones included).
    pub evaluations: u64,
    /// Iterations summed over gracefully finished incarnations.
    pub iterations: u64,
    /// The ordered network log.
    pub log: Vec<NetRecord>,
    /// Rounds the round-robin loop ran.
    pub rounds: u64,
    /// Final membership epoch.
    pub final_epoch: u64,
    /// Slots whose contribution at merge time came (partly) from a
    /// replica: dead at the end, or re-admitted with a recovered front.
    pub recovered_nodes: Vec<usize>,
    /// Entries of the global front that match a replica-recovered entry.
    pub recovered_in_front: usize,
}

enum LogMode {
    Record,
    Verify {
        expected: Vec<NetRecord>,
        cursor: usize,
        divergence: Option<String>,
    },
}

/// Shared network state: the record/verify log plus the per-searcher-id
/// liveness table the transports consult — sending to a dead id fails the
/// delivery inside the call, exactly like a closed TCP connection.
struct NetState {
    mode: LogMode,
    seen: Vec<NetRecord>,
    live: Vec<bool>,
}

impl NetState {
    fn observe(&mut self, rec: NetRecord) {
        if let LogMode::Verify {
            expected,
            cursor,
            divergence,
        } = &mut self.mode
        {
            if divergence.is_none() {
                match expected.get(*cursor) {
                    Some(want) if *want == rec => {}
                    Some(want) => {
                        *divergence = Some(format!(
                            "record {} diverged: recorded {want:?}, replayed {rec:?}",
                            *cursor
                        ));
                    }
                    None => {
                        *divergence = Some(format!("replay produced extra record {rec:?}"));
                    }
                }
                *cursor += 1;
            }
        }
        self.seen.push(rec);
    }
}

/// The elastic channel transport: checks the target id's liveness under
/// the net lock (atomically with the send), logs delivered exchanges.
struct ElasticTransport {
    tx: Sender<FrontEntry>,
    from: usize,
    to: usize,
    net: Arc<Mutex<NetState>>,
}

impl Transport<FrontEntry> for ElasticTransport {
    fn send(&self, msg: FrontEntry) -> Result<(), FrontEntry> {
        let mut net = lock(&self.net);
        if !net.live[self.to] {
            return Err(msg);
        }
        let objectives = msg.objectives.to_vector();
        match self.tx.send(msg) {
            Ok(()) => {
                net.observe(NetRecord::Exchange(ExchangeRecord {
                    from: self.from,
                    to: self.to,
                    objectives,
                }));
                Ok(())
            }
            Err(e) => Err(e.0),
        }
    }
}

/// A stored archive checkpoint.
#[derive(Debug, Clone)]
struct Replica {
    stamp: ReplicaStamp,
    entries: Vec<FrontEntry>,
    /// `(searcher id, evaluations consumed)` at the checkpoint.
    evals: Vec<(usize, u64)>,
}

/// One searcher id's fixed infrastructure: its inbox channel (kept for the
/// whole run so peer links never dangle) and the budget its finished
/// incarnations have consumed.
struct Slot {
    tx: Sender<FrontEntry>,
    rx: Receiver<FrontEntry>,
    consumed: u64,
}

struct Hosted {
    searcher: CollabSearcher,
    endpoint: Endpoint<FrontEntry>,
}

/// Canonical byte serialization of a front, for identity comparisons: one
/// line per entry, objectives then routes, in archive order.
pub fn front_fingerprint(front: &[FrontEntry]) -> String {
    let mut out = String::new();
    for entry in front {
        let [d, v, t] = entry.objectives.to_vector();
        let _ = write!(out, "[{d},{v},{t}]");
        for route in entry.solution.routes() {
            out.push('|');
            for (i, site) in route.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{site}");
            }
        }
        out.push('\n');
    }
    out
}

/// FNV-1a 64 of a front's canonical fingerprint — a compact byte-identity
/// witness, as carried by checkpoint records.
pub fn fingerprint_hash(front: &[FrontEntry]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in front_fingerprint(front).bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the virtual mesh, recording its network log.
pub fn run_elastic(
    inst: &Arc<Instance>,
    em: &ElasticMeshConfig,
    recorder: Arc<dyn Recorder>,
    hook: Arc<dyn FaultHook>,
) -> ElasticOutcome {
    run(inst, em, recorder, hook, LogMode::Record).expect("record mode cannot diverge")
}

/// Re-runs the virtual mesh while verifying every network record against
/// `log`; `Err` carries the first divergence. A clean replay returns an
/// outcome byte-comparable to the recorded run's.
pub fn replay_elastic(
    inst: &Arc<Instance>,
    em: &ElasticMeshConfig,
    recorder: Arc<dyn Recorder>,
    hook: Arc<dyn FaultHook>,
    log: &[NetRecord],
) -> Result<ElasticOutcome, String> {
    run(
        inst,
        em,
        recorder,
        hook,
        LogMode::Verify {
            expected: log.to_vec(),
            cursor: 0,
            divergence: None,
        },
    )
}

struct Run<'a> {
    inst: &'a Arc<Instance>,
    em: &'a ElasticMeshConfig,
    recorder: Arc<dyn Recorder>,
    hook: Arc<dyn FaultHook>,
    n_total: usize,
    net: Arc<Mutex<NetState>>,
    membership: Membership,
    assignment: Vec<(usize, Range<usize>)>,
    slots: Vec<Slot>,
    hosted: Vec<Option<Hosted>>,
    /// Banked archives of finished incarnations, per searcher id.
    slice_results: Vec<Vec<FrontEntry>>,
    /// Replica-recovered entries banked for a re-admitted node's front.
    recovered: Vec<Vec<FrontEntry>>,
    /// Replicas held by each node, keyed by subject slot.
    replicas: Vec<BTreeMap<usize, Replica>>,
    /// Checkpoints delayed by a fault: `(due round, holder, subject, rep)`.
    delayed_ckpts: Vec<(u64, usize, usize, Replica)>,
    /// Per-node checkpoint fault-decision counters.
    ckpt_seq: Vec<u64>,
    /// Whether a node has cut its all-searchers-done checkpoint since the
    /// last rebalance.
    final_ckpt: Vec<bool>,
    recovered_nodes: Vec<usize>,
    evaluations: u64,
    iterations: u64,
}

impl Run<'_> {
    fn hosted_ids(&self, node: usize) -> Range<usize> {
        self.assignment
            .iter()
            .find(|(slot, _)| *slot == node)
            .map(|(_, r)| r.clone())
            .unwrap_or(0..0)
    }

    /// The newest replica of `subject` held by any live node (see
    /// [`newest_replica`]).
    fn replica_of(&self, subject: usize) -> Option<&Replica> {
        newest_replica(
            self.membership
                .live_indices()
                .into_iter()
                .filter_map(|holder| {
                    let rep = self.replicas[holder].get(&subject)?;
                    Some((holder, rep.stamp, rep))
                }),
        )
    }

    /// Budget known (from surviving replicas) to have been consumed by
    /// searcher `id` — caps the work a restarted incarnation re-does.
    fn replicated_evals(&self, id: usize) -> u64 {
        let mut max = 0;
        for holder in self.membership.live_indices() {
            for rep in self.replicas[holder].values() {
                for &(rid, evals) in &rep.evals {
                    if rid == id && evals > max {
                        max = evals;
                    }
                }
            }
        }
        max
    }

    /// The merged front over every surviving replica (newest per subject,
    /// subjects ascending) — what a restarted searcher is warm-started
    /// with.
    fn replica_front(&self) -> Vec<FrontEntry> {
        let mut merged = Archive::new(self.em.cfg.archive_capacity);
        for subject in 0..self.em.nodes {
            if let Some(rep) = self.replica_of(subject) {
                merged.absorb(rep.entries.iter().cloned());
            }
        }
        merged.into_items()
    }

    /// Builds a fresh incarnation of searcher `id` with `remaining`
    /// evaluations, re-deriving its RNG stream, communication list, and
    /// perturbation from scratch — the same draws the static mesh made, so
    /// determinism survives the restart.
    fn spawn_incarnation(&mut self, id: usize, remaining: u64) {
        let mut rngs = streams(self.em.cfg.seed, self.n_total);
        let rng = &mut rngs[id];
        let order = comm_order(self.n_total, id, rng);
        let mut cfg = searcher_cfg(&self.em.cfg, id, rng);
        cfg.max_evaluations = remaining;
        let links: Vec<(usize, Box<dyn Transport<FrontEntry>>)> = order
            .into_iter()
            .map(|p| {
                (
                    p,
                    Box::new(ElasticTransport {
                        tx: self.slots[p].tx.clone(),
                        from: id,
                        to: p,
                        net: Arc::clone(&self.net),
                    }) as Box<dyn Transport<FrontEntry>>,
                )
            })
            .collect();
        let endpoint = Endpoint::from_links(id, self.slots[id].rx.clone(), links);
        let rng = rngs.swap_remove(id);
        let searcher = CollabSearcher::new(
            Arc::clone(self.inst),
            cfg,
            rng,
            Arc::clone(&self.recorder),
            id,
            CancelToken::never(),
            Arc::clone(&self.hook),
        );
        self.hosted[id] = Some(Hosted { searcher, endpoint });
    }

    /// Recomputes the slice assignment for the current membership and
    /// migrates searchers whose owner changed: the old incarnation is
    /// finished gracefully (archive banked, budget recorded) and a new one
    /// is spawned with the remaining budget, warm-started from the
    /// replicated fronts. Ids whose owner is unchanged are untouched —
    /// their endpoints keep rotation state, so fixed membership stays
    /// byte-identical.
    fn rebalance(&mut self, warm: bool) {
        let new_assignment = assign_slices(self.n_total, &self.membership.live_indices());
        let warm_front = if warm {
            self.replica_front()
        } else {
            Vec::new()
        };
        for id in 0..self.n_total {
            let old = owner_of(&self.assignment, id);
            let new = owner_of(&new_assignment, id);
            if old == new && self.hosted[id].is_some() {
                continue;
            }
            // Gracefully migrate a live incarnation off its old owner.
            self.finish_incarnation(id);
            if new.is_none() {
                continue;
            }
            // Replicated checkpoints bound the budget a restart re-does.
            let known = self.replicated_evals(id);
            if known > self.slots[id].consumed {
                self.slots[id].consumed = known;
            }
            let remaining = self
                .em
                .cfg
                .max_evaluations
                .saturating_sub(self.slots[id].consumed);
            if remaining == 0 {
                self.set_live(id, false);
                continue;
            }
            self.spawn_incarnation(id, remaining);
            self.set_live(id, true);
            // Drop anything addressed to the dead incarnation, then warm
            // the new one with the mesh's replicated knowledge.
            while self.slots[id].rx.try_recv().is_ok() {}
            for entry in &warm_front {
                let _ = self.slots[id].tx.send(entry.clone());
            }
            // Peers that marked this id dead while it was down are healed
            // by the membership announcement, not left to probe luck.
            for peer in 0..self.n_total {
                if let Some(h) = self.hosted[peer].as_mut() {
                    h.endpoint.revive_peer(id);
                }
            }
        }
        self.assignment = new_assignment;
        self.final_ckpt = vec![false; self.em.nodes];
        let epoch = self.membership.epoch;
        let triples: Vec<(usize, usize, usize)> = self
            .assignment
            .iter()
            .map(|(slot, r)| (*slot, r.start, r.end))
            .collect();
        for (slot, r) in &self.assignment {
            self.recorder.counter_add(names::SLICES_REBALANCED, 1);
            if self.recorder.enabled() {
                self.recorder.event(SearchEvent::SliceRebalanced {
                    epoch,
                    node: *slot as u32,
                    start: r.start as u32,
                    len: r.len() as u32,
                });
            }
        }
        self.observe(NetRecord::Rebalanced {
            epoch,
            assignment: triples,
        });
    }

    /// Finishes searcher `id`'s live incarnation, if any: its archive is
    /// banked and its consumed budget recorded.
    fn finish_incarnation(&mut self, id: usize) {
        if let Some(Hosted {
            searcher,
            mut endpoint,
        }) = self.hosted[id].take()
        {
            let result = searcher.finish(&mut endpoint);
            self.slots[id].consumed += result.evaluations;
            self.evaluations += result.evaluations;
            self.iterations += result.iterations as u64;
            self.slice_results[id].extend(result.archive);
        }
    }

    fn set_live(&mut self, id: usize, live: bool) {
        lock(&self.net).live[id] = live;
    }

    fn observe(&self, rec: NetRecord) {
        lock(&self.net).observe(rec);
    }

    /// Cuts node `h`'s checkpoint — the merged front of its hosted slice
    /// (live snapshots plus banked archives) and per-id budgets — and
    /// ships it to the ring successor through the fault hook (site
    /// `n_total + h`).
    fn checkpoint(&mut self, h: usize, round: u64) {
        let Some(succ) = self.membership.ring_successor(h) else {
            return;
        };
        let ids = self.hosted_ids(h);
        let mut front = Archive::new(self.em.elite());
        let mut evals = Vec::new();
        for id in ids {
            front.absorb(self.slice_results[id].iter().cloned());
            let mut consumed = self.slots[id].consumed;
            if let Some(hosted) = self.hosted[id].as_ref() {
                front.absorb(hosted.searcher.archive_snapshot());
                consumed += hosted.searcher.evaluations_consumed();
            }
            evals.push((id, consumed));
        }
        let stamp = ReplicaStamp {
            epoch: self.membership.epoch,
            evaluations: evals.iter().map(|&(_, e)| e).sum(),
        };
        let rep = Replica {
            stamp,
            entries: front.into_items(),
            evals,
        };
        let fault = if self.hook.active() {
            let seq = self.ckpt_seq[h];
            self.ckpt_seq[h] += 1;
            self.hook.on_exchange(self.n_total + h, seq)
        } else {
            MsgFault::Deliver
        };
        match fault {
            MsgFault::Deliver => self.deliver_checkpoint(h, succ, round, rep),
            MsgFault::Drop => {}
            MsgFault::Delay { ticks } => {
                self.delayed_ckpts
                    .push((round + ticks.max(1), succ, h, rep));
            }
        }
    }

    fn deliver_checkpoint(&mut self, subject: usize, holder: usize, round: u64, rep: Replica) {
        if !self.membership.members[holder].live {
            return; // The successor died while the checkpoint was in flight.
        }
        let held = self.replicas[holder].get(&subject).map(|r| r.stamp);
        if !supersedes(rep.stamp, held) {
            return; // A delayed cut older than the copy already held.
        }
        let entries = rep.entries.len();
        let fp = fingerprint_hash(&rep.entries);
        self.replicas[holder].insert(subject, rep);
        self.recorder.counter_add(names::ARCHIVES_REPLICATED, 1);
        if self.recorder.enabled() {
            self.recorder.event(SearchEvent::ArchiveReplicated {
                node: subject as u32,
                holder: holder as u32,
                entries: entries as u32,
            });
        }
        self.observe(NetRecord::Checkpoint {
            node: subject,
            holder,
            round,
            entries,
            fp,
        });
    }

    fn kill(&mut self, node: usize, round: u64) {
        if !self.membership.mark_left(node) {
            return;
        }
        let epoch = self.membership.epoch;
        self.recorder.counter_add(names::MEMBERS_LEFT, 1);
        self.recorder
            .gauge_max(names::MEMBERSHIP_EPOCH, epoch as f64);
        if self.recorder.enabled() {
            self.recorder.event(SearchEvent::MemberLeft {
                node: node as u32,
                epoch,
            });
        }
        self.observe(NetRecord::Left { node, epoch, round });
        // The node's incarnations die un-flushed; their archives and
        // partial budgets are lost (that is what replication recovers).
        for id in self.hosted_ids(node) {
            if let Some(h) = self.hosted[id].take() {
                self.evaluations += h.searcher.evaluations_consumed();
            }
            self.set_live(id, false);
            while self.slots[id].rx.try_recv().is_ok() {}
        }
        // Replicas it held, and checkpoints in flight to it, die with it.
        self.replicas[node].clear();
        self.delayed_ckpts
            .retain(|(_, holder, _, _)| *holder != node);
        self.rebalance(true);
    }

    fn join(&mut self, node: usize, round: u64) {
        if !self.membership.revive(node) {
            return;
        }
        let epoch = self.membership.epoch;
        self.recorder.counter_add(names::MEMBERS_JOINED, 1);
        self.recorder
            .gauge_max(names::MEMBERSHIP_EPOCH, epoch as f64);
        if self.recorder.enabled() {
            self.recorder.event(SearchEvent::MemberJoined {
                node: node as u32,
                epoch,
            });
        }
        self.observe(NetRecord::Joined { node, epoch, round });
        // Recover the node's own front from the newest surviving replica;
        // the entries are banked straight into its node front (warm-start
        // inbox deliveries feed `M_nondom`, which never reaches the final
        // merge on its own).
        if let Some(rep) = self.replica_of(node).cloned() {
            self.recovered[node].extend(rep.entries);
            self.recorder.counter_add(names::ARCHIVES_RECOVERED, 1);
            if !self.recovered_nodes.contains(&node) {
                self.recovered_nodes.push(node);
            }
        }
        self.rebalance(true);
    }
}

fn run(
    inst: &Arc<Instance>,
    em: &ElasticMeshConfig,
    recorder: Arc<dyn Recorder>,
    hook: Arc<dyn FaultHook>,
    mode: LogMode,
) -> Result<ElasticOutcome, String> {
    assert!(em.nodes > 0 && em.searchers_per_node > 0, "empty mesh");
    for e in &em.churn {
        assert!(e.node < em.nodes, "churn node {} out of range", e.node);
    }
    let n_total = em.nodes * em.searchers_per_node;
    let net = Arc::new(Mutex::new(NetState {
        mode,
        seen: Vec::new(),
        live: vec![false; n_total],
    }));
    let mut membership = Membership::new(&vec![String::new(); em.nodes]);
    for &d in &em.deferred {
        assert!(d < em.nodes, "deferred node {d} out of range");
        membership.mark_left(d);
    }
    assert!(membership.live_count() > 0, "every node deferred");
    let slots: Vec<Slot> = (0..n_total)
        .map(|_| {
            let (tx, rx) = unbounded::<FrontEntry>();
            Slot {
                tx,
                rx,
                consumed: 0,
            }
        })
        .collect();
    let mut r = Run {
        inst,
        em,
        recorder,
        hook,
        n_total,
        net,
        membership,
        assignment: Vec::new(),
        slots,
        hosted: (0..n_total).map(|_| None).collect(),
        slice_results: vec![Vec::new(); n_total],
        recovered: vec![Vec::new(); em.nodes],
        replicas: vec![BTreeMap::new(); em.nodes],
        delayed_ckpts: Vec::new(),
        ckpt_seq: vec![0; em.nodes],
        final_ckpt: vec![false; em.nodes],
        recovered_nodes: Vec::new(),
        evaluations: 0,
        iterations: 0,
    };
    // Initial placement: the whole id grid over the initially-live slots.
    // No warm-start — there is nothing replicated yet.
    r.rebalance(false);

    let mut churn = em.churn.clone();
    churn.sort_by_key(|e| e.round);
    let mut churn_cursor = 0;
    let mut round: u64 = 0;
    loop {
        round += 1;
        // Membership transitions scheduled for this round fire first.
        while churn_cursor < churn.len() && churn[churn_cursor].round <= round {
            let e = churn[churn_cursor];
            churn_cursor += 1;
            match e.kind {
                ChurnKind::Kill => r.kill(e.node, round),
                ChurnKind::Join => r.join(e.node, round),
            }
        }
        // Fault-delayed checkpoints whose round has come.
        let (due, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut r.delayed_ckpts)
            .into_iter()
            .partition(|item| item.0 <= round);
        r.delayed_ckpts = keep;
        for (_, holder, subject, rep) in due {
            r.deliver_checkpoint(subject, holder, round, rep);
        }
        // One synchronous round: every hosted searcher steps once, in
        // global id order, so searcher i runs its iteration k before anyone
        // runs iteration k+1 — which pins the delivery order of every
        // exchange.
        let mut any = false;
        for id in 0..n_total {
            if let Some(h) = r.hosted[id].as_mut() {
                any |= h.searcher.step_once(&mut h.endpoint);
            }
        }
        if em.replication_every > 0 {
            if round.is_multiple_of(em.replication_every) {
                for h in r.membership.live_indices() {
                    r.checkpoint(h, round);
                }
            }
            // A node whose hosted searchers all finished cuts one last
            // checkpoint, so its complete front survives a later kill.
            for h in r.membership.live_indices() {
                if r.final_ckpt[h] {
                    continue;
                }
                let ids = r.hosted_ids(h);
                if ids.is_empty() {
                    continue;
                }
                let done = ids
                    .clone()
                    .all(|id| r.hosted[id].as_ref().is_none_or(|x| x.searcher.done()));
                if done {
                    r.checkpoint(h, round);
                    r.final_ckpt[h] = true;
                }
            }
        }
        let pending = churn_cursor < churn.len() || !r.delayed_ckpts.is_empty();
        if !any && !pending {
            break;
        }
    }

    // Gather: finish the surviving incarnations and bank their archives.
    for id in 0..n_total {
        r.finish_incarnation(id);
    }
    // Two-stage merge on the slot grid: each slot's front is its searcher
    // slice's banked archives (id order), plus — folded in by
    // `merge_warm`, so crowding cannot drop them — anything recovered on
    // rejoin and, for a slot dead at the end, the newest surviving replica.
    let mut recovered_entries: Vec<[f64; 3]> = Vec::new();
    let mut node_fronts = Vec::with_capacity(em.nodes);
    for node in 0..em.nodes {
        let mut archive = Archive::new(em.cfg.archive_capacity);
        for id in node * em.searchers_per_node..(node + 1) * em.searchers_per_node {
            archive.absorb(r.slice_results[id].iter().cloned());
        }
        let mut warm = std::mem::take(&mut r.recovered[node]);
        if !r.membership.members[node].live {
            if let Some(entries) = r.replica_of(node).map(|rep| rep.entries.clone()) {
                if !entries.is_empty() && !r.recovered_nodes.contains(&node) {
                    r.recovered_nodes.push(node);
                }
                warm.extend(entries);
            }
        }
        recovered_entries.extend(warm.iter().map(|e| e.objectives.to_vector()));
        node_fronts.push(merge_warm(archive, warm));
    }
    let front = merge_node_fronts(&node_fronts, em.cfg.archive_capacity);
    let recovered_in_front = front
        .iter()
        .filter(|e| recovered_entries.contains(&e.objectives.to_vector()))
        .count();

    let final_epoch = r.membership.epoch;
    let mut recovered_nodes = std::mem::take(&mut r.recovered_nodes);
    recovered_nodes.sort_unstable();
    let evaluations = r.evaluations;
    let iterations = r.iterations;
    let net = Arc::clone(&r.net);
    // Dropping the run state releases every transport's handle on the net
    // (endpoints died during gather), leaving ours the last one.
    drop(r);
    let net = Arc::try_unwrap(net)
        .map_err(|_| "transport handles outlived the run".to_string())?
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let LogMode::Verify {
        expected,
        cursor,
        divergence,
    } = net.mode
    {
        if let Some(d) = divergence {
            return Err(d);
        }
        if cursor != expected.len() {
            return Err(format!(
                "replay produced {cursor} records, recording has {}",
                expected.len()
            ));
        }
    }
    Ok(ElasticOutcome {
        front,
        node_fronts,
        evaluations,
        iterations,
        log: net.seen,
        rounds: round,
        final_epoch,
        recovered_nodes,
        recovered_in_front,
    })
}

//! Worker recovery: one pure policy, and the thread pool that obeys it.
//!
//! The pool itself ([`MasterWorker`]) only *reports* failures: a task
//! panic surfaces as [`PoolError::WorkerPanicked`] and a fully retired
//! pool as [`PoolError::Disconnected`]. [`SupervisorPolicy`] decides what
//! to do about them:
//!
//! * **Quarantine + respawn** — [`SupervisorConfig::quarantine_after`]
//!   *consecutive* panics of one worker quarantine it: the slot is either
//!   respawned (fresh thread, bounded by [`SupervisorConfig::max_respawns`])
//!   or retired, and its unanswered tasks are redistributed.
//! * **Resend with budget** — a panicked task (and a quarantined worker's
//!   orphans) is resent to the next live worker, round-robin, up to
//!   [`SupervisorConfig::max_retries`] attempts; after that, or when no
//!   live worker is left, the task is declared lost and the caller simply
//!   never sees its result (in the asynchronous tabu search this is a
//!   permanently stale neighbor, sound by construction).
//! * **Degraded mode** — when fewer than [`SupervisorConfig::quorum`]
//!   workers remain live, the policy reports [`SupervisorPolicy::degraded`];
//!   the caller falls back to master-local evaluation instead of aborting.
//!
//! The order is fixed: a panic first decides quarantine, then routes the
//! failed task and (if quarantined) the worker's orphans. So a task is
//! routed once per failure, even when the round-robin lands on the worker
//! that just respawned.
//!
//! The policy is pure — no threads, no pool, no clock, no sleep — so both
//! clocks drive the same rules: [`Supervisor`] feeds it the pool's
//! replies and panics on the wall clock, and `tsmo-core`'s virtual
//! executor feeds it injected faults in virtual time.
//!
//! Correlating a panic with the task that caused it relies on a FIFO
//! invariant: each worker is single-threaded and serves its task channel
//! in order, so per-worker replies (success *or* panic) come back in
//! dispatch order. [`Supervisor`] therefore keeps one FIFO of in-flight
//! tasks per worker and pops the front on every reply.
//!
//! Recovery actions are logged as ordered [`RecoveryEvent`]s, drained with
//! `take_events` (so callers can forward transitions to a telemetry
//! recorder without this crate depending on one); [`RecoveryStats`] is
//! derived from the same log.

use std::collections::VecDeque;
use std::time::Duration;

use crate::master_worker::{MasterWorker, PoolError};

/// Tuning knobs for the recovery policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Maximum resend attempts per task before declaring it lost.
    pub max_retries: u32,
    /// Consecutive panics of one worker that trigger quarantine.
    pub quarantine_after: u32,
    /// Respawns allowed per worker slot before it is retired for good.
    pub max_respawns: u32,
    /// Minimum live workers; below this the supervisor enters degraded
    /// mode (master-local evaluation) instead of erroring.
    pub quorum: usize,
    /// Base backoff before a resend; attempt `k` waits `base << k`,
    /// capped by `backoff_cap`. Zero disables sleeping (useful in tests).
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_retries: 3,
            quarantine_after: 3,
            max_respawns: 1,
            quorum: 1,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(16),
        }
    }
}

impl SupervisorConfig {
    /// The pause before resend attempt `attempt`: `backoff_base << attempt`,
    /// capped by `backoff_cap`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        self.backoff_base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.backoff_cap)
    }
}

/// One recovery action, in the order it was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A panicked/lost task was resent (to `worker`, as attempt `attempt`).
    TaskResent {
        /// Worker the task was resent to.
        worker: usize,
        /// Resend attempt number (1-based).
        attempt: u32,
    },
    /// A task exhausted its retry budget (or no live worker remained) and
    /// was dropped.
    TaskLost {
        /// Worker whose failure exhausted the budget.
        worker: usize,
    },
    /// A worker hit the consecutive-panic threshold and was pulled out of
    /// rotation.
    WorkerQuarantined {
        /// The quarantined worker.
        worker: usize,
    },
    /// A quarantined worker was replaced by a fresh thread.
    WorkerRespawned {
        /// The respawned worker slot.
        worker: usize,
    },
    /// Live workers fell below quorum; the caller should evaluate
    /// master-locally from here on.
    Degraded {
        /// Live workers remaining at the transition.
        live_workers: usize,
    },
}

/// Aggregate recovery counters (monotonic over the supervisor's life).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Tasks resent after a panic or a quarantine redistribution.
    pub tasks_resent: u64,
    /// Tasks dropped after exhausting the retry budget.
    pub tasks_lost: u64,
    /// Quarantine transitions.
    pub workers_quarantined: u64,
    /// Respawn transitions.
    pub workers_respawned: u64,
    /// Whether degraded mode was ever entered.
    pub degraded: bool,
}

/// The policy's answer to a panic, carried out quarantine first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicPlan {
    /// Set when the panic quarantined the worker.
    pub quarantine: Option<Quarantine>,
    /// One route per routed task, in `in_flight` order: the failed task
    /// alone, or every task of a quarantined worker.
    pub routes: Vec<Route>,
}

/// What becomes of a quarantined worker's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quarantine {
    /// A fresh thread replaces it; the slot stays live.
    Respawn,
    /// It leaves the rotation for good.
    Retire,
}

/// Where a routed task goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// To `worker`, as resend attempt `attempt` (1-based).
    Resend {
        /// The live worker that runs the task next.
        worker: usize,
        /// Resend attempt number.
        attempt: u32,
    },
    /// Nowhere: the task is lost.
    Lose,
}

#[derive(Debug, Clone, Copy, Default)]
struct SlotState {
    consecutive_panics: u32,
    respawns_used: u32,
    retired: bool,
}

/// The worker-recovery rules as a pure state machine: it is told about
/// replies, panics and pool disconnects, and answers a panic with a
/// [`PanicPlan`]. See the module docs for the rules.
#[derive(Debug, Clone)]
pub struct SupervisorPolicy {
    cfg: SupervisorConfig,
    slots: Vec<SlotState>,
    degraded: bool,
    cursor: usize,
    log: Vec<RecoveryEvent>,
    drained: usize,
}

impl SupervisorPolicy {
    /// A policy over `n_workers` live slots.
    pub fn new(n_workers: usize, cfg: SupervisorConfig) -> Self {
        Self {
            cfg,
            slots: vec![SlotState::default(); n_workers],
            degraded: false,
            cursor: 0,
            log: Vec::new(),
            drained: 0,
        }
    }

    /// The configuration this policy enforces.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Total worker slots (live and retired).
    pub fn n_workers(&self) -> usize {
        self.slots.len()
    }

    /// Workers still in rotation.
    pub fn live_workers(&self) -> usize {
        self.slots.iter().filter(|s| !s.retired).count()
    }

    /// Whether `worker` is still in rotation.
    pub fn is_live(&self, worker: usize) -> bool {
        !self.slots[worker].retired
    }

    /// True once live workers dropped below quorum.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Aggregate counters, derived from the event log.
    pub fn stats(&self) -> RecoveryStats {
        let mut stats = RecoveryStats::default();
        for event in &self.log {
            match event {
                RecoveryEvent::TaskResent { .. } => stats.tasks_resent += 1,
                RecoveryEvent::TaskLost { .. } => stats.tasks_lost += 1,
                RecoveryEvent::WorkerQuarantined { .. } => stats.workers_quarantined += 1,
                RecoveryEvent::WorkerRespawned { .. } => stats.workers_respawned += 1,
                RecoveryEvent::Degraded { .. } => stats.degraded = true,
            }
        }
        stats
    }

    /// The recovery actions taken since the last call, in order.
    pub fn take_events(&mut self) -> Vec<RecoveryEvent> {
        let fresh = self.log[self.drained..].to_vec();
        self.drained = self.log.len();
        fresh
    }

    /// `worker` answered a task: its consecutive-panic count resets.
    pub fn on_reply(&mut self, worker: usize) {
        self.slots[worker].consecutive_panics = 0;
    }

    /// `worker` panicked. `in_flight` holds the attempt numbers of its
    /// unanswered tasks, oldest — the failed one — first; the rest are
    /// orphaned if the panic quarantines the worker.
    pub fn on_panic(&mut self, worker: usize, in_flight: &[u32]) -> PanicPlan {
        let slot = &mut self.slots[worker];
        slot.consecutive_panics += 1;
        let mut quarantine = None;
        if slot.consecutive_panics >= self.cfg.quarantine_after {
            self.log.push(RecoveryEvent::WorkerQuarantined { worker });
            if slot.respawns_used < self.cfg.max_respawns {
                slot.respawns_used += 1;
                slot.consecutive_panics = 0;
                self.log.push(RecoveryEvent::WorkerRespawned { worker });
                quarantine = Some(Quarantine::Respawn);
            } else {
                slot.retired = true;
                quarantine = Some(Quarantine::Retire);
                self.check_quorum();
            }
        }
        let routed = if quarantine.is_some() {
            in_flight
        } else {
            &in_flight[..in_flight.len().min(1)]
        };
        let routes = routed.iter().map(|&a| self.route(worker, a)).collect();
        PanicPlan { quarantine, routes }
    }

    /// Every worker is gone: all slots retire, and the `in_flight[w]`
    /// unanswered tasks of each worker `w` are lost.
    pub fn on_disconnect(&mut self, in_flight: &[usize]) {
        for (worker, &tasks) in in_flight.iter().enumerate() {
            self.slots[worker].retired = true;
            for _ in 0..tasks {
                self.log.push(RecoveryEvent::TaskLost { worker });
            }
        }
        self.check_quorum();
    }

    /// Enters degraded mode the first time live workers fall below quorum.
    fn check_quorum(&mut self) {
        let live_workers = self.live_workers();
        if !self.degraded && live_workers < self.cfg.quorum {
            self.degraded = true;
            self.log.push(RecoveryEvent::Degraded { live_workers });
        }
    }

    /// Routes a task that failed on `origin` at `attempt`: to the next
    /// live worker, round-robin, or lost when the budget or the pool is
    /// exhausted.
    fn route(&mut self, origin: usize, attempt: u32) -> Route {
        let n = self.slots.len();
        let target = (0..n)
            .map(|step| (self.cursor + step) % n)
            .find(|&w| !self.slots[w].retired);
        match target {
            Some(worker) if attempt < self.cfg.max_retries => {
                self.cursor = (worker + 1) % n;
                let attempt = attempt + 1;
                self.log.push(RecoveryEvent::TaskResent { worker, attempt });
                Route::Resend { worker, attempt }
            }
            _ => {
                self.log.push(RecoveryEvent::TaskLost { worker: origin });
                Route::Lose
            }
        }
    }
}

struct Tracked<T> {
    task: T,
    attempt: u32,
}

/// Self-healing façade over a [`MasterWorker`] pool: the pool, one FIFO
/// of in-flight tasks per worker, and a [`SupervisorPolicy`] that decides
/// every recovery.
///
/// All sends and receives must go through the supervisor (it owns the
/// pool) so the per-worker in-flight FIFOs stay accurate.
pub struct Supervisor<T: Send + Clone + 'static, R: Send + 'static> {
    pool: MasterWorker<T, R>,
    policy: SupervisorPolicy,
    in_flight: Vec<VecDeque<Tracked<T>>>,
}

impl<T: Send + Clone + 'static, R: Send + 'static> Supervisor<T, R> {
    /// Wraps `pool` with the recovery policy in `cfg`.
    pub fn new(pool: MasterWorker<T, R>, cfg: SupervisorConfig) -> Self {
        let n = pool.n_workers();
        Self {
            pool,
            policy: SupervisorPolicy::new(n, cfg),
            in_flight: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Total worker slots (live and retired).
    pub fn n_workers(&self) -> usize {
        self.policy.n_workers()
    }

    /// Workers still in rotation.
    pub fn live_workers(&self) -> usize {
        self.policy.live_workers()
    }

    /// Whether `worker` is still in rotation.
    pub fn is_live(&self, worker: usize) -> bool {
        self.policy.is_live(worker)
    }

    /// Whether `worker` is live with nothing in flight.
    pub fn is_idle(&self, worker: usize) -> bool {
        self.is_live(worker) && self.in_flight[worker].is_empty()
    }

    /// Tasks currently in flight on `worker`.
    pub fn in_flight(&self, worker: usize) -> usize {
        self.in_flight[worker].len()
    }

    /// True once live workers dropped below quorum; the caller should
    /// evaluate master-locally and stop dispatching.
    pub fn degraded(&self) -> bool {
        self.policy.degraded()
    }

    /// Aggregate recovery counters.
    pub fn stats(&self) -> RecoveryStats {
        self.policy.stats()
    }

    /// Drains the ordered recovery-action log accumulated since the last
    /// call (for forwarding into a telemetry recorder).
    pub fn take_events(&mut self) -> Vec<RecoveryEvent> {
        self.policy.take_events()
    }

    /// Read access to the wrapped pool (queue depths, worker stats).
    pub fn pool(&self) -> &MasterWorker<T, R> {
        &self.pool
    }

    /// Shuts the wrapped pool down, joining all worker threads.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }

    /// Dispatches `task` to `worker` (which must be live).
    ///
    /// # Panics
    /// Panics if `worker` is retired — check [`Supervisor::is_live`]
    /// first, or pick a target with [`Supervisor::idle_live_workers`].
    pub fn send(&mut self, worker: usize, task: T) {
        assert!(
            self.is_live(worker),
            "task dispatched to retired worker {worker}"
        );
        self.pool.send(worker, task.clone());
        self.in_flight[worker].push_back(Tracked { task, attempt: 0 });
    }

    /// Live workers with an empty in-flight queue, in slot order.
    pub fn idle_live_workers(&self) -> Vec<usize> {
        (0..self.n_workers()).filter(|&w| self.is_idle(w)).collect()
    }

    /// Non-blocking receive. Panics and dead workers are absorbed into
    /// the recovery policy; `None` means no result is ready (or the pool
    /// is degraded and will never produce one).
    pub fn try_recv(&mut self) -> Option<(usize, R)> {
        self.recv_with(MasterWorker::try_recv)
    }

    /// Receive with a timeout; `None` on timeout or degraded pool. Same
    /// failure absorption as [`Supervisor::try_recv`].
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<(usize, R)> {
        let deadline = std::time::Instant::now() + timeout;
        self.recv_with(|pool| {
            pool.recv_timeout(deadline.saturating_duration_since(std::time::Instant::now()))
        })
    }

    /// Polls the pool with `poll` until it yields a result or nothing,
    /// feeding every reply, panic and disconnect to the policy.
    fn recv_with(
        &mut self,
        mut poll: impl FnMut(&MasterWorker<T, R>) -> Result<Option<(usize, R)>, PoolError>,
    ) -> Option<(usize, R)> {
        loop {
            match poll(&self.pool) {
                Ok(Some((worker, r))) => {
                    // A reply can only answer the oldest dispatched task —
                    // workers are single-threaded FIFOs.
                    self.in_flight[worker].pop_front();
                    self.policy.on_reply(worker);
                    return Some((worker, r));
                }
                Ok(None) => return None,
                Err(PoolError::WorkerPanicked { worker, .. }) => self.handle_panic(worker),
                Err(PoolError::Disconnected) => {
                    let counts: Vec<usize> = self.in_flight.iter().map(VecDeque::len).collect();
                    self.policy.on_disconnect(&counts);
                    self.in_flight.iter_mut().for_each(VecDeque::clear);
                    return None;
                }
            }
        }
    }

    /// Carries out the policy's decisions for a panic of `worker`. The
    /// pool-side respawn/retire bumps the slot's epoch, so replies to the
    /// redistributed tasks from the old thread are discarded — no task
    /// can be answered twice.
    fn handle_panic(&mut self, worker: usize) {
        let attempts: Vec<u32> = self.in_flight[worker].iter().map(|t| t.attempt).collect();
        let plan = self.policy.on_panic(worker, &attempts);
        match plan.quarantine {
            Some(Quarantine::Respawn) => self.pool.respawn_worker(worker),
            Some(Quarantine::Retire) => self.pool.retire_worker(worker),
            None => {}
        }
        let routed: Vec<Tracked<T>> = self.in_flight[worker].drain(..plan.routes.len()).collect();
        for (mut tracked, route) in routed.into_iter().zip(plan.routes) {
            if let Route::Resend { worker, attempt } = route {
                let pause = self.policy.config().backoff(attempt);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                tracked.attempt = attempt;
                self.pool.send(worker, tracked.task.clone());
                self.in_flight[worker].push_back(tracked);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn fast_cfg() -> SupervisorConfig {
        SupervisorConfig {
            backoff_base: Duration::ZERO,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn resends_a_panicked_task_until_it_succeeds() {
        // Every task panics on its first execution, succeeds after.
        let tries = Arc::new(AtomicUsize::new(0));
        let tries2 = Arc::clone(&tries);
        let pool: MasterWorker<u64, u64> = MasterWorker::spawn(2, move |_, x| {
            if tries2.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first execution fails");
            }
            x * 2
        });
        let mut sup = Supervisor::new(pool, fast_cfg());
        sup.send(0, 21);
        let got = sup
            .recv_timeout(Duration::from_secs(5))
            .expect("retry delivers the result");
        assert_eq!(got.1, 42);
        let stats = sup.stats();
        assert_eq!(stats.tasks_resent, 1);
        assert_eq!(stats.tasks_lost, 0);
        assert!(matches!(
            sup.take_events()[0],
            RecoveryEvent::TaskResent { attempt: 1, .. }
        ));
        sup.shutdown();
    }

    #[test]
    fn loses_a_task_after_the_retry_budget() {
        let pool: MasterWorker<u64, u64> =
            MasterWorker::spawn(2, |_, x| panic!("task {x} always fails"));
        let mut sup = Supervisor::new(
            pool,
            SupervisorConfig {
                max_retries: 2,
                quarantine_after: 100, // keep quarantine out of this test
                backoff_base: Duration::ZERO,
                ..SupervisorConfig::default()
            },
        );
        sup.send(0, 1);
        // Poll until the retry budget is burned through; no result ever
        // arrives, only recovery actions.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sup.stats().tasks_lost == 0 && std::time::Instant::now() < deadline {
            assert_eq!(sup.recv_timeout(Duration::from_millis(20)), None);
        }
        let stats = sup.stats();
        assert_eq!(stats.tasks_resent, 2);
        assert_eq!(stats.tasks_lost, 1);
        assert!(sup
            .take_events()
            .iter()
            .any(|e| matches!(e, RecoveryEvent::TaskLost { .. })));
        sup.shutdown();
    }

    #[test]
    fn quarantines_and_respawns_after_consecutive_panics() {
        // Worker 0 panics on every task; worker 1 always succeeds. With
        // quarantine_after=2 and one respawn, worker 0 is pulled twice.
        let pool: MasterWorker<u64, u64> = MasterWorker::spawn(2, |id, x| {
            if id == 0 {
                panic!("worker 0 is broken");
            }
            x + 1
        });
        let mut sup = Supervisor::new(
            pool,
            SupervisorConfig {
                max_retries: 10,
                quarantine_after: 2,
                max_respawns: 1,
                quorum: 1,
                backoff_base: Duration::ZERO,
                ..SupervisorConfig::default()
            },
        );
        for x in 0..4 {
            if sup.is_live(0) {
                sup.send(0, x);
            } else {
                sup.send(1, x);
            }
            let got = sup.recv_timeout(Duration::from_secs(5));
            // Every task ends up on worker 1 eventually.
            assert_eq!(got, Some((1, x + 1)), "task {x}");
        }
        let stats = sup.stats();
        assert_eq!(stats.workers_quarantined, 2, "quarantined, then retired");
        assert_eq!(stats.workers_respawned, 1);
        assert!(!sup.is_live(0), "respawn budget exhausted => retired");
        assert!(!sup.degraded(), "quorum of 1 still met by worker 1");
        assert!(sup.stats().tasks_resent > 0);
        sup.shutdown();
    }

    #[test]
    fn degrades_below_quorum_instead_of_erroring() {
        let pool: MasterWorker<u64, u64> = MasterWorker::spawn(1, |_, _| panic!("always"));
        let mut sup = Supervisor::new(
            pool,
            SupervisorConfig {
                max_retries: 10,
                quarantine_after: 2,
                max_respawns: 0,
                quorum: 1,
                backoff_base: Duration::ZERO,
                ..SupervisorConfig::default()
            },
        );
        sup.send(0, 9);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !sup.degraded() && std::time::Instant::now() < deadline {
            assert_eq!(sup.recv_timeout(Duration::from_millis(20)), None);
        }
        assert!(sup.degraded());
        assert_eq!(sup.live_workers(), 0);
        let events = sup.take_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::WorkerQuarantined { worker: 0 })));
        assert!(events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Degraded { live_workers: 0 })));
        // Further receives are calm no-result answers, not panics/errors.
        assert_eq!(sup.try_recv(), None);
        sup.shutdown();
    }

    #[test]
    fn idle_tracking_follows_in_flight_counts() {
        let pool: MasterWorker<u64, u64> = MasterWorker::spawn(2, |_, x| x);
        let mut sup = Supervisor::new(pool, fast_cfg());
        assert_eq!(sup.idle_live_workers(), vec![0, 1]);
        sup.send(0, 1);
        assert_eq!(sup.in_flight(0), 1);
        assert_eq!(sup.idle_live_workers(), vec![1]);
        let got = sup.recv_timeout(Duration::from_secs(5)).expect("result");
        assert_eq!(got, (0, 1));
        assert!(sup.is_idle(0));
        assert_eq!(sup.idle_live_workers(), vec![0, 1]);
        sup.shutdown();
    }

    #[test]
    fn quarantine_redistributes_queued_in_flight_tasks() {
        // Worker 0 panics on every task. Queue three tasks on it at once:
        // the first two panics trigger quarantine (threshold 2), and the
        // third (still queued) task must be redistributed to worker 1,
        // not silently dropped.
        let pool: MasterWorker<u64, u64> = MasterWorker::spawn(2, |id, x| {
            if id == 0 {
                panic!("worker 0 is broken");
            }
            x * 10
        });
        let mut sup = Supervisor::new(
            pool,
            SupervisorConfig {
                max_retries: 10,
                quarantine_after: 2,
                max_respawns: 0,
                quorum: 1,
                backoff_base: Duration::ZERO,
                ..SupervisorConfig::default()
            },
        );
        sup.send(0, 1);
        sup.send(0, 2);
        sup.send(0, 3);
        let mut got = Vec::new();
        while got.len() < 3 {
            match sup.recv_timeout(Duration::from_secs(5)) {
                Some((_, r)) => got.push(r),
                None => break,
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![10, 20, 30], "all three tasks recovered");
        assert!(!sup.is_live(0));
        sup.shutdown();
    }
}

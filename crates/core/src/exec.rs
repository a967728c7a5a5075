//! The executor seam under the master–worker variants.
//!
//! The synchronous and asynchronous loops are written once, generic over
//! [`Executor`]. An executor owns the four things that differ between a
//! real machine and a simulated one: dispatching a chunk to worker `w`,
//! running work on the master, collecting finished chunks, and reading
//! the time. Worker `w` is processor `w + 1`; the master is processor 0.
//!
//! * [`Threads`] runs the workers on OS threads under a
//!   [`deme::Supervisor`] (resend, quarantine, respawn, degraded mode) and
//!   reads the wall clock.
//! * [`Virtual`] runs everything on the calling thread and schedules it on
//!   a [`VirtualCluster`]: a dispatched chunk is computed at once, charged
//!   to its worker's virtual clock (the measured cost, or
//!   [`TsmoConfig::sim_eval_cost`] per evaluation), and stamped with the
//!   instant its result reaches the master. A deterministic mirror of the
//!   supervisor policy replays injected faults in virtual time and
//!   publishes the same [`RecoveryEvent`] shapes as the thread pool.

use crate::config::TsmoConfig;
use crate::fault_obs::{draw_task_fault, publish_recovery};
use crate::neighborhood::{generate_chunk_tallied, Chunk};
use deme::{MasterWorker, RecoveryEvent, RunClock, Supervisor, SupervisorConfig, VirtualCluster};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tsmo_faults::{FaultHook, TaskFault};
use tsmo_obs::{metrics::names, Recorder};
use vrptw::solution::EvaluatedSolution;
use vrptw::Instance;
use vrptw_operators::SampleParams;

/// How long [`Executor::collect`] may wait.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wait {
    /// Take what has already arrived.
    Now,
    /// Wait for the next arrival, but not past this master time.
    Until(f64),
    /// The synchronous barrier: wait until nothing is in flight.
    All,
}

/// Where and when the chunks of a master–worker search run.
pub(crate) trait Executor {
    /// Worker slots, live and retired.
    fn n_workers(&self) -> usize;
    /// Live workers with nothing in flight, in slot order.
    fn idle_workers(&self) -> Vec<usize>;
    /// Whether no live worker is left and the master evaluates alone.
    fn degraded(&self) -> bool;
    /// The master's clock, in seconds since the run started.
    fn now(&self) -> f64;
    /// Hands worker `w` the chunk `(seed, count)` of `snapshot`'s
    /// neighborhood, generated for `iteration`.
    fn dispatch(
        &mut self,
        w: usize,
        snapshot: &EvaluatedSolution,
        seed: u64,
        count: usize,
        iteration: usize,
    );
    /// Runs master work worth `evals` evaluations.
    fn on_master<R>(&mut self, evals: usize, f: impl FnOnce() -> R) -> R;
    /// Collects finished chunks as `(worker, chunk)`, publishing recovery
    /// actions under the master's `iteration`.
    fn collect(&mut self, wait: Wait, iteration: u64) -> Vec<(usize, Chunk)>;
    /// Publishes the run's runtime and utilization gauges and returns the
    /// runtime in seconds.
    fn finish(self, iteration: u64) -> f64;
}

/// One unit of neighborhood work for a worker thread.
#[derive(Clone)]
struct Task {
    snapshot: EvaluatedSolution,
    seed: u64,
    count: usize,
    iteration: usize,
}

/// Worker threads under a self-healing supervisor, on the wall clock.
pub(crate) struct Threads {
    sup: Option<Supervisor<Task, Chunk>>,
    recorder: Arc<dyn Recorder>,
    clock: RunClock,
}

impl Threads {
    /// Spawns `processors - 1` workers. Each consults `hook` before
    /// computing a task: an injected panic goes through the pool's real
    /// `catch_unwind` path into the supervisor's recovery policy.
    pub(crate) fn new(
        inst: &Arc<Instance>,
        params: SampleParams,
        processors: usize,
        recorder: &Arc<dyn Recorder>,
        hook: Arc<dyn FaultHook>,
    ) -> Self {
        let clock = RunClock::start();
        let sup = (processors > 1).then(|| {
            let inst = Arc::clone(inst);
            let rec = Arc::clone(recorder);
            let n_workers = processors - 1;
            // Per-worker execution counters drive the fault decisions:
            // deterministic in (worker, execution index), independent of
            // cross-thread interleaving.
            let fault_seqs: Arc<Vec<AtomicU64>> =
                Arc::new((0..n_workers).map(|_| AtomicU64::new(0)).collect());
            let pool = MasterWorker::<Task, Chunk>::spawn(n_workers, move |w, t| {
                let mut late_millis = None;
                if hook.active() {
                    let seq = fault_seqs[w].fetch_add(1, Ordering::Relaxed);
                    match draw_task_fault(&*hook, &*rec, w + 1, seq) {
                        TaskFault::None => {}
                        TaskFault::Panic => {
                            panic!("injected fault: task panic (worker {w}, seq {seq})")
                        }
                        TaskFault::Stall { millis } => {
                            std::thread::sleep(Duration::from_millis(millis))
                        }
                        TaskFault::Late { millis } => late_millis = Some(millis),
                    }
                }
                let out = generate_chunk_tallied(
                    &inst,
                    &t.snapshot,
                    t.seed,
                    t.count,
                    params,
                    t.iteration,
                );
                if let Some(millis) = late_millis {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                out
            });
            recorder.gauge_set(names::DEGRADED_MODE, 0.0);
            Supervisor::new(pool, SupervisorConfig::default())
        });
        Self {
            sup,
            recorder: Arc::clone(recorder),
            clock,
        }
    }
}

impl Executor for Threads {
    fn n_workers(&self) -> usize {
        self.sup.as_ref().map_or(0, Supervisor::n_workers)
    }

    fn idle_workers(&self) -> Vec<usize> {
        self.sup
            .as_ref()
            .map_or_else(Vec::new, Supervisor::idle_live_workers)
    }

    fn degraded(&self) -> bool {
        self.sup.as_ref().is_some_and(Supervisor::degraded)
    }

    fn now(&self) -> f64 {
        self.clock.seconds()
    }

    fn dispatch(
        &mut self,
        w: usize,
        snapshot: &EvaluatedSolution,
        seed: u64,
        count: usize,
        iteration: usize,
    ) {
        let sup = self.sup.as_mut().expect("dispatch needs a worker");
        sup.send(
            w,
            Task {
                snapshot: snapshot.clone(),
                seed,
                count,
                iteration,
            },
        );
    }

    fn on_master<R>(&mut self, _evals: usize, f: impl FnOnce() -> R) -> R {
        f()
    }

    fn collect(&mut self, wait: Wait, iteration: u64) -> Vec<(usize, Chunk)> {
        let Some(sup) = self.sup.as_mut() else {
            return Vec::new();
        };
        let depth = sup.pool().result_queue_len() as f64;
        let mut out = Vec::new();
        match wait {
            Wait::Now => {
                self.recorder.observe(names::RESULT_QUEUE_DEPTH, depth);
                out.extend(std::iter::from_fn(|| sup.try_recv()));
            }
            // The caller re-checks its conditions (including the deadline)
            // after every short wait.
            Wait::Until(_) => out.extend(sup.recv_timeout(Duration::from_micros(500))),
            Wait::All => {
                self.recorder.observe(names::RESULT_QUEUE_DEPTH, depth);
                while (0..sup.n_workers()).any(|w| sup.in_flight(w) > 0) {
                    out.extend(sup.recv_timeout(Duration::from_millis(50)));
                }
            }
        }
        publish_recovery(&*self.recorder, sup.take_events(), iteration);
        out
    }

    fn finish(mut self, iteration: u64) -> f64 {
        let runtime_seconds = self.clock.seconds();
        if let Some(sup) = self.sup.as_mut() {
            publish_recovery(&*self.recorder, sup.take_events(), iteration);
            let stats = sup.pool().worker_stats();
            for (w, stats) in stats.iter().enumerate() {
                let frac = if runtime_seconds > 0.0 {
                    (stats.busy_seconds / runtime_seconds).min(1.0)
                } else {
                    0.0
                };
                self.recorder
                    .gauge_set(&names::worker_busy_fraction(w + 1), frac);
                self.recorder
                    .counter_add(&names::worker_tasks(w + 1), stats.tasks_completed);
            }
        }
        // Dropping the supervisor disconnects the workers; they exit on
        // their own, so a stalled worker never holds up the return.
        self.recorder
            .gauge_set(names::RUNTIME_SECONDS, runtime_seconds);
        self.recorder
            .gauge_set(&names::worker_busy_fraction(0), 1.0);
        runtime_seconds
    }
}

/// Executes `f` as processor `p`'s work: with `cost = None` the measured
/// wall cost is charged to the virtual clock; with a fixed cost the
/// schedule is independent of the host's timing, which makes the
/// simulation deterministic (see [`TsmoConfig::sim_eval_cost`]).
pub(crate) fn charge<R>(
    cluster: &mut VirtualCluster,
    p: usize,
    cost: Option<f64>,
    f: impl FnOnce() -> R,
) -> R {
    match cost {
        Some(c) => {
            let out = f();
            cluster.advance(p, c);
            out
        }
        None => cluster.charge(p, f),
    }
}

/// A virtual cluster of `processors` with `cfg`'s message latency and
/// optional per-processor speeds.
///
/// # Panics
/// Panics if `speeds` does not hold one entry per processor.
pub(crate) fn cluster(
    processors: usize,
    speeds: Option<&[f64]>,
    cfg: &TsmoConfig,
) -> VirtualCluster {
    match speeds {
        Some(s) => {
            assert_eq!(s.len(), processors, "one speed per processor");
            VirtualCluster::heterogeneous(s.to_vec(), cfg.sim_comm_latency)
        }
        None => VirtualCluster::new(processors, cfg.sim_comm_latency),
    }
}

/// Publishes a finished simulation's makespan and, per processor, the
/// fraction of the makespan its virtual clock covers (a utilization proxy:
/// the clock stops at the processor's last activity). Derived from
/// measured costs, these are metrics and vary run to run; the event
/// stream does not.
pub(crate) fn record_virtual_run(recorder: &dyn Recorder, cluster: &VirtualCluster) -> f64 {
    let makespan = cluster.makespan();
    recorder.gauge_set(names::RUNTIME_SECONDS, makespan);
    for p in 0..cluster.n_processors() {
        let frac = if makespan > 0.0 {
            (cluster.clock(p) / makespan).min(1.0)
        } else {
            0.0
        };
        recorder.gauge_set(&names::worker_busy_fraction(p), frac);
    }
    makespan
}

/// One virtual worker: its outstanding chunk and its supervisor state.
#[derive(Default)]
struct VirtualWorker {
    /// `(arrival at the master, chunk)` of the dispatched chunk.
    outstanding: Option<(f64, Chunk)>,
    fault_seq: u64,
    consecutive_panics: u32,
    respawns_used: u32,
    retired: bool,
}

/// Every processor on one thread, scheduled in virtual time.
pub(crate) struct Virtual {
    inst: Arc<Instance>,
    params: SampleParams,
    cluster: VirtualCluster,
    unit_cost: Option<f64>,
    recorder: Arc<dyn Recorder>,
    hook: Arc<dyn FaultHook>,
    policy: SupervisorConfig,
    workers: Vec<VirtualWorker>,
    degraded: bool,
}

impl Virtual {
    /// A virtual machine of `processors` (see [`cluster`]). The supervisor
    /// mirror uses the thread pool's default policy.
    pub(crate) fn new(
        inst: &Arc<Instance>,
        cfg: &TsmoConfig,
        processors: usize,
        speeds: Option<&[f64]>,
        recorder: &Arc<dyn Recorder>,
        hook: Arc<dyn FaultHook>,
    ) -> Self {
        if processors > 1 {
            recorder.gauge_set(names::DEGRADED_MODE, 0.0);
        }
        Self {
            inst: Arc::clone(inst),
            params: SampleParams {
                feasibility: cfg.feasibility_criterion,
            },
            cluster: cluster(processors, speeds, cfg),
            unit_cost: cfg.sim_eval_cost,
            recorder: Arc::clone(recorder),
            hook,
            policy: SupervisorConfig::default(),
            workers: (1..processors).map(|_| VirtualWorker::default()).collect(),
            degraded: false,
        }
    }

    fn cost(&self, evals: usize) -> Option<f64> {
        self.unit_cost.map(|c| c * evals as f64)
    }

    /// Replays the fault hook's decisions for one execution of a chunk on
    /// worker `w` with the supervisor's policy: stalls and late replies
    /// cost virtual time, a panic re-executes the chunk (bounded retries,
    /// then the task is lost), repeated panics quarantine and once respawn
    /// the worker. Returns whether the chunk is delivered.
    fn survives_faults(&mut self, w: usize, cost: Option<f64>, iteration: u64) -> bool {
        let proc = w + 1;
        let mut attempt = 0;
        loop {
            let state = &mut self.workers[w];
            let seq = state.fault_seq;
            state.fault_seq += 1;
            match draw_task_fault(&*self.hook, &*self.recorder, proc, seq) {
                TaskFault::Panic => {}
                fault => {
                    if let TaskFault::Stall { millis } | TaskFault::Late { millis } = fault {
                        self.cluster.advance(proc, millis as f64 / 1_000.0);
                    }
                    state.consecutive_panics = 0;
                    return true;
                }
            }
            attempt += 1;
            state.consecutive_panics += 1;
            let mut events = Vec::new();
            if state.consecutive_panics >= self.policy.quarantine_after {
                events.push(RecoveryEvent::WorkerQuarantined { worker: w });
                if state.respawns_used < self.policy.max_respawns {
                    state.respawns_used += 1;
                    state.consecutive_panics = 0;
                    events.push(RecoveryEvent::WorkerRespawned { worker: w });
                } else {
                    state.retired = true;
                }
            }
            let live = self.workers.iter().filter(|s| !s.retired).count();
            if live < self.policy.quorum && !self.degraded {
                self.degraded = true;
                events.push(RecoveryEvent::Degraded { live_workers: live });
            }
            let lost = self.workers[w].retired || attempt > self.policy.max_retries;
            events.push(if lost {
                RecoveryEvent::TaskLost { worker: w }
            } else {
                RecoveryEvent::TaskResent { worker: w, attempt }
            });
            publish_recovery(&*self.recorder, events, iteration);
            if lost {
                return false;
            }
            // The retried execution costs virtual time again (a nominal
            // slice in measured mode).
            self.cluster.advance(proc, cost.unwrap_or(1e-4));
        }
    }
}

impl Executor for Virtual {
    fn n_workers(&self) -> usize {
        self.workers.len()
    }

    fn idle_workers(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&w| self.workers[w].outstanding.is_none() && !self.workers[w].retired)
            .collect()
    }

    fn degraded(&self) -> bool {
        self.degraded
    }

    fn now(&self) -> f64 {
        self.cluster.clock(0)
    }

    fn dispatch(
        &mut self,
        w: usize,
        snapshot: &EvaluatedSolution,
        seed: u64,
        count: usize,
        iteration: usize,
    ) {
        let proc = w + 1;
        // The task message travels master -> worker; the chunk's content
        // does not depend on virtual time, so it is computed right away.
        let start = self.cluster.send_at(0, 1.0).max(self.cluster.clock(proc));
        self.cluster.advance_to(proc, start);
        let cost = self.cost(count);
        let (inst, params) = (&self.inst, self.params);
        let chunk = charge(&mut self.cluster, proc, cost, || {
            generate_chunk_tallied(inst, snapshot, seed, count, params, iteration)
        });
        if self.hook.active() && !self.survives_faults(w, cost, iteration as u64) {
            return;
        }
        let arrival = self.cluster.send_at(proc, 1.0);
        self.workers[w].outstanding = Some((arrival, chunk));
    }

    fn on_master<R>(&mut self, evals: usize, f: impl FnOnce() -> R) -> R {
        let cost = self.cost(evals);
        charge(&mut self.cluster, 0, cost, f)
    }

    fn collect(&mut self, wait: Wait, _iteration: u64) -> Vec<(usize, Chunk)> {
        let arrivals = self
            .workers
            .iter()
            .filter_map(|s| s.outstanding.as_ref().map(|o| o.0));
        let now = self.cluster.clock(0);
        match wait {
            Wait::Now => {}
            Wait::Until(deadline) => {
                let target = arrivals.fold(deadline, f64::min);
                if target.is_finite() {
                    self.cluster.advance_to(0, target.max(now + 1e-9));
                }
            }
            Wait::All => {
                let last = arrivals.fold(now, f64::max);
                self.cluster.advance_to(0, last);
            }
        }
        let now = self.cluster.clock(0);
        let mut out = Vec::new();
        for (w, state) in self.workers.iter_mut().enumerate() {
            if state.outstanding.as_ref().is_some_and(|o| o.0 <= now) {
                let (_, chunk) = state.outstanding.take().expect("checked above");
                out.push((w, chunk));
            }
        }
        out
    }

    fn finish(self, _iteration: u64) -> f64 {
        record_virtual_run(&*self.recorder, &self.cluster)
    }
}

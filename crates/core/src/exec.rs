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
//!   to its worker's virtual clock, and stamped with the instant its
//!   result reaches the master. Virtual time counts work, never host
//!   time: a chunk of `k` evaluations costs `k` units and master work
//!   over `n` considered neighbors costs `n` units, each unit
//!   [`TsmoConfig::sim_eval_cost`] seconds divided by the processor's
//!   speed. Injected faults go to the shared [`SupervisorPolicy`], the
//!   one the thread pool obeys, so both executors resend, quarantine and
//!   respawn alike.

use crate::config::TsmoConfig;
use crate::fault_obs::{draw_task_fault, publish_recovery};
use crate::neighborhood::{generate_chunk, Chunk};
use deme::{
    MasterWorker, Route, RunClock, Supervisor, SupervisorConfig, SupervisorPolicy, VirtualCluster,
};
use std::collections::VecDeque;
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
        snapshot: &Arc<EvaluatedSolution>,
        seed: u64,
        count: usize,
        iteration: usize,
    );
    /// Runs master work worth `units`: the evaluations of a chunk the
    /// master computes, or the neighbors a selection step considers.
    fn on_master<R>(&mut self, units: usize, f: impl FnOnce() -> R) -> R;
    /// Collects finished chunks as `(worker, chunk)`, publishing recovery
    /// actions under the master's `iteration`.
    fn collect(&mut self, wait: Wait, iteration: u64) -> Vec<(usize, Chunk)>;
    /// Publishes the run's runtime and utilization gauges and returns the
    /// runtime in seconds.
    fn finish(self, iteration: u64) -> f64;
}

/// One unit of neighborhood work for a worker thread. The snapshot is
/// shared with the master and with the neighbors generated from it.
#[derive(Clone)]
struct Task {
    snapshot: Arc<EvaluatedSolution>,
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
                let out = generate_chunk(&inst, &t.snapshot, t.seed, t.count, params, t.iteration);
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
        snapshot: &Arc<EvaluatedSolution>,
        seed: u64,
        count: usize,
        iteration: usize,
    ) {
        let sup = self.sup.as_mut().expect("dispatch needs a worker");
        sup.send(
            w,
            Task {
                snapshot: Arc::clone(snapshot),
                seed,
                count,
                iteration,
            },
        );
    }

    fn on_master<R>(&mut self, _units: usize, f: impl FnOnce() -> R) -> R {
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
                record_busy(&*self.recorder, w + 1, stats.busy_seconds, runtime_seconds);
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

/// A virtual cluster of `processors` with `cfg`'s work cost and message
/// latency, at the given per-processor speeds (all 1.0 when `None`).
///
/// # Panics
/// Panics if `speeds` does not hold one entry per processor.
pub(crate) fn cluster(
    processors: usize,
    speeds: Option<&[f64]>,
    cfg: &TsmoConfig,
) -> VirtualCluster {
    let speeds = speeds.map_or_else(
        || vec![1.0; processors],
        |s| {
            assert_eq!(s.len(), processors, "one speed per processor");
            s.to_vec()
        },
    );
    VirtualCluster::new(speeds, cfg.sim_eval_cost, cfg.sim_comm_latency)
}

/// Publishes processor `p`'s busy fraction: `busy` of `total` seconds.
pub(crate) fn record_busy(recorder: &dyn Recorder, p: usize, busy: f64, total: f64) {
    let frac = if total > 0.0 {
        (busy / total).min(1.0)
    } else {
        0.0
    };
    recorder.gauge_set(&names::worker_busy_fraction(p), frac);
}

/// Publishes a finished simulation's makespan and, per processor, the
/// fraction of the makespan it spent on charged work (waiting for a
/// dispatch, stalls and sends are idle).
pub(crate) fn record_virtual_run(recorder: &dyn Recorder, cluster: &VirtualCluster) -> f64 {
    let makespan = cluster.makespan();
    recorder.gauge_set(names::RUNTIME_SECONDS, makespan);
    for p in 0..cluster.n_processors() {
        record_busy(recorder, p, cluster.busy(p), makespan);
    }
    makespan
}

/// A chunk a virtual worker holds until it reaches the master.
struct Held {
    /// The resend attempt it was computed as (0 for a first dispatch).
    attempt: u32,
    /// When it reaches the master.
    arrival: f64,
    /// The evaluations it holds, which a resend computes again.
    evals: u64,
    chunk: Chunk,
}

/// One virtual worker: the chunks it holds, oldest first, and its
/// fault-decision counter.
#[derive(Default)]
struct VirtualWorker {
    queue: VecDeque<Held>,
    fault_seq: u64,
}

/// Every processor on one thread, scheduled in virtual time.
pub(crate) struct Virtual {
    inst: Arc<Instance>,
    params: SampleParams,
    cluster: VirtualCluster,
    recorder: Arc<dyn Recorder>,
    hook: Arc<dyn FaultHook>,
    supervisor: SupervisorPolicy,
    workers: Vec<VirtualWorker>,
}

impl Virtual {
    /// A virtual machine of `processors` (see [`cluster`]), supervised by
    /// the thread pool's default policy.
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
        let n_workers = processors.saturating_sub(1);
        Self {
            inst: Arc::clone(inst),
            params: SampleParams {
                feasibility: cfg.feasibility_criterion,
            },
            cluster: cluster(processors, speeds, cfg),
            recorder: Arc::clone(recorder),
            hook,
            supervisor: SupervisorPolicy::new(n_workers, SupervisorConfig::default()),
            workers: (0..n_workers).map(|_| VirtualWorker::default()).collect(),
        }
    }

    /// Settles a chunk computed on worker `w` as `attempt`: the fault
    /// hook's decision for that execution is drawn, stalls and late
    /// replies cost virtual time, and a panic goes to the supervisor
    /// policy. Each resend it orders runs on the named worker, with that
    /// worker's next fault draw, and costs that worker the chunk's
    /// evaluations again.
    fn settle(&mut self, w: usize, attempt: u32, evals: u64, chunk: Chunk) {
        let mut runs = VecDeque::from([(w, attempt, evals, chunk)]);
        while let Some((w, attempt, evals, chunk)) = runs.pop_front() {
            let proc = w + 1;
            let fault = if self.hook.active() {
                let seq = self.workers[w].fault_seq;
                self.workers[w].fault_seq += 1;
                draw_task_fault(&*self.hook, &*self.recorder, proc, seq)
            } else {
                TaskFault::None
            };
            if fault != TaskFault::Panic {
                if let TaskFault::Stall { millis } | TaskFault::Late { millis } = fault {
                    self.cluster.advance(proc, millis as f64 / 1_000.0);
                }
                self.supervisor.on_reply(w);
                let arrival = self.cluster.send_at(proc, 1.0);
                let held = Held {
                    attempt,
                    arrival,
                    evals,
                    chunk,
                };
                self.workers[w].queue.push_back(held);
                continue;
            }
            // The failed chunk first, then what `w` still holds: its
            // undelivered chunks are orphans if the panic quarantines it.
            let queue = &mut self.workers[w].queue;
            let attempts: Vec<u32> = std::iter::once(attempt)
                .chain(queue.iter().map(|h| h.attempt))
                .collect();
            let plan = self.supervisor.on_panic(w, &attempts);
            let orphans: Vec<_> = queue
                .drain(..plan.routes.len().saturating_sub(1))
                .map(|h| (h.evals, h.chunk))
                .collect();
            // Respawning or retiring needs nothing here: no thread to
            // replace or join.
            let routed = std::iter::once((evals, chunk)).chain(orphans);
            for ((evals, chunk), route) in routed.zip(plan.routes) {
                if let Route::Resend { worker, attempt } = route {
                    let start = self.cluster.clock(proc).max(self.cluster.clock(worker + 1));
                    self.cluster.advance_to(worker + 1, start);
                    self.cluster.work(worker + 1, evals);
                    runs.push_back((worker, attempt, evals, chunk));
                }
            }
        }
    }
}

impl Executor for Virtual {
    fn n_workers(&self) -> usize {
        self.workers.len()
    }

    fn idle_workers(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&w| self.workers[w].queue.is_empty() && self.supervisor.is_live(w))
            .collect()
    }

    fn degraded(&self) -> bool {
        self.supervisor.degraded()
    }

    fn now(&self) -> f64 {
        self.cluster.clock(0)
    }

    fn dispatch(
        &mut self,
        w: usize,
        snapshot: &Arc<EvaluatedSolution>,
        seed: u64,
        count: usize,
        iteration: usize,
    ) {
        let proc = w + 1;
        // The task message travels master -> worker; the chunk's content
        // does not depend on virtual time, so it is computed right away.
        let start = self.cluster.send_at(0, 1.0).max(self.cluster.clock(proc));
        self.cluster.advance_to(proc, start);
        let chunk = generate_chunk(&self.inst, snapshot, seed, count, self.params, iteration);
        self.cluster.work(proc, count as u64);
        self.settle(w, 0, count as u64, chunk);
    }

    fn on_master<R>(&mut self, units: usize, f: impl FnOnce() -> R) -> R {
        self.cluster.work(0, units as u64);
        f()
    }

    fn collect(&mut self, wait: Wait, iteration: u64) -> Vec<(usize, Chunk)> {
        publish_recovery(&*self.recorder, self.supervisor.take_events(), iteration);
        let arrivals = self
            .workers
            .iter()
            .flat_map(|s| s.queue.iter().map(|h| h.arrival));
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
            while let Some(held) = state.queue.pop_front_if(|h| h.arrival <= now) {
                out.push((w, held.chunk));
            }
        }
        out
    }

    fn finish(mut self, iteration: u64) -> f64 {
        publish_recovery(&*self.recorder, self.supervisor.take_events(), iteration);
        record_virtual_run(&*self.recorder, &self.cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighborhood::StepNeighbor;
    use tsmo_faults::NoFaults;
    use tsmo_obs::MemoryRecorder;
    use vrptw::generator::{GeneratorConfig, InstanceClass};
    use vrptw_construct::{i1, I1Config};

    /// Panics exactly on the scripted `(site, execution)` pairs.
    struct Script(&'static [(usize, u64)]);

    impl FaultHook for Script {
        fn active(&self) -> bool {
            true
        }

        fn on_task(&self, site: usize, seq: u64) -> TaskFault {
            if self.0.contains(&(site, seq)) {
                TaskFault::Panic
            } else {
                TaskFault::None
            }
        }
    }

    /// Worker 0 (site 1) fails twice in a row and again on a resend, so
    /// it is quarantined and respawned with a task lost; worker 1 (site 2)
    /// fails in between. Later bursts retire worker 0, respawn then retire
    /// worker 1, and leave the pool degraded.
    const SCRIPT: &[(usize, u64)] = &[
        (1, 0),
        (1, 1),
        (1, 2),
        (1, 3),
        (1, 4),
        (1, 5),
        (2, 0),
        (2, 2),
        (2, 4),
        (2, 5),
        (2, 6),
        (2, 8),
        (2, 9),
        (2, 10),
    ];

    const RECOVERY_EVENTS: [&str; 4] = [
        "\"task_resent\"",
        "\"worker_quarantined\"",
        "\"worker_respawned\"",
        "\"degraded_mode\"",
    ];

    /// What one executor did with the script: its recovery events, lost
    /// tasks, and per dispatch the delivering worker and neighbors.
    type Trace = (Vec<String>, u64, Vec<Vec<(usize, Vec<[f64; 3]>)>>);

    /// Dispatches one chunk at a time, alternating over the two workers
    /// while both are live, and waits for each with `Wait::All`.
    fn drive(
        mut exec: impl Executor,
        snapshot: &Arc<EvaluatedSolution>,
        rec: &MemoryRecorder,
    ) -> Trace {
        let mut delivered = Vec::new();
        for step in 0..8 {
            let Some(&w) = exec
                .idle_workers()
                .iter()
                .find(|&&w| w == step % 2)
                .or(exec.idle_workers().first())
            else {
                break;
            };
            exec.dispatch(w, snapshot, 100 + step as u64, 6, step);
            let got = exec.collect(Wait::All, step as u64);
            delivered.push(
                got.into_iter()
                    .map(|(w, chunk)| {
                        let objectives = chunk
                            .neighbors
                            .iter()
                            .map(|nb| nb.objectives().to_vector())
                            .collect();
                        (w, objectives)
                    })
                    .collect(),
            );
        }
        exec.finish(8);
        let events = rec
            .events_jsonl()
            .lines()
            .filter(|line| RECOVERY_EVENTS.iter().any(|t| line.contains(t)))
            .map(|line| line.split_once(',').expect("seq field").1.to_string())
            .collect();
        (events, rec.metrics().counter(names::TASKS_LOST), delivered)
    }

    #[test]
    fn both_clocks_take_the_same_recovery_decisions() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 25, 4).build());
        let snapshot = Arc::new(EvaluatedSolution::new(
            i1(&inst, &I1Config::default()),
            &inst,
        ));
        let cfg = TsmoConfig::default();
        let params = SampleParams {
            feasibility: cfg.feasibility_criterion,
        };
        let hook = || Arc::new(Script(SCRIPT)) as Arc<dyn FaultHook>;

        let wall_rec = MemoryRecorder::shared();
        let recorder: Arc<dyn Recorder> = wall_rec.clone();
        let threads = Threads::new(&inst, params, 3, &recorder, hook());
        let wall = drive(threads, &snapshot, &wall_rec);

        let virtual_rec = MemoryRecorder::shared();
        let recorder: Arc<dyn Recorder> = virtual_rec.clone();
        let virt = Virtual::new(&inst, &cfg, 3, None, &recorder, hook());
        let simulated = drive(virt, &snapshot, &virtual_rec);

        assert_eq!(wall.0, simulated.0, "recovery event sequences differ");
        assert_eq!(wall.1, simulated.1, "tasks lost differ");
        assert_eq!(wall.2, simulated.2, "delivered chunks differ");
        // The script reaches every rule: resends, a lost task, both
        // quarantine outcomes, and degraded mode.
        for kind in RECOVERY_EVENTS {
            assert!(wall.0.iter().any(|e| e.contains(kind)), "no {kind} event");
        }
        assert_eq!(wall.1, 3);
    }

    /// On homogeneous speeds every processor's busy fraction times the
    /// makespan is the work charged to it, so the fractions add up to the
    /// counted work: time a worker spends waiting for its next dispatch
    /// is idle, not busy.
    #[test]
    fn virtual_busy_time_is_counted_work() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 25, 4).build());
        let snapshot = Arc::new(EvaluatedSolution::new(
            i1(&inst, &I1Config::default()),
            &inst,
        ));
        let cfg = TsmoConfig::default();
        let rec = MemoryRecorder::shared();
        let recorder: Arc<dyn Recorder> = rec.clone();
        let mut exec = Virtual::new(&inst, &cfg, 3, None, &recorder, Arc::new(NoFaults));
        let mut units = 0u64;
        for step in 0..6 {
            // Worker 0 takes every chunk; worker 1 only every third.
            for w in [0, 1].into_iter().filter(|&w| w == 0 || step % 3 == 0) {
                let count = 4 + w;
                exec.dispatch(w, &snapshot, 7 + step as u64, count, step);
                units += count as u64;
            }
            let got = exec.collect(Wait::All, step as u64);
            let considered: usize = got.iter().map(|(_, c)| c.neighbors.len()).sum();
            exec.on_master(considered, || ());
            units += considered as u64;
        }
        let makespan = exec.finish(6);
        let m = rec.metrics();
        let busy: Vec<f64> = (0..3)
            .map(|p| {
                m.gauge(&names::worker_busy_fraction(p))
                    .expect("busy gauge")
            })
            .collect();
        let charged: f64 = busy.iter().map(|f| f * makespan).sum();
        let counted = units as f64 * cfg.sim_eval_cost;
        assert!(
            (charged - counted).abs() < 1e-9 * counted,
            "busy time {charged} != counted work {counted} (fractions {busy:?})"
        );
        assert!(busy[2] < busy[1], "the rarely used worker idles more");
    }
}

//! Master–worker functional decomposition.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why the master could not obtain a result from the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The task function panicked while processing a task. The worker
    /// thread **survives** and keeps serving its queue; only the result of
    /// the panicking task is lost. The master decides whether to resend,
    /// skip, or abort — [`crate::Supervisor`] implements the
    /// resend-with-budget policy on top of this signal.
    WorkerPanicked {
        /// Which worker's task function panicked.
        worker: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// Every worker has been retired (or the pool is tearing down) and no
    /// further results can arrive. With a live pool this indicates a
    /// protocol error (results expected after the task channels were
    /// closed).
    Disconnected,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanicked { worker, message } => {
                write!(
                    f,
                    "worker {worker} panicked while processing a task: {message}"
                )
            }
            PoolError::Disconnected => {
                write!(f, "all workers terminated while results were expected")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// A snapshot of one worker's activity counters.
///
/// Counters are cumulative per worker *slot*: a respawned worker keeps
/// adding to the same cell, so panic counts survive a respawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStats {
    /// Tasks completed successfully.
    pub tasks_completed: u64,
    /// Tasks whose function panicked.
    pub panics: u64,
    /// Wall-clock seconds spent inside the task function.
    pub busy_seconds: f64,
}

#[derive(Default)]
struct StatCell {
    busy_nanos: AtomicU64,
    tasks: AtomicU64,
    panics: AtomicU64,
}

impl StatCell {
    fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            tasks_completed: self.tasks.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            busy_seconds: self.busy_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

enum Reply<R> {
    Ok(R),
    Panicked(String),
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

type TaskFn<T, R> = Arc<dyn Fn(usize, T) -> R + Send + Sync>;

/// A pool of worker threads executing a shared task function.
///
/// The synchronous TS variant sends one task per worker and collects all
/// results before continuing; the asynchronous variant collects only what
/// has arrived (with a bounded wait) and folds late results into later
/// iterations. Both patterns are supported by the same primitive:
/// per-worker task channels plus a shared result channel tagged with the
/// worker id.
///
/// # Failure semantics
///
/// A panic in the task function does **not** kill the worker: the panic is
/// caught, the worker keeps serving its queue, and the master receives
/// [`PoolError::WorkerPanicked`] in place of that task's result. The
/// receive methods distinguish the three observable states explicitly:
/// `Ok(Some(..))` — a result arrived; `Ok(None)` — nothing available yet
/// (empty / timeout, workers alive); `Err(..)` — a task panicked or every
/// worker is gone ([`PoolError::Disconnected`]). Earlier revisions
/// returned a silent `None` for both "not yet" and "never", which let a
/// synchronous barrier hang forever on a dead worker.
///
/// # Epochs, respawn, and retirement
///
/// Each worker slot carries an **epoch**. [`MasterWorker::respawn_worker`]
/// replaces a slot's thread with a fresh one and bumps the epoch; replies
/// tagged with an older epoch (queued work the old thread was still
/// draining) are silently discarded (counted by
/// [`MasterWorker::stale_results_discarded`]), so a respawn can never
/// deliver a duplicate or orphaned result. [`MasterWorker::retire_worker`]
/// closes a slot permanently. When every slot is retired the receive
/// methods report [`PoolError::Disconnected`].
///
/// Worker threads shut down when the pool is dropped (their task channels
/// disconnect).
pub struct MasterWorker<T: Send + 'static, R: Send + 'static> {
    /// `None` marks a retired slot.
    task_txs: Vec<Option<Sender<T>>>,
    /// Current epoch per worker slot; replies from older epochs are stale.
    epochs: Vec<u64>,
    result_rx: Receiver<(usize, u64, Reply<R>)>,
    /// Kept for respawned threads; never used to send from the master.
    result_tx: Sender<(usize, u64, Reply<R>)>,
    handles: Vec<JoinHandle<()>>,
    stats: Arc<Vec<StatCell>>,
    task_fn: TaskFn<T, R>,
    stale_discarded: AtomicU64,
}

fn spawn_worker_thread<T: Send + 'static, R: Send + 'static>(
    id: usize,
    epoch: u64,
    f: TaskFn<T, R>,
    stats: Arc<Vec<StatCell>>,
    result_tx: Sender<(usize, u64, Reply<R>)>,
    rx: Receiver<T>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("deme-worker-{id}.{epoch}"))
        .spawn(move || {
            // Exit when the master drops (or replaces) the task sender.
            while let Ok(task) = rx.recv() {
                let started = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| f(id, task)));
                let nanos = started.elapsed().as_nanos().min(u64::MAX as u128);
                stats[id]
                    .busy_nanos
                    .fetch_add(nanos as u64, Ordering::Relaxed);
                let reply = match outcome {
                    Ok(out) => {
                        stats[id].tasks.fetch_add(1, Ordering::Relaxed);
                        Reply::Ok(out)
                    }
                    Err(payload) => {
                        stats[id].panics.fetch_add(1, Ordering::Relaxed);
                        Reply::Panicked(panic_message(payload))
                    }
                };
                if result_tx.send((id, epoch, reply)).is_err() {
                    break; // master gone
                }
            }
        })
        .expect("failed to spawn worker thread")
}

impl<T: Send + 'static, R: Send + 'static> MasterWorker<T, R> {
    /// Spawns `n_workers` threads, each applying `f` to incoming tasks.
    ///
    /// # Panics
    /// Panics if `n_workers == 0`.
    pub fn spawn<F>(n_workers: usize, f: F) -> Self
    where
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        assert!(n_workers > 0, "a pool needs at least one worker");
        let f: TaskFn<T, R> = Arc::new(f);
        let stats: Arc<Vec<StatCell>> =
            Arc::new((0..n_workers).map(|_| StatCell::default()).collect());
        let (result_tx, result_rx) = unbounded::<(usize, u64, Reply<R>)>();
        let mut task_txs = Vec::with_capacity(n_workers);
        let mut handles = Vec::with_capacity(n_workers);
        for id in 0..n_workers {
            let (tx, rx) = unbounded::<T>();
            task_txs.push(Some(tx));
            handles.push(spawn_worker_thread(
                id,
                0,
                Arc::clone(&f),
                Arc::clone(&stats),
                result_tx.clone(),
                rx,
            ));
        }
        Self {
            task_txs,
            epochs: vec![0; n_workers],
            result_rx,
            result_tx,
            handles,
            stats,
            task_fn: f,
            stale_discarded: AtomicU64::new(0),
        }
    }

    /// Number of worker slots in the pool (live and retired).
    pub fn n_workers(&self) -> usize {
        self.task_txs.len()
    }

    /// Worker slots that can still accept tasks.
    pub fn live_workers(&self) -> usize {
        self.task_txs.iter().filter(|t| t.is_some()).count()
    }

    /// Whether `worker` can still accept tasks (not retired).
    pub fn is_live(&self, worker: usize) -> bool {
        self.task_txs[worker].is_some()
    }

    /// Current epoch of `worker` (bumped on respawn and retirement).
    pub fn worker_epoch(&self, worker: usize) -> u64 {
        self.epochs[worker]
    }

    /// Replies discarded because they arrived from a superseded epoch
    /// (work the old thread of a respawned/retired slot was draining).
    pub fn stale_results_discarded(&self) -> u64 {
        self.stale_discarded.load(Ordering::Relaxed)
    }

    /// Sends a task to a specific worker.
    ///
    /// # Panics
    /// Panics if the worker index is out of range or the slot was retired
    /// via [`MasterWorker::retire_worker`]. Workers survive task panics,
    /// so a live slot's channel cannot be closed from the worker side.
    pub fn send(&self, worker: usize, task: T) {
        self.task_txs[worker]
            .as_ref()
            .expect("task sent to a retired worker")
            .send(task)
            .expect("worker task channel disconnected");
    }

    /// Replaces `worker`'s thread with a fresh one and bumps the slot's
    /// epoch. The old thread drains whatever was queued on its channel and
    /// exits; its replies carry the old epoch and are discarded on
    /// receive. In-flight tasks of that worker are therefore **lost** from
    /// the caller's point of view and must be resent if still wanted
    /// (which [`crate::Supervisor`] does).
    ///
    /// Works on retired slots too, re-admitting them.
    pub fn respawn_worker(&mut self, worker: usize) {
        assert!(worker < self.n_workers(), "worker index out of range");
        self.epochs[worker] += 1;
        let (tx, rx) = unbounded::<T>();
        self.task_txs[worker] = Some(tx);
        self.handles.push(spawn_worker_thread(
            worker,
            self.epochs[worker],
            Arc::clone(&self.task_fn),
            Arc::clone(&self.stats),
            self.result_tx.clone(),
            rx,
        ));
    }

    /// Permanently closes `worker`'s slot: its task channel is dropped
    /// (the thread drains and exits) and the epoch is bumped so queued
    /// replies are discarded. Once every slot is retired the receive
    /// methods report [`PoolError::Disconnected`].
    pub fn retire_worker(&mut self, worker: usize) {
        assert!(worker < self.n_workers(), "worker index out of range");
        self.epochs[worker] += 1;
        self.task_txs[worker] = None;
    }

    fn admit(&self, (worker, epoch, reply): (usize, u64, Reply<R>)) -> Option<(usize, Reply<R>)> {
        if epoch == self.epochs[worker] {
            Some((worker, reply))
        } else {
            self.stale_discarded.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Non-blocking receive of one `(worker, result)` pair. `Ok(None)`
    /// means the queue is empty but workers are alive.
    pub fn try_recv(&self) -> Result<Option<(usize, R)>, PoolError> {
        loop {
            match self.result_rx.try_recv() {
                Ok(tagged) => {
                    if let Some(pair) = self.admit(tagged) {
                        return unwrap_reply(pair).map(Some);
                    }
                }
                Err(TryRecvError::Empty) => {
                    return if self.live_workers() == 0 {
                        Err(PoolError::Disconnected)
                    } else {
                        Ok(None)
                    };
                }
                Err(TryRecvError::Disconnected) => return Err(PoolError::Disconnected),
            }
        }
    }

    /// Blocking receive with a timeout. `Ok(None)` means the timeout
    /// elapsed with workers still alive.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, R)>, PoolError> {
        let deadline = Instant::now() + timeout;
        loop {
            // A fully retired pool can only produce stale replies: drain
            // and report Disconnected without waiting out the timeout.
            if self.live_workers() == 0 {
                return match self.try_recv() {
                    Ok(None) => Err(PoolError::Disconnected),
                    other => other,
                };
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.result_rx.recv_timeout(remaining) {
                Ok(tagged) => {
                    if let Some(pair) = self.admit(tagged) {
                        return unwrap_reply(pair).map(Some);
                    }
                }
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => return Err(PoolError::Disconnected),
            }
        }
    }

    /// Blocking receive of the next result. Returns
    /// [`PoolError::Disconnected`] if every worker slot is retired while
    /// waiting.
    pub fn recv(&self) -> Result<(usize, R), PoolError> {
        loop {
            // Poll in slices: the master holds a result sender (for
            // respawns), so channel disconnection alone can no longer
            // signal a fully retired pool — the liveness check inside
            // `recv_timeout` does.
            match self.recv_timeout(Duration::from_millis(50))? {
                Some(pair) => return Ok(pair),
                None => continue,
            }
        }
    }

    /// Results queued but not yet received by the master.
    pub fn result_queue_len(&self) -> usize {
        self.result_rx.len()
    }

    /// Tasks queued for `worker` that it has not yet picked up (0 for a
    /// retired slot).
    pub fn task_queue_len(&self, worker: usize) -> usize {
        self.task_txs[worker].as_ref().map_or(0, |tx| tx.len())
    }

    /// Per-worker activity snapshots, indexed by worker slot. Counters
    /// are cumulative across respawns of the same slot.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.stats.iter().map(StatCell::snapshot).collect()
    }

    /// Drops the task channels and joins all workers (including exited
    /// threads of respawned slots).
    pub fn shutdown(mut self) {
        self.task_txs.clear();
        for h in std::mem::take(&mut self.handles) {
            h.join().expect("worker thread itself panicked");
        }
    }
}

fn unwrap_reply<R>((worker, reply): (usize, Reply<R>)) -> Result<(usize, R), PoolError> {
    match reply {
        Reply::Ok(r) => Ok((worker, r)),
        Reply::Panicked(message) => Err(PoolError::WorkerPanicked { worker, message }),
    }
}

impl<T: Send + 'static, R: Send + 'static> Drop for MasterWorker<T, R> {
    fn drop(&mut self) {
        // Disconnect tasks so workers exit; threads are detached if the
        // user did not call `shutdown` (they terminate promptly anyway).
        self.task_txs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn repeated_broadcasts() {
        let pool: MasterWorker<u64, u64> = MasterWorker::spawn(3, |_, x| x + 1);
        for round in 0..50 {
            for w in 0..3 {
                pool.send(w, round);
            }
            let mut seen = [false; 3];
            for _ in 0..3 {
                let (w, r) = pool.recv().expect("no panics");
                assert!(!std::mem::replace(&mut seen[w], true), "worker {w} twice");
                assert_eq!(r, round + 1);
            }
        }
        pool.shutdown();
    }

    #[test]
    fn async_partial_collection() {
        let pool: MasterWorker<u64, u64> = MasterWorker::spawn(2, |id, x| {
            if id == 1 {
                std::thread::sleep(Duration::from_millis(100));
            }
            x
        });
        pool.send(0, 7);
        pool.send(1, 9);
        // The fast worker's result arrives well before the slow one's.
        let first = pool
            .recv_timeout(Duration::from_millis(500))
            .expect("alive")
            .expect("fast result");
        assert_eq!(first, (0, 7));
        // Nothing else yet (within a tight poll) — workers alive, so this
        // is Ok(None), not an error.
        assert_eq!(pool.try_recv(), Ok(None));
        // The slow result eventually arrives.
        let second = pool
            .recv_timeout(Duration::from_millis(500))
            .expect("alive")
            .expect("slow result");
        assert_eq!(second, (1, 9));
        pool.shutdown();
    }

    #[test]
    fn workers_see_distinct_ids() {
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let pool: MasterWorker<(), usize> = MasterWorker::spawn(4, move |id, ()| {
            seen2.fetch_or(1 << id, Ordering::Relaxed);
            id
        });
        for w in 0..4 {
            pool.send(w, ());
        }
        for _ in 0..4 {
            let (w, id) = pool.recv().expect("no panics");
            assert_eq!(id, w);
        }
        assert_eq!(seen.load(Ordering::Relaxed), 0b1111);
        pool.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_with_pending_nothing() {
        let pool: MasterWorker<u64, u64> = MasterWorker::spawn(2, |_, x| x);
        pool.shutdown();
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        let _: MasterWorker<(), ()> = MasterWorker::spawn(0, |_, ()| ());
    }

    #[test]
    fn task_panic_surfaces_as_error_and_worker_survives() {
        let pool: MasterWorker<u64, u64> = MasterWorker::spawn(3, |id, x| {
            assert!(x != 13, "unlucky task on worker {id}");
            x * 2
        });
        pool.send(2, 13);
        // The error names the panicking slot and carries its message.
        match pool.recv() {
            Err(PoolError::WorkerPanicked { worker: 2, message }) => {
                assert!(
                    message.contains("unlucky task on worker 2"),
                    "got: {message}"
                );
            }
            other => panic!("expected WorkerPanicked from worker 2, got {other:?}"),
        }
        // The same worker keeps serving tasks after the panic.
        pool.send(2, 4);
        assert_eq!(pool.recv(), Ok((2, 8)));
        let stats = pool.worker_stats();
        assert_eq!(stats[2].panics, 1);
        assert_eq!(stats[2].tasks_completed, 1);
        assert_eq!(stats[0].panics + stats[1].panics, 0);
        pool.shutdown();
    }

    #[test]
    fn timeout_with_live_workers_is_ok_none() {
        let pool: MasterWorker<u64, u64> = MasterWorker::spawn(1, |_, x| x);
        assert_eq!(pool.recv_timeout(Duration::from_millis(5)), Ok(None));
        assert_eq!(pool.try_recv(), Ok(None));
        pool.shutdown();
    }

    #[test]
    fn queue_depths_are_observable() {
        let gate = Arc::new(std::sync::Barrier::new(2));
        let gate2 = Arc::clone(&gate);
        let pool: MasterWorker<u64, u64> = MasterWorker::spawn(1, move |_, x| {
            if x == 0 {
                gate2.wait(); // hold the worker until the master has queued up
            }
            x
        });
        pool.send(0, 0);
        pool.send(0, 1);
        pool.send(0, 2);
        // The worker is parked in task 0; tasks 1 and 2 sit in its queue.
        // (Depth may read 3 if the worker has not dequeued task 0 yet.)
        assert!(pool.task_queue_len(0) >= 2);
        gate.wait();
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(pool.recv().expect("alive").1);
        }
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(pool.result_queue_len(), 0);
        pool.shutdown();
    }

    #[test]
    fn busy_stats_accumulate() {
        let pool: MasterWorker<u64, u64> = MasterWorker::spawn(2, |_, x| {
            std::thread::sleep(Duration::from_millis(5));
            x
        });
        pool.send(0, 1);
        pool.send(1, 2);
        for _ in 0..2 {
            pool.recv().expect("no panics");
        }
        let stats = pool.worker_stats();
        for (w, s) in stats.iter().enumerate() {
            assert_eq!(s.tasks_completed, 1, "worker {w}");
            assert!(
                s.busy_seconds >= 0.004,
                "worker {w} busy {}",
                s.busy_seconds
            );
        }
        pool.shutdown();
    }

    #[test]
    fn respawn_discards_stale_replies_and_serves_fresh_tasks() {
        let gate = Arc::new(std::sync::Barrier::new(2));
        let gate2 = Arc::clone(&gate);
        let mut pool: MasterWorker<u64, u64> = MasterWorker::spawn(1, move |_, x| {
            if x == 0 {
                gate2.wait(); // hold epoch-0 thread until after the respawn
            }
            x + 100
        });
        pool.send(0, 0); // will complete in epoch 0, after the respawn
        assert_eq!(pool.worker_epoch(0), 0);
        pool.respawn_worker(0);
        assert_eq!(pool.worker_epoch(0), 1);
        gate.wait(); // release the old thread; its reply is now stale
        pool.send(0, 5); // served by the epoch-1 thread
        let got = pool.recv().expect("fresh worker alive");
        assert_eq!(got, (0, 105));
        // The stale epoch-0 reply was (or will shortly be) discarded.
        while pool.stale_results_discarded() == 0 {
            std::thread::sleep(Duration::from_millis(1));
            let _ = pool.try_recv();
        }
        assert_eq!(pool.stale_results_discarded(), 1);
        pool.shutdown();
    }

    #[test]
    fn retiring_all_workers_reports_disconnected() {
        let mut pool: MasterWorker<u64, u64> = MasterWorker::spawn(2, |_, x| x);
        pool.send(0, 1);
        assert_eq!(pool.recv(), Ok((0, 1)));
        pool.retire_worker(0);
        assert!(!pool.is_live(0));
        assert_eq!(pool.live_workers(), 1);
        // One live worker left: empty queue is still Ok(None).
        assert_eq!(pool.try_recv(), Ok(None));
        pool.retire_worker(1);
        assert_eq!(pool.live_workers(), 0);
        assert_eq!(pool.try_recv(), Err(PoolError::Disconnected));
        assert_eq!(
            pool.recv_timeout(Duration::from_secs(60)),
            Err(PoolError::Disconnected),
            "fully retired pool must not wait out the timeout"
        );
        assert_eq!(pool.recv(), Err(PoolError::Disconnected));
        pool.shutdown();
    }

    #[test]
    fn respawn_readmits_a_retired_worker() {
        let mut pool: MasterWorker<u64, u64> = MasterWorker::spawn(1, |_, x| x * 3);
        pool.retire_worker(0);
        assert_eq!(pool.try_recv(), Err(PoolError::Disconnected));
        pool.respawn_worker(0);
        assert!(pool.is_live(0));
        pool.send(0, 7);
        assert_eq!(pool.recv(), Ok((0, 21)));
        pool.shutdown();
    }
}

//! Failure-path coverage for the worker pool and its supervisor: how
//! `PoolError` surfaces, how the pool distinguishes "nothing yet" from
//! "never", and how the recovery layer turns failures into resends.

use deme::{MasterWorker, PoolError, RecoveryEvent, Supervisor, SupervisorConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn flaky_pool(fail_every: usize) -> (MasterWorker<u64, u64>, Arc<AtomicUsize>) {
    // Panics on every `fail_every`-th task (1-based), doubles otherwise.
    let calls = Arc::new(AtomicUsize::new(0));
    let calls2 = Arc::clone(&calls);
    let pool = MasterWorker::spawn(2, move |_, x: u64| {
        let k = calls2.fetch_add(1, Ordering::SeqCst) + 1;
        if k.is_multiple_of(fail_every) {
            panic!("scripted failure on call {k}");
        }
        x * 2
    });
    (pool, calls)
}

#[test]
fn recv_timeout_distinguishes_empty_alive_from_disconnected() {
    let mut pool: MasterWorker<u64, u64> = MasterWorker::spawn(2, |_, x| x);
    // Empty but alive: a timeout, not an error.
    assert_eq!(pool.recv_timeout(Duration::from_millis(10)), Ok(None));
    // Retire everything: the same call now reports Disconnected, and does
    // so promptly rather than waiting out a long timeout.
    pool.retire_worker(0);
    pool.retire_worker(1);
    let started = std::time::Instant::now();
    assert_eq!(
        pool.recv_timeout(Duration::from_secs(30)),
        Err(PoolError::Disconnected)
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "disconnected pool must fail fast"
    );
    pool.shutdown();
}

#[test]
fn worker_stats_count_panics_per_worker() {
    let pool: MasterWorker<u64, u64> = MasterWorker::spawn(2, |_, x| {
        assert!(x % 2 == 0, "odd task");
        x
    });
    // Worker 0: two panics and one success. Worker 1: untouched.
    for task in [1, 3, 4] {
        pool.send(0, task);
        let _ = pool.recv();
    }
    let stats = pool.worker_stats();
    assert_eq!(stats[0].panics, 2);
    assert_eq!(stats[0].tasks_completed, 1);
    assert_eq!(stats[1].panics, 0);
    assert_eq!(stats[1].tasks_completed, 0);
    pool.shutdown();
}

#[test]
fn supervisor_recovers_every_task_under_periodic_panics() {
    // Every 5th call panics; the supervisor must still deliver all 30
    // results, with at least one resend along the way and nothing lost.
    let (pool, _calls) = flaky_pool(5);
    let mut sup = Supervisor::new(
        pool,
        SupervisorConfig {
            max_retries: 5,
            quarantine_after: 4,
            backoff_base: Duration::ZERO,
            ..SupervisorConfig::default()
        },
    );
    let mut expected: u64 = 0;
    for x in 0..30u64 {
        let w = x as usize % 2;
        if sup.is_live(w) {
            sup.send(w, x);
        } else {
            let fallback = (0..sup.n_workers()).find(|&v| sup.is_live(v));
            sup.send(fallback.expect("a live worker remains"), x);
        }
        expected += x * 2;
    }
    let mut collected: u64 = 0;
    let mut n = 0;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while n < 30 && std::time::Instant::now() < deadline {
        if let Some((_, r)) = sup.recv_timeout(Duration::from_millis(100)) {
            collected += r;
            n += 1;
        }
    }
    assert_eq!(n, 30, "every task recovered");
    assert_eq!(collected, expected);
    let stats = sup.stats();
    assert!(stats.tasks_resent >= 1, "stats: {stats:?}");
    assert_eq!(stats.tasks_lost, 0, "stats: {stats:?}");
    let events = sup.take_events();
    assert!(events
        .iter()
        .any(|e| matches!(e, RecoveryEvent::TaskResent { .. })));
    sup.shutdown();
}

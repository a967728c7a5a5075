//! Concurrency stress tests of the framework: budget + pool + network
//! working together the way the search variants use them.

use deme::{multisearch, EvaluationBudget, MasterWorker};
use detrand::streams;
use std::time::Duration;

/// Workers racing on one budget must hand out exactly the maximum, and the
/// master must see every granted unit back in results.
#[test]
fn budget_and_pool_account_exactly_under_contention() {
    let budget = EvaluationBudget::new(10_000);
    let pool: MasterWorker<u64, u64> = {
        let budget = budget.clone();
        MasterWorker::spawn(4, move |_, want| budget.try_consume(want))
    };
    let mut granted_total = 0u64;
    let mut outstanding = 0usize;
    // Keep all workers saturated with uneven requests.
    let mut next = 0usize;
    for i in 0..5_000u64 {
        pool.send(next, (i % 7) + 1);
        next = (next + 1) % 4;
        outstanding += 1;
        if outstanding >= 16 {
            let (_, granted) = pool.recv().expect("workers alive");
            granted_total += granted;
            outstanding -= 1;
        }
    }
    while outstanding > 0 {
        let (_, granted) = pool.recv().expect("workers alive");
        granted_total += granted;
        outstanding -= 1;
    }
    assert_eq!(granted_total, 10_000);
    assert!(budget.exhausted());
    pool.shutdown();
}

/// A full multisearch network with concurrent senders: every message sent
/// is received exactly once, nothing is duplicated or lost.
#[test]
fn multisearch_network_is_lossless_under_threads() {
    const N: usize = 6;
    const MSGS_PER_PEER: usize = 500;
    let mut rngs = streams(7, N);
    let endpoints = multisearch::network::<(usize, usize), _>(N, &mut rngs);

    let received: Vec<Vec<(usize, usize)>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for mut ep in endpoints {
            handles.push(scope.spawn(move || {
                let me = ep.id;
                let mut got = Vec::new();
                for k in 0..MSGS_PER_PEER {
                    ep.send_next((me, k));
                    got.extend(ep.drain());
                }
                // Drain stragglers until every peer has finished sending.
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                while got.len() < MSGS_PER_PEER && std::time::Instant::now() < deadline {
                    got.extend(ep.drain());
                    std::thread::yield_now();
                }
                got
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("peer panicked"))
            .collect()
    });

    // Every peer sends one message per round to exactly one other peer;
    // with a full round-robin rotation each peer also receives exactly
    // MSGS_PER_PEER messages in total (every sender's list contains it
    // the same number of times per rotation cycle).
    let total: usize = received.iter().map(|r| r.len()).sum();
    assert_eq!(total, N * MSGS_PER_PEER, "messages lost or duplicated");
    // Message payloads are unique (sender, sequence) pairs.
    let mut seen = std::collections::HashSet::new();
    for r in &received {
        for &msg in r {
            assert!(seen.insert(msg), "duplicate delivery of {msg:?}");
        }
    }
}

/// The pool survives bursty send-to-all/collect-all cycles interleaved
/// with asynchronous one-off sends.
#[test]
fn pool_mixed_usage_patterns() {
    let pool: MasterWorker<u64, u64> = MasterWorker::spawn(3, |id, x| x * 3 + id as u64);
    for round in 0..100u64 {
        if round % 3 == 0 {
            for w in 0..3 {
                pool.send(w, round);
            }
            let mut out = [0; 3];
            for _ in 0..3 {
                let (w, r) = pool.recv().expect("no panics");
                out[w] = r;
            }
            assert_eq!(out, [3 * round, 3 * round + 1, 3 * round + 2]);
        } else {
            pool.send((round % 3) as usize, round);
            let (w, r) = pool.recv().expect("workers alive");
            assert_eq!(r, 3 * round + w as u64);
        }
    }
    pool.shutdown();
}

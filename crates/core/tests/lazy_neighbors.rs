//! `SearchCore::step` judges fully built neighbors and lazy ones alike:
//! the same seeds give the same archive and iteration count whether the
//! pool holds [`Neighbor`]s assembled from `sample_move`,
//! `Solution::patched` and the move's arcs (as an outside caller builds
//! them), or the [`LazyNeighbor`]s of [`generate_chunk`], which are built
//! only when a memory admits them or the step selects them.

use detrand::Xoshiro256StarStar;
use std::sync::Arc;
use tsmo_core::{
    generate_chunk, FrontEntry, LazyNeighbor, Neighbor, ParallelVariant, SearchCore, StepNeighbor,
    TsmoConfig,
};
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::Instance;
use vrptw_operators::sample_move;

/// The chunk `(seed, count)` of `core`'s current neighborhood, every
/// neighbor materialized up front: `generate_chunk`'s draw loop with
/// `sample_move` in place of its tallied twin (same draws).
fn built_chunk(inst: &Instance, core: &SearchCore, seed: u64, count: usize) -> Vec<Neighbor> {
    let snapshot = core.current();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    let max_attempts = count.saturating_mul(60).max(64);
    let mut attempts = 0;
    while out.len() < count && attempts < max_attempts {
        attempts += 1;
        if let Some(c) = sample_move(&mut rng, inst, snapshot, core.sample_params()) {
            out.push(Neighbor {
                solution: snapshot.solution().patched(&c.patch),
                objectives: c.preview.objectives,
                arcs_created: c.mv.arcs_created(snapshot),
                arcs_removed: c.mv.arcs_removed(snapshot),
                operator: c.mv.kind(),
                created_iteration: core.iteration(),
            });
        }
    }
    out
}

/// The lazy chunk `generate_chunk` hands the library's own loops.
fn lazy_chunk(inst: &Instance, core: &SearchCore, seed: u64, count: usize) -> Vec<LazyNeighbor> {
    generate_chunk(
        inst,
        core.snapshot(),
        seed,
        count,
        core.sample_params(),
        core.iteration(),
    )
    .neighbors
}

/// A whole sequential solve (Algorithm 1 with the sequential variant's
/// budget split), its pools made by `chunk`. Returns the archive and the
/// iteration count.
fn solve<N: StepNeighbor>(
    inst: &Arc<Instance>,
    cfg: &TsmoConfig,
    chunk: impl Fn(&Instance, &SearchCore, u64, usize) -> Vec<N>,
) -> (Vec<FrontEntry>, usize) {
    let mut core = SearchCore::new(
        Arc::clone(inst),
        cfg.clone(),
        Xoshiro256StarStar::seed_from_u64(cfg.seed),
    );
    let sizes = cfg.chunk_sizes();
    let mut consumed = 0u64;
    while consumed < cfg.max_evaluations {
        let seeds = core.chunk_seeds();
        let mut pool = Vec::with_capacity(cfg.neighborhood_size);
        for (&seed, &size) in seeds.iter().zip(&sizes) {
            let granted = (size as u64).min(cfg.max_evaluations - consumed) as usize;
            consumed += granted as u64;
            pool.extend(chunk(inst, &core, seed, granted));
        }
        if pool.is_empty() && consumed >= cfg.max_evaluations {
            break;
        }
        core.step(pool);
    }
    let (archive, _, iterations) = core.finish();
    (archive, iterations)
}

/// Member-by-member equality: same solutions, bit-equal objectives, same
/// order.
fn assert_same_archive(a: &[FrontEntry], b: &[FrontEntry], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: archive sizes differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.solution, y.solution,
            "{what}: member {i} solutions differ"
        );
        assert_eq!(
            x.objectives.to_vector(),
            y.objectives.to_vector(),
            "{what}: member {i} objectives differ"
        );
    }
}

fn check(class: InstanceClass, customers: usize, seeds: &[u64]) {
    let inst = Arc::new(GeneratorConfig::new(class, customers, 3).build());
    for &seed in seeds {
        let cfg = TsmoConfig {
            max_evaluations: 12_000,
            stagnation_limit: 10,
            ..TsmoConfig::default().with_seed(seed)
        };
        let (built, built_iters) = solve(&inst, &cfg, built_chunk);
        let (lazy, lazy_iters) = solve(&inst, &cfg, lazy_chunk);
        let what = format!("{class:?}-{customers} seed {seed}");
        assert_eq!(built_iters, lazy_iters, "{what}: iteration counts differ");
        assert_same_archive(&built, &lazy, &what);
        // Both equal the library's own sequential solve.
        let library = ParallelVariant::Sequential.run(&inst, &cfg);
        assert_eq!(library.iterations, lazy_iters, "{what}: library iterations");
        assert_same_archive(&library.archive, &lazy, &what);
    }
}

#[test]
fn built_and_lazy_pools_give_the_same_r1_solve() {
    check(InstanceClass::R1, 100, &[1, 2]);
}

#[test]
fn built_and_lazy_pools_give_the_same_c2_solve() {
    check(InstanceClass::C2, 200, &[1, 2]);
}

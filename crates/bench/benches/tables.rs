//! Criterion benches mirroring the paper's evaluation: one bench per table
//! (miniature budgets so `cargo bench` stays minutes, not hours — the
//! `tables` binary runs the full-scale regeneration) and one for the Fig. 1
//! trace run. Each measures a complete run of every algorithm in the
//! lineup, so the relative runtimes (sync < seq, async < sync, coll > seq)
//! are visible directly in the criterion report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use tsmo_core::{ParallelVariant, TsmoConfig};
use vrptw::generator::GeneratorConfig;

fn mini_cfg() -> TsmoConfig {
    TsmoConfig {
        max_evaluations: 4_000,
        neighborhood_size: 100,
        ..TsmoConfig::default()
    }
}

fn bench_table(c: &mut Criterion, table: usize) {
    let (classes, _) = bench::table_problem_set(table, false);
    let size = 100; // miniature
    let mut g = c.benchmark_group(format!("table{table}"));
    g.sample_size(10);
    let inst = Arc::new(GeneratorConfig::new(classes[0], size, 1).build());
    for variant in [
        ParallelVariant::Sequential,
        ParallelVariant::Synchronous(3),
        ParallelVariant::Asynchronous(3),
        ParallelVariant::Collaborative(3),
    ] {
        g.bench_with_input(BenchmarkId::new(variant.label(), size), &variant, |b, v| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                v.run(&inst, &mini_cfg().with_seed(seed))
            })
        });
    }
    g.finish();
}

fn bench_tables(c: &mut Criterion) {
    for t in 1..=4 {
        bench_table(c, t);
    }
}

fn bench_fig1(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1");
    g.sample_size(10);
    let inst = Arc::new(GeneratorConfig::new(vrptw::generator::InstanceClass::R1, 60, 42).build());
    g.bench_function("async_traced_run", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let cfg = TsmoConfig {
                trace: true,
                seed,
                ..mini_cfg()
            };
            ParallelVariant::Asynchronous(4).run(&inst, &cfg)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_tables, bench_fig1);
criterion_main!(benches);

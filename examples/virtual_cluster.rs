//! The virtual-time cluster: how the suite reproduces the paper's speedup
//! measurements on hosts with fewer cores than the experiment's processor
//! count. Runs the sync/async/collaborative variants on the virtual clock
//! at several processor counts and prints the virtual speedup curve.
//!
//! ```text
//! cargo run --release --example virtual_cluster
//! ```

use std::sync::Arc;
use tsmo_suite::prelude::*;
use tsmo_suite::runstats::speedup_percent;

fn main() {
    let inst = Arc::new(GeneratorConfig::new(InstanceClass::C1, 120, 3).build());
    let cfg = TsmoConfig {
        max_evaluations: 15_000,
        seed: 8,
        ..TsmoConfig::default()
    };
    println!(
        "instance {} ({} customers); per-message latency {:.1} ms\n",
        inst.name,
        inst.n_customers(),
        cfg.sim_comm_latency * 1e3
    );

    let seq = SequentialTsmo::new(cfg.clone()).run(&inst);
    println!("sequential wall time: {:.2}s\n", seq.runtime_seconds);
    println!(
        "{:>6} {:>14} {:>14} {:>14}",
        "procs", "sync makespan", "async makespan", "coll makespan"
    );
    for p in [2usize, 3, 6, 12] {
        let on_virtual_clock = |variant: ParallelVariant| {
            let clock = Clock::Virtual { speeds: None };
            variant.run_opts(
                &inst,
                &cfg,
                RunOptions {
                    clock,
                    ..RunOptions::default()
                },
            )
        };
        let sync = on_virtual_clock(ParallelVariant::Synchronous(p));
        let asy = on_virtual_clock(ParallelVariant::Asynchronous(p));
        let coll = on_virtual_clock(ParallelVariant::Collaborative(p));
        println!(
            "{:>6} {:>9.2}s {:>+.0}% {:>8.2}s {:>+.0}% {:>8.2}s {:>+.0}%",
            p,
            sync.runtime_seconds,
            speedup_percent(seq.runtime_seconds, sync.runtime_seconds),
            asy.runtime_seconds,
            speedup_percent(seq.runtime_seconds, asy.runtime_seconds),
            coll.runtime_seconds,
            speedup_percent(seq.runtime_seconds, coll.runtime_seconds),
        );
    }
    println!(
        "\n(collaborative does P independent searches — its makespan tracks the\n\
         sequential time plus communication, hence the negative speedups, as in\n\
         the paper's tables)"
    );
}

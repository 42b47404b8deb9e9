//! B4 — `lp_simplex`: the LP1 hot path. Times the shipping configuration
//! (`vub_decomposed`: coalesced super-slots, implicit bounds and VUB
//! families, the bounded revised simplex behind interval-graph component
//! sharding) on `random_active_feasible` instances at n ∈ {40, 200, 1000},
//! plus the differential oracle (`dense_exact`: per-slot LP1, monolithic,
//! dense exact-rational simplex over the row encoding) at n = 40, where it
//! is still practical.

use abt_active::{solve_active_lp_with, DecomposeMode, LpOptions, SolverBackend};
use abt_workloads::{random_active_feasible, RandomConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_lp_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_simplex");
    group.sample_size(10);
    // (name, options, max n it is still reasonable to run at).
    let oracle = LpOptions::default()
        .backend(SolverBackend::DenseExact)
        .coalesce(false)
        .decompose(DecomposeMode::Off);
    let variants: [(&str, LpOptions, usize); 2] = [
        ("dense_exact", oracle, 40),
        ("vub_decomposed", LpOptions::default(), 1000),
    ];
    for &(n, g, horizon) in &[(40usize, 4usize, 100i64), (200, 4, 400), (1000, 4, 2000)] {
        let cfg = RandomConfig {
            n,
            g,
            horizon,
            max_len: 5,
            slack_factor: 1.0,
        };
        let inst = random_active_feasible(&cfg, 7);
        for (name, opts, max_n) in variants {
            if n > max_n {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(name, n), &inst, |b, inst| {
                b.iter(|| black_box(solve_active_lp_with(inst, &opts).unwrap().objective))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lp_simplex);
criterion_main!(benches);

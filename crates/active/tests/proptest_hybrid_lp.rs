//! Differential property tests for the LP pipeline: on feasible random
//! active-time instances, every backend × coalesce × pricing × certify ×
//! decompose configuration must reproduce the oracle configuration
//! (per-slot model, monolithic, dense exact-rational simplex over the
//! row encoding) bit for bit on status and objective, and the
//! disaggregated per-slot `y` must stay a valid fractional opening.

use abt_active::{
    fractional_feasible, solve_active_lp_with, CertifyMode, DecomposeMode, LpOptions, SolverBackend,
};
use abt_lp::Rat;
use abt_workloads::{
    many_components, random_active_feasible, vub_heavy, ManyComponentsConfig, RandomConfig,
    VubHeavyConfig,
};
use proptest::prelude::*;

/// The differential oracle: per-slot, monolithic, dense exact.
fn oracle() -> LpOptions {
    LpOptions::default()
        .backend(SolverBackend::DenseExact)
        .coalesce(false)
        .decompose(DecomposeMode::Off)
}

/// The differential grid: backend × coalesce × decompose, and for the
/// revised backend additionally pricing (the partial-pricing window vs
/// full Dantzig sweeps) × every certification tier policy. The tier only
/// changes *how* dual feasibility is proven — an interval-only refusal
/// demotes down the supervision ladder — so the objective is
/// bit-identical throughout.
fn variants() -> Vec<LpOptions> {
    let mut v = Vec::new();
    for backend in [
        SolverBackend::DenseExact,
        SolverBackend::DenseHybrid,
        SolverBackend::Revised,
    ] {
        for coalesce in [false, true] {
            for decompose in [DecomposeMode::Off, DecomposeMode::Auto] {
                let is_oracle = backend == SolverBackend::DenseExact
                    && !coalesce
                    && decompose == DecomposeMode::Off;
                if is_oracle {
                    continue;
                }
                let base = LpOptions::default()
                    .backend(backend)
                    .coalesce(coalesce)
                    .decompose(decompose);
                if backend != SolverBackend::Revised {
                    v.push(base);
                    continue;
                }
                for pricing_window in [0, LpOptions::default().pricing_window] {
                    for certify in [
                        CertifyMode::Exact,
                        CertifyMode::Interval,
                        CertifyMode::IntervalThenExact,
                    ] {
                        v.push(base.pricing_window(pricing_window).certify(certify));
                    }
                }
            }
        }
    }
    v
}

fn assert_all_variants_match(inst: &abt_core::Instance) -> Result<(), TestCaseError> {
    let seed_lp =
        solve_active_lp_with(inst, &oracle()).expect("instances are feasible by construction");
    for opts in variants() {
        let lp = solve_active_lp_with(inst, &opts).unwrap();
        prop_assert_eq!(lp.objective, seed_lp.objective, "{:?}", opts);
        prop_assert_eq!(lp.slots.len(), seed_lp.slots.len());
        let mut sum = Rat::ZERO;
        for y in &lp.y {
            prop_assert!(y.signum() >= 0 && *y <= Rat::ONE, "{:?}", opts);
            sum = sum.add(y);
        }
        prop_assert_eq!(
            sum,
            seed_lp.objective,
            "{:?}: Σy must equal the objective",
            opts
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn all_backend_bounds_configs_preserve_lp1_exactly(
        seed in 0u64..1_000_000,
        n in 4usize..14,
        g in 1usize..4,
        horizon in 10i64..26,
        max_len in 1i64..5,
    ) {
        let cfg = RandomConfig { n, g, horizon, max_len, slack_factor: 1.0 };
        let inst = random_active_feasible(&cfg, seed);
        if inst.jobs().is_empty() {
            return Ok(());
        }
        assert_all_variants_match(&inst)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn degenerate_zero_slack_instances_preserve_lp1_exactly(
        seed in 0u64..1_000_000,
        n in 4usize..12,
        g in 1usize..4,
        horizon in 8i64..20,
        max_len in 1i64..5,
    ) {
        // Zero window slack: every job's window equals its length, so all
        // assignments are forced and most LP rows are tight (maximal
        // degeneracy for the pivoting rules).
        let cfg = RandomConfig { n, g, horizon, max_len, slack_factor: 0.0 };
        let inst = random_active_feasible(&cfg, seed);
        if inst.jobs().is_empty() {
            return Ok(());
        }
        assert_all_variants_match(&inst)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn vub_heavy_nested_instances_preserve_lp1_exactly(
        seed in 0u64..1_000_000,
        n in 6usize..16,
        g in 2usize..5,
        fan_in in 2usize..5,
        horizon in 16i64..40,
    ) {
        // The VUB stress family: laminar nested windows with `fan_in` jobs
        // per window (after Cao et al., arXiv:2207.12507) maximize the
        // per-interval job fan-in, i.e. the number of `x ≤ Y` caps per key.
        let cfg = VubHeavyConfig { n, g, horizon, max_len: 4, fan_in };
        let inst = vub_heavy(&cfg, seed);
        if inst.jobs().is_empty() {
            return Ok(());
        }
        assert_all_variants_match(&inst)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn component_sharding_preserves_lp1_exactly(
        seed in 0u64..1_000_000,
        components in 1usize..7,
        jobs_per in 1usize..5,
        g in 1usize..4,
        span in 6i64..14,
        gap in 1i64..5,
    ) {
        // The decomposition stress family: `components` isolated clusters
        // (degenerate corners included — a single cluster collapses Auto to
        // the monolithic path, and one job per cluster makes every
        // component a singleton). `DecomposeMode::Auto` must reproduce the
        // monolithic `Off` objective bit for bit under every ladder
        // backend, and the stitched per-slot `y` must stay a feasible
        // fractional opening.
        let cfg = ManyComponentsConfig {
            components,
            jobs_per_component: jobs_per,
            g,
            span,
            gap,
            max_len: 3,
            slack_factor: 1.0,
        };
        let inst = many_components(&cfg, seed);
        if inst.jobs().is_empty() {
            return Ok(());
        }
        let oracle = solve_active_lp_with(&inst, &LpOptions::default().decompose(DecomposeMode::Off))
            .expect("instances are feasible by construction");
        for backend in [
            SolverBackend::DenseExact,
            SolverBackend::DenseHybrid,
            SolverBackend::Revised,
        ] {
            for decompose in [DecomposeMode::Off, DecomposeMode::Auto] {
                let opts = LpOptions::default().backend(backend).decompose(decompose);
                let lp = solve_active_lp_with(&inst, &opts).unwrap();
                prop_assert_eq!(lp.objective, oracle.objective, "{:?}", opts);
                let mut sum = Rat::ZERO;
                for y in &lp.y {
                    prop_assert!(y.signum() >= 0 && *y <= Rat::ONE, "{:?}", opts);
                    sum = sum.add(y);
                }
                prop_assert_eq!(
                    sum,
                    oracle.objective,
                    "{:?}: stitched Σy must equal the objective",
                    opts
                );
                // Certify the stitched y actually supports a fractional
                // schedule (LP2).
                prop_assert!(
                    fractional_feasible(&inst, &lp.slots.to_vec(), &lp.y.to_vec()),
                    "{:?}: stitched y must be LP2-feasible",
                    opts
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn single_super_slot_instances_preserve_lp1_exactly(
        seed in 0u64..1_000_000,
        n in 2usize..8,
        g in 2usize..5,
        width in 6i64..14,
    ) {
        // Every job shares the window (0, width]: the coalesced model has a
        // single super-slot, so the entire capacity structure lives in the
        // variable bound Y ≤ width.
        let mut triples = Vec::new();
        let mut used = 0i64;
        for i in 0..n {
            let len = 1 + (seed >> (i % 16)) as i64 % width.min(4);
            if used + len > g as i64 * width {
                break;
            }
            used += len;
            triples.push((0i64, width, len));
        }
        if triples.is_empty() {
            return Ok(());
        }
        let inst = abt_core::Instance::from_triples(triples, g).unwrap();
        assert_all_variants_match(&inst)?;
    }
}

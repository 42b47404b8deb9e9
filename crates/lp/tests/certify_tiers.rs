//! Differential and adversarial tests for the layered certification
//! tiers: every [`CertifyMode`] must return bit-identical results (the
//! interval tier only ever changes *how* dual feasibility is proven,
//! never *what* is reported), and an adversarially tiny dual gap must
//! drive the interval sweep to escalation rather than a wrong verdict.

use abt_lp::{
    solve, solve_lp, CertifyMode, Cmp, LpProblem, LpStatus, Rat, SolveFailure, SolveOptions,
    SolverBackend,
};
use proptest::prelude::*;

fn r(p: i64) -> Rat {
    Rat::from_int(p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn all_certify_modes_are_bit_identical(
        k in 2usize..4,
        rows in proptest::collection::vec(
            (proptest::collection::vec(-4i64..5, 6), -3i64..9), 1..6),
        costs in proptest::collection::vec(-5i64..6, 6),
        key_ubs in proptest::collection::vec(0i64..7, 3),
    ) {
        // `k` dependent/key VUB pairs over random rows: the families and
        // implicit bounds route the certifier through every resting state
        // (at-zero, at-upper, at-VUB, augmented key columns). The exact
        // dense simplex on the equivalent row encoding is the oracle.
        let nvars = 2 * k;
        let mut row_lp: LpProblem<Rat> = LpProblem::new();
        let mut vub_lp: LpProblem<Rat> = LpProblem::new();
        for &c in costs.iter().take(nvars) {
            row_lp.add_var(r(c));
            vub_lp.add_var(r(c));
        }
        for (coeffs, b) in &rows {
            let terms: Vec<_> = (0..nvars).map(|i| (i, r(coeffs[i]))).collect();
            row_lp.add_constraint(terms.clone(), Cmp::Le, r(*b));
            vub_lp.add_constraint(terms, Cmp::Le, r(*b));
        }
        for (i, &ub) in key_ubs.iter().enumerate().take(k) {
            let key = k + i;
            row_lp.add_constraint(vec![(i, Rat::ONE), (key, r(-1))], Cmp::Le, r(0));
            vub_lp.set_vub(i, key);
            row_lp.bound_var(key, r(ub));
            vub_lp.set_upper(key, r(ub));
        }
        let oracle = solve(&row_lp);
        // The dense hybrid certifies its float basis of the row encoding
        // through the same certifier: the oracle's answer, and exactly
        // one tier verdict whenever it did not fall back.
        let hybrid = solve_lp(&row_lp, &SolveOptions::new().backend(SolverBackend::DenseHybrid))
            .expect("the dense hybrid never fails");
        prop_assert_eq!(hybrid.solution.status.clone(), oracle.status.clone());
        if oracle.status == LpStatus::Optimal {
            prop_assert_eq!(hybrid.solution.objective, oracle.objective);
            prop_assert!(row_lp.is_feasible(&hybrid.solution.x));
            if !hybrid.fallback {
                prop_assert_eq!(
                    hybrid.stats.interval_accepts + hybrid.stats.interval_escalations, 1);
            }
        }
        let exact = solve_lp(&vub_lp, &SolveOptions::new().certify(CertifyMode::Exact));
        let tiered =
            solve_lp(&vub_lp, &SolveOptions::new().certify(CertifyMode::IntervalThenExact));
        match (&exact, &tiered) {
            (Ok(e), Ok(t)) => {
                prop_assert_eq!(e.solution.status.clone(), oracle.status.clone());
                prop_assert_eq!(t.solution.status.clone(), oracle.status.clone());
                if oracle.status == LpStatus::Optimal {
                    // Bit-identical across tiers AND against the oracle:
                    // objective, point, duals, and the terminal basis.
                    prop_assert_eq!(e.solution.objective, oracle.objective);
                    prop_assert_eq!(t.solution.objective, oracle.objective);
                    prop_assert_eq!(&t.solution.x, &e.solution.x);
                    prop_assert_eq!(&t.solution.duals, &e.solution.duals);
                    prop_assert_eq!(&t.snapshot, &e.snapshot);
                    // The tiered run must never pay for both sweeps on
                    // these well-scaled instances unless it escalated, and
                    // whichever tier proved it, the proof is counted.
                    prop_assert_eq!(
                        t.stats.interval_accepts + t.stats.interval_escalations, 1);
                    prop_assert_eq!(e.stats.interval_accepts, 0);
                    prop_assert_eq!(e.stats.interval_escalations, 0);
                }
            }
            (Err(ef), Err(tf)) => prop_assert_eq!(ef.clone(), tf.clone()),
            other => prop_assert!(false, "tiers disagreed on solvability: {:?}", other),
        }
        // Interval-only mode may refuse (NumericalStall) when the sweep is
        // inconclusive, but an accept must be bit-identical to Exact, and
        // a genuine failure (e.g. infeasibility) must match the other
        // tiers' verdict.
        match solve_lp(&vub_lp, &SolveOptions::new().certify(CertifyMode::Interval)) {
            Ok(iv) => {
                let e = exact.as_ref().expect("exact agrees when interval accepts");
                prop_assert_eq!(iv.solution.objective, e.solution.objective);
                prop_assert_eq!(&iv.solution.x, &e.solution.x);
                prop_assert_eq!(&iv.snapshot, &e.snapshot);
                prop_assert_eq!(iv.stats.interval_accepts, 1);
            }
            Err(SolveFailure::NumericalStall) => {}
            Err(f) => {
                let ef = exact.as_ref().expect_err("interval failed where exact solved");
                prop_assert_eq!(&f, ef);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn warm_solves_are_bit_identical_across_certify_modes(
        k in 1usize..4,
        rows in proptest::collection::vec(
            (proptest::collection::vec(-4i64..5, 3), -3i64..9), 1..6),
        costs in proptest::collection::vec(-5i64..6, 3),
        ubs in proptest::collection::vec(1i64..11, 3),
    ) {
        let mut lp: LpProblem<Rat> = LpProblem::new();
        for &c in costs.iter().take(k) {
            lp.add_var(r(c));
        }
        for (coeffs, b) in &rows {
            let terms: Vec<_> = (0..k).map(|i| (i, r(coeffs[i]))).collect();
            lp.add_constraint(terms, Cmp::Le, r(*b));
        }
        for (i, &ub) in ubs.iter().enumerate().take(k) {
            lp.set_upper(i, r(ub));
        }
        let Ok(cold) = solve_lp(&lp, &SolveOptions::new()) else {
            return Ok(()); // infeasible draws have no warm story
        };
        let Some(snap) = cold.snapshot.clone() else {
            return Ok(());
        };
        let pool = [snap];
        // Warm re-solves of the *same* problem from its own terminal
        // snapshot must hit, and stay bit-identical whichever tier
        // certifies the re-installed basis.
        for mode in [
            CertifyMode::Exact,
            CertifyMode::Interval,
            CertifyMode::IntervalThenExact,
        ] {
            let opts = SolveOptions::new()
                .certify(mode)
                .snapshots(&pool)
                .warm_only(true);
            match solve_lp(&lp, &opts) {
                Ok(warm) => {
                    prop_assert!(warm.warm_hit);
                    prop_assert_eq!(warm.solution.objective, cold.solution.objective);
                    prop_assert_eq!(&warm.solution.x, &cold.solution.x);
                }
                // Interval-only certification may refuse inconclusively.
                Err(SolveFailure::NumericalStall) => {
                    prop_assert_eq!(mode, CertifyMode::Interval);
                }
                Err(other) => {
                    prop_assert!(false, "warm re-solve failed under {mode:?}: {other:?}");
                }
            }
        }
    }
}

/// Builds the adversarial straddle instance: minimize `−x₀` over
/// `3·x₀ + Σⱼ xⱼ ≤ 3` with `n` satellite columns whose costs are
/// `−1/3 + 2⁻⁶⁰`. At the optimum `x₀ = 1` is basic, the row dual is
/// `−1/3` (non-dyadic — its f64 enclosure is one ulp wide), and every
/// satellite's exact reduced cost is `2⁻⁶⁰`: positive, so the basis is
/// genuinely optimal, but 10⁴× smaller than the interval sweep's
/// outward-rounding width — every satellite column straddles zero.
fn straddle_lp(n: usize) -> LpProblem<Rat> {
    let mut lp: LpProblem<Rat> = LpProblem::new();
    lp.add_var(r(-1));
    // −1/3 + 2⁻⁶⁰ = (3 − 2⁶⁰) / (3·2⁶⁰), exactly.
    let tiny_above = Rat::new(3 - (1i128 << 60), 3 * (1i128 << 60));
    for _ in 0..n {
        lp.add_var(tiny_above);
    }
    let mut terms = vec![(0usize, r(3))];
    for j in 0..n {
        terms.push((j + 1, Rat::ONE));
    }
    lp.add_constraint(terms, Cmp::Le, r(3));
    // The satellites need upper bounds so the enclosing box is finite on
    // the paths that materialize bounds; generous enough to stay slack.
    for j in 0..n {
        lp.set_upper(j + 1, r(100));
    }
    lp
}

/// With more straddling columns than the per-solve rescue cap, the
/// interval sweep must go inconclusive and escalate — and the escalated
/// exact sweep must certify the same bit-identical optimum the pure exact
/// tier reports. A 2⁻⁶⁰ dual gap must never produce a wrong verdict.
#[test]
fn adversarial_tiny_gap_escalates_to_exact() {
    let lp = straddle_lp(24);
    let exact = solve_lp(&lp, &SolveOptions::new().certify(CertifyMode::Exact))
        .expect("exact certification of the straddle instance");
    assert_eq!(exact.solution.status, LpStatus::Optimal);
    assert_eq!(exact.solution.objective, r(-1));
    assert_eq!(exact.stats.interval_escalations, 0);

    let tiered = solve_lp(
        &lp,
        &SolveOptions::new().certify(CertifyMode::IntervalThenExact),
    )
    .expect("escalation must rescue the tiered solve");
    assert_eq!(
        tiered.stats.interval_escalations, 1,
        "a straddle beyond the rescue cap must escalate"
    );
    assert_eq!(tiered.stats.interval_accepts, 0);
    assert_eq!(tiered.solution.objective, exact.solution.objective);
    assert_eq!(tiered.solution.x, exact.solution.x);
    assert_eq!(tiered.solution.duals, exact.solution.duals);
    assert_eq!(tiered.snapshot, exact.snapshot);
}

/// Interval-only certification must *refuse* the straddle instance
/// (inconclusive is not a proof) rather than accept or mis-refute it —
/// the supervision ladder upstream absorbs the refusal by demoting.
#[test]
fn adversarial_tiny_gap_refuses_under_interval_only() {
    let lp = straddle_lp(24);
    match solve_lp(&lp, &SolveOptions::new().certify(CertifyMode::Interval)) {
        Err(SolveFailure::NumericalStall) => {}
        other => panic!("interval-only mode must refuse the straddle instance, got {other:?}"),
    }
}

/// A *small* number of straddling columns stays within the per-column
/// rescue cap: the sweep rescues each straddle exactly and still accepts
/// at the interval tier, with no escalation.
#[test]
fn isolated_straddles_are_rescued_without_escalation() {
    let lp = straddle_lp(2);
    let rep = solve_lp(
        &lp,
        &SolveOptions::new().certify(CertifyMode::IntervalThenExact),
    )
    .expect("rescued interval certification");
    assert_eq!(rep.stats.interval_accepts, 1);
    assert_eq!(rep.stats.interval_escalations, 0);
    assert_eq!(rep.solution.objective, r(-1));
}

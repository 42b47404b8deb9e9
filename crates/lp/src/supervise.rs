//! The **supervision ladder**: the one fault-tolerant solve path shared by
//! the active-time LP1 solves (`abt-active`) and the busy-time LP
//! (`abt-busy`).
//!
//! # The ladder
//!
//! [`supervised_solve`] retries one LP down four rungs until one produces
//! a certified answer. Every rung is one [`solve_lp`] call under a
//! different [`SolveOptions`] policy; the caller's `opts.backend` picks
//! the first rung:
//!
//! 1. **Warm** (`warm_only(true)`) — the `Revised` backend's first rung
//!    when the caller offers snapshots. A pool miss (`ShapeDrift`) is a
//!    routine cache outcome and drops through silently; any other failure
//!    demotes.
//! 2. **Cold revised** — the `Revised` backend's first rung without
//!    snapshots: the bounded revised simplex with budgets armed. A
//!    float-level `Infeasible` claim goes straight to dense exact without
//!    demoting: confirming it is the exact tier's job, and the dense
//!    hybrid's float pass can only certify an optimum, so on an
//!    infeasible LP it would end in the same exact solve. Panics, budget
//!    trips, and numerical stalls demote to the dense hybrid.
//! 3. **Dense hybrid** (`SolverBackend::DenseHybrid`, also its first
//!    rung) — dense float search with exact certification and its own
//!    internal exact fallback.
//! 4. **Dense exact** (`SolverBackend::DenseExact`, also its first rung)
//!    — every pivot in rationals over the row encoding; the rung of last
//!    resort.
//!
//! Each rung runs under `catch_unwind`, so a panic in any engine is a
//! typed [`SolveFailure::Panicked`] and a demotion, never an abort.
//! Because every rung ends in a *sound* certification — the revised rungs
//! through the caller's [`crate::CertifyMode`] tier policy (an
//! interval-tier accept is a proof, and an inconclusive interval sweep
//! escalates or demotes, never accepts), the dense rungs exactly by
//! construction — a solve that succeeds on **any** rung returns the same
//! status and objective bit for bit: demotion trades speed, never
//! answers. Only when the last rung fails does the call return `Err`; the
//! caller then quarantines its work item.
//!
//! # Metrics
//!
//! The caller names a metric prefix (`"lp."` for the active half,
//! `"busy.lp."` for the busy half) and the ladder records, in the
//! [`abt_core::obs::metrics`] registry under that prefix: `solves`,
//! `fallbacks` (the winning rung's `fallback` flag), the float-pass
//! counters `pivots` / `bound_flips` / `refactorizations`, the certify
//! clocks `certify_nanos` / `certify_interval_nanos` /
//! `certify_exact_nanos`, `interval_accepts` / `interval_escalations`,
//! the `solve_latency_us` and `pivots_per_solve` histograms, and the
//! failure-driven `demotions` and `budget_trips`. The caller records
//! `quarantined` itself when it abandons a work item. [`ladder_metrics`]
//! hands out the resolved handles per prefix, so typed views read them
//! without a registry lookup. Every call opens a
//! `solve.component` span (fields `vars`, `metrics`, and the winning
//! `rung`), and every demotion emits a `supervise.demotion` event with the
//! failure and both rung names.
//!
//! # Fault injection
//!
//! Under the `fault-injection` cargo feature the ladder participates in
//! the [`abt_core::faultinject`] registry: the `fail_nth_solve` failpoint
//! fires at ladder entry (modelling an unclassifiable crash of the whole
//! attempt — straight to `Err`, no rung runs), while the deeper
//! `panic_in_pivot` / `panic_in_ftran` / `slow_certify` sites fire inside
//! the revised rungs and exercise the demotion path.

use crate::api::{solve_lp, LpReport, SolveOptions, SolverBackend};
use crate::model::LpProblem;
use crate::rational::Rat;
use abt_core::faultinject;
use abt_core::obs::{self, metrics::Counter, metrics::Histogram};
use abt_core::{panic_message, SolveFailure};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// Rung names, in ladder order (the `from`/`to` fields of
/// `supervise.demotion` events and the `rung` field of the span).
const RUNGS: [&str; 4] = ["warm", "cold revised", "dense hybrid", "dense exact"];

/// The ladder's metric handles under one prefix (see the module docs).
#[derive(Debug)]
pub struct LadderMetrics {
    /// Certified solves, one per successful [`supervised_solve`] call.
    pub solves: &'static Counter,
    /// Solves whose winning rung reported [`LpReport::fallback`].
    pub fallbacks: &'static Counter,
    /// Basis-changing pivots of the winning rung's float pass.
    pub pivots: &'static Counter,
    /// Bound/VUB flips (no basis change).
    pub bound_flips: &'static Counter,
    /// LU refactorizations.
    pub refactorizations: &'static Counter,
    /// Certification wall time, nanoseconds.
    pub certify_nanos: &'static Counter,
    /// Certification time in the directed-rounding interval tier,
    /// nanoseconds (a subset of `certify_nanos`).
    pub certify_interval_nanos: &'static Counter,
    /// Certification time in the exact tier, nanoseconds.
    pub certify_exact_nanos: &'static Counter,
    /// Solves whose dual-feasibility proof the interval tier discharged
    /// alone.
    pub interval_accepts: &'static Counter,
    /// Solves whose interval sweep was inconclusive and escalated.
    pub interval_escalations: &'static Counter,
    /// Failure-driven demotions from one rung to the next.
    pub demotions: &'static Counter,
    /// Demotions caused by a tripped pivot/refactorization/wall-time
    /// budget (a subset of `demotions`).
    pub budget_trips: &'static Counter,
    /// Work items the caller abandoned after the whole ladder failed
    /// (recorded by the caller, not the ladder).
    pub quarantined: &'static Counter,
    /// Wall time of each successful call, microseconds.
    pub solve_latency_us: &'static Histogram,
    /// Pivot count of each successful call (a deterministic
    /// distribution).
    pub pivots_per_solve: &'static Histogram,
}

/// The ladder's metric handles under `prefix`, resolved once per prefix.
/// Callers that read them on a hot path cache the returned reference.
pub fn ladder_metrics(prefix: &'static str) -> &'static LadderMetrics {
    static RESOLVED: Mutex<Vec<(&'static str, &'static LadderMetrics)>> = Mutex::new(Vec::new());
    // A poisoned lock still guards a valid list: its only update is one
    // `push` of a fully built entry.
    let mut resolved = RESOLVED.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(&(_, m)) = resolved.iter().find(|(p, _)| *p == prefix) {
        return m;
    }
    let name =
        |suffix: &str| -> &'static str { Box::leak(format!("{prefix}{suffix}").into_boxed_str()) };
    let counter = |suffix: &str| obs::metrics::counter(name(suffix));
    let m: &'static LadderMetrics = Box::leak(Box::new(LadderMetrics {
        solves: counter("solves"),
        fallbacks: counter("fallbacks"),
        pivots: counter("pivots"),
        bound_flips: counter("bound_flips"),
        refactorizations: counter("refactorizations"),
        certify_nanos: counter("certify_nanos"),
        certify_interval_nanos: counter("certify_interval_nanos"),
        certify_exact_nanos: counter("certify_exact_nanos"),
        interval_accepts: counter("interval_accepts"),
        interval_escalations: counter("interval_escalations"),
        demotions: counter("demotions"),
        budget_trips: counter("budget_trips"),
        quarantined: counter("quarantined"),
        solve_latency_us: obs::metrics::histogram(name("solve_latency_us")),
        pivots_per_solve: obs::metrics::histogram(name("pivots_per_solve")),
    }));
    resolved.push((prefix, m));
    m
}

impl LadderMetrics {
    fn record_solve(&self, rep: &LpReport, started: Instant) {
        self.solves.inc();
        if rep.fallback {
            self.fallbacks.inc();
        }
        let s = &rep.stats;
        self.pivots.add(s.pivots);
        self.bound_flips.add(s.bound_flips);
        self.refactorizations.add(s.refactorizations);
        self.certify_nanos.add(s.certify_nanos);
        self.certify_interval_nanos.add(s.certify_interval_nanos);
        self.certify_exact_nanos.add(s.certify_exact_nanos);
        self.interval_accepts.add(s.interval_accepts);
        self.interval_escalations.add(s.interval_escalations);
        self.pivots_per_solve.record(s.pivots);
        self.solve_latency_us
            .record(started.elapsed().as_micros() as u64);
    }
}

/// Solves `lp` down the degradation ladder (see the module docs), starting
/// at the rung `opts.backend` selects and recording into the metrics
/// under `metrics_prefix`. `opts.warm_only` is ignored: the ladder sets it
/// per rung.
///
/// Returns `Err` only when every rung failed — the caller quarantines the
/// work item; the error is the root-cause failure (the first one that
/// forced a demotion, or the final rung's own failure when nothing
/// demoted).
pub fn supervised_solve(
    lp: &LpProblem<Rat>,
    opts: &SolveOptions,
    metrics_prefix: &'static str,
) -> Result<LpReport, SolveFailure> {
    // `fail_nth_solve` models an unclassifiable crash of the whole
    // supervised attempt: no rung runs.
    if let Err(payload) = catch_unwind(|| faultinject::hit("fail_nth_solve")) {
        return Err(SolveFailure::Panicked(panic_message(payload.as_ref())));
    }
    let met = ladder_metrics(metrics_prefix);
    let mut span = abt_core::obs_span!(
        "solve.component",
        vars = lp.num_vars(),
        metrics = metrics_prefix
    );
    let started = Instant::now();
    let (rep, rung) = climb(lp, opts, met)?;
    met.record_solve(&rep, started);
    span.field("rung", rung);
    Ok(rep)
}

/// The rungs of [`supervised_solve`]: the first certified report and the
/// name of the rung that produced it, or the root-cause failure.
fn climb(
    lp: &LpProblem<Rat>,
    opts: &SolveOptions,
    met: &LadderMetrics,
) -> Result<(LpReport, &'static str), SolveFailure> {
    let mut rung = match opts.backend {
        SolverBackend::Revised if !opts.snapshots.is_empty() => 0,
        SolverBackend::Revised => 1,
        SolverBackend::DenseHybrid => 2,
        SolverBackend::DenseExact => 3,
    };
    let mut first_failure: Option<SolveFailure> = None;
    loop {
        let name = RUNGS[rung];
        let rung_opts = match rung {
            0 => opts.warm_only(true),
            1 => opts.snapshots(&[]).warm_only(false),
            2 => opts.backend(SolverBackend::DenseHybrid),
            _ => opts.backend(SolverBackend::DenseExact),
        };
        let failure = match catch_unwind(AssertUnwindSafe(|| solve_lp(lp, &rung_opts))) {
            Ok(Ok(rep)) => return Ok((rep, name)),
            // A pool miss is a routine cache outcome, and a float-level
            // infeasibility claim needs exact confirmation, which only
            // dense exact gives (the dense hybrid would end in the same
            // exact solve). Neither is a fault.
            Ok(Err(SolveFailure::ShapeDrift)) if rung == 0 => {
                rung = 1;
                continue;
            }
            Ok(Err(SolveFailure::Infeasible)) if rung == 1 => {
                rung = 3;
                continue;
            }
            Ok(Err(f)) => f,
            Err(p) => SolveFailure::Panicked(panic_message(p.as_ref())),
        };
        let Some(&to) = RUNGS.get(rung + 1) else {
            return Err(first_failure.unwrap_or(failure));
        };
        met.demotions.inc();
        if matches!(failure, SolveFailure::BudgetExceeded(_)) {
            met.budget_trips.inc();
        }
        obs::trace::event("supervise.demotion", || {
            vec![
                ("failure", failure.to_string()),
                ("from", name.to_string()),
                ("to", to.to_string()),
            ]
        });
        first_failure.get_or_insert(failure);
        rung += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::BoundedOptions;
    use crate::model::Cmp;
    use crate::simplex::{solve, LpStatus};
    use abt_core::error::BudgetKind;

    /// `min x + y  s.t.  x + 2y ≥ 4, 3x + y ≥ 6` (optimum 14/5), plus an
    /// implicitly bounded slack variable so every engine has work to do.
    fn lp() -> LpProblem<Rat> {
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        let y = lp.add_var(Rat::ONE);
        let z = lp.add_var(Rat::ZERO);
        lp.set_upper(z, Rat::from_int(3));
        lp.add_constraint(
            vec![(x, Rat::ONE), (y, Rat::from_int(2)), (z, Rat::ONE)],
            Cmp::Ge,
            Rat::from_int(4),
        );
        lp.add_constraint(
            vec![(x, Rat::from_int(3)), (y, Rat::ONE)],
            Cmp::Ge,
            Rat::from_int(6),
        );
        lp
    }

    fn count(name: &'static str) -> u64 {
        obs::metrics::counter(name).get()
    }

    #[test]
    fn first_rung_follows_the_backend() {
        let lp = lp();
        let exact = solve(&lp).objective;
        let revised = supervised_solve(&lp, &SolveOptions::new(), "test.ladder.rungs.").unwrap();
        assert!(!revised.fallback && revised.snapshot.is_some());
        let hybrid = SolveOptions::new().backend(SolverBackend::DenseHybrid);
        let hybrid = supervised_solve(&lp, &hybrid, "test.ladder.rungs.").unwrap();
        assert!(hybrid.snapshot.is_none(), "the dense rungs never snapshot");
        let dense = SolveOptions::new().backend(SolverBackend::DenseExact);
        let dense = supervised_solve(&lp, &dense, "test.ladder.rungs.").unwrap();
        assert!(dense.fallback, "the dense exact rung is the exact path");
        for rep in [&revised, &hybrid, &dense] {
            assert_eq!(rep.solution.objective, exact);
        }
        assert_eq!(count("test.ladder.rungs.solves"), 3);
        assert_eq!(count("test.ladder.rungs.fallbacks"), 1);
        assert_eq!(count("test.ladder.rungs.demotions"), 0);
    }

    #[test]
    fn budget_trips_demote_and_count_under_the_caller_prefix() {
        let lp = lp();
        let starved = SolveOptions::new().pricing(BoundedOptions {
            pivot_budget: 1,
            ..BoundedOptions::default()
        });
        assert_eq!(
            solve_lp(&lp, &starved).unwrap_err(),
            SolveFailure::BudgetExceeded(BudgetKind::Pivots)
        );
        let rep = supervised_solve(&lp, &starved, "test.ladder.budget.").unwrap();
        assert_eq!(rep.solution.objective, solve(&lp).objective);
        assert_eq!(count("test.ladder.budget.demotions"), 1);
        assert_eq!(count("test.ladder.budget.budget_trips"), 1);
        assert_eq!(count("test.ladder.budget.solves"), 1);
    }

    #[test]
    fn routine_outcomes_drop_through_without_demoting() {
        // A warm pool miss: a snapshot of a differently shaped LP.
        let mut other: LpProblem<Rat> = LpProblem::new();
        let v = other.add_var(Rat::ONE);
        other.add_constraint(vec![(v, Rat::ONE)], Cmp::Ge, Rat::ONE);
        let stale = solve_lp(&other, &SolveOptions::new()).unwrap().snapshot;
        let pool: Vec<_> = stale.into_iter().collect();
        let lp = lp();
        let rep = supervised_solve(
            &lp,
            &SolveOptions::new().snapshots(&pool),
            "test.ladder.miss.",
        )
        .unwrap();
        assert!(!rep.warm_hit);
        assert_eq!(rep.solution.objective, solve(&lp).objective);
        // A float infeasibility claim, confirmed exactly.
        let mut inf: LpProblem<Rat> = LpProblem::new();
        let x = inf.add_var(Rat::ONE);
        inf.set_upper(x, Rat::ONE);
        inf.add_constraint(vec![(x, Rat::ONE)], Cmp::Ge, Rat::from_int(3));
        assert_eq!(
            solve_lp(&inf, &SolveOptions::new()).unwrap_err(),
            SolveFailure::Infeasible
        );
        let rep = supervised_solve(&inf, &SolveOptions::new(), "test.ladder.miss.").unwrap();
        assert_eq!(rep.solution.status, LpStatus::Infeasible);
        assert!(rep.fallback);
        // The claim skips the dense hybrid: dense exact confirms it.
        let (_, rung) = climb(
            &inf,
            &SolveOptions::new(),
            ladder_metrics("test.ladder.miss."),
        )
        .unwrap();
        assert_eq!(rung, "dense exact");
        assert_eq!(count("test.ladder.miss.demotions"), 0);
        assert_eq!(count("test.ladder.miss.solves"), 2);
    }

    #[test]
    fn warm_rung_hits_with_a_matching_pool() {
        let lp = lp();
        let cold = solve_lp(&lp, &SolveOptions::new()).unwrap();
        let pool: Vec<_> = cold.snapshot.into_iter().collect();
        let opts = SolveOptions::new().snapshots(&pool);
        let warm = supervised_solve(&lp, &opts, "test.ladder.warm.").unwrap();
        assert!(warm.warm_hit);
        assert_eq!(warm.stats.pivots, 0, "the old optimum is still optimal");
        assert_eq!(warm.solution.objective, cold.solution.objective);
    }
}

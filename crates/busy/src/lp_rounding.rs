//! The paper's LP-rounding approximation for minimizing busy time
//! (§4), built on the unified [`abt_lp::solve_lp`] API.
//!
//! # The LP
//!
//! Let the demand profile of the interval jobs (Definitions 11–13)
//! have positive-demand segments `i` with length `len_i` and raw
//! demand `D_i`. The busy-time LP has one variable `z_i` per segment —
//! the (fractional) number of machines kept busy across segment `i` —
//! and minimizes total machine-time:
//!
//! ```text
//!     min  Σ_i len_i · z_i
//!     s.t. g · z_i ≥ D_i          (capacity: g jobs per busy machine)
//!          z_i ≥ 1                 (a demanded segment needs a machine)
//!          0 ≤ z_i ≤ ⌈D_i / g⌉    (implicit bound rows)
//! ```
//!
//! Its optimum `Σ len_i · max(D_i/g, 1)` is a lower bound on the
//! fractional cost of *any* feasible schedule, hence `LP ≤ OPT ≤`
//! [`exact_busy_time`](crate::exact_busy_time). The LP is solved through
//! the same supervision ladder as the active side,
//! [`abt_lp::supervised_solve`] (cold revised → dense hybrid → dense
//! exact, each rung panic-isolated), with tiered exact certification of
//! the terminal basis; the ladder records under the `busy.lp.*` metrics.
//!
//! # The rounding
//!
//! Round each segment to `m_i = ⌈z*_i⌉` machines, pad the demand of
//! segment `i` with `m_i·g − D_i` dummy jobs, and pack real + dummy
//! jobs with the Kumar–Rudra level/band scheme (at most two units of a
//! level overlap anywhere; two machines per band of `g` levels; parity
//! 2-coloring per level). The packed cost is at most `2·Σ len_i·m_i`,
//! and since `⌈z⌉ ≤ 2z` for `z ≥ 1`, the schedule costs at most
//! **4 × the LP value** (and at most `2 ×` the integral profile bound,
//! i.e. `2·OPT`). Every output is validated against
//! [`BusySchedule::validate`] and checked against
//! [`abt_core::busy_lower_bounds`] before it is returned.
//!
//! ```
//! use abt_busy::lp_rounding::lp_rounding_run;
//! use abt_core::{busy_lower_bounds, Instance, Job};
//!
//! // Three overlapping interval jobs, machine capacity 2.
//! let inst = Instance::new(
//!     vec![Job::interval(0, 4), Job::interval(1, 5), Job::interval(3, 9)],
//!     2,
//! )
//! .unwrap();
//! let run = lp_rounding_run(&inst).unwrap();
//! run.schedule.validate(&inst).unwrap();
//! let cost = run.schedule.total_busy_time(&inst);
//! assert!(run.within_four_lp());
//! assert!(cost <= 2 * run.profile_bound);
//! assert!(cost >= busy_lower_bounds(&inst).best());
//! ```

use std::sync::OnceLock;

use abt_core::obs;
use abt_core::{busy_lower_bounds, BusySchedule, DemandProfile, Error, Instance, Interval, Result};
use abt_lp::{
    ladder_metrics, supervised_solve, Cmp, LadderMetrics, LpProblem, LpReport, Rat, SolveOptions,
    SolveStats,
};

use crate::kumar_rudra::level_band_pack;

// ---------------------------------------------------------------------------
// Telemetry: a typed view of the `busy.lp.*` metrics the supervision
// ladder records, mirroring `abt_active::lp_telemetry`.
// ---------------------------------------------------------------------------

/// Metric prefix of the busy half's ladder solves.
const BUSY_LP_METRICS: &str = "busy.lp.";

/// The ladder's handles under [`BUSY_LP_METRICS`] (resolved on first
/// use).
fn met() -> &'static LadderMetrics {
    static MET: OnceLock<&'static LadderMetrics> = OnceLock::new();
    MET.get_or_init(|| ladder_metrics(BUSY_LP_METRICS))
}

/// Snapshot of the cumulative busy-LP solve counters.
///
/// Take one before and one after a region of work and call
/// [`BusyLpTelemetry::delta`] to attribute effort to that region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusyLpTelemetry {
    /// Successful LP solves.
    pub solves: u64,
    /// Solves whose winning rung reported an internal fallback.
    pub fallbacks: u64,
    /// Simplex pivots across all solves.
    pub pivots: u64,
    /// Bound flips across all solves.
    pub bound_flips: u64,
    /// Basis refactorizations across all solves.
    pub refactorizations: u64,
    /// Nanoseconds spent certifying terminal bases.
    pub certify_nanos: u64,
    /// Certifications settled by the interval tier.
    pub interval_accepts: u64,
    /// Certifications escalated to the exact tier.
    pub interval_escalations: u64,
    /// Ladder demotions (a rung failed and the next one was tried).
    pub demotions: u64,
    /// Solves abandoned after every rung failed.
    pub quarantined: u64,
}

impl BusyLpTelemetry {
    /// Componentwise `self − earlier` (both cumulative snapshots).
    pub fn delta(&self, earlier: &BusyLpTelemetry) -> BusyLpTelemetry {
        BusyLpTelemetry {
            solves: self.solves - earlier.solves,
            fallbacks: self.fallbacks - earlier.fallbacks,
            pivots: self.pivots - earlier.pivots,
            bound_flips: self.bound_flips - earlier.bound_flips,
            refactorizations: self.refactorizations - earlier.refactorizations,
            certify_nanos: self.certify_nanos - earlier.certify_nanos,
            interval_accepts: self.interval_accepts - earlier.interval_accepts,
            interval_escalations: self.interval_escalations - earlier.interval_escalations,
            demotions: self.demotions - earlier.demotions,
            quarantined: self.quarantined - earlier.quarantined,
        }
    }
}

/// Cumulative busy-LP counters for this process — a view over the shared
/// `abt_core::obs` metrics registry (`busy.lp.*` names).
pub fn busy_lp_telemetry() -> BusyLpTelemetry {
    let m = met();
    BusyLpTelemetry {
        solves: m.solves.get(),
        fallbacks: m.fallbacks.get(),
        pivots: m.pivots.get(),
        bound_flips: m.bound_flips.get(),
        refactorizations: m.refactorizations.get(),
        certify_nanos: m.certify_nanos.get(),
        interval_accepts: m.interval_accepts.get(),
        interval_escalations: m.interval_escalations.get(),
        demotions: m.demotions.get(),
        quarantined: m.quarantined.get(),
    }
}

// ---------------------------------------------------------------------------
// The LP model.
// ---------------------------------------------------------------------------

/// The busy-time LP over a demand profile's positive segments.
#[derive(Debug, Clone)]
pub struct BusyLpModel {
    /// The LP: one variable per entry of `segments`, objective
    /// coefficient = segment length.
    pub lp: LpProblem<Rat>,
    /// The positive-demand segments `(interval, raw demand)`, in
    /// variable order.
    pub segments: Vec<(Interval, usize)>,
}

/// Builds the busy-time LP for an interval instance.
///
/// One variable `z_i` per positive-demand segment of the instance's
/// demand profile, with cost `len_i`, rows `g·z_i ≥ D_i` and `z_i ≥ 1`,
/// and an implicit upper bound `z_i ≤ ⌈D_i/g⌉`.
pub fn build_busy_lp(inst: &Instance) -> Result<BusyLpModel> {
    if !inst.is_interval_instance() {
        return Err(Error::Unsupported(
            "lp_rounding requires interval jobs; use flexible::solve for general jobs".into(),
        ));
    }
    let g = inst.g() as i64;
    let windows: Vec<Interval> = inst.jobs().iter().map(|j| j.window()).collect();
    let profile = DemandProfile::new(&windows);
    let mut lp = LpProblem::new();
    let mut segments = Vec::new();
    for &(iv, d) in profile.segments() {
        if d == 0 {
            continue;
        }
        let z = lp.add_var(Rat::from_int(iv.len()));
        lp.add_constraint(
            vec![(z, Rat::from_int(g))],
            Cmp::Ge,
            Rat::from_int(d as i64),
        );
        lp.add_constraint(vec![(z, Rat::ONE)], Cmp::Ge, Rat::ONE);
        lp.set_upper(z, Rat::from_int((d as i64 + g - 1) / g));
        segments.push((iv, d));
    }
    Ok(BusyLpModel { lp, segments })
}

// ---------------------------------------------------------------------------
// The supervised solve ladder.
// ---------------------------------------------------------------------------

/// Solves a busy-time LP down the shared supervision ladder
/// ([`abt_lp::supervised_solve`]: cold revised → dense hybrid → dense
/// exact, each rung panic-isolated), recording under the `busy.lp.*`
/// metrics. If every rung fails the solve is quarantined.
pub fn solve_busy_lp(lp: &LpProblem<Rat>) -> Result<LpReport> {
    supervised_solve(lp, &SolveOptions::new(), BUSY_LP_METRICS).map_err(|f| {
        met().quarantined.inc();
        obs::trace::event("supervise.quarantine", || {
            vec![("model", "busy".to_string())]
        });
        Error::Quarantined(format!(
            "busy LP: every ladder rung failed; first failure: {f}"
        ))
    })
}

// ---------------------------------------------------------------------------
// Rounding.
// ---------------------------------------------------------------------------

/// Diagnostic output of an LP-rounding run.
#[derive(Debug, Clone)]
pub struct LpRoundingRun {
    /// The schedule over real jobs (validated before return).
    pub schedule: BusySchedule,
    /// The schedule's total busy time.
    pub cost: i64,
    /// The exact rational LP optimum `Σ len_i · max(D_i/g, 1)`.
    pub lp_objective: Rat,
    /// The rounded machine-time `Σ len_i · ⌈z*_i⌉` charged by the
    /// packing (the packed cost is at most twice this).
    pub rounded_profile: i64,
    /// The integral demand-profile lower bound `Σ ⌈D_i/g⌉·len_i`.
    pub profile_bound: i64,
    /// Number of Kumar–Rudra levels used by the packing.
    pub levels: usize,
    /// Whether the winning ladder rung reported an internal fallback.
    pub fallback: bool,
    /// Simplex/certification effort of the winning solve.
    pub stats: SolveStats,
}

impl LpRoundingRun {
    /// The theorem-level guarantee: packed cost ≤ 4 × the LP value.
    pub fn within_four_lp(&self) -> bool {
        // cost ≤ 4·(p/q)  ⇔  q·cost ≤ 4·p  (q > 0).
        let p = self.lp_objective.numer();
        let q = self.lp_objective.denom();
        q * self.cost as i128 <= 4 * p
    }
}

/// Runs LP rounding on an interval instance, returning the schedule.
pub fn lp_rounding_busy(inst: &Instance) -> Result<BusySchedule> {
    Ok(lp_rounding_run(inst)?.schedule)
}

/// Runs LP rounding, returning diagnostics.
///
/// Builds the busy-time LP, solves it through the supervised ladder,
/// rounds each segment to `m_i = ⌈z*_i⌉` machines, pads with
/// `m_i·g − D_i` dummies per segment, and packs with the Kumar–Rudra
/// level/band scheme. The output is validated and checked against both
/// factor guarantees (`≤ 2·profile` and `≤ 4·LP`) and the instance's
/// busy-time lower bounds before it is returned.
pub fn lp_rounding_run(inst: &Instance) -> Result<LpRoundingRun> {
    let model = build_busy_lp(inst)?;
    let g = inst.g() as i64;
    let windows: Vec<Interval> = inst.jobs().iter().map(|j| j.window()).collect();
    let profile = DemandProfile::new(&windows);
    let profile_bound = profile.cost(g as usize);

    let rep = solve_busy_lp(&model.lp)?;
    let lp_objective = model.lp.objective_value(&rep.solution.x);

    // Round: m_i = ⌈z*_i⌉ machines on segment i; pad the demand up to
    // m_i·g with dummies so the level/band packing can charge segment i
    // exactly m_i machine-intervals per color class.
    let mut dummies: Vec<Interval> = Vec::new();
    let mut rounded_profile = 0i64;
    for (i, &(iv, d)) in model.segments.iter().enumerate() {
        let m = rep.solution.x[i].ceil() as i64;
        debug_assert!(m >= 1 && m == (d as i64 + g - 1) / g);
        rounded_profile += m * iv.len();
        for _ in 0..(m * g - d as i64) {
            dummies.push(iv);
        }
    }

    let (schedule, levels) = level_band_pack(inst, &windows, &dummies)?;
    schedule.validate(inst)?;
    let cost = schedule.total_busy_time(inst);
    if cost > 2 * rounded_profile {
        return Err(Error::InvalidSchedule(format!(
            "lp_rounding exceeded its factor: cost {cost} > 2×rounded profile {rounded_profile}"
        )));
    }
    if cost < busy_lower_bounds(inst).best() {
        return Err(Error::InvalidSchedule(format!(
            "lp_rounding undercut the busy lower bound: cost {cost}"
        )));
    }
    let run = LpRoundingRun {
        schedule,
        cost,
        lp_objective,
        rounded_profile,
        profile_bound,
        levels,
        fallback: rep.fallback,
        stats: rep.stats,
    };
    debug_assert!(run.within_four_lp());
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_busy_time;
    use crate::kumar_rudra::kumar_rudra_run;
    use abt_core::{within_factor, Job};

    fn interval_inst(ivs: &[(i64, i64)], g: usize) -> Instance {
        Instance::new(ivs.iter().map(|&(a, b)| Job::interval(a, b)).collect(), g).unwrap()
    }

    fn check(inst: &Instance) -> LpRoundingRun {
        let run = lp_rounding_run(inst).unwrap();
        run.schedule.validate(inst).unwrap();
        let cost = run.schedule.total_busy_time(inst);
        assert!(run.within_four_lp(), "cost {cost} > 4×LP");
        assert!(
            within_factor(cost, 2, run.profile_bound),
            "cost {cost} > 2×profile {}",
            run.profile_bound
        );
        assert!(cost >= busy_lower_bounds(inst).best());
        run
    }

    #[test]
    fn lp_value_matches_fractional_profile() {
        // Demands 1, 2, 3 on unit segments with g = 2:
        // LP = 1·1 + 1·1 + 1·(3/2) = 7/2.
        let inst = interval_inst(&[(0, 3), (1, 3), (2, 3)], 2);
        let run = check(&inst);
        assert_eq!(run.lp_objective, Rat::new(7, 2));
        assert_eq!(run.profile_bound, 4); // ⌈1/2⌉+⌈2/2⌉+⌈3/2⌉
    }

    #[test]
    fn lp_is_a_lower_bound_on_exact() {
        let cases: &[(&[(i64, i64)], usize)] = &[
            (&[(0, 4), (1, 5), (3, 9)], 2),
            (&[(0, 5), (2, 7), (4, 9), (6, 11)], 3),
            (&[(0, 10), (1, 9), (2, 8), (3, 7)], 2),
        ];
        for &(ivs, g) in cases {
            let inst = interval_inst(ivs, g);
            let run = check(&inst);
            let exact = exact_busy_time(&inst, Some(20_000_000)).unwrap();
            // q·LP ≤ q·exact  ⇔  p ≤ q·exact.
            let (p, q) = (run.lp_objective.numer(), run.lp_objective.denom());
            assert!(p <= q * exact.cost as i128, "LP exceeds exact cost");
            assert!(run.schedule.total_busy_time(&inst) >= exact.cost);
        }
    }

    #[test]
    fn rounding_coincides_with_kumar_rudra_padding() {
        // ⌈z*_i⌉ = ⌈D_i/g⌉, so the LP-driven dummies equal the
        // multiple-of-g padding and the packed cost matches KR's.
        for g in 1..=4 {
            let inst = interval_inst(&[(0, 5), (2, 7), (4, 9), (6, 11), (8, 13)], g);
            let run = check(&inst);
            let kr = kumar_rudra_run(&inst).unwrap();
            assert_eq!(
                run.schedule.total_busy_time(&inst),
                kr.schedule.total_busy_time(&inst)
            );
        }
    }

    #[test]
    fn ladder_solves_record_telemetry() {
        let before = busy_lp_telemetry();
        let inst = interval_inst(&[(0, 4), (1, 5)], 2);
        check(&inst);
        let d = busy_lp_telemetry().delta(&before);
        assert_eq!(d.solves, 1);
        assert_eq!(d.quarantined, 0);
    }

    #[test]
    fn rejects_flexible() {
        let inst = Instance::from_triples([(0, 9, 3)], 2).unwrap();
        assert!(matches!(
            lp_rounding_busy(&inst),
            Err(Error::Unsupported(_))
        ));
    }
}

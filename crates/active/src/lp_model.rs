//! The natural LP relaxation `LP1` of the active-time IP (§3), with slot
//! coalescing, implicit variable bounds, implicit VUB families for the
//! `x ≤ Y` caps, solved down the shared supervision ladder whose first
//! rung is the VUB-aware bounded revised simplex.
//!
//! # The per-slot formulation (the seed model)
//!
//! Variables: `y_t ∈ [0, 1]` per horizon slot (is slot `t` open?) and
//! `x_{t,j} ≥ 0` per job and window slot (units of `j` in `t`).
//! Constraints: `x_{t,j} ≤ y_t`, `Σ_j x_{t,j} ≤ g·y_t`, `Σ_t x_{t,j} ≥ p_j`.
//! Objective: minimize `Σ_t y_t`. Size: `O(T·n)` variables and rows for a
//! horizon of `T` slots.
//!
//! # Slot coalescing (the paper's interesting intervals)
//!
//! Between two consecutive job event points (releases/deadlines) every
//! slot has the *same* feasible job set, so a run of `w` identical slots
//! collapses into one weighted super-slot: `Y_I ∈ [0, w_I]` carries the
//! total open mass of the run and `x_{I,j}` the total units of `j` in it,
//! with `x_{I,j} ≤ Y_I`, `Σ_j x_{I,j} ≤ g·Y_I`, `Σ_I x_{I,j} ≥ p_j`, and
//! objective `Σ_I Y_I`. The two LPs have equal optima: per-slot solutions
//! aggregate by summing, and a super-slot solution disaggregates uniformly
//! (`y_t = Y_I/w_I`, `x_{t,j} = x_{I,j}/w_I`), which preserves every
//! constraint and the objective. With at most `2n` event points this cuts
//! the model from `O(T·n)` to `O(n²)` — the dominant win on long horizons.
//!
//! The reported [`ActiveLp`] keeps the runs: it stores one `Y_I` per run
//! and reads per-slot `y` through the uniform disaggregation, so no layer
//! between the solve and the final schedule allocates per slot. Every
//! deadline is a run boundary, so the §3.1 right-shift sums whole runs
//! per deadline segment.
//!
//! # Bound encodings
//!
//! The capacity caps `Y_I ≤ w_I` (and `y_t ≤ 1` per-slot) are *constant*
//! upper bounds: they ride on the variables themselves
//! (`LpProblem::set_upper`) and never become tableau rows — the
//! bounded-variable simplex handles them in its pivoting rules.
//!
//! The `x_{I,j} ≤ Y_I` caps bound one *variable by another* — a **variable
//! upper bound** (VUB). As rows they would be the last `O(n²)` block of
//! LP1: one row per (job, interval) pair while every other row class is
//! `O(n)`. Instead each cap is registered as a VUB family membership
//! (`LpProblem::set_vub`) that the revised simplex handles inside its
//! pivoting rules — dependents rest *glued* to their `Y_I` key and basic
//! keys carry Schrage-style augmented key columns — shrinking the working
//! basis from `O(n²)` to `O(n)` rows. This is the only encoding the model
//! builds; the row-encoded oracle is [`SolverBackend::DenseExact`], which
//! materializes every bound and VUB as an explicit row before pivoting.
//!
//! # Component decomposition
//!
//! LP1's constraint matrix is **block-diagonal across connected components
//! of the job-window interval graph**: jobs whose windows never overlap
//! share no slot (or super-slot) variables, no capacity row, and no VUB
//! family, so one huge instance is really many independent small ones.
//! Under [`DecomposeMode::Auto`] (the default) the model sweeps the slot
//! runs once to find those components — each is a *contiguous* range of
//! runs, because a job's window covers a contiguous run range — builds one
//! sub-LP per component, solves them through
//! [`abt_core::parallel_map`] on the existing VUB revised simplex, and
//! stitches the per-run `Y` values and objectives back together. The
//! stitching is *exact*: the blocks share nothing, so the monolithic
//! optimum equals the sum of the component optima and the rational sums
//! introduce no rounding. Runs covered by no job window carry `Y = 0` in
//! any optimum and are never sent to a solver. [`DecomposeMode::Off`]
//! keeps the monolithic solve as the differential oracle.
//!
//! Sharding composes with the per-thread slab arena in `abt-lp`
//! ([`abt_lp::SolveArena`]): each worker thread solving a stream of small
//! component LPs reuses its scratch buffers instead of churning the global
//! allocator.
//!
//! # Warm starts
//!
//! A from-scratch solve here is always cold. Warm starts have one driver,
//! the incremental re-solver of [`crate::incremental`]: it caches a
//! [`abt_lp::BasisSnapshot`] pool per component shape (a structural
//! signature of its window layout) and offers it to later solves of components
//! with that shape. Warm answers are certified in exact rationals like
//! cold ones, so they never change an objective (E22 measures the
//! pivot-effort reduction).
//!
//! # Solve backends
//!
//! Every component LP is solved through the shared supervision ladder,
//! [`abt_lp::supervised_solve`], starting at the rung
//! [`LpOptions::backend`] selects. The default
//! [`SolverBackend::Revised`] runs a bounded revised simplex in `f64`
//! whose terminal basis is certified in exact rationals, so the `y` values
//! and objective remain *exact* — the rounding algorithm's case analysis
//! (`⌊Y_i⌋`, comparisons against ½) stays noise-free. Any failure demotes
//! down the ladder (dense hybrid, then dense exact), and every rung
//! returns the same exact objective. [`SolverBackend::DenseExact`] starts
//! at the last rung: the per-slot, dense-exact configuration is the
//! differential oracle of the property tests.
//!
//! Every ladder solve feeds the process-wide telemetry ([`lp_telemetry`],
//! the `lp.*` metrics): fallbacks plus the pivot / bound-flip /
//! refactorization / exact-certify counters, and the sharding counters
//! (sharded solves, components solved, largest component). The experiment
//! harness records them per experiment and CI fails when a
//! non-adversarial workload ever needs the exact fallback.

#![allow(clippy::needless_range_loop)] // job indices are shared across parallel vectors

use crate::supervise::{PartialSolve, QuarantinedComponent, SolveError};
use abt_core::active_schedule::job_feasible_in_slot;
use abt_core::obs::{
    self,
    metrics::{Counter, Gauge},
};
use abt_core::{supervised_map, Error, Instance, Result, SolveFailure, Time};
use abt_lp::{
    ladder_metrics, supervised_solve, BoundedOptions, CertifyMode, Cmp, LadderMetrics, LpProblem,
    LpSolution, LpStatus, Rat, SolveOptions, SolverBackend, DEFAULT_PRICING_WINDOW,
};
use std::sync::OnceLock;
use std::time::Duration;

/// Whether LP1 is sharded along the connected components of the
/// job-window interval graph (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecomposeMode {
    /// One monolithic LP, whatever the instance's shape (the differential
    /// oracle and the pre-sharding behaviour).
    Off,
    /// Split into per-component sub-LPs whenever the instance has more
    /// than one component, solving them through
    /// [`abt_core::parallel_map`] and stitching the results exactly.
    Auto,
}

/// Model/solver configuration for [`solve_active_lp_with`].
#[derive(Debug, Clone, Copy)]
pub struct LpOptions {
    /// First rung of the supervision ladder. Default:
    /// [`SolverBackend::Revised`]; [`SolverBackend::DenseExact`] is the
    /// differential oracle.
    pub backend: SolverBackend,
    /// Coalesce identical-window slot runs into weighted super-slots.
    /// Default: `true`.
    pub coalesce: bool,
    /// Partial-pricing window of the revised backend (`0` = full Dantzig
    /// sweeps). Default: [`DEFAULT_PRICING_WINDOW`].
    pub pricing_window: usize,
    /// Interval-graph component sharding. Default: [`DecomposeMode::Auto`].
    pub decompose: DecomposeMode,
    /// Basis-changing pivot budget per revised solve attempt (`0` =
    /// unlimited, the default). A trip surfaces as a typed
    /// `BudgetExceeded` failure and demotes the solve down the
    /// supervision ladder instead of spinning.
    pub pivot_budget: u64,
    /// Wall-time budget per revised solve *stage* in milliseconds (`0` =
    /// unlimited, the default): the float pass and the exact certifier
    /// each get a fresh clock.
    pub time_budget_ms: u64,
    /// Certification tier policy of the revised backend (see
    /// [`CertifyMode`]). Default: [`CertifyMode::IntervalThenExact`] —
    /// the directed-rounding interval tier discharges most proofs,
    /// escalating to exact rationals only on straddles. Objectives are
    /// bit-identical under every mode.
    pub certify: CertifyMode,
}

impl Default for LpOptions {
    fn default() -> Self {
        LpOptions {
            backend: SolverBackend::Revised,
            coalesce: true,
            pricing_window: DEFAULT_PRICING_WINDOW,
            decompose: DecomposeMode::Auto,
            pivot_budget: 0,
            time_budget_ms: 0,
            certify: CertifyMode::IntervalThenExact,
        }
    }
}

impl LpOptions {
    /// Sets the first rung of the supervision ladder.
    pub fn backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets super-slot coalescing.
    pub fn coalesce(mut self, coalesce: bool) -> Self {
        self.coalesce = coalesce;
        self
    }

    /// Sets the partial-pricing window (`0` = full Dantzig sweeps).
    pub fn pricing_window(mut self, window: usize) -> Self {
        self.pricing_window = window;
        self
    }

    /// Sets component sharding.
    pub fn decompose(mut self, decompose: DecomposeMode) -> Self {
        self.decompose = decompose;
        self
    }

    /// Sets the per-attempt pivot budget (`0` = unlimited).
    pub fn pivot_budget(mut self, budget: u64) -> Self {
        self.pivot_budget = budget;
        self
    }

    /// Sets the per-stage wall-time budget in milliseconds (`0` =
    /// unlimited).
    pub fn time_budget_ms(mut self, ms: u64) -> Self {
        self.time_budget_ms = ms;
        self
    }

    /// Sets the certification tier policy of the revised backend.
    pub fn certify(mut self, certify: CertifyMode) -> Self {
        self.certify = certify;
        self
    }
}

/// Handles of the process-wide LP solve metrics, resolved once from the
/// unified [`abt_core::obs::metrics`] registry (`lp.*` namespace). The
/// per-solve counters and histograms (solves through demotions and
/// latency) are the shared ladder's ([`abt_lp::supervise`], under
/// [`LP_METRICS`]); this crate records the rest. The [`lp_telemetry`]
/// view reads them all through these cached handles, without a registry
/// lookup.
struct LpMetrics {
    /// The ladder's handles under [`LP_METRICS`] (solves through
    /// `pivots_per_solve`, plus `quarantined`, which this crate records).
    ladder: &'static LadderMetrics,
    /// LP1 solves that sharded into >1 component.
    sharded_solves: &'static Counter,
    /// Component sub-LPs solved by sharded solves.
    components: &'static Counter,
    /// High-water gauge of the largest component sub-LP's variable count
    /// (sharded solves only).
    max_component_vars: &'static Gauge,
    /// Solves that were *offered* a warm-start snapshot (incremental
    /// re-solves).
    warm_attempts: &'static Counter,
    /// Warm attempts that installed and verified warm.
    warm_hits: &'static Counter,
    /// Pivots saved by warm hits, measured against each hit's cold
    /// reference, floored at zero per solve.
    warm_pivots_saved: &'static Counter,
    /// Cached component blocks and basis snapshots restored from a
    /// persisted state directory (warm capital carried across process
    /// restarts by `abt_active::store`).
    persist_restores: &'static Counter,
    /// Completed recovery events: journal-tail replays over a
    /// checkpoint, and corrupt-state detections absorbed into a cold
    /// rebuild. Always ≥ `state_corrupt` on a healthy run — a corruption
    /// without a matching recovery means the absorption path itself
    /// broke, which the perf gate fails on.
    recoveries: &'static Counter,
    /// Persisted-state corruption detections (checksum or version
    /// drift, shape drift, malformed payloads) — each one is rejected
    /// and rebuilt cold, never trusted.
    state_corrupt: &'static Counter,
    /// Solve requests bounced by admission control (the Hall-condition
    /// precheck) before touching the solver.
    admission_rejects: &'static Counter,
}

/// The `lp.*` metric handles (resolved on first use).
fn met() -> &'static LpMetrics {
    static MET: OnceLock<LpMetrics> = OnceLock::new();
    MET.get_or_init(|| LpMetrics {
        ladder: ladder_metrics(LP_METRICS),
        sharded_solves: obs::metrics::counter("lp.sharded_solves"),
        components: obs::metrics::counter("lp.components"),
        max_component_vars: obs::metrics::gauge("lp.max_component_vars"),
        warm_attempts: obs::metrics::counter("lp.warm_attempts"),
        warm_hits: obs::metrics::counter("lp.warm_hits"),
        warm_pivots_saved: obs::metrics::counter("lp.warm_pivots_saved"),
        persist_restores: obs::metrics::counter("lp.persist_restores"),
        recoveries: obs::metrics::counter("lp.recoveries"),
        state_corrupt: obs::metrics::counter("lp.state_corrupt"),
        admission_rejects: obs::metrics::counter("lp.admission_rejects"),
    })
}

/// A snapshot of the process-wide LP solve telemetry (see
/// [`lp_telemetry`]). All counters are cumulative and monotone; diff two
/// snapshots with [`LpTelemetry::delta`] to scope them to a region. Every
/// field is maintained with atomic adds (the high-water mark with atomic
/// max), so concurrent solves (e.g. under `parallel_map`) are counted
/// exactly — a delta across a parallel region equals the sum of the
/// per-solve contributions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpTelemetry {
    /// Supervision-ladder solves (LP1 components and the
    /// fractional-feasibility oracle). Under [`DecomposeMode::Auto`] each
    /// component sub-LP counts as one solve.
    pub solves: u64,
    /// Solves that needed the exact fallback.
    pub fallbacks: u64,
    /// Basis-changing pivots of the float passes.
    pub pivots: u64,
    /// Bound/VUB flips of the float passes (no basis change).
    pub bound_flips: u64,
    /// LU refactorizations of the float passes (periodic and
    /// VUB-structural).
    pub refactorizations: u64,
    /// Exact-certification wall time, nanoseconds.
    pub certify_nanos: u64,
    /// Certification wall time spent in the directed-rounding interval
    /// tier, nanoseconds (a subset of `certify_nanos`).
    pub certify_interval_nanos: u64,
    /// Certification wall time spent in the exact tier (factor, solves,
    /// primal checks, and any exact dual sweeps), nanoseconds.
    pub certify_exact_nanos: u64,
    /// Solves whose dual-feasibility proof was discharged by the interval
    /// tier alone (no exact reduced-cost sweep ran).
    pub interval_accepts: u64,
    /// Solves whose interval sweep was inconclusive and escalated to the
    /// exact sweep ([`CertifyMode::IntervalThenExact`]) or returned a
    /// refutation for the ladder to absorb ([`CertifyMode::Interval`]).
    pub interval_escalations: u64,
    /// LP1 solves that sharded into more than one component
    /// ([`DecomposeMode::Auto`] with a disconnected interval graph).
    pub sharded_solves: u64,
    /// Component sub-LPs solved by those sharded solves.
    pub components: u64,
    /// High-water mark of the largest component sub-LP's variable count
    /// across sharded solves. **Not** a monotone sum — see
    /// [`LpTelemetry::delta`] for the windowed semantics, and
    /// [`abt_core::obs::metrics::window`] (`lp.max_component_vars_max`)
    /// for an exact max over an arbitrary region.
    pub max_component_vars: u64,
    /// Number of strict raises of the `max_component_vars` high water
    /// (monotone). [`LpTelemetry::delta`] uses it to decide whether the
    /// window established a new high water; not meaningful on its own.
    pub max_component_raises: u64,
    /// Solves offered a warm-start snapshot
    /// ([`crate::incremental::IncrementalSolver`] re-solves).
    pub warm_attempts: u64,
    /// Warm attempts that installed and certified warm.
    pub warm_hits: u64,
    /// Pivots saved by warm hits versus each hit's cold reference solve
    /// (the shape's first cold solve), floored at zero per solve.
    pub warm_pivots_saved: u64,
    /// Failure-driven supervision-ladder demotions (warm → cold revised →
    /// dense hybrid → dense exact; see [`crate::supervise`]). Zero on
    /// fault-free runs.
    pub demotions: u64,
    /// Solve attempts that tripped a pivot / refactorization / wall-time
    /// budget (a subset of `demotions`).
    pub budget_trips: u64,
    /// Components quarantined after every ladder rung failed. Zero on
    /// fault-free runs.
    pub quarantined: u64,
    /// Cached blocks and basis snapshots restored from a persisted state
    /// directory
    /// ([`crate::incremental::IncrementalSolver::attach_store`]).
    pub persist_restores: u64,
    /// Completed recovery events: journal replays over a checkpoint plus
    /// corrupt-state detections absorbed into cold rebuilds.
    pub recoveries: u64,
    /// Persisted-state corruption detections, each rejected and rebuilt
    /// cold (the reject-don't-trust invariant). Zero unless state files
    /// were actually damaged (or fault-injected).
    pub state_corrupt: u64,
    /// Solve requests bounced by admission control before any LP work.
    pub admission_rejects: u64,
}

impl LpTelemetry {
    /// Componentwise `self − earlier` for the monotone counters.
    ///
    /// `max_component_vars` is a high-water mark, not a sum, and gets
    /// **max-over-window** semantics: when the window raised the
    /// process-wide high water (`max_component_raises` advanced), the
    /// later snapshot's value *is* the exact in-window maximum — the
    /// record that set it happened inside the window — and is reported;
    /// when it did not, the delta reports 0 rather than carrying a stale
    /// process-wide value forward. A window that sharded only below an
    /// earlier high water therefore reads 0 here; use
    /// [`abt_core::obs::metrics::window`] when the exact in-window maximum
    /// of such a region matters (the experiment harness does).
    pub fn delta(&self, earlier: &LpTelemetry) -> LpTelemetry {
        LpTelemetry {
            solves: self.solves - earlier.solves,
            fallbacks: self.fallbacks - earlier.fallbacks,
            pivots: self.pivots - earlier.pivots,
            bound_flips: self.bound_flips - earlier.bound_flips,
            refactorizations: self.refactorizations - earlier.refactorizations,
            certify_nanos: self.certify_nanos - earlier.certify_nanos,
            certify_interval_nanos: self.certify_interval_nanos - earlier.certify_interval_nanos,
            certify_exact_nanos: self.certify_exact_nanos - earlier.certify_exact_nanos,
            interval_accepts: self.interval_accepts - earlier.interval_accepts,
            interval_escalations: self.interval_escalations - earlier.interval_escalations,
            sharded_solves: self.sharded_solves - earlier.sharded_solves,
            components: self.components - earlier.components,
            max_component_vars: if self.max_component_raises > earlier.max_component_raises {
                self.max_component_vars
            } else {
                0
            },
            max_component_raises: self.max_component_raises - earlier.max_component_raises,
            warm_attempts: self.warm_attempts - earlier.warm_attempts,
            warm_hits: self.warm_hits - earlier.warm_hits,
            warm_pivots_saved: self.warm_pivots_saved - earlier.warm_pivots_saved,
            demotions: self.demotions - earlier.demotions,
            budget_trips: self.budget_trips - earlier.budget_trips,
            quarantined: self.quarantined - earlier.quarantined,
            persist_restores: self.persist_restores - earlier.persist_restores,
            recoveries: self.recoveries - earlier.recoveries,
            state_corrupt: self.state_corrupt - earlier.state_corrupt,
            admission_rejects: self.admission_rejects - earlier.admission_rejects,
        }
    }
}

/// Snapshot of the cumulative LP telemetry. The experiment harness diffs
/// two snapshots to compute per-experiment fallback rates and iteration
/// counters; CI fails when a non-adversarial workload reports a nonzero
/// fallback rate.
pub fn lp_telemetry() -> LpTelemetry {
    let m = met();
    let l = m.ladder;
    LpTelemetry {
        solves: l.solves.get(),
        fallbacks: l.fallbacks.get(),
        pivots: l.pivots.get(),
        bound_flips: l.bound_flips.get(),
        refactorizations: l.refactorizations.get(),
        certify_nanos: l.certify_nanos.get(),
        certify_interval_nanos: l.certify_interval_nanos.get(),
        certify_exact_nanos: l.certify_exact_nanos.get(),
        interval_accepts: l.interval_accepts.get(),
        interval_escalations: l.interval_escalations.get(),
        sharded_solves: m.sharded_solves.get(),
        components: m.components.get(),
        max_component_vars: m.max_component_vars.max(),
        max_component_raises: m.max_component_vars.raises(),
        warm_attempts: m.warm_attempts.get(),
        warm_hits: m.warm_hits.get(),
        warm_pivots_saved: m.warm_pivots_saved.get(),
        demotions: l.demotions.get(),
        budget_trips: l.budget_trips.get(),
        quarantined: l.quarantined.get(),
        persist_restores: m.persist_restores.get(),
        recoveries: m.recoveries.get(),
        state_corrupt: m.state_corrupt.get(),
        admission_rejects: m.admission_rejects.get(),
    }
}

/// Records one quarantined component (the whole ladder failed) and emits
/// the `supervise.quarantine` flight-recorder event.
pub(crate) fn record_quarantine() {
    met().ladder.quarantined.inc();
    obs::trace::event("supervise.quarantine", Vec::new);
}

/// Records `n` cached blocks / snapshots restored from persisted state.
pub(crate) fn record_persist_restores(n: u64) {
    met().persist_restores.add(n);
    obs::trace::event("persist.restore", || vec![("blocks", n.to_string())]);
}

/// Records one completed recovery event (journal replay or corrupt-state
/// absorption into a cold rebuild).
pub(crate) fn record_recovery() {
    met().recoveries.inc();
    obs::trace::event("persist.recovery", Vec::new);
}

/// Records one persisted-state corruption detection.
pub(crate) fn record_state_corrupt() {
    met().state_corrupt.inc();
    obs::trace::event("persist.corrupt", Vec::new);
}

/// Records one admission-control rejection.
pub(crate) fn record_admission_reject() {
    met().admission_rejects.inc();
    obs::trace::event("admission.reject", Vec::new);
}

/// Records one warm-start attempt into the process-wide telemetry: whether
/// it hit, and (for hits) the pivots saved against `reference_pivots` —
/// the cold pivot count of the solve the snapshot came from. Used by
/// [`crate::incremental::IncrementalSolver`].
pub(crate) fn record_warm_attempt(hit: bool, reference_pivots: u64, warm_pivots: u64) {
    let m = met();
    m.warm_attempts.inc();
    if hit {
        m.warm_hits.inc();
        m.warm_pivots_saved
            .add(reference_pivots.saturating_sub(warm_pivots));
    }
}

/// Metric prefix of the active half's ladder solves: the shared
/// supervision ladder records `lp.solves`, `lp.pivots`, `lp.demotions`, …
/// (see [`abt_lp::supervise`]), which [`lp_telemetry`] reads back.
pub(crate) const LP_METRICS: &str = "lp.";

/// The ladder [`SolveOptions`] implied by [`LpOptions`]: first rung,
/// pricing window, the solve budgets (`0` means unlimited throughout), and
/// the certification tier.
pub(crate) fn solve_options(opts: &LpOptions) -> SolveOptions<'static> {
    SolveOptions::new()
        .backend(opts.backend)
        .pricing(BoundedOptions {
            pricing_window: opts.pricing_window,
            pivot_budget: opts.pivot_budget,
            time_budget: (opts.time_budget_ms > 0)
                .then(|| Duration::from_millis(opts.time_budget_ms)),
            ..BoundedOptions::default()
        })
        .certify(opts.certify)
}

/// An optimal fractional solution of `LP1`, held as LP1's own coalesced
/// slot runs: per-slot data is never materialized, so its size is
/// independent of the horizon length.
///
/// `slots` and `y` are run-length *views* with slice-like reads:
/// `lp.slots.len()` is the horizon's slot count and `&lp.y` iterates one
/// `&Rat` per slot (each run's uniform share `Y_I / w_I`, repeated over
/// its slots — the exact disaggregation of the module docs).
#[derive(Debug, Clone)]
pub struct ActiveLp {
    /// Horizon slots, ascending, as contiguous runs; parallel to `y`.
    pub slots: RunSlots,
    /// Optimal `y_t` per slot, as one uniform share per run.
    pub y: RunY,
    /// Optimal objective `Σ_t y_t` — a lower bound on integral OPT.
    pub objective: Rat,
}

impl ActiveLp {
    /// Assembles a solution from contiguous ascending `runs` and their
    /// total open mass `y_runs` (`Y_I`, at most the run's width).
    pub fn from_runs(runs: Vec<SlotRun>, y_runs: Vec<Rat>, objective: Rat) -> ActiveLp {
        assert_eq!(runs.len(), y_runs.len(), "one Y per run");
        debug_assert!(runs.windows(2).all(|w| w[0].end == w[1].start));
        let y = RunY::new(&runs, y_runs);
        ActiveLp {
            slots: RunSlots::new(runs),
            y,
            objective,
        }
    }

    /// The runs with their total open mass `Y_I`, ascending.
    pub fn run_masses(&self) -> impl Iterator<Item = (SlotRun, &Rat)> + '_ {
        self.slots.runs.iter().copied().zip(self.y.masses())
    }
}

/// The horizon slots of an [`ActiveLp`], stored as contiguous runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSlots {
    runs: Vec<SlotRun>,
    len: usize,
}

impl RunSlots {
    fn new(runs: Vec<SlotRun>) -> RunSlots {
        let len = runs.iter().map(|r| r.width() as usize).sum();
        RunSlots { runs, len }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the horizon has no slot.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The runs, ascending and contiguous.
    pub fn runs(&self) -> &[SlotRun] {
        &self.runs
    }

    /// Every slot, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Time> + '_ {
        self.runs.iter().flat_map(|r| r.start + 1..=r.end)
    }

    /// Every slot, materialized (O(horizon)).
    pub fn to_vec(&self) -> Vec<Time> {
        self.iter().collect()
    }
}

/// LP1's optimal `y` per slot, stored as one uniform share per run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunY {
    /// Per run: width, total mass `Y_I`, and share `Y_I / w_I`.
    runs: Vec<(i64, Rat, Rat)>,
    len: usize,
}

impl RunY {
    fn new(runs: &[SlotRun], y_runs: Vec<Rat>) -> RunY {
        let runs: Vec<(i64, Rat, Rat)> = runs
            .iter()
            .zip(y_runs)
            .map(|(run, mass)| {
                let w = run.width();
                (w, mass, mass.div(&Rat::from_int(w)))
            })
            .collect();
        let len = runs.iter().map(|&(w, _, _)| w as usize).sum();
        RunY { runs, len }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the horizon has no slot.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-slot values, ascending by slot.
    #[inline]
    pub fn iter(&self) -> RunYIter<'_> {
        RunYIter {
            rest: &self.runs,
            share: &Rat::ZERO,
            left: 0,
        }
    }

    /// Total open mass `Y_I` per run.
    fn masses(&self) -> impl Iterator<Item = &Rat> + '_ {
        self.runs.iter().map(|(_, mass, _)| mass)
    }

    /// Every per-slot value, materialized (O(horizon)).
    pub fn to_vec(&self) -> Vec<Rat> {
        self.iter().copied().collect()
    }
}

/// Iterator over the per-slot values of a [`RunY`].
#[derive(Debug, Clone)]
pub struct RunYIter<'a> {
    /// Runs after the current one.
    rest: &'a [(i64, Rat, Rat)],
    /// The current run's share.
    share: &'a Rat,
    /// Slots of the current run not yet yielded.
    left: i64,
}

impl<'a> Iterator for RunYIter<'a> {
    type Item = &'a Rat;

    #[inline]
    fn next(&mut self) -> Option<&'a Rat> {
        if self.left == 0 {
            // Runs are never empty, so one step reaches a slot.
            let ((width, _, share), rest) = self.rest.split_first()?;
            (self.rest, self.share, self.left) = (rest, share, *width);
        }
        self.left -= 1;
        Some(self.share)
    }
}

impl<'a> IntoIterator for &'a RunY {
    type Item = &'a Rat;
    type IntoIter = RunYIter<'a>;

    #[inline]
    fn into_iter(self) -> RunYIter<'a> {
        self.iter()
    }
}

/// A maximal run of horizon slots with identical feasible job sets:
/// the slots `{start+1, …, end}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRun {
    /// Exclusive left end.
    pub start: Time,
    /// Inclusive right end.
    pub end: Time,
}

impl SlotRun {
    /// Number of slots in the run.
    pub fn width(&self) -> i64 {
        self.end - self.start
    }
}

/// Splits the horizon at every job event point. Each returned run is a
/// maximal group of slots between consecutive event points; every job is
/// either feasible in all of a run's slots or in none of them.
pub(crate) fn slot_runs(inst: &Instance, coalesce: bool) -> Vec<SlotRun> {
    let lo = inst.min_release();
    let hi = inst.max_deadline();
    if !coalesce {
        return (lo..hi)
            .map(|t| SlotRun {
                start: t,
                end: t + 1,
            })
            .collect();
    }
    let mut cuts: Vec<Time> = Vec::with_capacity(2 * inst.len() + 2);
    cuts.push(lo);
    cuts.push(hi);
    for j in inst.jobs() {
        cuts.push(j.release.clamp(lo, hi));
        cuts.push(j.deadline.clamp(lo, hi));
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2)
        .map(|w| SlotRun {
            start: w[0],
            end: w[1],
        })
        .collect()
}

/// A connected component of the job-window interval graph, as a contiguous
/// range of slot runs plus the jobs whose windows lie inside it.
#[derive(Debug, Clone)]
pub(crate) struct Component {
    /// First run index (inclusive).
    pub(crate) run_lo: usize,
    /// One past the last run index (exclusive).
    pub(crate) run_hi: usize,
    /// Member jobs, ascending.
    pub(crate) jobs: Vec<usize>,
}

/// Splits the instance into connected components of the job-window
/// interval graph over `runs`. Under [`DecomposeMode::Off`] the whole
/// instance is one component (covering even job-free runs, so the
/// monolithic LP is reproduced bit for bit). Under [`DecomposeMode::Auto`]
/// each component is a maximal contiguous run range linked by overlapping
/// job windows — a job's window covers a *contiguous* range of runs, so a
/// single sort-and-merge sweep over those ranges finds the components.
/// Runs no job can use are left out entirely: their `Y` is 0 in any
/// optimum and never reaches a solver.
pub(crate) fn components(inst: &Instance, runs: &[SlotRun], mode: DecomposeMode) -> Vec<Component> {
    if mode == DecomposeMode::Off {
        return vec![Component {
            run_lo: 0,
            run_hi: runs.len(),
            jobs: (0..inst.len()).collect(),
        }];
    }
    // Per job: the contiguous run range inside its window. Runs never
    // straddle an event point, so the endpoints decide membership.
    let mut spans: Vec<(usize, usize, usize)> = (0..inst.len())
        .map(|j| {
            let job = inst.job(j);
            let lo = runs.partition_point(|run| run.start < job.release);
            let hi = runs.partition_point(|run| run.end <= job.deadline);
            debug_assert!(lo < hi, "every job window covers at least one run");
            (lo, hi, j)
        })
        .collect();
    spans.sort_unstable();
    let mut out: Vec<Component> = Vec::new();
    for (lo, hi, j) in spans {
        match out.last_mut() {
            Some(c) if lo < c.run_hi => {
                c.run_hi = c.run_hi.max(hi);
                c.jobs.push(j);
            }
            _ => out.push(Component {
                run_lo: lo,
                run_hi: hi,
                jobs: vec![j],
            }),
        }
    }
    for c in &mut out {
        c.jobs.sort_unstable();
    }
    out
}

/// One component's solved block: per-run `Y` over the component's run
/// range plus its exact objective contribution.
#[derive(Clone)]
pub(crate) struct ComponentBlock {
    pub(crate) y_runs: Vec<Rat>,
    pub(crate) objective: Rat,
}

/// Builds one component's LP1 block. Variable layout: the `Y` variables
/// come first (ids `0..n_runs`, one per run of the component's range),
/// then the `x_{I,j}` variables per member job in `comp.jobs` order. The
/// construction mirrors the monolithic model exactly, so the all-covering
/// component of [`DecomposeMode::Off`] reproduces the pre-sharding LP bit
/// for bit.
pub(crate) fn build_component_lp(
    inst: &Instance,
    runs: &[SlotRun],
    comp: &Component,
) -> LpProblem<Rat> {
    let crange = &runs[comp.run_lo..comp.run_hi];
    let mut lp: LpProblem<Rat> = LpProblem::new();
    // Y variables: total open mass per run, implicitly bounded by the run
    // width.
    let y_vars: Vec<usize> = crange
        .iter()
        .map(|run| {
            let v = lp.add_var(Rat::ONE);
            lp.set_upper(v, Rat::from_int(run.width()));
            v
        })
        .collect();
    // x variables, only where the whole run lies inside the job's window.
    // (local ri, var) per member job; runs never straddle a window
    // boundary, so a job is feasible in a run iff it is feasible in the
    // run's first slot.
    let mut x_vars: Vec<Vec<(usize, usize)>> = vec![Vec::new(); comp.jobs.len()];
    for (cj, &j) in comp.jobs.iter().enumerate() {
        let job = inst.job(j);
        for (ri, run) in crange.iter().enumerate() {
            if job.release <= run.start && run.end <= job.deadline {
                let v = lp.add_var(Rat::ZERO);
                x_vars[cj].push((ri, v));
            }
        }
    }
    // x_{I,j} ≤ Y_I: a variable-vs-variable cap — a VUB family membership.
    for row in &x_vars {
        for &(ri, v) in row {
            lp.set_vub(v, y_vars[ri]);
        }
    }
    // Σ_j x_{I,j} ≤ g·Y_I.
    let g = Rat::from_int(inst.g() as i64);
    let mut per_run: Vec<Vec<(usize, Rat)>> = vec![Vec::new(); crange.len()];
    for row in &x_vars {
        for &(ri, v) in row {
            per_run[ri].push((v, Rat::ONE));
        }
    }
    for (ri, mut terms) in per_run.into_iter().enumerate() {
        if terms.is_empty() {
            continue;
        }
        terms.push((y_vars[ri], g.neg()));
        lp.add_constraint(terms, Cmp::Le, Rat::ZERO);
    }
    // Σ_I x_{I,j} ≥ p_j.
    for (cj, row) in x_vars.iter().enumerate() {
        let terms: Vec<(usize, Rat)> = row.iter().map(|&(_, v)| (v, Rat::ONE)).collect();
        lp.add_constraint(
            terms,
            Cmp::Ge,
            Rat::from_int(inst.job(comp.jobs[cj]).length),
        );
    }
    lp
}

/// Converts a solved component LP into its [`ComponentBlock`] (the `Y`
/// values are the first `n_runs` variables by construction); LP1
/// infeasibility is the one model-level verdict.
pub(crate) fn finish_component(comp: &Component, sol: LpSolution<Rat>) -> Result<ComponentBlock> {
    match sol.status {
        LpStatus::Optimal => {
            let mut y_runs = sol.x;
            y_runs.truncate(comp.run_hi - comp.run_lo);
            Ok(ComponentBlock {
                y_runs,
                objective: sol.objective,
            })
        }
        LpStatus::Infeasible => Err(Error::Infeasible(
            "LP1 infeasible: no schedule exists".into(),
        )),
        LpStatus::Unbounded => unreachable!("LP1 objective is bounded below by 0"),
    }
}

/// The exact stitch shared by [`try_solve_active_lp_with`] and
/// [`crate::incremental::IncrementalSolver::try_solve`]: places each
/// component's per-run `Y` block on its global run range (runs outside
/// every component keep `Y = 0`), sums objectives exactly, and collects
/// quarantined components into a [`SolveError::Partial`].
pub(crate) struct Stitch {
    y_runs: Vec<Rat>,
    objective: Rat,
    healthy: Vec<(usize, Rat)>,
    quarantined: Vec<QuarantinedComponent>,
}

impl Stitch {
    /// An empty stitch over `n_runs` slot runs.
    pub(crate) fn new(n_runs: usize) -> Stitch {
        Stitch {
            y_runs: vec![Rat::ZERO; n_runs],
            objective: Rat::ZERO,
            healthy: Vec::new(),
            quarantined: Vec::new(),
        }
    }

    /// Places the block of component `ci`.
    pub(crate) fn place(&mut self, ci: usize, comp: &Component, block: &ComponentBlock) {
        self.y_runs[comp.run_lo..comp.run_hi].copy_from_slice(&block.y_runs);
        self.objective = self.objective.add(&block.objective);
        self.healthy.push((ci, block.objective));
    }

    /// Records a component whose supervision ladder failed.
    pub(crate) fn quarantine(&mut self, comp: &Component, failure: SolveFailure) {
        self.quarantined.push(QuarantinedComponent {
            jobs: comp.jobs.clone(),
            failure,
        });
    }

    /// The stitched LP1 optimum over `runs` — or, when any component was
    /// quarantined, the partial result with the healthy blocks in
    /// component order.
    pub(crate) fn finish(
        mut self,
        runs: Vec<SlotRun>,
    ) -> std::result::Result<ActiveLp, SolveError> {
        if !self.quarantined.is_empty() {
            self.healthy.sort_unstable_by_key(|&(ci, _)| ci);
            return Err(SolveError::Partial(PartialSolve {
                healthy_objective: self.objective,
                healthy: self.healthy,
                quarantined: self.quarantined,
            }));
        }
        Ok(ActiveLp::from_runs(runs, self.y_runs, self.objective))
    }
}

/// One supervised component outcome: the outer `Err` is a quarantine
/// (every ladder rung failed — see [`crate::supervise`]), the inner `Err`
/// a model-level verdict (LP1 infeasibility) that aborts the whole solve.
type ComponentOutcome = std::result::Result<Result<ComponentBlock>, SolveFailure>;

/// Builds and solves one component's LP1 block down the supervision
/// ladder (the cold path).
fn solve_component(
    inst: &Instance,
    opts: &LpOptions,
    runs: &[SlotRun],
    comp: &Component,
    sharded: bool,
) -> ComponentOutcome {
    let lp = build_component_lp(inst, runs, comp);
    if sharded {
        met().max_component_vars.record_max(lp.num_vars() as u64);
    }
    let sol = supervised_solve(&lp, &solve_options(opts), LP_METRICS)?.solution;
    Ok(finish_component(comp, sol))
}

/// A component's structural signature: run count plus, per member job (in
/// `comp.jobs` order), the relative run range its window covers. Two
/// components with equal signatures (under the same [`LpOptions`] and the
/// same instance-wide `g`) build LPs with **identical standard-form
/// structure** — same variable layout, same row sparsity pattern, same
/// VUB families — differing only in data (run widths, job lengths), which
/// is exactly what a [`abt_lp::BasisSnapshot`] can bridge.
pub(crate) type ComponentSignature = (usize, Vec<(usize, usize)>);

/// Computes the [`ComponentSignature`] of `comp` over `runs`.
pub(crate) fn component_signature(
    inst: &Instance,
    runs: &[SlotRun],
    comp: &Component,
) -> ComponentSignature {
    let crange = &runs[comp.run_lo..comp.run_hi];
    let spans = comp
        .jobs
        .iter()
        .map(|&j| {
            let job = inst.job(j);
            let lo = crange.partition_point(|run| run.start < job.release);
            let hi = crange.partition_point(|run| run.end <= job.deadline);
            (lo, hi)
        })
        .collect();
    (crange.len(), spans)
}

/// Per-shape snapshot pool cap of the incremental solver's shape cache
/// (and of the pools a persisted state directory may restore): small
/// enough that a miss sweep stays cheap, large enough to cover the
/// handful of distinct optimal vertices a shape's components land on.
pub(crate) const SNAPSHOT_POOL_CAP: usize = 8;

/// Builds and solves `LP1` for `inst` with the default options
/// (coalesced super-slots, implicit bounds and VUBs, bounded revised
/// backend, component sharding).
pub fn solve_active_lp(inst: &Instance) -> Result<ActiveLp> {
    solve_active_lp_with(inst, &LpOptions::default())
}

/// Builds and solves `LP1` for `inst` under explicit [`LpOptions`]. Every
/// configuration returns the same exact objective; `y` may differ between
/// alternate LP optima.
///
/// Under [`DecomposeMode::Auto`] a disconnected instance is sharded into
/// per-component sub-LPs fanned through [`abt_core::supervised_map`]; the
/// blocks share no variables or rows, so the stitched objective — an
/// exact rational sum — equals the monolithic optimum bit for bit.
///
/// This is the legacy, [`Error`]-typed surface: a quarantined partial
/// result (possible only under fault injection or solve budgets) is
/// flattened into [`Error::Quarantined`]. Callers that keep serving the
/// healthy components use [`try_solve_active_lp_with`].
pub fn solve_active_lp_with(inst: &Instance, opts: &LpOptions) -> Result<ActiveLp> {
    try_solve_active_lp_with(inst, opts).map_err(Error::from)
}

/// The fallible-solve surface of [`solve_active_lp_with`]: identical
/// behaviour and results, but a sharded solve whose supervision ladder
/// quarantined some components returns [`SolveError::Partial`] carrying
/// the exact objectives of every healthy component instead of discarding
/// them.
pub fn try_solve_active_lp_with(
    inst: &Instance,
    opts: &LpOptions,
) -> std::result::Result<ActiveLp, SolveError> {
    let (runs, comps) = {
        let mut span = abt_core::obs_span!("solve.decompose");
        let runs = slot_runs(inst, opts.coalesce);
        let comps = components(inst, &runs, opts.decompose);
        span.field("runs", runs.len());
        span.field("components", comps.len());
        (runs, comps)
    };
    let sharded = comps.len() > 1;
    if sharded {
        met().sharded_solves.inc();
        met().components.add(comps.len() as u64);
    }
    let solved: Vec<ComponentOutcome> = if sharded {
        // The outer `supervised_map` additionally isolates panics raised
        // *outside* the ladder (e.g. while building the component LP).
        supervised_map((0..comps.len()).collect::<Vec<_>>(), |ci| {
            solve_component(inst, opts, &runs, &comps[ci], true)
        })
    } else {
        comps
            .iter()
            .map(|comp| solve_component(inst, opts, &runs, comp, false))
            .collect()
    };
    let _stitch = abt_core::obs_span!("solve.stitch");
    let mut stitch = Stitch::new(runs.len());
    for (ci, res) in solved.into_iter().enumerate() {
        match res {
            Ok(Ok(block)) => stitch.place(ci, &comps[ci], &block),
            Ok(Err(e)) => return Err(SolveError::Model(e)),
            Err(f) => {
                record_quarantine();
                stitch.quarantine(&comps[ci], f);
            }
        }
    }
    stitch.finish(runs)
}

/// Checks whether a *fractional* assignment exists for all jobs given fixed
/// slot openings `y` (the feasibility system `LP2` of §3.1). Used to
/// validate the right-shifting lemma in tests. Solved with the bounded
/// revised backend — the `x ≤ y_t` caps are constant here (the `y` are
/// fixed), so they become implicit bounds and the model has no bound rows
/// at all.
pub fn fractional_feasible(inst: &Instance, slots: &[Time], y: &[Rat]) -> bool {
    assert_eq!(slots.len(), y.len());
    let mut lp: LpProblem<Rat> = LpProblem::new();
    let mut x_vars: Vec<Vec<(usize, usize)>> = vec![Vec::new(); inst.len()];
    for j in 0..inst.len() {
        for (si, &t) in slots.iter().enumerate() {
            if job_feasible_in_slot(inst, j, t) && y[si].signum() > 0 {
                let v = lp.add_var(Rat::ZERO);
                x_vars[j].push((si, v));
                lp.set_upper(v, y[si]); // x ≤ y, implicitly
            }
        }
    }
    let g = Rat::from_int(inst.g() as i64);
    for (si, yt) in y.iter().enumerate() {
        let terms: Vec<(usize, Rat)> = x_vars
            .iter()
            .flat_map(|row| {
                row.iter()
                    .filter(|&&(s, _)| s == si)
                    .map(|&(_, v)| (v, Rat::ONE))
            })
            .collect();
        if !terms.is_empty() {
            lp.add_constraint(terms, Cmp::Le, g.mul(yt));
        }
    }
    for (j, row) in x_vars.iter().enumerate() {
        let terms: Vec<(usize, Rat)> = row.iter().map(|&(_, v)| (v, Rat::ONE)).collect();
        lp.add_constraint(terms, Cmp::Ge, Rat::from_int(inst.job(j).length));
    }
    let sr = supervised_solve(&lp, &SolveOptions::new(), LP_METRICS)
        .unwrap_or_else(|f| panic!("feasibility oracle quarantined: {f}"));
    matches!(sr.solution.status, LpStatus::Optimal)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-slot, monolithic, dense-exact oracle: every bound and VUB
    /// materialized as a row, every pivot in rationals.
    fn oracle() -> LpOptions {
        LpOptions::default()
            .backend(SolverBackend::DenseExact)
            .coalesce(false)
            .decompose(DecomposeMode::Off)
    }

    /// The monolithic (unsharded) shipping solve.
    fn monolithic() -> LpOptions {
        LpOptions::default().decompose(DecomposeMode::Off)
    }

    /// A grid over backends × model shape × decomposition × pricing.
    fn all_options() -> [LpOptions; 9] {
        [
            oracle(),
            LpOptions::default().backend(SolverBackend::DenseExact),
            LpOptions::default()
                .backend(SolverBackend::DenseHybrid)
                .coalesce(false),
            LpOptions::default()
                .backend(SolverBackend::DenseHybrid)
                .decompose(DecomposeMode::Off),
            monolithic(),
            // The default model under full Dantzig pricing.
            LpOptions::default().pricing_window(0),
            monolithic().pricing_window(0),
            // Sharding on the per-slot (uncoalesced) model.
            LpOptions::default().coalesce(false),
            LpOptions::default(),
        ]
    }

    #[test]
    fn lp_lower_bounds_integral_opt() {
        let inst = Instance::from_triples([(0, 4, 2), (1, 3, 2)], 2).unwrap();
        let lp = solve_active_lp(&inst).unwrap();
        // Integral OPT is 2; LP must be ≤ 2 and ≥ P/g = 2.
        assert_eq!(lp.objective, Rat::from_int(2));
    }

    #[test]
    fn lp_detects_infeasible() {
        let inst = Instance::from_triples([(0, 1, 1), (0, 1, 1)], 1).unwrap();
        assert!(matches!(solve_active_lp(&inst), Err(Error::Infeasible(_))));
        for opts in all_options() {
            assert!(matches!(
                solve_active_lp_with(&inst, &opts),
                Err(Error::Infeasible(_))
            ));
        }
    }

    #[test]
    fn integrality_gap_instance_g2() {
        // §3.5 with g = 2: two pairs of adjacent slots, each with g+1 = 3
        // exclusive jobs. LP optimum = g + 1 = 3; integral OPT = 2g = 4.
        let g = 2usize;
        let mut triples = Vec::new();
        for pair in 0..g as i64 {
            let a = 2 * pair; // slots (a, a+2] = {a+1, a+2}
            for _ in 0..=g {
                triples.push((a, a + 2, 1i64));
            }
        }
        let inst = Instance::from_triples(triples, g).unwrap();
        let lp = solve_active_lp(&inst).unwrap();
        assert_eq!(lp.objective, Rat::from_int(g as i64 + 1));
    }

    #[test]
    fn y_respects_bounds() {
        let inst = Instance::from_triples([(0, 3, 2), (0, 3, 1)], 1).unwrap();
        let lp = solve_active_lp(&inst).unwrap();
        for v in &lp.y {
            assert!(v.signum() >= 0 && *v <= Rat::ONE);
        }
        assert_eq!(lp.objective, Rat::from_int(3));
    }

    #[test]
    fn all_configurations_agree_on_objective() {
        // The tentpole invariant: coalescing, sharding, pricing, and the
        // backend change the model size and the pivot arithmetic, never
        // the exact optimum.
        let cases = [
            Instance::from_triples([(0, 4, 2), (1, 3, 2)], 2).unwrap(),
            Instance::from_triples([(0, 3, 1), (1, 4, 2), (2, 6, 3)], 2).unwrap(),
            Instance::from_triples([(0, 10, 4)], 1).unwrap(),
            Instance::from_triples([(0, 6, 2), (3, 8, 4), (0, 2, 2), (4, 12, 3)], 3).unwrap(),
            Instance::from_triples([(0, 20, 3), (5, 25, 4), (10, 30, 2)], 2).unwrap(),
        ];
        for inst in &cases {
            let reference = solve_active_lp_with(inst, &oracle()).unwrap().objective;
            for opts in all_options() {
                let lp = solve_active_lp_with(inst, &opts).unwrap();
                assert_eq!(lp.objective, reference, "{opts:?} on {inst:?}");
                // Disaggregated y stays within the per-slot bounds and sums
                // exactly to the objective.
                let mut sum = Rat::ZERO;
                for v in &lp.y {
                    assert!(v.signum() >= 0 && *v <= Rat::ONE, "{opts:?}");
                    sum = sum.add(v);
                }
                assert_eq!(sum, reference, "{opts:?}");
            }
        }
    }

    #[test]
    fn degenerate_zero_slack_and_single_run_instances_agree() {
        // Satellite coverage: (a) all-zero window slack — every x is
        // forced, most LP rows are tight; (b) a single super-slot — all
        // jobs share one window, so the coalesced model has exactly one
        // run and the bound `Y ≤ w` is the only capacity on it.
        let zero_slack =
            Instance::from_triples([(0, 3, 3), (1, 4, 3), (2, 5, 3), (0, 2, 2)], 3).unwrap();
        let single_run =
            Instance::from_triples([(0, 8, 5), (0, 8, 3), (0, 8, 4), (0, 8, 2)], 2).unwrap();
        assert_eq!(slot_runs(&single_run, true).len(), 1);
        for inst in [&zero_slack, &single_run] {
            let reference = solve_active_lp_with(inst, &oracle()).unwrap().objective;
            for opts in all_options() {
                let lp = solve_active_lp_with(inst, &opts).unwrap();
                assert_eq!(lp.objective, reference, "{opts:?} on {inst:?}");
            }
        }
    }

    #[test]
    fn coalescing_shrinks_long_gaps() {
        // Two short jobs separated by a huge idle stretch: the coalesced
        // model must stay tiny while the per-slot horizon is 10 000 slots.
        let inst = Instance::from_triples([(0, 3, 2), (9_997, 10_000, 2)], 1).unwrap();
        let runs = slot_runs(&inst, true);
        assert!(runs.len() <= 4, "got {} runs", runs.len());
        let lp = solve_active_lp(&inst).unwrap();
        assert_eq!(lp.objective, Rat::from_int(4));
        assert_eq!(lp.slots.len(), 10_000);
    }

    #[test]
    fn run_length_views_read_like_per_slot_vectors() {
        let inst = Instance::from_triples([(0, 3, 2), (9_997, 10_000, 2), (5, 40, 7)], 1).unwrap();
        let lp = solve_active_lp(&inst).unwrap();
        assert_eq!(
            lp.slots.to_vec(),
            abt_core::active_schedule::horizon_slots(&inst)
        );
        let y = lp.y.to_vec();
        assert_eq!(y.len(), lp.y.len());
        assert_eq!(lp.y.len(), lp.slots.len());
        // Each slot reads its run's uniform share Y_I / w_I.
        let mut i = 0;
        for (run, mass) in lp.run_masses() {
            let share = mass.div(&Rat::from_int(run.width()));
            for _ in 0..run.width() {
                assert_eq!(y[i], share);
                i += 1;
            }
        }
        assert_eq!(i, y.len());
        let sum = (&lp.y).into_iter().fold(Rat::ZERO, |acc, v| acc.add(v));
        assert_eq!(sum, lp.objective);
    }

    #[test]
    fn telemetry_counts_solves() {
        let before = lp_telemetry();
        let inst = Instance::from_triples([(0, 4, 2), (1, 3, 2)], 2).unwrap();
        solve_active_lp(&inst).unwrap();
        let after = lp_telemetry();
        let d = after.delta(&before);
        assert!(d.solves >= 1);
        assert!(after.fallbacks <= after.solves);
        // The revised backend did *some* work and certified it exactly.
        assert!(d.pivots + d.bound_flips >= 1);
        assert!(d.certify_nanos >= 1);
    }

    #[test]
    fn telemetry_is_accurate_under_concurrent_solves() {
        // Fire k independent LP1 solves from k threads and check the
        // atomic counters account for every one of them. Other tests may
        // solve concurrently in the same process, so the delta is a lower
        // bound, never an exact count.
        let k = 8u64;
        let instances: Vec<Instance> = (0..k as i64)
            .map(|i| Instance::from_triples([(0, 4 + i, 2), (1, 3 + i, 2)], 2).unwrap())
            .collect();
        let before = lp_telemetry();
        let objectives: Vec<Rat> = std::thread::scope(|s| {
            let handles: Vec<_> = instances
                .iter()
                .map(|inst| s.spawn(move || solve_active_lp(inst).unwrap().objective))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let d = lp_telemetry().delta(&before);
        assert_eq!(objectives.len(), k as usize);
        assert!(
            d.solves >= k,
            "expected ≥ {k} solves recorded, got {}",
            d.solves
        );
        assert!(d.pivots + d.bound_flips >= k, "every solve iterates");
        // Sequential re-solve of the same instances must agree exactly
        // with the concurrent results (no shared-state interference).
        for (inst, obj) in instances.iter().zip(&objectives) {
            assert_eq!(solve_active_lp(inst).unwrap().objective, *obj);
        }
    }

    /// The Auto-vs-Off differential pair for one instance: identical exact
    /// objectives and a valid disaggregated `y` on both sides.
    fn assert_auto_matches_off(inst: &Instance) -> (Rat, Rat) {
        let auto = solve_active_lp_with(inst, &LpOptions::default()).unwrap();
        let off = solve_active_lp_with(inst, &monolithic()).unwrap();
        assert_eq!(auto.objective, off.objective);
        for lp in [&auto, &off] {
            let mut sum = Rat::ZERO;
            for v in &lp.y {
                assert!(v.signum() >= 0 && *v <= Rat::ONE);
                sum = sum.add(v);
            }
            assert_eq!(sum, lp.objective);
        }
        (auto.objective, off.objective)
    }

    #[test]
    fn empty_instance_solves_to_zero_under_both_decompose_modes() {
        let inst = Instance::new(vec![], 3).unwrap();
        for opts in [LpOptions::default(), monolithic()] {
            let lp = solve_active_lp_with(&inst, &opts).unwrap();
            assert_eq!(lp.objective, Rat::ZERO);
            assert!(lp.y.is_empty());
            assert!(lp.slots.is_empty());
        }
        let runs = slot_runs(&inst, true);
        assert!(components(&inst, &runs, DecomposeMode::Auto).is_empty());
    }

    #[test]
    fn disconnected_instance_shards_and_matches_the_monolith() {
        // Three well-separated clusters; windows never overlap across the
        // gaps, so the interval graph has exactly three components.
        let inst = Instance::from_triples(
            [
                (0, 4, 2),
                (1, 3, 2),
                (100, 104, 3),
                (101, 105, 2),
                (200, 203, 1),
            ],
            2,
        )
        .unwrap();
        let runs = slot_runs(&inst, true);
        let comps = components(&inst, &runs, DecomposeMode::Auto);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].jobs, vec![0, 1]);
        assert_eq!(comps[1].jobs, vec![2, 3]);
        assert_eq!(comps[2].jobs, vec![4]);
        let before = lp_telemetry();
        // The registered window sees the exact in-window high-water mark
        // even when a concurrent test has already pushed the cumulative
        // gauge higher (the delta would then be 0 by design).
        let window = obs::metrics::gauge("lp.max_component_vars").window();
        assert_auto_matches_off(&inst);
        let d = lp_telemetry().delta(&before);
        assert!(d.sharded_solves >= 1, "the Auto solve must shard");
        assert!(d.components >= 3, "three component sub-LPs must be solved");
        assert!(window.value() >= 1);
        // Gap runs stay closed: every slot in (4, 100] has y = 0.
        let auto = solve_active_lp(&inst).unwrap();
        for (slot, y) in auto.slots.iter().zip(&auto.y) {
            if slot > 4 && slot <= 100 {
                assert_eq!(*y, Rat::ZERO, "slot {slot} lies in the gap");
            }
        }
    }

    #[test]
    fn all_singleton_components_match_the_monolith() {
        // Every job is alone in its window: n singleton components.
        let triples: Vec<(i64, i64, i64)> = (0..12).map(|i| (10 * i, 10 * i + 3, 2)).collect();
        let inst = Instance::from_triples(triples, 2).unwrap();
        let runs = slot_runs(&inst, true);
        let comps = components(&inst, &runs, DecomposeMode::Auto);
        assert_eq!(comps.len(), 12);
        assert!(comps.iter().all(|c| c.jobs.len() == 1));
        let (auto_obj, _) = assert_auto_matches_off(&inst);
        assert_eq!(auto_obj, Rat::from_int(24));
    }

    #[test]
    fn connected_instance_is_never_sharded() {
        // A chain of overlapping windows: one component, so Auto takes the
        // monolithic path. (No exact-zero telemetry assertions here: the
        // sharding counters are process-global atomics, and sibling tests
        // solve sharded instances concurrently under the default parallel
        // test harness — the disconnected test's `≥` checks cover the
        // counters.)
        let inst =
            Instance::from_triples([(0, 4, 2), (2, 8, 3), (6, 12, 2), (10, 14, 2)], 2).unwrap();
        let runs = slot_runs(&inst, true);
        assert_eq!(components(&inst, &runs, DecomposeMode::Auto).len(), 1);
        assert_auto_matches_off(&inst);
    }

    #[test]
    fn touching_windows_are_separate_components() {
        // d_1 = r_2: the windows share an event point but no slot, so the
        // jobs share no LP variable and must split.
        let inst = Instance::from_triples([(0, 3, 2), (3, 6, 2)], 1).unwrap();
        let runs = slot_runs(&inst, true);
        assert_eq!(components(&inst, &runs, DecomposeMode::Auto).len(), 2);
        assert_auto_matches_off(&inst);
    }

    #[test]
    fn off_mode_reproduces_the_monolithic_component() {
        // Off always yields the single all-covering component, even on a
        // shardable instance.
        let inst = Instance::from_triples([(0, 3, 1), (50, 53, 1)], 1).unwrap();
        let runs = slot_runs(&inst, true);
        let comps = components(&inst, &runs, DecomposeMode::Off);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].run_lo, 0);
        assert_eq!(comps[0].run_hi, runs.len());
        assert_eq!(comps[0].jobs, vec![0, 1]);
    }

    #[test]
    fn component_signatures_group_structural_twins() {
        // Two stripes with the same window layout but different lengths
        // share a signature; a third with a different layout does not.
        let inst = Instance::from_triples(
            [(0, 6, 2), (1, 5, 1), (20, 26, 4), (21, 25, 2), (40, 43, 1)],
            2,
        )
        .unwrap();
        let runs = slot_runs(&inst, true);
        let comps = components(&inst, &runs, DecomposeMode::Auto);
        assert_eq!(comps.len(), 3);
        let sigs: Vec<_> = comps
            .iter()
            .map(|c| component_signature(&inst, &runs, c))
            .collect();
        assert_eq!(sigs[0], sigs[1], "structural twins share a signature");
        assert_ne!(sigs[0], sigs[2]);
    }

    #[test]
    fn starved_pivot_budget_demotes_but_answers_exactly() {
        // A one-pivot budget starves the cold revised rung on any
        // non-trivial component; the ladder must demote to the dense tiers
        // and still return the bit-identical exact objective, recording
        // the trip. (Lower-bound assertions only: counters are
        // process-global and other tests solve concurrently.)
        let inst = Instance::from_triples([(0, 6, 3), (1, 5, 2), (2, 6, 3)], 2).unwrap();
        let reference = solve_active_lp_with(&inst, &LpOptions::default()).unwrap();
        let starved = LpOptions {
            pivot_budget: 1,
            ..LpOptions::default()
        };
        let before = lp_telemetry();
        let lp = solve_active_lp_with(&inst, &starved).unwrap();
        let d = lp_telemetry().delta(&before);
        assert_eq!(lp.objective, reference.objective);
        assert!(d.budget_trips >= 1, "the 1-pivot budget must trip");
        assert!(d.demotions >= 1, "the trip must demote down the ladder");
    }

    #[test]
    fn fractional_feasibility_oracle() {
        let inst = Instance::from_triples([(0, 2, 1), (0, 2, 1)], 1).unwrap();
        let slots = vec![1, 2];
        assert!(fractional_feasible(&inst, &slots, &[Rat::ONE, Rat::ONE]));
        assert!(!fractional_feasible(
            &inst,
            &slots,
            &[Rat::ONE, Rat::new(1, 2)]
        ));
        // Fractional sharing: y = (1, 1/2) supports total mass 1.5 with g=2...
        let inst2 = inst.with_g(2).unwrap();
        assert!(fractional_feasible(
            &inst2,
            &slots,
            &[Rat::ONE, Rat::new(1, 2)]
        ));
    }
}

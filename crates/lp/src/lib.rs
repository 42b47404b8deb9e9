//! # abt-lp
//!
//! A self-contained linear-programming substrate with **one production
//! solve path**, **one differential oracle**, and **one supervision
//! ladder**:
//!
//! * [`solve_lp`] under [`SolveOptions`] — the single entry point. Its
//!   default [`SolverBackend::Revised`] engine is a bounded-variable
//!   revised simplex in `f64` with implicit `[0, u]` variable bounds and
//!   Schrage-style variable upper bounds `x ≤ y`
//!   ([`LpProblem::set_vub`]) handled by the pivoting rules ([`bounds`]),
//!   partial pricing, per-thread scratch reuse through the slab arena
//!   ([`arena`]), optional **warm starts** from [`BasisSnapshot`]s of
//!   earlier solves ([`warm`]), and exact certification of the terminal
//!   basis through a sparse rational LU ([`lu`]), tiered through
//!   directed-rounding interval arithmetic ([`interval`]).
//! * [`solve`] — a dense two-phase simplex over a flat row-major tableau,
//!   generic over an exact `i128` rational scalar or `f64`. Over [`Rat`]
//!   it is the [`SolverBackend::DenseExact`] oracle: every bound and VUB
//!   materialized as a row, every pivot exact.
//! * [`supervised_solve`] — the degradation ladder (warm → cold revised →
//!   dense hybrid → dense exact, each rung panic-isolated) that both
//!   halves of the paper's pipeline solve through ([`supervise`]).
//!
//! The allowed offline dependency set contains no LP solver (the paper's
//! reproduction band notes the thin LP ecosystem), so this crate implements
//! simplex from scratch; see the repo-root `ARCHITECTURE.md` for how it
//! got here.
//!
//! # Example
//!
//! Build a small LP with an implicit constant bound and a VUB family, and
//! solve it through the unified entry point ([`solve_lp`]) — the search
//! runs in `f64`, the answer is certified (and returned) in exact
//! rationals, with the certification itself layered: a directed-rounding
//! interval tier ([`interval`]) discharges most proofs, escalating to
//! exact rationals only when an enclosure straddles
//! ([`CertifyMode::IntervalThenExact`], the default):
//!
//! ```
//! use abt_lp::{solve_lp, Cmp, LpProblem, LpStatus, Rat, SolveOptions};
//!
//! // min −x − z  s.t.  x + y + z ≥ 1,  y ≤ 4 (implicit bound),
//! //                   x ≤ y (VUB family: key y, dependent x), z ≤ 2.
//! let mut lp: LpProblem<Rat> = LpProblem::new();
//! let x = lp.add_var(Rat::from_int(-1));
//! let y = lp.add_var(Rat::ZERO);
//! let z = lp.add_var(Rat::from_int(-1));
//! lp.add_constraint(
//!     vec![(x, Rat::ONE), (y, Rat::ONE), (z, Rat::ONE)],
//!     Cmp::Ge,
//!     Rat::ONE,
//! );
//! lp.set_upper(y, Rat::from_int(4)); // never becomes a row
//! lp.set_upper(z, Rat::from_int(2));
//! lp.set_vub(x, y); // x rides glued to its key inside the pivoting rules
//!
//! let rep = solve_lp(&lp, &SolveOptions::new()).expect("clean solve");
//! assert_eq!(rep.solution.status, LpStatus::Optimal);
//! // Optimum: x = y = 4 (x glued to its key at the key's bound), z = 2.
//! assert_eq!(rep.solution.objective, Rat::from_int(-6));
//! assert!(lp.is_feasible(&rep.solution.x));
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod arena;
pub mod bounds;
pub mod interval;
pub mod lu;
pub mod model;
pub mod rational;
pub mod scalar;
pub mod simplex;
pub mod supervise;
pub mod warm;

pub use abt_core::error::{BudgetKind, SolveFailure};
pub use api::{solve_lp, LpReport, SolveOptions, SolverBackend};
pub use arena::{with_arena, ArenaStats, SolveArena};
pub use bounds::{
    solve_bounded_f64, solve_bounded_f64_warm_with, solve_bounded_f64_with, BoundedBasis,
    BoundedOptions, BoundedStatus, StandardForm, VarState, DEFAULT_PRICING_WINDOW,
    TIME_CHECK_EVERY,
};
pub use interval::Iv;
pub use lu::SparseLu;
pub use model::{Cmp, Constraint, LpProblem, VarId};
pub use rational::Rat;
pub use scalar::{Scalar, F64_EPS};
pub use simplex::{solve, CertifyMode, LpSolution, LpStatus, SolveStats};
pub use supervise::{ladder_metrics, supervised_solve, LadderMetrics};
pub use warm::BasisSnapshot;

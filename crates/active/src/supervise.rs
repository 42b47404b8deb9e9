//! The typed partial-result error of the sharded solve paths.
//!
//! Every component LP of this crate is solved through the shared
//! supervision ladder, [`abt_lp::supervised_solve`] (warm → cold revised
//! → dense hybrid → dense exact, each rung panic-isolated), which records
//! its solves, demotions, and budget trips under the `lp.*` metrics that
//! [`crate::lp_model::lp_telemetry`] reads back. Because every rung ends
//! in a sound certification, a solve that succeeds on any rung returns
//! the same objective bit for bit. Only when every rung fails is the
//! component **quarantined**: the caller receives a typed
//! [`SolveFailure`] and degrades to a [`PartialSolve`] carrying the exact
//! objectives of every healthy component.

use abt_core::{Error, SolveFailure};
use abt_lp::Rat;
use std::fmt;

/// One component the supervisor gave up on: every ladder rung failed.
#[derive(Debug, Clone)]
pub struct QuarantinedComponent {
    /// Instance job indices of the component's members (ascending) — the
    /// jobs whose removal or mutation re-admits the component.
    pub jobs: Vec<usize>,
    /// The root-cause failure (see the module docs' degradation ladder).
    pub failure: SolveFailure,
}

/// The typed partial result of a sharded solve with quarantined
/// components: everything that *did* solve, exactly.
#[derive(Debug, Clone)]
pub struct PartialSolve {
    /// Exact objectives of the healthy components, as `(component index
    /// in solve order, objective)`.
    pub healthy: Vec<(usize, Rat)>,
    /// Exact sum of the healthy objectives — a certified lower bound on
    /// the full LP1 optimum (quarantined components contribute ≥ 0).
    pub healthy_objective: Rat,
    /// The quarantined components; never empty.
    pub quarantined: Vec<QuarantinedComponent>,
}

/// Why a fallible LP1 solve ([`crate::lp_model::try_solve_active_lp_with`]
/// or [`crate::incremental::IncrementalSolver::try_solve`]) failed.
#[derive(Debug, Clone)]
pub enum SolveError {
    /// An instance-level error — the same errors the legacy entry points
    /// return (LP1 infeasibility, invalid instance).
    Model(Error),
    /// Some components were quarantined; the healthy remainder is carried
    /// so callers keep serving it.
    Partial(PartialSolve),
    /// Admission control bounced the request before any solver work: the
    /// offered job set violates the Hall-condition precheck
    /// ([`crate::admission::admission_precheck`]), and the carried witness
    /// interval proves it infeasible. The solver's state is untouched —
    /// the caller can drop or amend the offending jobs and retry.
    Rejected(crate::admission::AdmissionReject),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Model(e) => write!(f, "{e}"),
            SolveError::Partial(p) => write!(
                f,
                "{} of {} components quarantined (first: {}); healthy objective {}",
                p.quarantined.len(),
                p.quarantined.len() + p.healthy.len(),
                p.quarantined[0].failure,
                p.healthy_objective,
            ),
            SolveError::Rejected(rej) => write!(f, "admission rejected: {rej}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<SolveError> for Error {
    fn from(e: SolveError) -> Error {
        match e {
            SolveError::Model(err) => err,
            // An admission rejection carries a proof of infeasibility, so
            // the legacy surface reports it as the Infeasible it is.
            SolveError::Rejected(rej) => Error::Infeasible(rej.to_string()),
            partial => Error::Quarantined(partial.to_string()),
        }
    }
}

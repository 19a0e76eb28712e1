//! Birkhoff–Rott far-field solvers (paper §3.2).
//!
//! A BR solver computes, for every surface point a rank owns, the
//! desingularized Birkhoff–Rott velocity induced by *all* points of the
//! global surface. Two strategies are implemented, as in the paper:
//!
//! * [`ExactBrSolver`] — O(n²) all-pairs with a ring-pass exchange
//!   (regular communication, compute bound; the accuracy oracle);
//! * [`CutoffBrSolver`] — only pairs within a cutoff distance, via the
//!   spatial-mesh migrate → halo → cell-sort → filtered pair pass →
//!   return cycle (dynamic, irregular communication; the scalable
//!   solver).

pub mod cutoff;
pub mod exact;
pub mod kernel;
pub mod periodic;

pub use cutoff::CutoffBrSolver;
pub use exact::ExactBrSolver;
pub use periodic::PeriodicExactBrSolver;

use beatnik_comm::Communicator;

/// One surface point as the BR solvers see it: position plus the
/// pre-integrated sheet strength `ω·ΔA`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrPoint {
    /// Physical position.
    pub pos: [f64; 3],
    /// Sheet-strength vector already scaled by the reference cell area.
    pub strength: [f64; 3],
}

/// A distributed far-field solver for the Birkhoff–Rott integral.
pub trait BrSolver: Send + Sync {
    /// Compute the desingularized BR velocity at each of this rank's
    /// `points` (velocities are returned in the same order). Collective
    /// over `comm`: every rank must call with its own points.
    fn velocities(&self, comm: &Communicator, points: &[BrPoint], epsilon: f64)
        -> Vec<[f64; 3]>;

    /// Solver name for logs and reports.
    fn name(&self) -> &'static str;
}

//! # beatnik-core — the Z-Model solver library
//!
//! The primary contribution of the Beatnik paper: a solver for 3D
//! Rayleigh–Taylor interface instabilities using Pandya & Shkoller's
//! Z-Model, structured so that its three orders exercise distinct global
//! communication patterns:
//!
//! | order | interface velocity | vorticity derivatives | communication |
//! |---|---|---|---|
//! | [`Order::Low`] | linearized Birkhoff–Rott via FFT (Riesz transform) | spectral | distributed-FFT all-to-all |
//! | [`Order::Medium`] | full Birkhoff–Rott via a BR solver | spectral (FFT) | BR solver + all-to-all |
//! | [`Order::High`] | full Birkhoff–Rott via a BR solver | finite-difference stencils | BR solver + halo exchange |
//!
//! Birkhoff–Rott solvers ([`br`]): the O(n²) [`br::ExactBrSolver`]
//! (ring-pass all-pairs) and the scalable [`br::CutoffBrSolver`]
//! (migrate → halo → neighbor-list → force → migrate back).
//!
//! The mesh state lives in a [`ProblemManager`] (positions + vorticity on
//! a `beatnik-mesh` surface mesh); [`TimeIntegrator`] advances it with
//! third-order TVD Runge–Kutta, evaluating the [`ZModel`] derivative
//! three times per step, exactly as the paper describes.
//!
//! ## Model equations
//!
//! Per surface node with position `z(α) ∈ R³` and vorticity `w = (w1, w2)`
//! (sheet strength `ω = w1·∂₁z + w2·∂₂z`, reference cell area `ΔA`):
//!
//! ```text
//! ∂t z  = V
//! ∂t w₁ = +2A·∂₂S + μ·Δw₁        S = g·z₃ − |V|²/8
//! ∂t w₂ = −2A·∂₁S + μ·Δw₂
//! ```
//!
//! with `V` the (desingularized) Birkhoff–Rott velocity
//!
//! ```text
//! V(α) = (1/4π) Σ_{α'} (z(α′) − z(α)) × ω(α′)·ΔA / (|z(α′) − z(α)|² + ε²)^{3/2}
//! ```
//!
//! for high/medium order, or its flat-sheet linearization (the Riesz
//! multiplier `Ŵ₃ = (i/2)(k̂₁ŵ₂ − k̂₂ŵ₁)`, applied along the unit normal)
//! for low order. The rotated pairing in `∂t w` is chosen so that the
//! linearized system reproduces the classic RT dispersion relation
//! `σ = √(A·g·k)` — verified in this crate's growth-rate tests.

pub mod br;
pub mod diagnostics;
pub mod geometry;
pub mod init;
pub mod integrator;
pub mod order;
pub mod par;
pub mod params;
pub mod problem;
pub mod solver;
pub mod zmodel;

pub use br::{
    BalancedCutoffBrSolver, BrPoint, BrSolver, CutoffBrSolver, ExactBrSolver,
    PeriodicExactBrSolver, TreeBrSolver,
};
pub use diagnostics::Diagnostics;
pub use init::InitialCondition;
pub use integrator::TimeIntegrator;
pub use order::Order;
pub use params::{ParamError, Params};
pub use problem::ProblemManager;
pub use solver::{Solver, SolverConfig};
pub use zmodel::ZModel;

//! # beatnik-mesh — distributed structured meshes and particle migration
//!
//! This crate replaces the Cabana grid layer the paper's Beatnik builds
//! on. It provides:
//!
//! * [`SurfaceMesh`] — the distributed 2D interface mesh: a global
//!   `N × N` node grid, block-decomposed over a `Pr × Pc` rank grid, with
//!   width-2 halo regions ("two-node-deep stencils" in the paper) and a
//!   two-phase halo exchange (x then y, so corner halos arrive for free).
//! * [`Field`] — node-centered multi-component `f64` storage over a
//!   mesh's local block (owned + halo), the unit of halo exchange.
//! * [`boundary`] — periodic position correction (ghost copies of
//!   positions must be offset by a domain period) and non-periodic
//!   extrapolation of ghost values, matching Beatnik's
//!   `BoundaryCondition` class.
//! * [`stencil`] — finite differences (2nd and 4th order) and 9-point
//!   Laplacians over fields.
//! * [`SpatialMesh`] — the 3D spatial domain of the cutoff solver,
//!   decomposed over a uniform 2D x/y rank grid (the paper's choice,
//!   mirroring the initial surface distribution) — the one point
//!   decomposition [`migrate`] moves points through.
//! * [`migrate`] — the `HaloComm` analogue: migrating surface points into
//!   the spatial decomposition, haloing points within a cutoff distance
//!   of neighboring spatial blocks, and returning computed results to
//!   each point's home rank.

pub mod boundary;
pub mod field;
pub mod migrate;
pub mod partition;
pub mod spatial_mesh;
pub mod stencil;
pub mod surface;

pub use boundary::BoundaryCondition;
pub use field::Field;
pub use migrate::{PointResult, SurfacePoint};
pub use partition::{split_even, Partition2d};
pub use spatial_mesh::SpatialMesh;
pub use surface::SurfaceMesh;

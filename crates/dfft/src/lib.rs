//! # beatnik-dfft — distributed 2D FFT over `beatnik-comm`
//!
//! The paper's low-order Z-Model solver delegates its transforms to the
//! heFFTe GPU FFT library, whose communication behaviour it then studies
//! (Table 1, Figure 9). Rust has no distributed FFT crate, so this crate
//! implements one from scratch: a 2D complex-to-complex transform of a
//! globally `NR × NC` grid block-decomposed over a `Pr × Pc` rank grid.
//!
//! ## The three heFFTe knobs
//!
//! [`FftConfig`] exposes the same three booleans the paper sweeps:
//!
//! * **`all_to_all`** — `true` uses the scheduled pairwise exchange (the
//!   `MPI_Alltoall` built-in); `false` uses the unscheduled direct
//!   point-to-point exchange (a library's custom exchange code).
//! * **`pencils`** — `true` routes data through *pencil* intermediate
//!   layouts: the first and last reshapes stay inside row/column
//!   subcommunicators (many small, local messages) and only the middle
//!   reshape is global; `false` uses *slab* intermediates where all three
//!   reshapes are global all-to-alls.
//! * **`reorder`** — `true` assembles each intermediate into contiguous
//!   transform order directly; `false` keeps received blocks in arrival
//!   layout and pays strided gather/scatter passes around each local FFT
//!   (what heFFTe does when it skips the reorder pass: cheaper packing,
//!   more expensive transforms).
//!
//! All eight configurations produce bit-identical results; they differ in
//! message pattern and local memory traffic, which is the point of the
//! benchmark.
//!
//! ## Real fields
//!
//! The Z-Model only ever transforms real fields, so beside the complex
//! transforms the plan offers a real pair,
//! [`DistributedFft2d::forward_real_transposed`] and
//! [`DistributedFft2d::inverse_real_transposed`]: same reshapes, same
//! message pattern under every configuration, but `f64` payloads into
//! the row transforms and only the `nc/2 + 1` non-redundant spectrum
//! columns out of them (DESIGN.md §18).
//!
//! ## Structure
//!
//! * [`layout`] — balanced 1D/2D index distributions and rectangle
//!   pack/unpack helpers.
//! * [`redistribute`] — the generic rectangle redistribution engine: a
//!   [`redistribute::Reshape`] intersects the layouts once, then each run
//!   moves one owned block per peer through a bounded free list.
//! * [`plan`] — [`DistributedFft2d`]: slab and pencil pipelines, forward
//!   and inverse, complex and real, over reshapes planned at
//!   construction.
//! * [`config`] — [`FftConfig`] and the Table-1 enumeration.

pub mod config;
pub mod layout;
pub mod plan;
pub mod redistribute;

pub use config::FftConfig;
pub use layout::{Dist, Rect};
pub use plan::DistributedFft2d;

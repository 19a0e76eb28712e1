//! # beatnik-fft — serial fast Fourier transforms, from scratch
//!
//! The paper's Beatnik delegates its low-order solver's transforms to
//! heFFTe. This reproduction implements the node-local FFT layer itself:
//!
//! * [`Complex`] — a plain `f64` complex number type (no external crates).
//! * [`Fft`] — a planned 1D complex-to-complex transform: iterative
//!   radix-2 Cooley–Tukey with precomputed twiddles for power-of-two
//!   sizes, and Bluestein's chirp-z algorithm for every other size.
//!   [`Fft::batched`] applies the same plan to many interleaved lines
//!   (the columns of a row-major block) at once and in place, with the
//!   butterflies running across the lines — bitwise the per-line result,
//!   without gathering a single column. A contiguous line runs its first
//!   three butterfly stages as one pass in registers and the rest two
//!   per pass.
//! * [`RealFft`] — real-input transforms on the half spectrum: even
//!   lengths pack two reals per complex; when the half length is a power
//!   of two the register pass reads the reals straight from the input in
//!   bit-reversed order and the Hermitian recombination runs two bins
//!   per vector — bitwise the unfused route it replaced.
//! * [`Fft2d`] — row–column 2D transforms over row-major buffers (rows
//!   per line, columns batched).
//! * [`spectral`] — wavenumber grids and the Fourier-multiplier operators
//!   the Z-Model's low-order solver needs: spectral derivatives, spectral
//!   Laplacians, and the flat-sheet Birkhoff–Rott normal-velocity (Riesz
//!   transform pair).
//!
//! Correctness is anchored to a naive O(n²) DFT ([`dft::dft_naive`]) in
//! tests, plus roundtrip, Parseval, linearity, and shift-theorem property
//! tests.
//!
//! ## Example
//!
//! ```
//! use beatnik_fft::{Complex, Fft};
//!
//! let fft = Fft::new(8);
//! let mut data: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
//! let orig = data.clone();
//! fft.forward(&mut data);
//! fft.inverse(&mut data);
//! for (a, b) in data.iter().zip(&orig) {
//!     assert!((*a - *b).abs() < 1e-12);
//! }
//! ```

mod batched;
pub mod bluestein;
pub mod complex;
pub mod dft;
pub mod fft2d;
mod kernel;
pub mod plan;
pub mod real;
pub mod spectral;

pub use complex::Complex;
pub use fft2d::Fft2d;
pub use plan::{Fft, Transform};
pub use real::RealFft;

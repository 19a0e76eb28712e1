//! Serial 2D FFT by the row–column method over row-major buffers: each
//! row through the per-line transform, then all columns at once through
//! the batched one ([`Fft::batched`], butterflies across the rows' own
//! contiguous axis — no column is ever copied out).
//!
//! Used directly by single-rank solves and as the correctness oracle for
//! the distributed transform in `beatnik-dfft`.

use crate::complex::Complex;
use crate::plan::{Fft, Transform};

/// Planned 2D transform of an `n_rows × n_cols` row-major grid.
pub struct Fft2d {
    n_rows: usize,
    n_cols: usize,
    row_plan: Fft,
    col_plan: Fft,
}

impl Fft2d {
    /// Plan transforms for an `n_rows × n_cols` grid.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        Fft2d {
            n_rows,
            n_cols,
            row_plan: Fft::new(n_cols),
            col_plan: Fft::new(n_rows),
        }
    }

    /// Grid shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.n_rows, self.n_cols)
    }

    fn check(&self, data: &[Complex]) {
        assert_eq!(
            data.len(),
            self.n_rows * self.n_cols,
            "fft2d: buffer shape mismatch"
        );
    }

    /// In-place forward 2D transform (unnormalized).
    pub fn forward(&self, data: &mut [Complex]) {
        self.run(Transform::Forward, data);
    }

    /// In-place inverse 2D transform (normalized by `1/(rows·cols)`).
    pub fn inverse(&self, data: &mut [Complex]) {
        self.run(Transform::Inverse, data);
    }

    fn run(&self, transform: Transform, data: &mut [Complex]) {
        self.check(data);
        for row in data.chunks_exact_mut(self.n_cols) {
            self.row_plan.apply(transform, row);
        }
        self.col_plan
            .batched(transform, data, self.n_cols, self.n_cols);
    }
}

/// Forward 2D DFT by direct summation — O((nm)²) oracle for tests.
pub fn dft2d_naive(data: &[Complex], n_rows: usize, n_cols: usize) -> Vec<Complex> {
    assert_eq!(data.len(), n_rows * n_cols);
    let mut out = vec![Complex::default(); data.len()];
    let tau = -2.0 * std::f64::consts::PI;
    for kr in 0..n_rows {
        for kc in 0..n_cols {
            let mut acc = Complex::default();
            for r in 0..n_rows {
                for c in 0..n_cols {
                    let phase = tau
                        * ((kr * r) as f64 / n_rows as f64 + (kc * c) as f64 / n_cols as f64);
                    acc += data[r * n_cols + c] * Complex::cis(phase);
                }
            }
            out[kr * n_cols + kc] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(nr: usize, nc: usize) -> Vec<Complex> {
        (0..nr * nc)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect()
    }

    #[test]
    fn matches_naive_2d_dft() {
        for (nr, nc) in [(4usize, 4usize), (8, 4), (3, 5), (6, 8)] {
            let x = grid(nr, nc);
            let mut fast = x.clone();
            Fft2d::new(nr, nc).forward(&mut fast);
            let slow = dft2d_naive(&x, nr, nc);
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!((*a - *b).abs() < 1e-8 * (nr * nc) as f64, "{nr}x{nc} @{i}");
            }
        }
    }

    #[test]
    fn roundtrip_2d() {
        for (nr, nc) in [(8usize, 8usize), (16, 4), (5, 7), (1, 8), (8, 1)] {
            let x = grid(nr, nc);
            let plan = Fft2d::new(nr, nc);
            let mut buf = x.clone();
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            for (a, b) in buf.iter().zip(&x) {
                assert!((*a - *b).abs() < 1e-9 * (nr * nc).max(1) as f64);
            }
        }
    }

    #[test]
    fn plane_wave_lands_in_single_bin() {
        let (nr, nc) = (8usize, 8usize);
        let (mr, mc) = (2usize, 5usize);
        let x: Vec<Complex> = (0..nr * nc)
            .map(|i| {
                let (r, c) = (i / nc, i % nc);
                Complex::cis(
                    2.0 * std::f64::consts::PI
                        * (mr as f64 * r as f64 / nr as f64 + mc as f64 * c as f64 / nc as f64),
                )
            })
            .collect();
        let mut spec = x;
        Fft2d::new(nr, nc).forward(&mut spec);
        for r in 0..nr {
            for c in 0..nc {
                let v = spec[r * nc + c];
                if (r, c) == (mr, mc) {
                    assert!((v.re - (nr * nc) as f64).abs() < 1e-8);
                } else {
                    assert!(v.abs() < 1e-8, "leakage at ({r},{c})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let mut buf = vec![Complex::default(); 10];
        Fft2d::new(4, 4).forward(&mut buf);
    }
}

//! Finite-difference stencils over [`Field`]s.
//!
//! Beatnik's geometry kernels (tangents, normals, Laplacians of position
//! and vorticity) use "two-node-deep stencils" (paper §3.1): 4th-order
//! central differences for first derivatives and a 9-point Laplacian.
//! All operators here read only within the width-2 halo frame.
//!
//! Each operator exists twice. The per-node functions (`ddx4`, `ddy4`,
//! `laplacian`, …) define the arithmetic and are what tests compare
//! against. The row kernels (`ddx4_row`, `ddy4_row`, `laplacian_row`)
//! are what the solver's per-stage loops call: they evaluate every
//! component of a run of columns of one row from the row slices of
//! [`Field::rows5`], so the inner loop is a flat unit-stride pass with
//! no index arithmetic or bounds checks, which the compiler vectorises.
//! A row kernel performs the per-node function's operations in the same
//! order on the same operands — including the division by `12·dx`,
//! which is *not* replaced by a multiplication with the reciprocal — so
//! its output is bit-identical (tests below pin this).

use crate::field::Field;

/// 2nd-order central first derivative along columns (x / α₁).
#[inline]
pub fn ddx2(f: &Field, r: usize, c: usize, k: usize, dx: f64) -> f64 {
    (f.get(r, c + 1, k) - f.get(r, c - 1, k)) / (2.0 * dx)
}

/// 2nd-order central first derivative along rows (y / α₂).
#[inline]
pub fn ddy2(f: &Field, r: usize, c: usize, k: usize, dy: f64) -> f64 {
    (f.get(r + 1, c, k) - f.get(r - 1, c, k)) / (2.0 * dy)
}

/// 4th-order central first derivative along columns (needs halo ≥ 2).
#[inline]
pub fn ddx4(f: &Field, r: usize, c: usize, k: usize, dx: f64) -> f64 {
    (-f.get(r, c + 2, k) + 8.0 * f.get(r, c + 1, k) - 8.0 * f.get(r, c - 1, k)
        + f.get(r, c - 2, k))
        / (12.0 * dx)
}

/// 4th-order central first derivative along rows (needs halo ≥ 2).
#[inline]
pub fn ddy4(f: &Field, r: usize, c: usize, k: usize, dy: f64) -> f64 {
    (-f.get(r + 2, c, k) + 8.0 * f.get(r + 1, c, k) - 8.0 * f.get(r - 1, c, k)
        + f.get(r - 2, c, k))
        / (12.0 * dy)
}

/// 5-point Laplacian (2nd order, anisotropic-safe).
#[inline]
pub fn laplacian5(f: &Field, r: usize, c: usize, k: usize, dy: f64, dx: f64) -> f64 {
    let center = f.get(r, c, k);
    (f.get(r, c + 1, k) - 2.0 * center + f.get(r, c - 1, k)) / (dx * dx)
        + (f.get(r + 1, c, k) - 2.0 * center + f.get(r - 1, c, k)) / (dy * dy)
}

/// 9-point Laplacian (2nd order with smaller leading error constant;
/// requires `dx == dy`). This is the stencil Beatnik applies to position
/// and vorticity for its artificial-viscosity terms.
#[inline]
pub fn laplacian9(f: &Field, r: usize, c: usize, k: usize, h: f64) -> f64 {
    let edge = f.get(r, c + 1, k) + f.get(r, c - 1, k) + f.get(r + 1, c, k) + f.get(r - 1, c, k);
    let corner = f.get(r + 1, c + 1, k)
        + f.get(r + 1, c - 1, k)
        + f.get(r - 1, c + 1, k)
        + f.get(r - 1, c - 1, k);
    (4.0 * edge + corner - 20.0 * f.get(r, c, k)) / (6.0 * h * h)
}

/// Whether `dy` and `dx` agree closely enough for the 9-point Laplacian.
#[inline]
fn isotropic(dy: f64, dx: f64) -> bool {
    (dx - dy).abs() < 1e-14 * dx.abs().max(dy.abs())
}

/// Dispatching Laplacian: 9-point when the spacing is isotropic,
/// 5-point otherwise.
#[inline]
pub fn laplacian(f: &Field, r: usize, c: usize, k: usize, dy: f64, dx: f64) -> f64 {
    if isotropic(dy, dx) {
        laplacian9(f, r, c, k, dx)
    } else {
        laplacian5(f, r, c, k, dy, dx)
    }
}

// ----------------------------------------------------------------------
// Row kernels
// ----------------------------------------------------------------------

/// The `len` entries of `row` starting `shift` nodes right (left if
/// negative) of column `c0`'s first component: the operand a stencil arm
/// reads for the output run starting at column `c0`.
#[inline]
fn arm(row: &[f64], ncomp: usize, c0: usize, shift: isize, len: usize) -> &[f64] {
    let start = (c0 as isize + shift) as usize * ncomp;
    &row[start..start + len]
}

/// [`ddx4`] of every component of the columns `c0 .. c0 + out.len() /
/// ncomp` of `row` (a [`Field::row`] slice), interleaved like the row.
pub fn ddx4_row(row: &[f64], ncomp: usize, c0: usize, dx: f64, out: &mut [f64]) {
    let n = out.len();
    let (m2, m1) = (arm(row, ncomp, c0, -2, n), arm(row, ncomp, c0, -1, n));
    let (p1, p2) = (arm(row, ncomp, c0, 1, n), arm(row, ncomp, c0, 2, n));
    for i in 0..n {
        out[i] = (-p2[i] + 8.0 * p1[i] - 8.0 * m1[i] + m2[i]) / (12.0 * dx);
    }
}

/// [`ddy4`] of every component of the columns `c0 .. c0 + out.len() /
/// ncomp` of the row at the centre of `rows` (a [`Field::rows5`]).
pub fn ddy4_row(rows: &[&[f64]; 5], ncomp: usize, c0: usize, dy: f64, out: &mut [f64]) {
    let n = out.len();
    let [m2, m1, _, p1, p2] = rows.map(|row| arm(row, ncomp, c0, 0, n));
    for i in 0..n {
        out[i] = (-p2[i] + 8.0 * p1[i] - 8.0 * m1[i] + m2[i]) / (12.0 * dy);
    }
}

/// [`laplacian`] of every component of the columns `c0 .. c0 + out.len()
/// / ncomp` of the row at the centre of `rows` (a [`Field::rows5`]); the
/// 9-point or 5-point form is chosen once per call.
pub fn laplacian_row(
    rows: &[&[f64]; 5],
    ncomp: usize,
    c0: usize,
    dy: f64,
    dx: f64,
    out: &mut [f64],
) {
    let n = out.len();
    let [_, up, mid, down, _] = *rows;
    let at = |row, shift| arm(row, ncomp, c0, shift, n);
    let (um, u0, up1) = (at(up, -1), at(up, 0), at(up, 1));
    let (cm, c, cp) = (at(mid, -1), at(mid, 0), at(mid, 1));
    let (dm, d0, dp) = (at(down, -1), at(down, 0), at(down, 1));
    if isotropic(dy, dx) {
        for i in 0..n {
            let edge = cp[i] + cm[i] + d0[i] + u0[i];
            let corner = dp[i] + dm[i] + up1[i] + um[i];
            out[i] = (4.0 * edge + corner - 20.0 * c[i]) / (6.0 * dx * dx);
        }
    } else {
        for i in 0..n {
            out[i] = (cp[i] - 2.0 * c[i] + cm[i]) / (dx * dx)
                + (d0[i] - 2.0 * c[i] + u0[i]) / (dy * dy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;

    /// Build a (rows x cols) single-component field sampling `g` at
    /// spacing `h`, covering indices as coordinates directly.
    fn sample(rows: usize, cols: usize, h: f64, g: impl Fn(f64, f64) -> f64) -> Field {
        let mut f = Field::zeros(rows, cols, 1);
        for r in 0..rows {
            for c in 0..cols {
                f.set(r, c, 0, g(r as f64 * h, c as f64 * h));
            }
        }
        f
    }

    #[test]
    fn first_derivatives_exact_for_cubics() {
        // 4th-order stencils differentiate cubics exactly.
        let h = 0.1;
        let f = sample(8, 8, h, |y, x| x * x * x - 2.0 * y * y * y + x * y);
        let (r, c) = (4, 4);
        let (y, x) = (r as f64 * h, c as f64 * h);
        let dx_want = 3.0 * x * x + y;
        let dy_want = -6.0 * y * y + x;
        assert!((ddx4(&f, r, c, 0, h) - dx_want).abs() < 1e-10);
        assert!((ddy4(&f, r, c, 0, h) - dy_want).abs() < 1e-10);
        // 2nd-order stencils are exact for quadratics only.
        let q = sample(8, 8, h, |y, x| x * x + 3.0 * y);
        assert!((ddx2(&q, r, c, 0, h) - 2.0 * x).abs() < 1e-10);
        assert!((ddy2(&q, r, c, 0, h) - 3.0).abs() < 1e-10);
    }

    #[test]
    fn laplacians_exact_for_quadratics() {
        let h = 0.05;
        let f = sample(10, 10, h, |y, x| 2.0 * x * x + 3.0 * y * y - x * y);
        let want = 2.0 * 2.0 + 2.0 * 3.0;
        assert!((laplacian5(&f, 5, 5, 0, h, h) - want).abs() < 1e-8);
        assert!((laplacian9(&f, 5, 5, 0, h) - want).abs() < 1e-8);
        assert!((laplacian(&f, 5, 5, 0, h, h) - want).abs() < 1e-8);
    }

    #[test]
    fn convergence_order_of_ddx() {
        // Halving h must reduce the ddx4 error ~16x and ddx2 error ~4x.
        let g = |_y: f64, x: f64| (2.0 * x).sin();
        let err = |h: f64, order4: bool| {
            let f = sample(4, 64, h, g);
            let c = 16; // interior
            let x = c as f64 * h;
            let want = 2.0 * (2.0 * x).cos();
            let got = if order4 {
                ddx4(&f, 2, c, 0, h)
            } else {
                ddx2(&f, 2, c, 0, h)
            };
            (got - want).abs()
        };
        let (h1, h2) = (0.02, 0.01);
        let r4 = err(h1, true) / err(h2, true);
        let r2 = err(h1, false) / err(h2, false);
        assert!(r4 > 12.0 && r4 < 20.0, "4th-order ratio {r4}");
        assert!(r2 > 3.2 && r2 < 4.8, "2nd-order ratio {r2}");
    }

    #[test]
    fn anisotropic_laplacian_dispatch() {
        let f = sample(8, 8, 0.1, |y, x| x * x + y * y);
        // dy != dx routes to the 5-point form; with coordinates scaled by
        // the same h in both directions the test uses matching spacings
        // for correctness, different ones for dispatch.
        let iso = laplacian(&f, 4, 4, 0, 0.1, 0.1);
        assert!((iso - 4.0).abs() < 1e-8);
    }

    /// Deterministic noise over a whole field (owned block + halo 2).
    fn noise(owned: (usize, usize), ncomp: usize) -> Field {
        let mut f = Field::zeros(owned.0 + 4, owned.1 + 4, ncomp);
        for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f64 * 0.754_877_666).sin() * 3.0 + (i % 7) as f64 * 0.1;
        }
        f
    }

    #[test]
    fn row_kernels_equal_per_node_stencils_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // (dy, dx): anisotropic (5-point Laplacian) and isotropic (9-point).
        for (dy, dx) in [(0.37, 0.11), (0.25, 0.25)] {
            for owned in [(1, 1), (1, 7), (5, 1), (12, 10), (16, 9)] {
                for ncomp in 1..=3 {
                    let f = noise(owned, ncomp);
                    let (c0, n) = (2, owned.1);
                    let mut out = vec![0.0; n * ncomp];
                    for r in 2..2 + owned.0 {
                        let per_node = |op: &dyn Fn(usize, usize) -> f64| -> Vec<f64> {
                            (c0..c0 + n)
                                .flat_map(|c| (0..ncomp).map(move |k| (c, k)))
                                .map(|(c, k)| op(c, k))
                                .collect()
                        };
                        let what = format!("{owned:?} x{ncomp} row {r} dy={dy}");
                        ddx4_row(f.row(r), ncomp, c0, dx, &mut out);
                        let want = per_node(&|c, k| ddx4(&f, r, c, k, dx));
                        assert_eq!(bits(&out), bits(&want), "ddx4 {what}");
                        ddy4_row(&f.rows5(r), ncomp, c0, dy, &mut out);
                        let want = per_node(&|c, k| ddy4(&f, r, c, k, dy));
                        assert_eq!(bits(&out), bits(&want), "ddy4 {what}");
                        laplacian_row(&f.rows5(r), ncomp, c0, dy, dx, &mut out);
                        let want = per_node(&|c, k| laplacian(&f, r, c, k, dy, dx));
                        assert_eq!(bits(&out), bits(&want), "laplacian {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn row_kernels_write_a_sub_run_of_columns() {
        // A run that starts past the first owned column and stops short
        // of the last reads only its own neighbourhood.
        let f = noise((6, 9), 2);
        let mut out = vec![0.0; 3 * 2];
        ddx4_row(f.row(4), 2, 5, 0.2, &mut out);
        for (j, c) in (5..8).enumerate() {
            for k in 0..2 {
                assert_eq!(out[2 * j + k].to_bits(), ddx4(&f, 4, c, k, 0.2).to_bits());
            }
        }
    }

    #[test]
    fn laplacian_of_linear_field_is_zero() {
        let f = sample(8, 8, 0.1, |y, x| 3.0 * x - 7.0 * y + 2.0);
        assert!(laplacian9(&f, 4, 4, 0, 0.1).abs() < 1e-10);
        assert!(laplacian5(&f, 4, 4, 0, 0.1, 0.1).abs() < 1e-10);
    }
}

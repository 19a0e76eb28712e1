//! Surface geometry kernels: tangents, normals, and sheet strength,
//! computed from the position field with 4th-order width-2 stencils
//! (the "surface normals and Laplacians along the surface" of paper §3.1).
//!
//! As in `beatnik_mesh::stencil`, the per-node functions (`unit_normal`,
//! `sheet_strength`) define the arithmetic and the row kernels
//! (`unit_normals_row`, `sheet_strength_row`) are what `ZModel` calls:
//! tangents of a run of nodes through the stencil row kernels, then one
//! pass over the nodes — the same operations in the same order, so the
//! results are bit-identical.

use beatnik_mesh::stencil::{ddx4, ddx4_row, ddy4, ddy4_row};
use beatnik_mesh::Field;

/// 3-vector cross product.
#[inline]
pub fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

/// 3-vector dot product.
#[inline]
pub fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// Euclidean norm.
#[inline]
pub fn norm(a: [f64; 3]) -> f64 {
    dot(a, a).sqrt()
}

/// Surface tangent vectors `(∂₁z, ∂₂z)` at a local node (halo must be
/// valid). `∂₁` is along columns/x, `∂₂` along rows/y.
#[inline]
pub fn tangents(z: &Field, r: usize, c: usize, dy: f64, dx: f64) -> ([f64; 3], [f64; 3]) {
    let t1 = [
        ddx4(z, r, c, 0, dx),
        ddx4(z, r, c, 1, dx),
        ddx4(z, r, c, 2, dx),
    ];
    let t2 = [
        ddy4(z, r, c, 0, dy),
        ddy4(z, r, c, 1, dy),
        ddy4(z, r, c, 2, dy),
    ];
    (t1, t2)
}

/// Non-unit surface normal `n = ∂₁z × ∂₂z` and its magnitude (the area
/// element `|n| = √det g`).
#[inline]
pub fn normal(z: &Field, r: usize, c: usize, dy: f64, dx: f64) -> ([f64; 3], f64) {
    let (t1, t2) = tangents(z, r, c, dy, dx);
    let n = cross(t1, t2);
    let mag = norm(n);
    (n, mag)
}

/// Unit surface normal (guards the degenerate-mesh case).
#[inline]
pub fn unit_normal(z: &Field, r: usize, c: usize, dy: f64, dx: f64) -> [f64; 3] {
    let (n, mag) = normal(z, r, c, dy, dx);
    if mag < 1e-300 {
        [0.0, 0.0, 1.0]
    } else {
        [n[0] / mag, n[1] / mag, n[2] / mag]
    }
}

/// Vortex-sheet strength vector `ω = w1·∂₁z + w2·∂₂z`.
#[inline]
pub fn sheet_strength(
    z: &Field,
    w: &Field,
    r: usize,
    c: usize,
    dy: f64,
    dx: f64,
) -> [f64; 3] {
    let (t1, t2) = tangents(z, r, c, dy, dx);
    let w1 = w.get(r, c, 0);
    let w2 = w.get(r, c, 1);
    [
        w1 * t1[0] + w2 * t2[0],
        w1 * t1[1] + w2 * t2[1],
        w1 * t1[2] + w2 * t2[2],
    ]
}

/// Nodes per tangent block of the row kernels: both tangent buffers
/// (2 × 3 × 64 doubles) stay on the stack and in L1.
const BLOCK: usize = 64;

/// Call `node(j, ∂₁z, ∂₂z)` for the `n` nodes of a position row starting
/// at column `c0`, `z` being the row's [`Field::rows5`].
#[inline]
fn for_each_tangent(
    z: &[&[f64]; 5],
    c0: usize,
    n: usize,
    dy: f64,
    dx: f64,
    mut node: impl FnMut(usize, [f64; 3], [f64; 3]),
) {
    let mut t1 = [0.0; 3 * BLOCK];
    let mut t2 = [0.0; 3 * BLOCK];
    for j0 in (0..n).step_by(BLOCK) {
        let len = 3 * BLOCK.min(n - j0);
        ddx4_row(z[2], 3, c0 + j0, dx, &mut t1[..len]);
        ddy4_row(z, 3, c0 + j0, dy, &mut t2[..len]);
        for (j, (a, b)) in t1[..len].chunks_exact(3).zip(t2[..len].chunks_exact(3)).enumerate() {
            node(j0 + j, [a[0], a[1], a[2]], [b[0], b[1], b[2]]);
        }
    }
}

/// [`unit_normal`] of the nodes `c0 .. c0 + out.len() / 3` of the row at
/// the centre of `z` (a position field's [`Field::rows5`]), three
/// components per node.
pub fn unit_normals_row(z: &[&[f64]; 5], c0: usize, dy: f64, dx: f64, out: &mut [f64]) {
    for_each_tangent(z, c0, out.len() / 3, dy, dx, |j, t1, t2| {
        let n = cross(t1, t2);
        let mag = norm(n);
        let unit = if mag < 1e-300 {
            [0.0, 0.0, 1.0]
        } else {
            [n[0] / mag, n[1] / mag, n[2] / mag]
        };
        out[3 * j..3 * j + 3].copy_from_slice(&unit);
    });
}

/// [`sheet_strength`] of the nodes `c0 .. c0 + out.len() / 3` of one row:
/// `z` is the position field's [`Field::rows5`], `w` the vorticity
/// field's [`Field::row`] of the same row.
pub fn sheet_strength_row(
    z: &[&[f64]; 5],
    w: &[f64],
    c0: usize,
    dy: f64,
    dx: f64,
    out: &mut [f64],
) {
    let n = out.len() / 3;
    let w = &w[2 * c0..2 * (c0 + n)];
    for_each_tangent(z, c0, n, dy, dx, |j, t1, t2| {
        let (w1, w2) = (w[2 * j], w[2 * j + 1]);
        out[3 * j..3 * j + 3].copy_from_slice(&[
            w1 * t1[0] + w2 * t2[0],
            w1 * t1[1] + w2 * t2[1],
            w1 * t1[2] + w2 * t2[2],
        ]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use beatnik_mesh::Field;

    /// Field sampling z = (x, y, h(x,y)) at spacing `h` with indices as
    /// coordinates; includes enough frame for width-2 stencils.
    fn surface(n: usize, d: f64, h: impl Fn(f64, f64) -> f64) -> Field {
        let mut z = Field::zeros(n, n, 3);
        for r in 0..n {
            for c in 0..n {
                let (x, y) = (c as f64 * d, r as f64 * d);
                z.set_node(r, c, &[x, y, h(x, y)]);
            }
        }
        z
    }

    #[test]
    fn vector_ops() {
        assert_eq!(cross([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), [0.0, 0.0, 1.0]);
        assert_eq!(cross([0.0, 1.0, 0.0], [1.0, 0.0, 0.0]), [0.0, 0.0, -1.0]);
        assert_eq!(dot([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm([3.0, 4.0, 0.0]), 5.0);
    }

    #[test]
    fn flat_surface_normal_is_z_with_unit_area() {
        let z = surface(8, 0.1, |_, _| 2.0);
        let (n, mag) = normal(&z, 4, 4, 0.1, 0.1);
        assert!((n[0]).abs() < 1e-12 && (n[1]).abs() < 1e-12);
        assert!((n[2] - 1.0).abs() < 1e-12);
        assert!((mag - 1.0).abs() < 1e-12);
        assert_eq!(unit_normal(&z, 4, 4, 0.1, 0.1), [0.0, 0.0, 1.0]);
    }

    #[test]
    fn tilted_plane_normal_matches_analytic() {
        // h = a x + b y: normal ∝ (-a, -b, 1).
        let (a, b) = (0.3, -0.7);
        let z = surface(8, 0.05, |x, y| a * x + b * y);
        let n = unit_normal(&z, 4, 4, 0.05, 0.05);
        let scale = 1.0 / (1.0 + a * a + b * b).sqrt();
        assert!((n[0] + a * scale).abs() < 1e-10);
        assert!((n[1] + b * scale).abs() < 1e-10);
        assert!((n[2] - scale).abs() < 1e-10);
    }

    #[test]
    fn sinusoidal_surface_normal_converges() {
        // Finite-difference normal approaches the analytic one as the
        // mesh refines (4th order).
        let errs: Vec<f64> = [0.04, 0.02]
            .iter()
            .map(|&d| {
                let z = surface(12, d, |x, _| (3.0 * x).sin() * 0.2);
                let c = 6;
                let x = c as f64 * d;
                let hx = 0.6 * (3.0 * x).cos();
                let scale = 1.0 / (1.0 + hx * hx).sqrt();
                let n = unit_normal(&z, 6, c, d, d);
                ((n[0] + hx * scale).powi(2) + (n[2] - scale).powi(2)).sqrt()
            })
            .collect();
        assert!(errs[1] < errs[0] / 8.0, "errors {errs:?}");
    }

    /// Deterministic noise over an owned block plus its halo-2 frame.
    fn noise(owned: (usize, usize), ncomp: usize, seed: f64) -> Field {
        let mut f = Field::zeros(owned.0 + 4, owned.1 + 4, ncomp);
        for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f64 * 0.754_877_666 + seed).sin() * 2.0 + (i % 5) as f64 * 0.3;
        }
        f
    }

    #[test]
    fn row_kernels_equal_per_node_geometry_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (dy, dx) = (0.37, 0.11);
        // The issue's block shapes, plus rows longer than one tangent
        // block (and not a multiple of it).
        for owned in [(1, 1), (1, 7), (5, 1), (12, 10), (16, 9), (2, BLOCK), (3, 2 * BLOCK + 3)] {
            let z = noise(owned, 3, 0.0);
            let w = noise(owned, 2, 1.0);
            let (c0, n) = (2, owned.1);
            let mut out = vec![0.0; 3 * n];
            for r in 2..2 + owned.0 {
                unit_normals_row(&z.rows5(r), c0, dy, dx, &mut out);
                let want: Vec<f64> =
                    (c0..c0 + n).flat_map(|c| unit_normal(&z, r, c, dy, dx)).collect();
                assert_eq!(bits(&out), bits(&want), "normals {owned:?} row {r}");
                sheet_strength_row(&z.rows5(r), w.row(r), c0, dy, dx, &mut out);
                let want: Vec<f64> =
                    (c0..c0 + n).flat_map(|c| sheet_strength(&z, &w, r, c, dy, dx)).collect();
                assert_eq!(bits(&out), bits(&want), "strength {owned:?} row {r}");
            }
        }
    }

    #[test]
    fn degenerate_nodes_get_the_z_normal_in_a_row_too() {
        // All nodes coincide: every tangent vanishes.
        let z = Field::zeros(5, 8, 3);
        let mut out = vec![9.0; 3 * 4];
        unit_normals_row(&z.rows5(2), 2, 0.1, 0.1, &mut out);
        assert_eq!(out, [0.0, 0.0, 1.0].repeat(4));
        assert_eq!(unit_normal(&z, 2, 3, 0.1, 0.1), [0.0, 0.0, 1.0]);
    }

    #[test]
    fn sheet_strength_combines_tangents() {
        let z = surface(8, 0.1, |_, _| 0.0); // flat: t1 = x̂, t2 = ŷ
        let mut w = Field::zeros(8, 8, 2);
        w.set_node(4, 4, &[2.0, -3.0]);
        let s = sheet_strength(&z, &w, 4, 4, 0.1, 0.1);
        assert!((s[0] - 2.0).abs() < 1e-12);
        assert!((s[1] + 3.0).abs() < 1e-12);
        assert!(s[2].abs() < 1e-12);
    }
}

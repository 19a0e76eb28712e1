//! The per-node `ZModel::derivatives` and Krasny filter, as they were
//! before the stage was rewritten over row slices: every loop walks
//! `owned_indices()` and reads through `Field::get` and the per-node
//! stencil and geometry functions. Kept as the reference the row-sliced
//! code must equal bit for bit (see the tests in `zmodel.rs`).

use super::{Axis, ZModel};
use crate::br::BrPoint;
use crate::geometry;
use crate::order::Order;
use crate::problem::ProblemManager;
use beatnik_dfft::Rect;
use beatnik_fft::Complex;
use beatnik_mesh::stencil::{ddx4, ddy4, laplacian};
use beatnik_mesh::Field;

impl ZModel {
    /// Compute `(∂t z, ∂t w)` into `zdot` (3 comps) and `wdot` (2 comps),
    /// refreshing halos first. Halo entries of the outputs are zeroed.
    /// Collective.
    pub(super) fn derivatives_per_node(
        &self,
        pm: &mut ProblemManager,
        zdot: &mut Field,
        wdot: &mut Field,
    ) {
        pm.halo_all();
        let pm = &*pm;
        let mesh = pm.mesh();
        let [dy, dx] = mesh.spacing();
        let da = dy * dx;
        let n_own = mesh.owned_count();
        let z = pm.z();
        let w = pm.w();

        // --- geometry at owned nodes -----------------------------------
        let mut normals = Vec::with_capacity(n_own);
        for (lr, lc, _, _) in mesh.owned_indices() {
            normals.push(geometry::unit_normal(z, lr, lc, dy, dx));
        }

        // --- interface velocity ----------------------------------------
        let vel: Vec<[f64; 3]> = match self.order {
            Order::Low => {
                // Transposed-layout spectra: the multipliers are diagonal
                // in k, so staying in the intermediate layout saves a
                // third of the FFT reshapes (heFFTe's transposed-output
                // optimization).
                let (rect, w1_spec) = self.forward_comp_per_node(pm, w, 0);
                let (_, w2_spec) = self.forward_comp_per_node(pm, w, 1);
                let riesz = self.riesz_block_per_node(&w1_spec, &w2_spec, &rect);
                let w3 = self.inverse_re(riesz);
                w3.iter()
                    .zip(&normals)
                    .map(|(&m, n)| [m * n[0], m * n[1], m * n[2]])
                    .collect()
            }
            Order::Medium | Order::High => {
                let mut points = Vec::with_capacity(n_own);
                for (lr, lc, _, _) in mesh.owned_indices() {
                    let p = z.node(lr, lc);
                    let s = geometry::sheet_strength(z, w, lr, lc, dy, dx);
                    points.push(BrPoint {
                        pos: [p[0], p[1], p[2]],
                        strength: [s[0] * da, s[1] * da, s[2] * da],
                    });
                }
                self.br
                    .as_ref()
                    .expect("BR solver required")
                    .velocities(mesh.comm(), &points, self.params.epsilon)
            }
        };

        // --- ∂t z = V ---------------------------------------------------
        zdot.fill(0.0);
        for ((lr, lc, _, _), v) in mesh.owned_indices().zip(&vel) {
            zdot.set_node(lr, lc, v);
        }

        // --- ∂t w -------------------------------------------------------
        // S = g·z₃ − |V|²/8; ∂t w = 2A·(∂₂S, −∂₁S) + μ·Δw.
        let a2 = 2.0 * self.params.atwood;
        let mu = self.params.mu;
        let g = self.params.gravity;
        let s_vals: Vec<f64> = mesh
            .owned_indices()
            .zip(&vel)
            .map(|((lr, lc, _, _), v)| {
                let z3 = z.get(lr, lc, 2);
                let v2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
                g * z3 - v2 / 8.0
            })
            .collect();

        wdot.fill(0.0);
        match self.order {
            Order::High => {
                // Stencil path: S needs halos of its own.
                let mut s_field = mesh.make_field(1);
                for ((lr, lc, _, _), &s) in mesh.owned_indices().zip(&s_vals) {
                    s_field.set(lr, lc, 0, s);
                }
                pm.halo_aux(&mut s_field);
                for (lr, lc, _, _) in mesh.owned_indices() {
                    let ds_dx = ddx4(&s_field, lr, lc, 0, dx);
                    let ds_dy = ddy4(&s_field, lr, lc, 0, dy);
                    let lap1 = laplacian(w, lr, lc, 0, dy, dx);
                    let lap2 = laplacian(w, lr, lc, 1, dy, dx);
                    wdot.set(lr, lc, 0, a2 * ds_dy + mu * lap1);
                    wdot.set(lr, lc, 1, -a2 * ds_dx + mu * lap2);
                }
            }
            Order::Low | Order::Medium => {
                // Spectral path ("the medium-order model uses FFTs for
                // calculating changes in vorticity", paper §6), in the
                // transposed layout throughout.
                let (rect, s_spec) = self.forward_vals(s_vals);
                let mut sx = s_spec.clone();
                self.mul_ik_per_node(&mut sx, &rect, Axis::X);
                let mut sy = s_spec;
                self.mul_ik_per_node(&mut sy, &rect, Axis::Y);
                let ds_dx = self.inverse_re(sx);
                let ds_dy = self.inverse_re(sy);
                let (_, mut l1) = self.forward_comp_per_node(pm, w, 0);
                self.mul_minus_k2_per_node(&mut l1, &rect);
                let (_, mut l2) = self.forward_comp_per_node(pm, w, 1);
                self.mul_minus_k2_per_node(&mut l2, &rect);
                let lap1 = self.inverse_re(l1);
                let lap2 = self.inverse_re(l2);
                for (i, (lr, lc, _, _)) in mesh.owned_indices().enumerate() {
                    wdot.set(lr, lc, 0, a2 * ds_dy[i] + mu * lap1[i]);
                    wdot.set(lr, lc, 1, -a2 * ds_dx[i] + mu * lap2[i]);
                }
            }
        }
    }

    /// Krasny spectral filter: zero every Fourier mode of the
    /// perturbation fields (position deviation from the flat reference
    /// plane, and both vorticity components) whose normalized amplitude
    /// is below the tolerance. This is the classic stabilization for
    /// vortex-sheet methods — roundoff seeds a short-wavelength
    /// Kelvin–Helmholtz instability that the filter removes before it
    /// can grow. Requires an FFT-capable (periodic) order. Collective.
    pub(super) fn apply_krasny_filter_per_node(&self, pm: &mut ProblemManager, tolerance: f64) {
        assert!(
            self.dfft.is_some(),
            "krasny filter requires an FFT-capable (low/medium) model order"
        );
        pm.halo_all();
        let mesh = pm.mesh();
        let n_total = (self.global[0] * self.global[1]) as f64;
        // Reference-plane coordinates for the position deviation.
        let refs: Vec<[f64; 2]> = mesh
            .owned_indices()
            .map(|(_, _, gr, gc)| {
                let c = mesh.coord_of(gr as i64, gc as i64);
                [c[1], c[0]]
            })
            .collect();

        // Gather the five perturbation fields in owned order.
        let mut fields: Vec<Vec<f64>> =
            std::iter::repeat_with(|| Vec::with_capacity(refs.len())).take(5).collect();
        for (i, (lr, lc, _, _)) in mesh.owned_indices().enumerate() {
            let z = pm.z().node(lr, lc);
            let w = pm.w().node(lr, lc);
            fields[0].push(z[0] - refs[i][0]);
            fields[1].push(z[1] - refs[i][1]);
            fields[2].push(z[2]);
            fields[3].push(w[0]);
            fields[4].push(w[1]);
        }

        let filtered: Vec<Vec<f64>> = fields
            .iter()
            .map(|vals| {
                let (_, mut spec) = self.forward_vals(vals.clone());
                for v in spec.iter_mut() {
                    // Normalized amplitude (forward transform is
                    // unnormalized: divide by the mode count).
                    if v.abs() / n_total < tolerance {
                        *v = Complex::default();
                    }
                }
                self.inverse_re(spec)
            })
            .collect();

        let coords: Vec<_> = pm.mesh().owned_indices().collect();
        for (i, (lr, lc, _, _)) in coords.into_iter().enumerate() {
            pm.z_mut().set_node(
                lr,
                lc,
                &[
                    filtered[0][i] + refs[i][0],
                    filtered[1][i] + refs[i][1],
                    filtered[2][i],
                ],
            );
            pm.w_mut().set_node(lr, lc, &[filtered[3][i], filtered[4][i]]);
        }
    }

    // ------------------------------------------------------------------
    // Distributed spectral helpers
    // ------------------------------------------------------------------

    fn forward_comp_per_node(
        &self,
        pm: &ProblemManager,
        f: &Field,
        comp: usize,
    ) -> (Rect, Vec<Complex>) {
        let vals: Vec<f64> = pm
            .mesh()
            .owned_indices()
            .map(|(lr, lc, _, _)| f.get(lr, lc, comp))
            .collect();
        self.forward_vals(vals)
    }

    #[inline]
    fn is_nyquist(&self, gr: usize, gc: usize) -> bool {
        let [nr, nc] = self.global;
        (nr % 2 == 0 && gr == nr / 2) || (nc % 2 == 0 && gc == nc / 2)
    }

    fn mul_ik_per_node(&self, spec: &mut [Complex], rect: &Rect, axis: Axis) {
        let mut i = 0;
        for gr in rect.rows.clone() {
            for gc in rect.cols.clone() {
                let v = &mut spec[i];
                if self.is_nyquist(gr, gc) {
                    *v = Complex::default();
                } else {
                    let k = match axis {
                        Axis::X => self.kx[gc],
                        Axis::Y => self.ky[gr],
                    };
                    *v = Complex::new(-v.im * k, v.re * k);
                }
                i += 1;
            }
        }
    }

    fn mul_minus_k2_per_node(&self, spec: &mut [Complex], rect: &Rect) {
        let mut i = 0;
        for gr in rect.rows.clone() {
            for gc in rect.cols.clone() {
                let k2 = self.kx[gc] * self.kx[gc] + self.ky[gr] * self.ky[gr];
                spec[i] = spec[i].scale(-k2);
                i += 1;
            }
        }
    }

    /// The linearized Birkhoff–Rott normal velocity:
    /// `Ŵ₃ = (i/2)(k̂₁·ŵ₂ − k̂₂·ŵ₁)`, mean and Nyquist bins zeroed.
    fn riesz_block_per_node(&self, w1: &[Complex], w2: &[Complex], rect: &Rect) -> Vec<Complex> {
        let mut out = vec![Complex::default(); w1.len()];
        let mut i = 0;
        for gr in rect.rows.clone() {
            for gc in rect.cols.clone() {
                let kx = self.kx[gc];
                let ky = self.ky[gr];
                let kmag = (kx * kx + ky * ky).sqrt();
                if kmag > 0.0 && !self.is_nyquist(gr, gc) {
                    let re = (kx * w2[i].re - ky * w1[i].re) / kmag;
                    let im = (kx * w2[i].im - ky * w1[i].im) / kmag;
                    // (i/2)·(re + i·im) = −im/2 + i·re/2
                    out[i] = Complex::new(-im * 0.5, re * 0.5);
                }
                i += 1;
            }
        }
        out
    }
}

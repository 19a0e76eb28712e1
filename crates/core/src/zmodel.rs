//! The Z-Model derivative kernels (paper §3.1, `ZModel` class).
//!
//! `ZModel::derivatives` computes `(∂t z, ∂t w)` for every owned surface
//! node. It never communicates directly — exactly as the paper describes,
//! it *invokes* components that do: the surface-mesh halo exchange, the
//! distributed FFT (low/medium order), and a Birkhoff–Rott solver
//! (medium/high order).
//!
//! What it does itself, between those calls, is a handful of passes over
//! the owned block, all written as loops over owned *rows* on
//! [`Field::row`] slices: the row kernels of `beatnik_mesh::stencil` and
//! [`crate::geometry`] for stencils, normals and sheet strengths, the
//! mesh's owned-order gather/scatter for the transforms' real blocks,
//! and spectral multipliers that walk the spectrum row by row with the
//! per-row wavenumber hoisted. Each is the per-node arithmetic in the
//! same order, so the stage is bit-identical to the per-node
//! implementation kept in `zmodel/per_node.rs` for the tests
//! (DESIGN.md §20).

use crate::br::{BrPoint, BrSolver};
use crate::geometry;
use crate::order::Order;
use crate::params::Params;
use crate::problem::ProblemManager;
use beatnik_dfft::{DistributedFft2d, FftConfig, Rect};
use beatnik_fft::spectral::wavenumbers;
use beatnik_fft::Complex;
use beatnik_mesh::stencil::{ddx4_row, ddy4_row, laplacian_row};
use beatnik_mesh::Field;

/// The Z-Model solver for one rank.
pub struct ZModel {
    order: Order,
    params: Params,
    br: Option<Box<dyn BrSolver>>,
    dfft: Option<DistributedFft2d>,
    /// Global wavenumber tables (reference space): `kx[global col]`,
    /// `ky[global row]`.
    kx: Vec<f64>,
    ky: Vec<f64>,
    /// Global node counts (for Nyquist detection).
    global: [usize; 2],
}

impl ZModel {
    /// Build a Z-Model for the given problem. Collective (constructs the
    /// distributed FFT when the order needs one).
    ///
    /// # Panics
    /// Panics if the order needs a BR solver and none is given, or needs
    /// FFTs and the problem is not periodic.
    pub fn new(
        pm: &ProblemManager,
        order: Order,
        params: Params,
        br: Option<Box<dyn BrSolver>>,
        fft_config: FftConfig,
    ) -> Self {
        params.validate().expect("invalid model parameters");
        if order.needs_br_solver() {
            assert!(
                br.is_some(),
                "{order}-order model requires a Birkhoff-Rott solver"
            );
        }
        let mesh = pm.mesh();
        let [nr, nc] = mesh.global();
        let [ly, lx] = mesh.lengths();
        let dfft = if order.needs_fft() {
            assert!(
                pm.bc().is_periodic(),
                "{order}-order model requires periodic boundaries (paper §4)"
            );
            let plan = DistributedFft2d::new(
                mesh.comm(),
                mesh.partition().dims,
                nr,
                nc,
                fft_config,
            );
            // The FFT block layout must coincide with the mesh partition.
            let rect = plan.local_rect();
            assert_eq!(rect.rows, mesh.own_rows(), "fft/mesh row layout mismatch");
            assert_eq!(rect.cols, mesh.own_cols(), "fft/mesh col layout mismatch");
            Some(plan)
        } else {
            None
        };
        ZModel {
            order,
            params,
            br,
            dfft,
            kx: wavenumbers(nc, lx),
            ky: wavenumbers(nr, ly),
            global: [nr, nc],
        }
    }

    /// The configured order.
    pub fn order(&self) -> Order {
        self.order
    }

    /// The model parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Compute `(∂t z, ∂t w)` into `zdot` (3 comps) and `wdot` (2 comps),
    /// refreshing halos first. Halo entries of the outputs are zeroed.
    /// Collective.
    pub fn derivatives(&self, pm: &mut ProblemManager, zdot: &mut Field, wdot: &mut Field) {
        pm.halo_all();
        let pm = &*pm;
        let mesh = pm.mesh();
        let [dy, dx] = mesh.spacing();
        let n_own = mesh.owned_count();
        let (z, w) = (pm.z(), pm.w());
        let rows = mesh.owned_row_range();
        let cols = mesh.owned_col_range();
        let (c0, n) = (cols.start, cols.len());
        let zspan = 3 * c0..3 * (c0 + n);
        let wspan = 2 * c0..2 * (c0 + n);

        // --- ∂t z = V, and S = g·z₃ − |V|²/8 from it, row by row --------
        let g = self.params.gravity;
        let mut s_vals = match &self.dfft {
            Some(plan) => plan.take(n_own),
            None => Vec::with_capacity(n_own),
        };
        let mut push_s = |v: &[f64], z: &[f64]| {
            s_vals.extend(v.chunks_exact(3).zip(z.chunks_exact(3)).map(|(v, z)| {
                let v2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
                g * z[2] - v2 / 8.0
            }));
        };
        zdot.fill(0.0);
        match self.order {
            Order::Low => {
                // V = W₃·n̂: the only order that needs the unit normals.
                // Transposed-layout spectra: the multipliers are diagonal
                // in k, so staying in the intermediate layout saves a
                // third of the FFT reshapes (heFFTe's transposed-output
                // optimization).
                let (rect, w1_spec) = self.forward_comp(pm, w, 0);
                let (_, w2_spec) = self.forward_comp(pm, w, 1);
                let w3_spec = self.riesz_block(w1_spec, &w2_spec, &rect);
                self.fft().give(w2_spec);
                let w3 = self.inverse_re(w3_spec);
                for (i, r) in rows.clone().enumerate() {
                    let v = &mut zdot.row_mut(r)[zspan.clone()];
                    geometry::unit_normals_row(&z.rows5(r), c0, dy, dx, v);
                    #[cfg(test)]
                    NORMAL_ROWS.with(|rows| rows.set(rows.get() + 1));
                    for (v, &m) in v.chunks_exact_mut(3).zip(&w3[i * n..(i + 1) * n]) {
                        v[0] *= m;
                        v[1] *= m;
                        v[2] *= m;
                    }
                    push_s(v, &z.row(r)[zspan.clone()]);
                }
                self.fft().give(w3);
            }
            Order::Medium | Order::High => {
                let da = dy * dx;
                let mut points = Vec::with_capacity(n_own);
                let mut strength = vec![0.0; 3 * n];
                for r in rows.clone() {
                    geometry::sheet_strength_row(&z.rows5(r), w.row(r), c0, dy, dx, &mut strength);
                    let pos = z.row(r)[zspan.clone()].chunks_exact(3);
                    points.extend(pos.zip(strength.chunks_exact(3)).map(|(p, s)| BrPoint {
                        pos: [p[0], p[1], p[2]],
                        strength: [s[0] * da, s[1] * da, s[2] * da],
                    }));
                }
                let vel = self
                    .br
                    .as_ref()
                    .expect("BR solver required")
                    .velocities(mesh.comm(), &points, self.params.epsilon);
                for (i, r) in rows.clone().enumerate() {
                    let v = &mut zdot.row_mut(r)[zspan.clone()];
                    for (v, vel) in v.chunks_exact_mut(3).zip(&vel[i * n..(i + 1) * n]) {
                        v.copy_from_slice(vel);
                    }
                    push_s(v, &z.row(r)[zspan.clone()]);
                }
            }
        }

        // --- ∂t w = 2A·(∂₂S, −∂₁S) + μ·Δw -------------------------------
        let a2 = 2.0 * self.params.atwood;
        let mu = self.params.mu;
        wdot.fill(0.0);
        match self.order {
            Order::High => {
                // Stencil path: S needs halos of its own.
                let mut s_field = mesh.make_field(1);
                mesh.set_owned_comp(&mut s_field, 0, &s_vals);
                pm.halo_aux(&mut s_field);
                let (mut ds_dx, mut ds_dy) = (vec![0.0; n], vec![0.0; n]);
                let mut lap = vec![0.0; 2 * n];
                for r in rows {
                    ddx4_row(s_field.row(r), 1, c0, dx, &mut ds_dx);
                    ddy4_row(&s_field.rows5(r), 1, c0, dy, &mut ds_dy);
                    laplacian_row(&w.rows5(r), 2, c0, dy, dx, &mut lap);
                    let out = wdot.row_mut(r)[wspan.clone()].chunks_exact_mut(2);
                    for (j, (out, lap)) in out.zip(lap.chunks_exact(2)).enumerate() {
                        out[0] = a2 * ds_dy[j] + mu * lap[0];
                        out[1] = -a2 * ds_dx[j] + mu * lap[1];
                    }
                }
            }
            Order::Low | Order::Medium => {
                // Spectral path ("the medium-order model uses FFTs for
                // calculating changes in vorticity", paper §6), in the
                // transposed layout throughout. Every buffer goes back
                // to the plan's free lists once read.
                let plan = self.fft();
                let (rect, s_spec) = self.forward_vals(s_vals);
                let mut sx = plan.take(s_spec.len());
                sx.extend_from_slice(&s_spec);
                self.mul_ik(&mut sx, &rect, Axis::X);
                let mut sy = s_spec;
                self.mul_ik(&mut sy, &rect, Axis::Y);
                let ds_dx = self.inverse_re(sx);
                let ds_dy = self.inverse_re(sy);
                let (_, mut l1) = self.forward_comp(pm, w, 0);
                self.mul_minus_k2(&mut l1, &rect);
                let (_, mut l2) = self.forward_comp(pm, w, 1);
                self.mul_minus_k2(&mut l2, &rect);
                let lap1 = self.inverse_re(l1);
                let lap2 = self.inverse_re(l2);
                for (i, out) in mesh.owned_rows_mut(wdot).enumerate() {
                    let at = i * n..(i + 1) * n;
                    let s = ds_dx[at.clone()].iter().zip(&ds_dy[at.clone()]);
                    let lap = lap1[at.clone()].iter().zip(&lap2[at]);
                    for ((out, (sx, sy)), (l1, l2)) in out.chunks_exact_mut(2).zip(s).zip(lap) {
                        out[0] = a2 * sy + mu * l1;
                        out[1] = -a2 * sx + mu * l2;
                    }
                }
                for buf in [ds_dx, ds_dy, lap1, lap2] {
                    plan.give(buf);
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
    pub fn apply_krasny_filter(&self, pm: &mut ProblemManager, tolerance: f64) {
        assert!(
            self.dfft.is_some(),
            "krasny filter requires an FFT-capable (low/medium) model order"
        );
        pm.halo_all();
        let n_total = (self.global[0] * self.global[1]) as f64;
        let (mesh, z, w) = pm.state_mut();
        // Reference-plane coordinates of the owned nodes, owned order:
        // x varies along a row, y from row to row.
        let xs: Vec<f64> = mesh.own_cols().map(|gc| mesh.coord_of(0, gc as i64)[1]).collect();
        let ref_x: Vec<f64> = mesh.own_rows().flat_map(|_| xs.iter().copied()).collect();
        let ref_y: Vec<f64> = mesh
            .own_rows()
            .flat_map(|gr| std::iter::repeat_n(mesh.coord_of(gr as i64, 0)[0], xs.len()))
            .collect();

        // Filter component `k` of `f` as a deviation from `reference`.
        let plan = self.fft();
        let filter = |f: &mut Field, k: usize, reference: Option<&[f64]>| {
            let mut vals = plan.take(mesh.owned_count());
            mesh.owned_comp(f, k, &mut vals);
            if let Some(reference) = reference {
                vals.iter_mut().zip(reference).for_each(|(v, r)| *v -= r);
            }
            let (_, mut spec) = self.forward_vals(vals);
            for v in spec.iter_mut() {
                // Normalized amplitude (forward transform is
                // unnormalized: divide by the mode count).
                if v.abs() / n_total < tolerance {
                    *v = Complex::default();
                }
            }
            let mut vals = self.inverse_re(spec);
            if let Some(reference) = reference {
                vals.iter_mut().zip(reference).for_each(|(v, r)| *v += r);
            }
            mesh.set_owned_comp(f, k, &vals);
            plan.give(vals);
        };
        filter(z, 0, Some(&ref_x));
        filter(z, 1, Some(&ref_y));
        filter(z, 2, None);
        filter(w, 0, None);
        filter(w, 1, None);
    }

    // ------------------------------------------------------------------
    // Distributed spectral helpers
    // ------------------------------------------------------------------

    /// The distributed FFT plan (low and medium order).
    fn fft(&self) -> &DistributedFft2d {
        self.dfft.as_ref().expect("fft not configured")
    }

    /// [`ZModel::forward_vals`] of component `comp` of `f`'s owned nodes,
    /// gathered into a buffer of the plan's.
    fn forward_comp(&self, pm: &ProblemManager, f: &Field, comp: usize) -> (Rect, Vec<Complex>) {
        let plan = self.fft();
        let mut vals = plan.take(pm.mesh().owned_count());
        pm.mesh().owned_comp(f, comp, &mut vals);
        plan.forward_real_transposed(vals)
    }

    /// Forward transform of a real owned-order field into the
    /// *transposed half* spectrum (its rectangle is returned so
    /// multipliers can map global wavenumbers). Every multiplier below is
    /// Hermitian-symmetric in `k`, so acting on columns `0..=nc/2` alone
    /// acts on the whole spectrum.
    fn forward_vals(&self, vals: Vec<f64>) -> (Rect, Vec<Complex>) {
        self.fft().forward_real_transposed(vals)
    }

    fn inverse_re(&self, spec: Vec<Complex>) -> Vec<f64> {
        self.fft().inverse_real_transposed(spec)
    }

    /// The rows of a spectrum block over `rect`, each with its global row
    /// index, its `k_y`, and whether it is the Nyquist row — everything a
    /// multiplier needs that is constant along a row.
    fn spectrum_rows<'a>(
        &'a self,
        spec: &'a mut [Complex],
        rect: &Rect,
    ) -> impl Iterator<Item = (f64, bool, &'a mut [Complex])> + 'a {
        let nr = self.global[0];
        let width = rect.cols.len().max(1);
        rect.rows
            .clone()
            .zip(spec.chunks_exact_mut(width))
            .map(move |(gr, row)| (self.ky[gr], nr.is_multiple_of(2) && gr == nr / 2, row))
    }

    /// Position within `rect.cols` of the Nyquist column, if it is there.
    fn nyquist_col(&self, rect: &Rect) -> Option<usize> {
        let nc = self.global[1];
        (nc.is_multiple_of(2) && rect.cols.contains(&(nc / 2))).then(|| nc / 2 - rect.cols.start)
    }

    /// `spec ← i·k·spec` along `axis`, Nyquist bins zeroed.
    fn mul_ik(&self, spec: &mut [Complex], rect: &Rect, axis: Axis) {
        let kx = &self.kx[rect.cols.clone()];
        let nyquist_col = self.nyquist_col(rect);
        for (ky, nyquist_row, row) in self.spectrum_rows(spec, rect) {
            if nyquist_row {
                row.fill(Complex::default());
                continue;
            }
            match axis {
                Axis::X => {
                    for (v, &k) in row.iter_mut().zip(kx) {
                        *v = Complex::new(-v.im * k, v.re * k);
                    }
                }
                Axis::Y => {
                    for v in row.iter_mut() {
                        *v = Complex::new(-v.im * ky, v.re * ky);
                    }
                }
            }
            if let Some(j) = nyquist_col {
                row[j] = Complex::default();
            }
        }
    }

    /// `spec ← −|k|²·spec`.
    fn mul_minus_k2(&self, spec: &mut [Complex], rect: &Rect) {
        let kx = &self.kx[rect.cols.clone()];
        for (ky, _, row) in self.spectrum_rows(spec, rect) {
            let ky2 = ky * ky;
            for (v, &kx) in row.iter_mut().zip(kx) {
                *v = v.scale(-(kx * kx + ky2));
            }
        }
    }

    /// The linearized Birkhoff–Rott normal velocity:
    /// `Ŵ₃ = (i/2)(k̂₁·ŵ₂ − k̂₂·ŵ₁)`, mean and Nyquist bins zeroed;
    /// written over `w1`.
    fn riesz_block(&self, mut w1: Vec<Complex>, w2: &[Complex], rect: &Rect) -> Vec<Complex> {
        let kx = &self.kx[rect.cols.clone()];
        let nyquist_col = self.nyquist_col(rect);
        let width = rect.cols.len().max(1);
        let rows = self.spectrum_rows(&mut w1, rect).zip(w2.chunks_exact(width));
        for ((ky, nyquist_row, out), w2) in rows {
            if nyquist_row {
                out.fill(Complex::default());
                continue;
            }
            let ky2 = ky * ky;
            for ((out, w2), &kx) in out.iter_mut().zip(w2).zip(kx) {
                let w1 = *out;
                let kmag = (kx * kx + ky2).sqrt();
                *out = if kmag > 0.0 {
                    let re = (kx * w2.re - ky * w1.re) / kmag;
                    let im = (kx * w2.im - ky * w1.im) / kmag;
                    // (i/2)·(re + i·im) = −im/2 + i·re/2
                    Complex::new(-im * 0.5, re * 0.5)
                } else {
                    Complex::default()
                };
            }
            if let Some(j) = nyquist_col {
                out[j] = Complex::default();
            }
        }
        w1
    }
}

enum Axis {
    X,
    Y,
}

#[cfg(test)]
thread_local! {
    /// Rows this rank's thread has computed unit normals for.
    static NORMAL_ROWS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod per_node;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::br::ExactBrSolver;
    use beatnik_comm::World;
    use beatnik_mesh::{BoundaryCondition, SurfaceMesh};
    use std::f64::consts::PI;

    fn periodic_pm(comm: &beatnik_comm::Communicator, n: usize) -> ProblemManager {
        let l = 2.0 * PI;
        let mesh = SurfaceMesh::new(comm, [n, n], [true, true], 2, [0.0, 0.0], [l, l]);
        ProblemManager::new(mesh, BoundaryCondition::Periodic { periods: [l, l] })
    }

    /// Flat interface at z=0 with a single vorticity mode; the low-order
    /// velocity must equal the analytic Riesz transform.
    #[test]
    fn low_order_velocity_matches_analytic_riesz() {
        for p in [1usize, 4] {
            World::builder(p).run(|comm| {
                let mut pm = periodic_pm(&comm, 16);
                let coords: Vec<_> = pm.mesh().owned_indices().collect();
                for (lr, lc, gr, gc) in coords {
                    let c = pm.mesh().coord_of(gr as i64, gc as i64);
                    pm.z_mut().set_node(lr, lc, &[c[1], c[0], 0.0]);
                    // w2 = sin(3x) -> W3 = (1/2)cos(3x).
                    pm.w_mut().set_node(lr, lc, &[0.0, (3.0 * c[1]).sin()]);
                }
                let params = Params {
                    mu: 0.0,
                    ..Params::default()
                };
                let zm = ZModel::new(&pm, Order::Low, params, None, FftConfig::default());
                let mut zdot = pm.mesh().make_field(3);
                let mut wdot = pm.mesh().make_field(2);
                zm.derivatives(&mut pm, &mut zdot, &mut wdot);
                for (lr, lc, _, gc) in pm.mesh().owned_indices() {
                    let x = pm.mesh().coord_of(0, gc as i64)[1];
                    let want = 0.5 * (3.0 * x).cos();
                    //

                    // Flat sheet: unit normal is ẑ, so zdot = (0, 0, W3).
                    assert!(zdot.get(lr, lc, 0).abs() < 1e-10);
                    assert!(zdot.get(lr, lc, 1).abs() < 1e-10);
                    assert!(
                        (zdot.get(lr, lc, 2) - want).abs() < 1e-9,
                        "p={p} gc={gc}: {} vs {want}",
                        zdot.get(lr, lc, 2)
                    );
                }
            });
        }
    }

    /// Vorticity forcing: flat tilted interface z₃ = sin(2x) with zero
    /// vorticity gives ẇ₂ = −2A·g·∂₁z₃ (spectral) and the same from the
    /// high-order stencil path.
    #[test]
    fn vorticity_forcing_matches_between_orders() {
        World::builder(2).run(|comm| {
            let n = 32;
            let amplitude = 1e-3; // keep |V|² negligible
            let build = |pm: &mut ProblemManager| {
                let coords: Vec<_> = pm.mesh().owned_indices().collect();
                for (lr, lc, gr, gc) in coords {
                    let c = pm.mesh().coord_of(gr as i64, gc as i64);
                    let z3 = amplitude * (2.0 * c[1]).sin();
                    pm.z_mut().set_node(lr, lc, &[c[1], c[0], z3]);
                    pm.w_mut().set_node(lr, lc, &[0.0, 0.0]);
                }
            };
            let params = Params {
                atwood: 0.5,
                gravity: 4.0,
                mu: 0.0,
                epsilon: 0.1,
                ..Params::default()
            };
            let run = |order: Order| -> Vec<f64> {
                let mut pm = periodic_pm(&comm, n);
                build(&mut pm);
                let br: Option<Box<dyn BrSolver>> = if order.needs_br_solver() {
                    Some(Box::new(ExactBrSolver))
                } else {
                    None
                };
                let zm = ZModel::new(&pm, order, params, br, FftConfig::default());
                let mut zdot = pm.mesh().make_field(3);
                let mut wdot = pm.mesh().make_field(2);
                zm.derivatives(&mut pm, &mut zdot, &mut wdot);
                pm.mesh()
                    .owned_indices()
                    .map(|(lr, lc, _, _)| wdot.get(lr, lc, 1))
                    .collect()
            };
            let low = run(Order::Low);
            let high = run(Order::High);
            // Analytic: ẇ₂ = −2A·g·∂₁z₃ = −2·0.5·4·amplitude·2·cos(2x).
            let pm = periodic_pm(&comm, n);
            for (i, (_, _, _, gc)) in pm.mesh().owned_indices().enumerate() {
                let x = pm.mesh().coord_of(0, gc as i64)[1];
                let want = -2.0 * 0.5 * 4.0 * amplitude * 2.0 * (2.0 * x).cos();
                assert!(
                    (low[i] - want).abs() < 1e-7,
                    "low gc={gc}: {} vs {want}",
                    low[i]
                );
                assert!(
                    (high[i] - want).abs() < 1e-5 * (1.0 + want.abs()),
                    "high gc={gc}: {} vs {want}",
                    high[i]
                );
            }
        });
    }

    /// Viscous term on a non-square domain (`dy = 2·dx`): the high-order
    /// stencil Laplacian must track the medium order's spectral one. A
    /// 9-point stencil fed `dx` alone overweights `∂²/∂y²` fourfold here.
    #[test]
    fn high_order_viscous_term_matches_spectral_on_anisotropic_spacing() {
        World::builder(2).run(|comm| {
            let (n, ly, lx) = (32, 4.0 * PI, 2.0 * PI);
            let params = Params {
                mu: 1.0,
                epsilon: 0.1,
                ..Params::default()
            };
            let run = |order: Order| -> Vec<[f64; 2]> {
                let mesh = SurfaceMesh::new(&comm, [n, n], [true, true], 2, [0.0, 0.0], [ly, lx]);
                let mut pm =
                    ProblemManager::new(mesh, BoundaryCondition::Periodic { periods: [ly, lx] });
                let coords: Vec<_> = pm.mesh().owned_indices().collect();
                for (lr, lc, gr, gc) in coords {
                    let [y, x] = pm.mesh().coord_of(gr as i64, gc as i64);
                    pm.z_mut().set_node(lr, lc, &[x, y, 0.0]);
                    // Small amplitude keeps the |V|² forcing far below
                    // the viscous term: Δw = −(1 + ¼)·w.
                    let w = 1e-3 * x.sin() * (0.5 * y).cos();
                    pm.w_mut().set_node(lr, lc, &[w, -w]);
                }
                let br: Box<dyn BrSolver> = Box::new(ExactBrSolver);
                let zm = ZModel::new(&pm, order, params, Some(br), FftConfig::default());
                let mut zdot = pm.mesh().make_field(3);
                let mut wdot = pm.mesh().make_field(2);
                zm.derivatives(&mut pm, &mut zdot, &mut wdot);
                pm.mesh()
                    .owned_indices()
                    .map(|(lr, lc, _, _)| [wdot.get(lr, lc, 0), wdot.get(lr, lc, 1)])
                    .collect()
            };
            let spectral = run(Order::Medium);
            let stencil = run(Order::High);
            let peak = spectral
                .iter()
                .flatten()
                .fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(peak > 1e-3, "viscous term missing: {peak}");
            for (a, b) in stencil.iter().flatten().zip(spectral.iter().flatten()) {
                assert!((a - b).abs() < 0.02 * peak, "stencil {a} vs spectral {b}");
            }
        });
    }

    #[test]
    fn krasny_filter_removes_roundoff_noise_keeps_signal() {
        World::builder(4).run(|comm| {
            let n = 16;
            let mut pm = periodic_pm(&comm, n);
            let coords: Vec<_> = pm.mesh().owned_indices().collect();
            for (lr, lc, gr, gc) in coords {
                let c = pm.mesh().coord_of(gr as i64, gc as i64);
                // Large mode + alternating-sign "roundoff" noise.
                let noise = if (gr + gc) % 2 == 0 { 1e-13 } else { -1e-13 };
                let z3 = 0.01 * c[1].sin() + noise;
                pm.z_mut().set_node(lr, lc, &[c[1], c[0], z3]);
                pm.w_mut().set_node(lr, lc, &[noise, 2.0 * noise]);
            }
            let zm = ZModel::new(
                &pm,
                Order::Low,
                Params::default(),
                None,
                FftConfig::default(),
            );
            zm.apply_krasny_filter(&mut pm, 1e-10);
            for (lr, lc, gr, gc) in pm.mesh().owned_indices() {
                let c = pm.mesh().coord_of(gr as i64, gc as i64);
                // Noise gone from vorticity…
                assert!(pm.w().get(lr, lc, 0).abs() < 1e-14, "w1 noise survived");
                assert!(pm.w().get(lr, lc, 1).abs() < 1e-14, "w2 noise survived");
                // …and from z3, while the signal mode survives intact.
                let want = 0.01 * c[1].sin();
                assert!(
                    (pm.z().get(lr, lc, 2) - want).abs() < 1e-12,
                    "z3 at ({gr},{gc}): {} vs {want}",
                    pm.z().get(lr, lc, 2)
                );
                // Reference-plane coordinates are reconstructed exactly.
                assert!((pm.z().get(lr, lc, 0) - c[1]).abs() < 1e-12);
                assert!((pm.z().get(lr, lc, 1) - c[0]).abs() < 1e-12);
            }
        });
    }

    #[test]
    fn filtered_solve_tracks_unfiltered_solve() {
        // With a sane tolerance the filter must not perturb the physics.
        World::builder(2).run(|comm| {
            let run = |filter_every: usize| -> f64 {
                let mut pm = periodic_pm(&comm, 16);
                crate::init::InitialCondition::SingleMode {
                    amplitude: 1e-4,
                    modes: [1.0, 1.0],
                }
                .apply(&mut pm);
                let params = Params {
                    atwood: 0.5,
                    gravity: 2.0,
                    mu: 0.0,
                    filter_every,
                    filter_tolerance: 1e-11,
                    ..Params::default()
                };
                let zm = ZModel::new(&pm, Order::Low, params, None, FftConfig::default());
                let mut ti = crate::integrator::TimeIntegrator::new(&pm);
                for step in 1..=20 {
                    ti.step(&zm, &mut pm, 5e-3);
                    if filter_every > 0 && step % filter_every == 0 {
                        zm.apply_krasny_filter(&mut pm, 1e-11);
                    }
                }
                let local = pm
                    .mesh()
                    .owned_indices()
                    .map(|(lr, lc, _, _)| pm.z().get(lr, lc, 2).abs())
                    .fold(0.0f64, f64::max);
                pm.mesh().comm().allreduce_max(local)
            };
            let plain = run(0);
            let filtered = run(5);
            assert!(
                (plain - filtered).abs() < 1e-6 * plain,
                "{plain} vs {filtered}"
            );
        });
    }

    // ------------------------------------------------------------------
    // Row-sliced stage == per-node reference, bit for bit
    // ------------------------------------------------------------------

    /// The two meshes the bitwise tests run on: `dy ≠ dx` (5-point
    /// Laplacian) and `dy = dx` (9-point), neither dividing evenly over
    /// every rank grid. Returns `(global, hi)`.
    fn awkward_meshes(periodic: bool) -> [([usize; 2], [f64; 2]); 2] {
        let ends = if periodic { 0 } else { 1 };
        [
            ([12, 10], [2.0 * PI, 2.0 * PI]),
            ([16, 9], [0.1 * (16 - ends) as f64, 0.1 * (9 - ends) as f64]),
        ]
    }

    /// A problem with a rippled interface and vorticity with no symmetry
    /// (so a transposed or shifted index shows), plus noise at the
    /// 1e-13 level for the Krasny filter to remove.
    fn rough_pm(
        comm: &beatnik_comm::Communicator,
        global: [usize; 2],
        hi: [f64; 2],
        periodic: bool,
    ) -> ProblemManager {
        let mesh = SurfaceMesh::new(comm, global, [periodic; 2], 2, [0.0, 0.0], hi);
        let bc = if periodic {
            BoundaryCondition::Periodic { periods: hi }
        } else {
            BoundaryCondition::Free
        };
        let mut pm = ProblemManager::new(mesh, bc);
        let coords: Vec<_> = pm.mesh().owned_indices().collect();
        for (lr, lc, gr, gc) in coords {
            let [y, x] = pm.mesh().coord_of(gr as i64, gc as i64);
            // Phases periodic in the global index.
            let a = 2.0 * PI * gc as f64 / global[1] as f64;
            let b = 2.0 * PI * gr as f64 / global[0] as f64;
            let noise = 1e-13 * ((gr * 31 + gc * 17) % 13) as f64;
            let z = [
                x + 0.02 * (a + b).sin(),
                y + 0.03 * (2.0 * a - b).cos(),
                0.1 * a.sin() * (b + 0.3).cos() + 0.05 * (3.0 * b).sin() + noise,
            ];
            let w = [0.4 * (a - 2.0 * b).sin() + noise, 0.3 * (2.0 * a).cos() * b.sin() - 0.1];
            pm.z_mut().set_node(lr, lc, &z);
            pm.w_mut().set_node(lr, lc, &w);
        }
        pm
    }

    fn bits(f: &Field) -> Vec<u64> {
        f.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn row_sliced_derivatives_equal_per_node_reference_bitwise() {
        let params = Params {
            atwood: 0.5,
            gravity: 2.0,
            mu: 0.1,
            epsilon: 0.25,
            cutoff: 1.5,
            ..Params::default()
        };
        // (order, cutoff BR instead of exact, periodic)
        let cases = [
            (Order::Low, false, true),
            (Order::Medium, false, true),
            (Order::High, false, true),
            (Order::High, true, true),
            (Order::High, false, false),
            (Order::High, true, false),
        ];
        for p in [1usize, 2, 3, 4, 6] {
            World::builder(p).run(|comm| {
                for (order, cutoff, periodic) in cases {
                    for (global, hi) in awkward_meshes(periodic) {
                        let what = format!(
                            "p={p} {order} cutoff={cutoff} periodic={periodic} {global:?}"
                        );
                        let br: Option<Box<dyn BrSolver>> = match (order, cutoff) {
                            (Order::Low, _) => None,
                            (_, false) => Some(Box::new(ExactBrSolver)),
                            (_, true) => Some(Box::new(crate::br::CutoffBrSolver::new(
                                beatnik_mesh::SpatialMesh::new(
                                    [-1.0, -1.0, -2.0],
                                    [hi[1] + 1.0, hi[0] + 1.0, 2.0],
                                    beatnik_comm::dims_create(p),
                                ),
                                params.cutoff,
                                beatnik_spatial::neighbors::Backend::Grid,
                            ))),
                        };
                        let mut pm = rough_pm(&comm, global, hi, periodic);
                        let mut reference = rough_pm(&comm, global, hi, periodic);
                        let zm = ZModel::new(&pm, order, params, br, FftConfig::default());
                        // Garbage in the outputs: both must overwrite all of it.
                        let garbage = |ncomp| {
                            let mut f = pm.mesh().make_field(ncomp);
                            f.fill(7.0);
                            f
                        };
                        let (mut zdot, mut wdot) = (garbage(3), garbage(2));
                        let (mut zdot_ref, mut wdot_ref) = (garbage(3), garbage(2));

                        NORMAL_ROWS.with(|rows| rows.set(0));
                        zm.derivatives(&mut pm, &mut zdot, &mut wdot);
                        let normal_rows = NORMAL_ROWS.with(|rows| rows.get());
                        zm.derivatives_per_node(&mut reference, &mut zdot_ref, &mut wdot_ref);

                        assert_eq!(bits(&zdot), bits(&zdot_ref), "zdot {what}");
                        assert_eq!(bits(&wdot), bits(&wdot_ref), "wdot {what}");
                        assert!(zdot.max_abs() > 1e-3 && wdot.max_abs() > 1e-3, "{what}");
                        // Halos refreshed identically too.
                        assert_eq!(bits(pm.z()), bits(reference.z()), "z {what}");
                        // Unit normals: every owned row in low order, none
                        // in the orders whose velocity is a full vector.
                        let want = if order == Order::Low { pm.mesh().own_rows().len() } else { 0 };
                        assert_eq!(normal_rows, want, "normal rows {what}");
                    }
                }
            });
        }
    }

    #[test]
    fn row_sliced_krasny_filter_equals_per_node_reference_bitwise() {
        for p in [1usize, 2, 3, 4, 6] {
            World::builder(p).run(|comm| {
                for (global, hi) in awkward_meshes(true) {
                    let mut pm = rough_pm(&comm, global, hi, true);
                    let mut reference = rough_pm(&comm, global, hi, true);
                    let before = bits(pm.w());
                    let zm =
                        ZModel::new(&pm, Order::Low, Params::default(), None, FftConfig::default());
                    zm.apply_krasny_filter(&mut pm, 1e-10);
                    zm.apply_krasny_filter_per_node(&mut reference, 1e-10);
                    assert_eq!(bits(pm.z()), bits(reference.z()), "z p={p} {global:?}");
                    assert_eq!(bits(pm.w()), bits(reference.w()), "w p={p} {global:?}");
                    assert_ne!(bits(pm.w()), before, "filter removed nothing");
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "requires an FFT-capable")]
    fn filter_on_high_order_rejected() {
        World::builder(1).run(|comm| {
            let mesh =
                SurfaceMesh::new(&comm, [8, 8], [true, true], 2, [0.0, 0.0], [1.0, 1.0]);
            let mut pm = ProblemManager::new(
                mesh,
                BoundaryCondition::Periodic { periods: [1.0, 1.0] },
            );
            let zm = ZModel::new(
                &pm,
                Order::High,
                Params::default(),
                Some(Box::new(ExactBrSolver)),
                FftConfig::default(),
            );
            zm.apply_krasny_filter(&mut pm, 1e-10);
        });
    }

    #[test]
    #[should_panic(expected = "requires a Birkhoff-Rott solver")]
    fn high_order_without_br_rejected() {
        World::builder(1).run(|comm| {
            let pm = periodic_pm(&comm, 8);
            let _ = ZModel::new(
                &pm,
                Order::High,
                Params::default(),
                None,
                FftConfig::default(),
            );
        });
    }

    #[test]
    #[should_panic(expected = "requires periodic boundaries")]
    fn low_order_with_open_boundaries_rejected() {
        World::builder(1).run(|comm| {
            let mesh =
                SurfaceMesh::new(&comm, [8, 8], [false, false], 2, [0.0, 0.0], [1.0, 1.0]);
            let pm = ProblemManager::new(mesh, BoundaryCondition::Free);
            let _ = ZModel::new(
                &pm,
                Order::Low,
                Params::default(),
                None,
                FftConfig::default(),
            );
        });
    }
}

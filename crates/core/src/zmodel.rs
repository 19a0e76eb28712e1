//! The Z-Model derivative kernels (paper §3.1, `ZModel` class).
//!
//! `ZModel::derivatives` computes `(∂t z, ∂t w)` for every owned surface
//! node. It never communicates directly — exactly as the paper describes,
//! it *invokes* components that do: the surface-mesh halo exchange, the
//! distributed FFT (low/medium order), and a Birkhoff–Rott solver
//! (medium/high order).

use crate::br::{BrPoint, BrSolver};
use crate::geometry;
use crate::order::Order;
use crate::params::Params;
use crate::problem::ProblemManager;
use beatnik_dfft::{DistributedFft2d, FftConfig, Rect};
use beatnik_fft::spectral::wavenumbers;
use beatnik_fft::Complex;
use beatnik_mesh::stencil::{ddx4, ddy4, laplacian};
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
                let (rect, w1_spec) = self.forward_comp(pm, w, 0);
                let (_, w2_spec) = self.forward_comp(pm, w, 1);
                let riesz = self.riesz_block(&w1_spec, &w2_spec, &rect);
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
                let (rect, s_spec) = self.forward_vals(&s_vals);
                let mut sx = s_spec.clone();
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
    pub fn apply_krasny_filter(&self, pm: &mut ProblemManager, tolerance: f64) {
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
                let (_, mut spec) = self.forward_vals(vals);
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

    fn forward_comp(&self, pm: &ProblemManager, f: &Field, comp: usize) -> (Rect, Vec<Complex>) {
        let vals: Vec<f64> = pm
            .mesh()
            .owned_indices()
            .map(|(lr, lc, _, _)| f.get(lr, lc, comp))
            .collect();
        self.forward_vals(&vals)
    }

    /// Forward transform of a real owned-order field into the
    /// *transposed half* spectrum (its rectangle is returned so
    /// multipliers can map global wavenumbers). Every multiplier below is
    /// Hermitian-symmetric in `k`, so acting on columns `0..=nc/2` alone
    /// acts on the whole spectrum.
    fn forward_vals(&self, vals: &[f64]) -> (Rect, Vec<Complex>) {
        let plan = self.dfft.as_ref().expect("fft not configured");
        plan.forward_real_transposed(vals)
    }

    fn inverse_re(&self, spec: Vec<Complex>) -> Vec<f64> {
        let plan = self.dfft.as_ref().expect("fft not configured");
        plan.inverse_real_transposed(spec)
    }

    #[inline]
    fn is_nyquist(&self, gr: usize, gc: usize) -> bool {
        let [nr, nc] = self.global;
        (nr % 2 == 0 && gr == nr / 2) || (nc % 2 == 0 && gc == nc / 2)
    }

    fn mul_ik(&self, spec: &mut [Complex], rect: &Rect, axis: Axis) {
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

    fn mul_minus_k2(&self, spec: &mut [Complex], rect: &Rect) {
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
    fn riesz_block(&self, w1: &[Complex], w2: &[Complex], rect: &Rect) -> Vec<Complex> {
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

enum Axis {
    X,
    Y,
}

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

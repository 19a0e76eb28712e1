//! Time integration (paper §3.1, `TimeIntegrator`): third-order
//! TVD (Shu–Osher) Runge–Kutta. Being a three-stage method, it evaluates
//! the Z-Model derivative three times per step — the paper calls this out
//! explicitly because it sets the communication rate per timestep.

use crate::problem::ProblemManager;
use crate::zmodel::ZModel;
use beatnik_mesh::Field;

/// RK3 integrator owning its stage scratch fields.
pub struct TimeIntegrator {
    zdot: Field,
    wdot: Field,
    z0: Field,
    w0: Field,
}

impl TimeIntegrator {
    /// Allocate stage storage for a problem.
    pub fn new(pm: &ProblemManager) -> Self {
        TimeIntegrator {
            zdot: pm.mesh().make_field(3),
            wdot: pm.mesh().make_field(2),
            z0: pm.mesh().make_field(3),
            w0: pm.mesh().make_field(2),
        }
    }

    /// Advance the state one step of size `dt` with TVD RK3:
    ///
    /// ```text
    /// u⁽¹⁾   = uⁿ + Δt·L(uⁿ)
    /// u⁽²⁾   = ¾uⁿ + ¼u⁽¹⁾ + ¼Δt·L(u⁽¹⁾)
    /// uⁿ⁺¹  = ⅓uⁿ + ⅔u⁽²⁾ + ⅔Δt·L(u⁽²⁾)
    /// ```
    ///
    /// Collective (each `L` evaluation communicates).
    pub fn step(&mut self, zmodel: &ZModel, pm: &mut ProblemManager, dt: f64) {
        // Save uⁿ.
        self.z0.clone_from(pm.z());
        self.w0.clone_from(pm.w());

        // Stage 1: u¹ = u⁰ + dt·L(u⁰).
        zmodel.derivatives(pm, &mut self.zdot, &mut self.wdot);
        {
            let (_, z, w) = pm.state_mut();
            z.axpby(1.0, &self.zdot, dt);
            w.axpby(1.0, &self.wdot, dt);
        }

        // Stage 2: u² = 3/4·u⁰ + 1/4·u¹ + 1/4·dt·L(u¹).
        zmodel.derivatives(pm, &mut self.zdot, &mut self.wdot);
        {
            let (_, z, w) = pm.state_mut();
            z.axpby(0.25, &self.z0, 0.75);
            z.axpby(1.0, &self.zdot, 0.25 * dt);
            w.axpby(0.25, &self.w0, 0.75);
            w.axpby(1.0, &self.wdot, 0.25 * dt);
        }

        // Stage 3: uⁿ⁺¹ = 1/3·u⁰ + 2/3·u² + 2/3·dt·L(u²).
        zmodel.derivatives(pm, &mut self.zdot, &mut self.wdot);
        {
            let (_, z, w) = pm.state_mut();
            z.axpby(2.0 / 3.0, &self.z0, 1.0 / 3.0);
            z.axpby(1.0, &self.zdot, 2.0 / 3.0 * dt);
            w.axpby(2.0 / 3.0, &self.w0, 1.0 / 3.0);
            w.axpby(1.0, &self.wdot, 2.0 / 3.0 * dt);
        }
    }

    /// Forward-Euler step (first order) — kept for convergence testing
    /// against RK3.
    pub fn step_euler(&mut self, zmodel: &ZModel, pm: &mut ProblemManager, dt: f64) {
        zmodel.derivatives(pm, &mut self.zdot, &mut self.wdot);
        let (_, z, w) = pm.state_mut();
        z.axpby(1.0, &self.zdot, dt);
        w.axpby(1.0, &self.wdot, dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitialCondition;
    use crate::order::Order;
    use crate::params::Params;
    use crate::zmodel::ZModel;
    use beatnik_comm::World;
    use beatnik_dfft::FftConfig;
    use beatnik_mesh::{BoundaryCondition, SurfaceMesh};
    use std::f64::consts::PI;

    /// Small single-mode periodic problem on the low-order solver.
    fn setup(comm: &beatnik_comm::Communicator, n: usize) -> (ProblemManager, ZModel) {
        let l = 2.0 * PI;
        let mesh = SurfaceMesh::new(comm, [n, n], [true, true], 2, [0.0, 0.0], [l, l]);
        let mut pm =
            ProblemManager::new(mesh, BoundaryCondition::Periodic { periods: [l, l] });
        InitialCondition::SingleMode {
            amplitude: 1e-4,
            modes: [1.0, 1.0],
        }
        .apply(&mut pm);
        let params = Params {
            atwood: 0.5,
            gravity: 2.0,
            mu: 0.0,
            ..Params::default()
        };
        let zm = ZModel::new(&pm, Order::Low, params, None, FftConfig::default());
        (pm, zm)
    }

    /// Amplitude of the interface: max |z₃| over the global mesh.
    fn amplitude(pm: &ProblemManager) -> f64 {
        let local = pm
            .mesh()
            .owned_indices()
            .map(|(lr, lc, _, _)| pm.z().get(lr, lc, 2).abs())
            .fold(0.0f64, f64::max);
        pm.mesh().comm().allreduce_max(local)
    }

    #[test]
    fn rk3_is_higher_order_than_euler() {
        World::builder(1).run(|comm| {
            // Evolve the same problem with RK3 and Euler at a deliberately
            // large dt; RK3 at dt must beat Euler at dt against the
            // fine-step reference.
            let t_end = 0.4;
            let run = |steps: usize, euler: bool| -> f64 {
                let (mut pm, zm) = setup(&comm, 16);
                let mut ti = TimeIntegrator::new(&pm);
                let dt = t_end / steps as f64;
                for _ in 0..steps {
                    if euler {
                        ti.step_euler(&zm, &mut pm, dt);
                    } else {
                        ti.step(&zm, &mut pm, dt);
                    }
                }
                amplitude(&pm)
            };
            let reference = run(512, false);
            let rk3_err = (run(8, false) - reference).abs();
            let euler_err = (run(8, true) - reference).abs();
            assert!(
                rk3_err < euler_err / 10.0,
                "rk3 {rk3_err} vs euler {euler_err}"
            );
        });
    }

    #[test]
    fn rk3_convergence_order() {
        World::builder(1).run(|comm| {
            let t_end = 0.4;
            let run = |steps: usize| -> f64 {
                let (mut pm, zm) = setup(&comm, 16);
                let mut ti = TimeIntegrator::new(&pm);
                let dt = t_end / steps as f64;
                for _ in 0..steps {
                    ti.step(&zm, &mut pm, dt);
                }
                amplitude(&pm)
            };
            let reference = run(512);
            let e1 = (run(4) - reference).abs();
            let e2 = (run(8) - reference).abs();
            // Third order: halving dt cuts error ~8x (allow slack).
            assert!(e1 / e2 > 5.0, "convergence ratio {}", e1 / e2);
        });
    }

    #[test]
    fn step_is_deterministic_across_rank_counts() {
        // The FFT path does the same arithmetic on every node at every
        // rank count: the gathered z and w after five steps are bitwise
        // the 1-rank ones.
        for n in [16, 24] {
            let state_at = |p: usize| {
                let mut out = World::builder(p).run(move |comm| {
                    let (mut pm, zm) = setup(&comm, n);
                    let mut ti = TimeIntegrator::new(&pm);
                    for _ in 0..5 {
                        ti.step(&zm, &mut pm, 1e-2);
                    }
                    let mesh = pm.mesh();
                    let nodes = mesh.owned_indices().map(|(_, _, gr, gc)| (gr * n + gc) as u64);
                    let state = pm.owned_positions().into_iter().zip(pm.owned_vorticity());
                    let local: Vec<_> = nodes.zip(state).map(|(i, (z, w))| (i, z, w)).collect();
                    mesh.comm().gather(0, &local).map(|mut all| {
                        all.sort_by_key(|&(i, ..)| i);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let z: Vec<_> = all.iter().flat_map(|(_, z, _)| bits(z)).collect();
                        let w: Vec<_> = all.iter().flat_map(|(_, _, w)| bits(w)).collect();
                        (z, w)
                    })
                });
                out.swap_remove(0).expect("rank 0 gathers the state")
            };
            let one = state_at(1);
            assert_eq!(one.0.len(), 3 * n * n);
            for p in 2..=9 {
                let (z, w) = state_at(p);
                assert!(z == one.0, "z at n={n}, {p} ranks");
                assert!(w == one.1, "w at n={n}, {p} ranks");
            }
        }
    }
}

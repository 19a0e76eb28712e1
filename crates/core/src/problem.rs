//! The `ProblemManager`: mesh state shared between solver components
//! (paper §3.1) — interface positions and vorticity on the surface mesh,
//! plus the halo/boundary refresh the derivative kernels rely on.

use beatnik_mesh::{BoundaryCondition, Field, SurfaceMesh};

/// Owns the evolving mesh state: position `z` (3 components) and
/// vorticity `w` (2 components) fields over one rank's block.
pub struct ProblemManager {
    mesh: SurfaceMesh,
    bc: BoundaryCondition,
    z: Field,
    w: Field,
}

impl ProblemManager {
    /// Wrap a mesh with zeroed state.
    pub fn new(mesh: SurfaceMesh, bc: BoundaryCondition) -> Self {
        if bc.is_periodic() {
            assert!(
                mesh.periodic() == [true, true],
                "periodic boundary condition requires a periodic mesh"
            );
        }
        let z = mesh.make_field(3);
        let w = mesh.make_field(2);
        ProblemManager { mesh, bc, z, w }
    }

    /// The underlying surface mesh.
    pub fn mesh(&self) -> &SurfaceMesh {
        &self.mesh
    }

    /// The boundary condition.
    pub fn bc(&self) -> &BoundaryCondition {
        &self.bc
    }

    /// Position field (3 components: x, y, z).
    pub fn z(&self) -> &Field {
        &self.z
    }

    /// Mutable position field.
    pub fn z_mut(&mut self) -> &mut Field {
        &mut self.z
    }

    /// Vorticity field (2 components: w1, w2).
    pub fn w(&self) -> &Field {
        &self.w
    }

    /// Mutable vorticity field.
    pub fn w_mut(&mut self) -> &mut Field {
        &mut self.w
    }

    /// Both fields mutably (RK stages update them together), with the
    /// mesh whose owned-block helpers write them.
    pub fn state_mut(&mut self) -> (&SurfaceMesh, &mut Field, &mut Field) {
        (&self.mesh, &mut self.z, &mut self.w)
    }

    /// Refresh halos and boundary ghosts of both state fields. Must be
    /// called before any stencil or geometry evaluation; collective.
    pub fn halo_all(&mut self) {
        self.mesh.halo_exchange(&mut self.z);
        self.bc.apply_position(&self.mesh, &mut self.z);
        self.mesh.halo_exchange(&mut self.w);
        self.bc.apply_field(&self.mesh, &mut self.w);
    }

    /// Halo-refresh an auxiliary scalar field consistently with the
    /// problem's boundary condition (used for `|V|²` in high order).
    pub fn halo_aux(&self, f: &mut Field) {
        self.mesh.halo_exchange(f);
        self.bc.apply_field(&self.mesh, f);
    }

    /// Owned node count on this rank.
    pub fn owned_count(&self) -> usize {
        self.mesh.owned_count()
    }

    /// Copy the owned positions in row-major owned order.
    pub fn owned_positions(&self) -> Vec<[f64; 3]> {
        self.mesh.owned_nodes(&self.z)
    }

    /// Copy the owned vorticity in row-major owned order.
    pub fn owned_vorticity(&self) -> Vec<[f64; 2]> {
        self.mesh.owned_nodes(&self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beatnik_comm::World;

    fn make(periodic: bool, comm: &beatnik_comm::Communicator) -> ProblemManager {
        let per = [periodic, periodic];
        let mesh = SurfaceMesh::new(comm, [8, 8], per, 2, [0.0, 0.0], [1.0, 1.0]);
        let bc = if periodic {
            BoundaryCondition::Periodic { periods: [1.0, 1.0] }
        } else {
            BoundaryCondition::Free
        };
        ProblemManager::new(mesh, bc)
    }

    #[test]
    fn state_shapes_match_mesh() {
        World::builder(4).run(|comm| {
            let pm = make(true, &comm);
            assert_eq!(pm.z().ncomp(), 3);
            assert_eq!(pm.w().ncomp(), 2);
            assert_eq!(pm.owned_count(), 16);
            assert_eq!(pm.owned_positions().len(), 16);
            assert_eq!(pm.owned_vorticity().len(), 16);
        });
    }

    #[test]
    fn halo_all_fills_position_ghosts_logically() {
        World::builder(4).run(|comm| {
            let mut pm = make(true, &comm);
            // Set z = reference coordinates.
            let coords: Vec<_> = pm.mesh().owned_indices().collect();
            for (lr, lc, gr, gc) in coords {
                let c = pm.mesh().coord_of(gr as i64, gc as i64);
                pm.z_mut().set_node(lr, lc, &[c[1], c[0], 0.0]);
            }
            pm.halo_all();
            // Ghost x positions just outside the left edge are negative.
            let [lr, _] = pm.mesh().local_shape();
            for r in 2..lr - 2 {
                let [gr, gc] = pm.mesh().global_of(r, 0);
                let want = pm.mesh().coord_of(gr, gc);
                assert!((pm.z().get(r, 0, 0) - want[1]).abs() < 1e-12);
                assert!((pm.z().get(r, 0, 1) - want[0]).abs() < 1e-12);
            }
        });
    }

    #[test]
    #[should_panic(expected = "requires a periodic mesh")]
    fn periodic_bc_on_open_mesh_rejected() {
        World::builder(1).run(|comm| {
            let mesh =
                SurfaceMesh::new(&comm, [8, 8], [false, false], 2, [0.0, 0.0], [1.0, 1.0]);
            let _ = ProblemManager::new(
                mesh,
                BoundaryCondition::Periodic { periods: [1.0, 1.0] },
            );
        });
    }
}

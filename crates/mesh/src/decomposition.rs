//! Abstraction over spatial ownership schemes.
//!
//! The paper's cutoff solver decomposes 3D space with a *uniform* 2D x/y
//! grid ([`crate::SpatialMesh`]) and notes (§6) that load-balancing
//! decompositions would add communication patterns worth benchmarking.
//! This trait lets the migration engine work with any ownership scheme;
//! [`crate::rcb::RcbDecomposition`] provides the balanced alternative.

use crate::spatial_mesh::SpatialMesh;

/// An assignment of 3D points to ranks by x/y position.
pub trait PointDecomposition: Send + Sync {
    /// Number of ranks/regions.
    fn ranks(&self) -> usize;
    /// The rank owning a point (out-of-domain points clamp to the
    /// nearest region).
    fn rank_of_point(&self, p: [f64; 3]) -> usize;
    /// Call `visit` with each rank whose region lies within the x/y
    /// square of half-width `cutoff` around `p` (including `p`'s own
    /// rank), in ascending order — the per-point form the halo step
    /// calls, which allocates nothing.
    fn for_each_rank_within(&self, p: [f64; 3], cutoff: f64, visit: &mut dyn FnMut(usize));
    /// The ranks [`PointDecomposition::for_each_rank_within`] visits,
    /// collected.
    fn ranks_within(&self, p: [f64; 3], cutoff: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_rank_within(p, cutoff, &mut |rank| out.push(rank));
        out
    }
}

impl PointDecomposition for SpatialMesh {
    fn ranks(&self) -> usize {
        SpatialMesh::ranks(self)
    }

    fn rank_of_point(&self, p: [f64; 3]) -> usize {
        SpatialMesh::rank_of_point(self, p)
    }

    fn for_each_rank_within(&self, p: [f64; 3], cutoff: f64, visit: &mut dyn FnMut(usize)) {
        SpatialMesh::for_each_rank_within(self, p, cutoff, visit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_mesh_satisfies_the_trait() {
        let m = SpatialMesh::new([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], [2, 2]);
        let d: &dyn PointDecomposition = &m;
        assert_eq!(d.ranks(), 4);
        assert_eq!(d.rank_of_point([-0.5, -0.5, 0.0]), 0);
        assert_eq!(d.ranks_within([0.0, 0.0, 0.0], 0.5).len(), 4);
    }
}

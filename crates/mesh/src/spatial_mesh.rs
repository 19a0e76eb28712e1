//! The 3D spatial mesh of the cutoff solver.
//!
//! Paper §3.2: the cutoff solver migrates surface points into a 3D
//! spatial domain decomposed over a **2D x/y rank grid** ("to mirror the
//! initial distribution of 2D surface points and reduce load imbalance"),
//! each rank owning an x/y box spanning the full z extent. This struct is
//! pure geometry — ownership and neighborhood queries derived from rank
//! indices — shared by the migration engine and the figure harnesses.


use beatnik_json::impl_json_struct;

/// A 3D axis-aligned domain decomposed over a `[Py, Px]` rank grid in
/// the x/y plane (rank = `iy * Px + ix`, matching `CartComm` row-major
/// ordering).
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialMesh {
    /// Domain lower corner `[x, y, z]`.
    pub lo: [f64; 3],
    /// Domain upper corner `[x, y, z]`.
    pub hi: [f64; 3],
    /// Rank-grid extents `[Py, Px]`.
    pub dims: [usize; 2],
}

impl_json_struct!(SpatialMesh { lo, hi, dims });

impl SpatialMesh {
    /// Create a mesh over `[lo, hi]` decomposed over `dims` ranks.
    pub fn new(lo: [f64; 3], hi: [f64; 3], dims: [usize; 2]) -> Self {
        assert!(dims[0] > 0 && dims[1] > 0, "spatial mesh needs ranks");
        for d in 0..3 {
            assert!(hi[d] > lo[d], "spatial mesh: empty extent in dim {d}");
        }
        SpatialMesh { lo, hi, dims }
    }

    /// Total ranks in the decomposition.
    pub fn ranks(&self) -> usize {
        self.dims[0] * self.dims[1]
    }

    #[inline]
    fn bin(&self, v: f64, axis: usize, parts: usize) -> usize {
        let t = (v - self.lo[axis]) / (self.hi[axis] - self.lo[axis]);
        // Points outside the domain are clamped to the edge bins, so
        // every point always has an owner (the interface can drift
        // slightly outside the nominal box as it evolves).
        // (The cast truncates where `floor` would round down, which the
        // clamp at 0 makes the same bin without a libm call per point.)
        ((t * parts as f64) as i64).clamp(0, parts as i64 - 1) as usize
    }

    /// The rank owning a point (by x/y position; z is ignored).
    pub fn rank_of_point(&self, p: [f64; 3]) -> usize {
        let iy = self.bin(p[1], 1, self.dims[0]);
        let ix = self.bin(p[0], 0, self.dims[1]);
        iy * self.dims[1] + ix
    }

    /// The x/y box owned by `rank`: `([x0, y0], [x1, y1])`.
    pub fn region_of(&self, rank: usize) -> ([f64; 2], [f64; 2]) {
        assert!(rank < self.ranks(), "rank out of range");
        let iy = rank / self.dims[1];
        let ix = rank % self.dims[1];
        let wx = (self.hi[0] - self.lo[0]) / self.dims[1] as f64;
        let wy = (self.hi[1] - self.lo[1]) / self.dims[0] as f64;
        (
            [self.lo[0] + ix as f64 * wx, self.lo[1] + iy as f64 * wy],
            [
                self.lo[0] + (ix + 1) as f64 * wx,
                self.lo[1] + (iy + 1) as f64 * wy,
            ],
        )
    }

    /// Call `visit` with every rank whose region intersects the x/y
    /// square of half-width `cutoff` around `p` (including `p`'s own
    /// rank), in ascending order. This is the halo destination set of
    /// the cutoff solver.
    pub fn for_each_rank_within(&self, p: [f64; 3], cutoff: f64, mut visit: impl FnMut(usize)) {
        assert!(cutoff >= 0.0, "negative cutoff");
        let x0 = self.bin(p[0] - cutoff, 0, self.dims[1]);
        let x1 = self.bin(p[0] + cutoff, 0, self.dims[1]);
        let y0 = self.bin(p[1] - cutoff, 1, self.dims[0]);
        let y1 = self.bin(p[1] + cutoff, 1, self.dims[0]);
        for iy in y0..=y1 {
            for ix in x0..=x1 {
                visit(iy * self.dims[1] + ix);
            }
        }
    }

    /// The ranks [`SpatialMesh::for_each_rank_within`] visits, collected.
    pub fn ranks_within(&self, p: [f64; 3], cutoff: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_rank_within(p, cutoff, |rank| out.push(rank));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh4() -> SpatialMesh {
        // Paper's high-order domain: (-3,-3,-3) to (3,3,3).
        SpatialMesh::new([-3.0, -3.0, -3.0], [3.0, 3.0, 3.0], [2, 2])
    }

    #[test]
    fn ownership_covers_quadrants() {
        let m = mesh4();
        assert_eq!(m.rank_of_point([-1.0, -1.0, 0.0]), 0);
        assert_eq!(m.rank_of_point([1.0, -1.0, 2.0]), 1);
        assert_eq!(m.rank_of_point([-1.0, 1.0, -2.0]), 2);
        assert_eq!(m.rank_of_point([1.0, 1.0, 0.0]), 3);
    }

    #[test]
    fn out_of_domain_points_clamp_to_edges() {
        let m = mesh4();
        assert_eq!(m.rank_of_point([-100.0, -100.0, 0.0]), 0);
        assert_eq!(m.rank_of_point([100.0, 100.0, 0.0]), 3);
        assert_eq!(m.rank_of_point([0.0, 100.0, 0.0]), 2 + 1); // y high, x in upper half of split at 0
    }

    #[test]
    fn regions_tile_the_domain() {
        let m = SpatialMesh::new([-3.0, -3.0, -3.0], [3.0, 3.0, 3.0], [3, 4]);
        let mut area = 0.0;
        for r in 0..m.ranks() {
            let (lo, hi) = m.region_of(r);
            area += (hi[0] - lo[0]) * (hi[1] - lo[1]);
            // The region's center must be owned by r.
            let c = [(lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0, 0.0];
            assert_eq!(m.rank_of_point(c), r);
        }
        assert!((area - 36.0).abs() < 1e-9);
    }

    #[test]
    fn ranks_within_cutoff_includes_all_overlapping_regions() {
        let m = mesh4();
        // Point near the center: within 0.5 of all four quadrants.
        let near_center = m.ranks_within([-0.1, -0.1, 0.0], 0.5);
        assert_eq!(near_center, vec![0, 1, 2, 3]);
        // Point deep inside quadrant 0: only its own rank.
        let deep = m.ranks_within([-2.0, -2.0, 0.0], 0.5);
        assert_eq!(deep, vec![0]);
        // Zero cutoff: own rank only.
        assert_eq!(m.ranks_within([-0.1, -0.1, 0.0], 0.0), vec![0]);
    }

    #[test]
    fn ranks_within_is_conservative_vs_brute_force() {
        let m = SpatialMesh::new([-3.0, -3.0, -3.0], [3.0, 3.0, 3.0], [4, 4]);
        let cutoff = 0.7;
        for &p in &[
            [-2.9f64, -2.9, 0.0],
            [0.0, 0.0, 1.0],
            [2.9, -0.3, 0.0],
            [1.4, 1.6, -2.0],
        ] {
            let fast = m.ranks_within(p, cutoff);
            // Brute force: a rank is needed if its region's nearest x/y
            // point to p is within the cutoff square.
            for r in 0..m.ranks() {
                let (lo, hi) = m.region_of(r);
                let dx = (lo[0] - p[0]).max(p[0] - hi[0]).max(0.0);
                let dy = (lo[1] - p[1]).max(p[1] - hi[1]).max(0.0);
                let needed = dx <= cutoff && dy <= cutoff;
                let included = fast.contains(&r);
                if needed {
                    assert!(included, "rank {r} missing for point {p:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty extent")]
    fn degenerate_domain_rejected() {
        let _ = SpatialMesh::new([0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1, 1]);
    }
}

//! Uniform-grid (cell-list) neighbor search.
//!
//! Points are binned by [`CellBins`] into cubic cells whose edge is at
//! least the query radius, so every neighbor of a query point lies in
//! the 3×3×3 block of cells around it. Build is O(n); a query touches
//! only nearby points.

use crate::cells::CellBins;
use crate::dist2;

/// A cell-list acceleration structure over a fixed point set.
pub struct UniformGrid {
    points: Vec<[f64; 3]>,
    bins: CellBins,
}

impl UniformGrid {
    /// Build over `points` for queries of radius ≤ `radius`.
    ///
    /// # Panics
    /// Panics on a non-positive radius. An empty point set is fine.
    pub fn build(points: Vec<[f64; 3]>, radius: f64) -> Self {
        let bins = CellBins::build(points.iter().copied(), radius);
        UniformGrid { points, bins }
    }

    /// The indexed points.
    pub fn points(&self) -> &[[f64; 3]] {
        &self.points
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the structure holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Indices of all points within `radius` of `q` (excluding none —
    /// a query point that is itself indexed will appear; callers filter).
    ///
    /// `radius` must not exceed the build radius.
    pub fn query(&self, q: [f64; 3], radius: f64, out: &mut Vec<u32>) {
        out.clear();
        if self.points.is_empty() {
            return;
        }
        assert!(
            radius <= self.bins.cell() * (1.0 + 1e-12),
            "query radius {radius} exceeds build radius {}",
            self.bins.cell()
        );
        let r2 = radius * radius;
        for run in self.bins.runs(q, radius) {
            for &pi in &self.bins.order()[run] {
                if dist2(self.points[pi as usize], q) <= r2 {
                    out.push(pi);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize) -> Vec<[f64; 3]> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                [
                    (t * 0.731).fract() * 4.0 - 2.0,
                    (t * 0.317).fract() * 4.0 - 2.0,
                    (t * 0.113).fract() * 2.0 - 1.0,
                ]
            })
            .collect()
    }

    #[test]
    fn query_matches_brute_force() {
        let pts = cloud(300);
        let r = 0.5;
        let grid = UniformGrid::build(pts.clone(), r);
        let mut found = Vec::new();
        for (qi, q) in pts.iter().enumerate().step_by(17) {
            grid.query(*q, r, &mut found);
            let mut got: Vec<u32> = found.clone();
            got.sort_unstable();
            let mut want: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| dist2(**p, *q) <= r * r)
                .map(|(i, _)| i as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "query {qi}");
            assert!(got.contains(&(qi as u32)), "self not found");
        }
    }

    #[test]
    fn smaller_query_radius_is_allowed() {
        let pts = cloud(100);
        let grid = UniformGrid::build(pts.clone(), 1.0);
        let mut a = Vec::new();
        grid.query(pts[0], 0.3, &mut a);
        let want = pts.iter().filter(|p| dist2(**p, pts[0]) <= 0.09).count();
        assert_eq!(a.len(), want);
    }

    #[test]
    #[should_panic(expected = "exceeds build radius")]
    fn oversized_query_radius_panics() {
        let grid = UniformGrid::build(cloud(10), 0.5);
        let mut out = Vec::new();
        grid.query([0.0; 3], 1.0, &mut out);
    }

    #[test]
    fn empty_and_singleton_sets() {
        let empty = UniformGrid::build(Vec::new(), 0.5);
        assert!(empty.is_empty());
        let mut out = vec![7u32];
        empty.query([0.0; 3], 0.5, &mut out);
        assert!(out.is_empty());

        let one = UniformGrid::build(vec![[1.0, 1.0, 1.0]], 0.5);
        assert_eq!(one.len(), 1);
        one.query([1.1, 1.0, 1.0], 0.5, &mut out);
        assert_eq!(out, vec![0]);
        one.query([2.0, 2.0, 2.0], 0.5, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn coincident_points_all_found() {
        let pts = vec![[0.5, 0.5, 0.5]; 8];
        let grid = UniformGrid::build(pts, 0.25);
        let mut out = Vec::new();
        grid.query([0.5, 0.5, 0.5], 0.25, &mut out);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn boundary_points_at_exact_radius_are_included() {
        let pts = vec![[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]];
        let grid = UniformGrid::build(pts, 0.5);
        let mut out = Vec::new();
        grid.query([0.0; 3], 0.5, &mut out);
        assert_eq!(out.len(), 2);
    }
}

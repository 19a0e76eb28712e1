//! Recursive coordinate bisection: a load-balanced spatial decomposition.
//!
//! Splits the x/y domain into `ranks` rectangles so that each holds
//! (nearly) the same number of the *current* points: recursively cut the
//! longest axis at the weighted point quantile. As the interface rolls
//! up, rebuilding the RCB keeps per-rank point counts flat where the
//! paper's uniform grid develops the Figure-7 imbalance — exactly the
//! "load balancing communication steps" the paper's future-work section
//! wants to benchmark.

use crate::decomposition::PointDecomposition;
use beatnik_comm::Communicator;

/// An RCB decomposition: `ranks` axis-aligned x/y rectangles tiling the
/// domain.
#[derive(Debug, Clone)]
pub struct RcbDecomposition {
    /// Leaf rectangles `([x0, y0], [x1, y1])`, indexed by rank.
    regions: Vec<([f64; 2], [f64; 2])>,
}

impl RcbDecomposition {
    /// Build from point x/y positions over the rectangle `lo..hi`.
    /// `ranks` regions are produced even when points are few or
    /// degenerate (empty splits fall back to area bisection).
    pub fn build(points: &[[f64; 3]], ranks: usize, lo: [f64; 2], hi: [f64; 2]) -> Self {
        assert!(ranks > 0, "rcb: need at least one region");
        assert!(hi[0] > lo[0] && hi[1] > lo[1], "rcb: empty domain");
        let mut xy: Vec<[f64; 2]> = points
            .iter()
            .map(|p| {
                [
                    p[0].clamp(lo[0], hi[0]),
                    p[1].clamp(lo[1], hi[1]),
                ]
            })
            .collect();
        let mut regions = Vec::with_capacity(ranks);
        split(&mut xy, ranks, lo, hi, &mut regions);
        debug_assert_eq!(regions.len(), ranks);
        RcbDecomposition { regions }
    }

    /// Collective build: allgather every rank's point positions so all
    /// ranks construct the identical decomposition. (At benchmark scale
    /// the full gather is what the load-balance *communication step*
    /// costs; production codes would sample.)
    pub fn build_distributed(
        comm: &Communicator,
        local_points: &[[f64; 3]],
        ranks: usize,
        lo: [f64; 2],
        hi: [f64; 2],
    ) -> Self {
        let all: Vec<[f64; 3]> = comm.allgather(local_points);
        Self::build(&all, ranks, lo, hi)
    }

    /// The region rectangle of a rank.
    pub fn region_of(&self, rank: usize) -> ([f64; 2], [f64; 2]) {
        self.regions[rank]
    }

    fn dist2_to_region(&self, rank: usize, p: [f64; 3]) -> f64 {
        let (lo, hi) = self.regions[rank];
        let dx = (lo[0] - p[0]).max(p[0] - hi[0]).max(0.0);
        let dy = (lo[1] - p[1]).max(p[1] - hi[1]).max(0.0);
        dx * dx + dy * dy
    }
}

/// Recursive splitter: cut `rect` into `parts` regions balanced over
/// `pts` (which is consumed/partitioned in place).
fn split(
    pts: &mut [[f64; 2]],
    parts: usize,
    lo: [f64; 2],
    hi: [f64; 2],
    out: &mut Vec<([f64; 2], [f64; 2])>,
) {
    if parts == 1 {
        out.push((lo, hi));
        return;
    }
    let left_parts = parts / 2;
    let frac = left_parts as f64 / parts as f64;
    // Cut the longer axis.
    let axis = if hi[0] - lo[0] >= hi[1] - lo[1] { 0 } else { 1 };

    let cut = if pts.is_empty() {
        // No guidance: bisect by area fraction.
        lo[axis] + (hi[axis] - lo[axis]) * frac
    } else {
        let k = ((pts.len() as f64 * frac) as usize).clamp(1, pts.len() - 1).min(pts.len() - 1);
        pts.sort_unstable_by(|a, b| a[axis].total_cmp(&b[axis]));
        // Cut between the k-1th and kth points, clamped strictly inside
        // the rectangle so every region keeps positive area.
        let c = (pts[k - 1][axis] + pts[k][axis]) / 2.0;
        let span = hi[axis] - lo[axis];
        c.clamp(lo[axis] + 1e-9 * span, hi[axis] - 1e-9 * span)
    };

    let idx = pts.partition_point(|p| p[axis] <= cut);
    let (left_pts, right_pts) = pts.split_at_mut(idx);
    let mut l_hi = hi;
    l_hi[axis] = cut;
    let mut r_lo = lo;
    r_lo[axis] = cut;
    split(left_pts, left_parts, lo, l_hi, out);
    split(right_pts, parts - left_parts, r_lo, hi, out);
}

impl PointDecomposition for RcbDecomposition {
    fn ranks(&self) -> usize {
        self.regions.len()
    }

    fn rank_of_point(&self, p: [f64; 3]) -> usize {
        // Nearest region (distance 0 when inside); robust for points that
        // drift outside the nominal domain.
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for r in 0..self.regions.len() {
            let d = self.dist2_to_region(r, p);
            if d < best_d {
                best_d = d;
                best = r;
                if d == 0.0 {
                    break;
                }
            }
        }
        best
    }

    fn for_each_rank_within(&self, p: [f64; 3], cutoff: f64, visit: &mut dyn FnMut(usize)) {
        let c2 = cutoff * cutoff;
        // The owner is always among them, even for cutoff = 0.
        let own = self.rank_of_point(p);
        for r in 0..self.regions.len() {
            if r == own || self.dist2_to_region(r, p) <= c2 * 2.0 + 1e-300 {
                visit(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered(n: usize) -> Vec<[f64; 3]> {
        // 80% of points in a tight cluster, 20% spread out.
        (0..n)
            .map(|i| {
                let t = i as f64;
                if i % 5 != 0 {
                    [
                        0.5 + (t * 0.173).fract() * 0.4,
                        -0.7 + (t * 0.311).fract() * 0.4,
                        0.0,
                    ]
                } else {
                    [
                        -3.0 + (t * 0.737).fract() * 6.0,
                        -3.0 + (t * 0.419).fract() * 6.0,
                        0.0,
                    ]
                }
            })
            .collect()
    }

    fn counts(d: &RcbDecomposition, pts: &[[f64; 3]]) -> Vec<usize> {
        let mut c = vec![0usize; d.ranks()];
        for p in pts {
            c[d.rank_of_point(*p)] += 1;
        }
        c
    }

    #[test]
    fn regions_tile_the_domain() {
        let pts = clustered(500);
        for ranks in [1usize, 2, 3, 4, 7, 16] {
            let d = RcbDecomposition::build(&pts, ranks, [-3.0, -3.0], [3.0, 3.0]);
            assert_eq!(d.ranks(), ranks);
            let area: f64 = (0..ranks)
                .map(|r| {
                    let (lo, hi) = d.region_of(r);
                    assert!(hi[0] > lo[0] && hi[1] > lo[1], "degenerate region {r}");
                    (hi[0] - lo[0]) * (hi[1] - lo[1])
                })
                .sum();
            assert!((area - 36.0).abs() < 1e-6, "ranks={ranks} area={area}");
        }
    }

    #[test]
    fn balances_clustered_points() {
        let pts = clustered(1000);
        let d = RcbDecomposition::build(&pts, 16, [-3.0, -3.0], [3.0, 3.0]);
        let c = counts(&d, &pts);
        let max = *c.iter().max().unwrap() as f64;
        let mean = 1000.0 / 16.0;
        assert!(
            max / mean < 1.35,
            "rcb imbalance {} too high: {c:?}",
            max / mean
        );

        // The uniform grid on the same points is badly imbalanced.
        let uniform = crate::SpatialMesh::new(
            [-3.0, -3.0, -1.0],
            [3.0, 3.0, 1.0],
            [4, 4],
        );
        let mut uc = vec![0usize; 16];
        for p in &pts {
            uc[crate::decomposition::PointDecomposition::rank_of_point(&uniform, *p)] += 1;
        }
        let umax = *uc.iter().max().unwrap() as f64;
        assert!(umax / mean > 3.0, "uniform should be imbalanced: {uc:?}");
    }

    #[test]
    fn every_point_lands_in_a_region_containing_it() {
        let pts = clustered(300);
        let d = RcbDecomposition::build(&pts, 8, [-3.0, -3.0], [3.0, 3.0]);
        for p in &pts {
            let r = d.rank_of_point(*p);
            assert_eq!(d.dist2_to_region(r, *p), 0.0, "{p:?} not inside its region");
        }
        // Out-of-domain points clamp to the nearest region.
        let far = d.rank_of_point([100.0, 100.0, 0.0]);
        assert!(far < 8);
    }

    #[test]
    fn ranks_within_is_conservative() {
        let pts = clustered(400);
        let d = RcbDecomposition::build(&pts, 9, [-3.0, -3.0], [3.0, 3.0]);
        let cutoff = 0.6;
        for p in pts.iter().step_by(23) {
            let within = d.ranks_within(*p, cutoff);
            assert!(within.contains(&d.rank_of_point(*p)));
            for r in 0..9 {
                if d.dist2_to_region(r, *p).sqrt() <= cutoff {
                    assert!(within.contains(&r), "missing region {r} for {p:?}");
                }
            }
        }
        assert_eq!(d.ranks_within(pts[0], 0.0), vec![d.rank_of_point(pts[0])]);
    }

    #[test]
    fn empty_point_set_falls_back_to_area_bisection() {
        let d = RcbDecomposition::build(&[], 4, [0.0, 0.0], [2.0, 1.0]);
        assert_eq!(d.ranks(), 4);
        // Area-bisected: each region has area 0.5.
        for r in 0..4 {
            let (lo, hi) = d.region_of(r);
            assert!(((hi[0] - lo[0]) * (hi[1] - lo[1]) - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn coincident_points_do_not_break_the_build() {
        let pts = vec![[0.1, 0.1, 0.0]; 64];
        let d = RcbDecomposition::build(&pts, 8, [-1.0, -1.0], [1.0, 1.0]);
        assert_eq!(d.ranks(), 8);
        // All points land somewhere valid.
        let c = counts(&d, &pts);
        assert_eq!(c.iter().sum::<usize>(), 64);
    }
}

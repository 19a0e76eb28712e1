//! Counting-sort binning of points into cubic cells — the one binning
//! routine under the cutoff BR solver's pair pass and the explicit
//! [`crate::NeighborList`].
//!
//! Cells are at least `radius` wide and are numbered x-fastest, so the
//! points of the cells `x0..=x1` of one (y, z) row occupy one contiguous
//! range of sorted slots: everything within `radius` of a query lies in
//! at most nine such runs. The cover is symmetric — if `p` is within
//! `radius` of `q`, each lies in the other's runs — and a run is a slot
//! range, so a caller that walks every sorted point as a query can clip
//! its runs to the slots after its own and meet each close pair once
//! (the cutoff solver's half cover).

use std::ops::Range;

/// Cell id of a point that is binned nowhere.
const UNBINNED: u32 = u32::MAX;

/// A fixed point set sorted into cells.
#[derive(Debug)]
pub struct CellBins {
    lo: [f64; 3],
    /// Cell edge length (≥ the radius the bins were built for).
    cell: f64,
    /// Cells per axis.
    dims: [usize; 3],
    /// CSR cell → first sorted slot, length `cells + 1`.
    start: Vec<u32>,
    /// Sorted slot → index of the point in the input order.
    order: Vec<u32>,
}

impl CellBins {
    /// Bin `points` for queries of radius ≤ `radius`.
    ///
    /// The cell edge starts at `radius` and grows until there are O(n)
    /// cells, so far-apart points cost memory proportional to their
    /// number, not to the volume between them. Points with a NaN or
    /// infinite coordinate are binned nowhere: they are within `radius`
    /// of nothing.
    ///
    /// # Panics
    /// Panics on a non-positive radius or more than `u32::MAX` points.
    pub fn build(points: impl Iterator<Item = [f64; 3]> + Clone, radius: f64) -> Self {
        assert!(radius > 0.0, "cell binning requires a positive radius");
        let finite = |p: &[f64; 3]| p.iter().all(|c| c.is_finite());
        let (mut lo, mut hi) = ([f64::INFINITY; 3], [f64::NEG_INFINITY; 3]);
        let mut n = 0usize;
        for p in points.clone() {
            n += 1;
            if finite(&p) {
                for d in 0..3 {
                    lo[d] = lo[d].min(p[d]);
                    hi[d] = hi[d].max(p[d]);
                }
            }
        }
        assert!(
            n < UNBINNED as usize,
            "cell binning indexes points with u32"
        );
        if lo[0] > hi[0] {
            (lo, hi) = ([0.0; 3], [0.0; 3]);
        }

        // An extent that overflows to ∞ ends with `cell` = ∞ and every
        // point in the one cell 0 (∞/∞ is NaN, which `max` drops).
        let max_cells = (4 * n + 64) as f64;
        let mut cell = radius;
        let dims = loop {
            let per_axis = [0, 1, 2].map(|d| ((hi[d] - lo[d]) / cell).ceil().max(1.0));
            let cells = per_axis[0] * per_axis[1] * per_axis[2];
            if cells <= max_cells {
                break per_axis.map(|c| c as usize);
            }
            cell *= (cells / max_cells).cbrt().max(1.25);
        };
        let mut bins = CellBins {
            lo,
            cell,
            dims,
            start: Vec::new(),
            order: Vec::new(),
        };

        let mut start = vec![0u32; dims[0] * dims[1] * dims[2] + 1];
        let cell_of: Vec<u32> = points
            .map(|p| {
                if !finite(&p) {
                    return UNBINNED;
                }
                let [x, y, z] = [0, 1, 2].map(|d| bins.coord(p[d], d));
                let c = (z * dims[1] + y) * dims[0] + x;
                start[c + 1] += 1;
                c as u32
            })
            .collect();
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let mut cursor = start.clone();
        bins.order = vec![0; start[start.len() - 1] as usize];
        for (i, &c) in cell_of.iter().enumerate() {
            if c != UNBINNED {
                bins.order[cursor[c as usize] as usize] = i as u32;
                cursor[c as usize] += 1;
            }
        }
        bins.start = start;
        bins
    }

    /// Cell coordinate of `v` along axis `d`, clamped into the grid (the
    /// float-to-int cast saturates and sends NaN to 0). Monotone in `v`,
    /// which is what makes [`CellBins::runs`] exact.
    #[inline]
    fn coord(&self, v: f64, d: usize) -> usize {
        (((v - self.lo[d]) / self.cell) as usize).min(self.dims[d] - 1)
    }

    /// Cell edge length: the largest radius [`CellBins::runs`] answers in
    /// at most nine runs.
    pub fn cell(&self) -> f64 {
        self.cell
    }

    /// Input index of the point in each sorted slot, cell by cell.
    /// Non-finite points have no slot.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Contiguous ranges of sorted slots that together hold every binned
    /// point within `radius` of `q` — and others besides: callers test
    /// distances. Any radius is answered; one ≤ [`CellBins::cell`] takes
    /// at most nine runs.
    pub fn runs(&self, q: [f64; 3], radius: f64) -> impl Iterator<Item = Range<usize>> + '_ {
        // `coord` is monotone, so a point p with |p − q| ≤ radius has
        // coord(q − radius) ≤ coord(p) ≤ coord(q + radius) on each axis,
        // rounding included.
        let c0 = [0, 1, 2].map(|d| self.coord(q[d] - radius, d));
        let c1 = [0, 1, 2].map(|d| self.coord(q[d] + radius, d));
        (c0[2]..=c1[2]).flat_map(move |z| {
            (c0[1]..=c1[1]).map(move |y| {
                let row = (z * self.dims[1] + y) * self.dims[0];
                self.start[row + c0[0]] as usize..self.start[row + c1[0] + 1] as usize
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist2;

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

    fn within(bins: &CellBins, pts: &[[f64; 3]], q: [f64; 3], r: f64) -> Vec<u32> {
        let mut got: Vec<u32> = bins
            .runs(q, r)
            .flat_map(|run| bins.order()[run].to_vec())
            .filter(|&i| dist2(pts[i as usize], q) <= r * r)
            .collect();
        got.sort_unstable();
        got
    }

    fn brute(pts: &[[f64; 3]], q: [f64; 3], r: f64) -> Vec<u32> {
        (0..pts.len() as u32)
            .filter(|&i| dist2(pts[i as usize], q) <= r * r)
            .collect()
    }

    #[test]
    fn order_is_a_permutation_sorted_by_cell() {
        let pts = cloud(200);
        let bins = CellBins::build(pts.iter().copied(), 0.5);
        let mut seen = bins.order().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<u32>>());
        assert_eq!(*bins.start.last().unwrap(), 200);
        assert!(bins.start.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn runs_cover_every_neighbour_in_at_most_nine_ranges() {
        let pts = cloud(300);
        let r = 0.5;
        let bins = CellBins::build(pts.iter().copied(), r);
        for q in pts.iter().step_by(7) {
            assert!(bins.runs(*q, r).count() <= 9);
            assert_eq!(within(&bins, &pts, *q, r), brute(&pts, *q, r));
        }
        // Queries outside the bounding box, and a wider radius.
        for q in [[-9.0, 0.0, 0.0], [2.2, 2.2, 1.2], [0.0, 0.0, 50.0]] {
            assert_eq!(within(&bins, &pts, q, r), brute(&pts, q, r));
            assert_eq!(within(&bins, &pts, q, 3.0), brute(&pts, q, 3.0));
        }
    }

    #[test]
    fn far_apart_points_grow_the_cell_instead_of_the_table() {
        // Volume / radius³ is 1e21 cells; the table must stay O(points).
        let pts = vec![[0.0; 3], [1e5, 1e5, 1e5], [1e5, 1e5, 1e5 + 5e-3]];
        let bins = CellBins::build(pts.iter().copied(), 1e-2);
        assert!(bins.start.len() <= 4 * pts.len() + 65);
        assert!(bins.cell() >= 1e-2);
        assert_eq!(within(&bins, &pts, pts[0], 1e-2), vec![0]);
        assert_eq!(within(&bins, &pts, pts[1], 1e-2), vec![1, 2]);
    }

    #[test]
    fn extent_overflow_falls_back_to_one_cell() {
        let pts = vec![[-1e308, 0.0, 0.0], [1e308, 0.0, 0.0], [1e308, 0.5, 0.0]];
        let bins = CellBins::build(pts.iter().copied(), 1.0);
        assert_eq!(bins.dims, [1, 1, 1]);
        assert_eq!(within(&bins, &pts, pts[1], 1.0), vec![1, 2]);
    }

    #[test]
    fn non_finite_points_are_binned_nowhere() {
        let mut pts = cloud(20);
        pts[3][1] = f64::NAN;
        pts[11][0] = f64::INFINITY;
        pts[12][2] = f64::NEG_INFINITY;
        let bins = CellBins::build(pts.iter().copied(), 0.5);
        assert_eq!(bins.order().len(), 17);
        assert!(bins.order().iter().all(|i| ![3, 11, 12].contains(i)));
        // And a non-finite query finds nothing, without panicking.
        for q in [pts[3], pts[11], pts[12]] {
            assert!(within(&bins, &pts, q, 0.5).is_empty());
        }
        let none = CellBins::build([[f64::NAN; 3]].into_iter(), 0.5);
        assert!(none.order().is_empty());
        assert_eq!(none.runs([0.0; 3], 0.5).map(|r| r.len()).sum::<usize>(), 0);
    }

    #[test]
    #[should_panic(expected = "positive radius")]
    fn zero_radius_rejected() {
        let _ = CellBins::build(std::iter::empty(), 0.0);
    }
}

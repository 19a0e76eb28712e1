//! CSR neighbor lists — the explicit form of a fixed-radius search.
//!
//! For each *target* point, the list holds the indices of all *source*
//! points within the cutoff radius. Targets are typically a rank's owned
//! points; sources are owned + ghost points delivered by the halo. The
//! cutoff BR solver evaluates the same pairs straight from
//! [`crate::CellBins`] without building a list; the list is what
//! diagnostics, benchmarks and the brute-force comparison read.

use crate::cells::CellBins;
use crate::dist2;

/// What proposes a target's neighbours. Cell binning is the only
/// search; the type stays because the `benchmark` crate still passes it
/// to [`NeighborList::build`] and the cutoff BR solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Cell-list binning (ArborX-style).
    #[default]
    Grid,
}

/// Compressed sparse-row neighbor lists: neighbors of target `t` are
/// `indices[offsets[t]..offsets[t+1]]`, indexing the *source* set.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborList {
    /// CSR row offsets, length `targets + 1`.
    pub offsets: Vec<usize>,
    /// Concatenated neighbor indices into the source set.
    pub indices: Vec<u32>,
}

impl NeighborList {
    /// Every source within `radius` (inclusive) of each target, found by
    /// binning the sources into [`CellBins`]. Each row is sorted.
    ///
    /// # Panics
    /// Panics on a non-positive radius.
    pub fn build(
        targets: &[[f64; 3]],
        sources: &[[f64; 3]],
        radius: f64,
        _backend: Backend,
    ) -> Self {
        let bins = CellBins::build(sources.iter().copied(), radius);
        let r2 = radius * radius;
        let mut offsets = Vec::with_capacity(targets.len() + 1);
        offsets.push(0);
        let mut indices = Vec::new();
        for &t in targets {
            let row = indices.len();
            for run in bins.runs(t, radius) {
                for &si in &bins.order()[run] {
                    if dist2(sources[si as usize], t) <= r2 {
                        indices.push(si);
                    }
                }
            }
            indices[row..].sort_unstable();
            offsets.push(indices.len());
        }
        NeighborList { offsets, indices }
    }

    /// Number of target points.
    pub fn num_targets(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbor indices of target `t`.
    pub fn neighbors(&self, t: usize) -> &[u32] {
        &self.indices[self.offsets[t]..self.offsets[t + 1]]
    }

    /// Total neighbor pairs (the cutoff solver's work measure).
    pub fn total_pairs(&self) -> usize {
        self.indices.len()
    }

    /// Maximum neighbors over targets (load-imbalance indicator).
    pub fn max_degree(&self) -> usize {
        (0..self.num_targets())
            .map(|t| self.neighbors(t).len())
            .max()
            .unwrap_or(0)
    }
}

/// O(targets × sources) reference implementation.
pub fn brute_force_neighbors(
    targets: &[[f64; 3]],
    sources: &[[f64; 3]],
    radius: f64,
) -> NeighborList {
    let r2 = radius * radius;
    let mut offsets = Vec::with_capacity(targets.len() + 1);
    offsets.push(0);
    let mut indices = Vec::new();
    for &t in targets {
        for (i, &s) in sources.iter().enumerate() {
            if dist2(t, s) <= r2 {
                indices.push(i as u32);
            }
        }
        offsets.push(indices.len());
    }
    NeighborList { offsets, indices }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize, seed: f64) -> Vec<[f64; 3]> {
        (0..n)
            .map(|i| {
                let t = i as f64 + seed;
                [
                    (t * 0.437).fract() * 4.0 - 2.0,
                    (t * 0.911).fract() * 4.0 - 2.0,
                    (t * 0.269).fract() * 1.0 - 0.5,
                ]
            })
            .collect()
    }

    #[test]
    fn backends_match_brute_force() {
        let targets = cloud(80, 0.0);
        let sources = cloud(150, 100.0);
        let r = 0.6;
        let want = brute_force_neighbors(&targets, &sources, r);
        let got = NeighborList::build(&targets, &sources, r, Backend::Grid);
        assert_eq!(got, want);
    }

    #[test]
    fn csr_shape_invariants() {
        let targets = cloud(50, 3.0);
        let sources = cloud(70, 7.0);
        let nl = NeighborList::build(&targets, &sources, 0.5, Backend::Grid);
        assert_eq!(nl.num_targets(), 50);
        assert_eq!(*nl.offsets.last().unwrap(), nl.indices.len());
        assert!(nl.offsets.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(nl.total_pairs(), nl.indices.len());
        assert!(nl.max_degree() <= 70);
    }

    #[test]
    fn identical_target_source_sets_include_self() {
        let pts = cloud(40, 0.0);
        let nl = NeighborList::build(&pts, &pts, 0.4, Backend::Grid);
        for t in 0..pts.len() {
            assert!(nl.neighbors(t).contains(&(t as u32)), "target {t}");
        }
    }

    #[test]
    fn far_apart_points_do_not_size_the_grid_by_volume() {
        // 1e21 radius-sized cells between them: the grid used to allocate
        // by volume and panic with `capacity overflow`.
        let pts = [[0.0; 3], [1e5, 1e5, 1e5], [1e5, 1e5, 1e5 + 5e-3]];
        let want = brute_force_neighbors(&pts, &pts, 1e-2);
        assert_eq!(want.indices, [0, 1, 2, 1, 2]);
        assert_eq!(NeighborList::build(&pts, &pts, 1e-2, Backend::Grid), want);
    }

    #[test]
    fn non_finite_points_are_neighbours_of_nothing() {
        let mut pts = cloud(30, 0.0);
        pts[4][0] = f64::NAN;
        pts[9][1] = f64::INFINITY;
        pts[17][2] = f64::NEG_INFINITY;
        let want = brute_force_neighbors(&pts, &pts, 0.8);
        for bad in [4, 9, 17] {
            assert!(want.neighbors(bad).is_empty());
            assert!(!want.indices.contains(&(bad as u32)));
        }
        assert_eq!(NeighborList::build(&pts, &pts, 0.8, Backend::Grid), want);
    }

    #[test]
    fn awkward_clouds_match_brute_force_row_for_row() {
        // A 5×5×3 lattice of spacing 0.25 with radius 0.25: the cell edge
        // is exactly the radius, every lattice point sits on a cell
        // boundary, and each axis neighbour is exactly at the radius.
        let lattice: Vec<[f64; 3]> = (0..75)
            .map(|i| [(i % 5) as f64, (i / 5 % 5) as f64, (i / 25) as f64].map(|c| c * 0.25))
            .collect();
        // A cloud whose bins start at 0 with cell edge 0.5, plus points
        // on the boundaries of those cells, a coincident pair and a
        // target far outside.
        let mut sources: Vec<[f64; 3]> = cloud(40, 5.0)
            .into_iter()
            .map(|p| p.map(|c| c * 0.5 + 1.0))
            .collect();
        sources.extend([[0.0; 3], [0.5, 0.5, 0.5], [1.0, 0.5, 0.0], [1.0, 0.5, 0.0]]);
        let mut targets = sources.clone();
        targets.push([9.0, 9.0, 9.0]);
        let one = [[1.0, 0.5, 0.0]];
        for (what, targets, sources, r) in [
            ("lattice", &lattice[..], &lattice[..], 0.25),
            ("cell boundaries", &targets[..], &sources[..], 0.5),
            ("one source", &targets[..], &one[..], 0.5),
        ] {
            let want = brute_force_neighbors(targets, sources, r);
            let got = NeighborList::build(targets, sources, r, Backend::Grid);
            assert_eq!(got.num_targets(), targets.len(), "{what}");
            for t in 0..targets.len() {
                assert_eq!(got.neighbors(t), want.neighbors(t), "{what}: target {t}");
            }
        }
    }

    #[test]
    fn empty_sets() {
        let pts = cloud(5, 0.0);
        let no_targets = NeighborList::build(&[], &pts, 0.5, Backend::Grid);
        assert_eq!(no_targets.num_targets(), 0);
        assert_eq!(no_targets.max_degree(), 0);
        let no_sources = NeighborList::build(&pts, &[], 0.5, Backend::Grid);
        assert_eq!(no_sources.num_targets(), 5);
        assert_eq!(no_sources.total_pairs(), 0);
    }
}

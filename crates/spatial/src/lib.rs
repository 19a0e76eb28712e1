//! # beatnik-spatial — geometric neighbor search (the ArborX substitute)
//!
//! The paper's cutoff solver uses ArborX to find, for every point a rank
//! owns, the owned and halo-ghost points within a fixed radius. This
//! crate implements that capability from scratch with two interchangeable
//! backends:
//!
//! * [`UniformGrid`] — bin points into cells of edge ≥ radius, then scan
//!   the 3×3×3 cell neighborhood per query (what ArborX effectively does
//!   for uniform point densities; O(n) build, O(k) query);
//! * [`KdTree`] — a median-split k-d tree with pruned radius queries
//!   (robust under highly non-uniform densities, e.g. rolled-up
//!   interfaces).
//!
//! Both produce [`NeighborList`]s in CSR form; property tests pin them to
//! each other and to the O(n²) brute-force reference. The grid's binning
//! is [`CellBins`], which the cutoff BR solver also drives directly: it
//! evaluates over the cell-sorted points without materialising a list.

pub mod aabb;
pub mod bhtree;
pub mod cells;
pub mod grid;
pub mod kdtree;
pub mod neighbors;

pub use aabb::Aabb;
pub use bhtree::BhTree;
pub use cells::CellBins;
pub use grid::UniformGrid;
pub use kdtree::KdTree;
pub use neighbors::{brute_force_neighbors, NeighborList};

/// Squared Euclidean distance between two points.
#[inline]
pub fn dist2(a: [f64; 3], b: [f64; 3]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    dx * dx + dy * dy + dz * dz
}

#[cfg(test)]
mod tests {
    use super::dist2;

    #[test]
    fn dist2_basics() {
        assert_eq!(dist2([0.0; 3], [0.0; 3]), 0.0);
        assert_eq!(dist2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), 0.0);
        assert_eq!(dist2([0.0; 3], [3.0, 4.0, 0.0]), 25.0);
        assert_eq!(dist2([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]), 3.0);
    }
}

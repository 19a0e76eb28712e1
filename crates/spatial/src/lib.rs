//! # beatnik-spatial — geometric neighbor search (the ArborX substitute)
//!
//! The paper's cutoff solver uses ArborX to find, for every point a rank
//! owns, the owned and halo-ghost points within a fixed radius. This
//! crate implements that capability from scratch with one binning
//! routine, [`CellBins`]: points are counting-sorted into cells of edge
//! ≥ radius, and a query scans at most nine contiguous runs of its
//! 3×3×3 cell block (what ArborX effectively does for uniform point
//! densities; O(n) build, O(k) query).
//!
//! The cutoff BR solver drives [`CellBins`] directly: it evaluates over
//! the cell-sorted points without materialising a list. [`NeighborList`]
//! is the explicit CSR form of the same search, pinned by tests to the
//! O(n²) [`brute_force_neighbors`] reference.

pub mod cells;
pub mod neighbors;

pub use cells::CellBins;
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

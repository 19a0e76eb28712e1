//! Node-centered multi-component field storage.
//!
//! A [`Field`] covers one rank's local block of the surface mesh —
//! owned nodes plus halo frame — in row-major, component-interleaved
//! layout (`(row, col, comp)`, comp fastest). This is the unit that halo
//! exchange, boundary conditions, and stencils operate on.
//!
//! Two ways in: per node (`get`/`node`, what tests and the stencil
//! oracles use) and per row ([`Field::row`]: one local row as a
//! `cols × ncomp` slice, what every per-stage loop uses — the row
//! kernels in [`crate::stencil`] and the component gather/scatter
//! below all read and write row slices).

use std::ops::Range;

/// Dense `rows × cols × ncomp` array of `f64` (rows/cols include halos).
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
    ncomp: usize,
}

impl Field {
    /// Zero-initialized field.
    pub fn zeros(rows: usize, cols: usize, ncomp: usize) -> Self {
        assert!(ncomp > 0, "field needs at least one component");
        Field {
            data: vec![0.0; rows * cols * ncomp],
            rows,
            cols,
            ncomp,
        }
    }

    /// Local rows (including halo frame).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Local columns (including halo frame).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Components per node.
    #[inline]
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    #[inline]
    fn idx(&self, r: usize, c: usize, k: usize) -> usize {
        debug_assert!(r < self.rows && c < self.cols && k < self.ncomp);
        (r * self.cols + c) * self.ncomp + k
    }

    /// Read one component at a local node.
    #[inline]
    pub fn get(&self, r: usize, c: usize, k: usize) -> f64 {
        self.data[self.idx(r, c, k)]
    }

    /// Write one component at a local node.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, k: usize, v: f64) {
        let i = self.idx(r, c, k);
        self.data[i] = v;
    }

    /// Add to one component at a local node.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, k: usize, v: f64) {
        let i = self.idx(r, c, k);
        self.data[i] += v;
    }

    /// All components at a node as a small vector copy.
    #[inline]
    pub fn node(&self, r: usize, c: usize) -> &[f64] {
        let i = self.idx(r, c, 0);
        &self.data[i..i + self.ncomp]
    }

    /// Overwrite all components at a node.
    #[inline]
    pub fn set_node(&mut self, r: usize, c: usize, vals: &[f64]) {
        assert_eq!(vals.len(), self.ncomp);
        let i = self.idx(r, c, 0);
        self.data[i..i + self.ncomp].copy_from_slice(vals);
    }

    /// One local row: the interleaved `cols × ncomp` slice of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        let w = self.cols * self.ncomp;
        &self.data[r * w..(r + 1) * w]
    }

    /// Mutable view of one local row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let w = self.cols * self.ncomp;
        &mut self.data[r * w..(r + 1) * w]
    }

    /// The five rows `r − 2 ..= r + 2` a width-2 stencil centred on row
    /// `r` reads (`[2]` is row `r` itself).
    #[inline]
    pub fn rows5(&self, r: usize) -> [&[f64]; 5] {
        [
            self.row(r - 2),
            self.row(r - 1),
            self.row(r),
            self.row(r + 1),
            self.row(r + 2),
        ]
    }

    /// The `cols` span of each row in `rows`, all components: the block
    /// `rows × cols` one contiguous slice per row.
    pub fn block_rows(
        &self,
        rows: Range<usize>,
        cols: Range<usize>,
    ) -> impl Iterator<Item = &[f64]> + '_ {
        let span = cols.start * self.ncomp..cols.end * self.ncomp;
        rows.map(move |r| &self.row(r)[span.clone()])
    }

    /// Mutable [`Field::block_rows`].
    pub fn block_rows_mut(
        &mut self,
        rows: Range<usize>,
        cols: Range<usize>,
    ) -> impl Iterator<Item = &mut [f64]> + '_ {
        let w = self.cols * self.ncomp;
        let span = cols.start * self.ncomp..cols.end * self.ncomp;
        self.data[rows.start * w..rows.end * w]
            .chunks_exact_mut(w.max(1))
            .map(move |row| &mut row[span.clone()])
    }

    /// Component `k` over the block `rows × cols`, row-major — the order
    /// the distributed transforms take.
    pub fn gather_comp(&self, rows: Range<usize>, cols: Range<usize>, k: usize) -> Vec<f64> {
        assert!(k < self.ncomp, "gather_comp: component out of range");
        let mut out = Vec::with_capacity(rows.len() * cols.len());
        for row in self.block_rows(rows, cols) {
            out.extend(row.iter().skip(k).step_by(self.ncomp));
        }
        out
    }

    /// Write `vals` (row-major over the block `rows × cols`) into
    /// component `k`: the inverse of [`Field::gather_comp`].
    pub fn scatter_comp(&mut self, rows: Range<usize>, cols: Range<usize>, k: usize, vals: &[f64]) {
        assert!(k < self.ncomp, "scatter_comp: component out of range");
        assert_eq!(vals.len(), rows.len() * cols.len(), "scatter_comp: length mismatch");
        let ncomp = self.ncomp;
        let mut vals = vals.iter();
        for row in self.block_rows_mut(rows, cols) {
            for (dst, &v) in row.iter_mut().skip(k).step_by(ncomp).zip(&mut vals) {
                *dst = v;
            }
        }
    }

    /// Raw storage (row-major, component-interleaved).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Fill every entry (including halos) with a value.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Pack the sub-rectangle `r0..r1 × c0..c1` (all components,
    /// row-major) into a flat vector.
    pub fn pack(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Vec<f64> {
        debug_assert!(r1 <= self.rows && c1 <= self.cols && r0 <= r1 && c0 <= c1);
        let mut out = Vec::with_capacity((r1 - r0) * (c1 - c0) * self.ncomp);
        if c1 == c0 {
            return out;
        }
        let width = (c1 - c0) * self.ncomp;
        for r in r0..r1 {
            let start = self.idx(r, c0, 0);
            out.extend_from_slice(&self.data[start..start + width]);
        }
        out
    }

    /// Unpack a flat vector produced by [`Field::pack`] into the
    /// sub-rectangle `r0..r1 × c0..c1`.
    pub fn unpack(&mut self, r0: usize, r1: usize, c0: usize, c1: usize, data: &[f64]) {
        debug_assert_eq!(data.len(), (r1 - r0) * (c1 - c0) * self.ncomp);
        let width = (c1 - c0) * self.ncomp;
        for (i, r) in (r0..r1).enumerate() {
            let dst = self.idx(r, c0, 0);
            self.data[dst..dst + width].copy_from_slice(&data[i * width..(i + 1) * width]);
        }
    }

    /// Elementwise `self = self * a + other * b` (used by RK stages).
    pub fn axpby(&mut self, a: f64, other: &Field, b: f64) {
        assert_eq!(self.data.len(), other.data.len(), "axpby: shape mismatch");
        for (x, y) in self.data.iter_mut().zip(&other.data) {
            *x = *x * a + *y * b;
        }
    }

    /// Maximum absolute value over all entries (diagnostics).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip_with_components() {
        let mut f = Field::zeros(3, 4, 2);
        f.set(1, 2, 0, 5.0);
        f.set(1, 2, 1, -7.0);
        assert_eq!(f.get(1, 2, 0), 5.0);
        assert_eq!(f.get(1, 2, 1), -7.0);
        assert_eq!(f.node(1, 2), &[5.0, -7.0]);
        assert_eq!(f.get(0, 0, 0), 0.0);
        f.add(1, 2, 0, 1.5);
        assert_eq!(f.get(1, 2, 0), 6.5);
    }

    #[test]
    fn pack_unpack_subrect() {
        let mut f = Field::zeros(4, 4, 2);
        for r in 0..4 {
            for c in 0..4 {
                f.set(r, c, 0, (r * 10 + c) as f64);
                f.set(r, c, 1, -((r * 10 + c) as f64));
            }
        }
        let packed = f.pack(1, 3, 2, 4);
        assert_eq!(packed.len(), 2 * 2 * 2);
        assert_eq!(packed[0], 12.0);
        assert_eq!(packed[1], -12.0);
        let mut g = Field::zeros(4, 4, 2);
        g.unpack(1, 3, 2, 4, &packed);
        assert_eq!(g.get(2, 3, 0), 23.0);
        assert_eq!(g.get(2, 3, 1), -23.0);
        assert_eq!(g.get(0, 0, 0), 0.0);
    }

    /// Field with every entry distinct: `1000·r + 10·c + k`.
    fn numbered(rows: usize, cols: usize, ncomp: usize) -> Field {
        let mut f = Field::zeros(rows, cols, ncomp);
        for r in 0..rows {
            for c in 0..cols {
                for k in 0..ncomp {
                    f.set(r, c, k, (1000 * r + 10 * c + k) as f64);
                }
            }
        }
        f
    }

    #[test]
    fn row_views_are_the_interleaved_rows() {
        let mut f = numbered(6, 5, 3);
        for r in 0..6 {
            let want: Vec<f64> = (0..5).flat_map(|c| f.node(r, c).to_vec()).collect();
            assert_eq!(f.row(r), want);
        }
        let w = f.rows5(3);
        for (i, row) in w.iter().enumerate() {
            assert_eq!(*row, f.row(1 + i));
        }
        f.row_mut(2)[4] = -1.0;
        assert_eq!(f.get(2, 1, 1), -1.0);
        // Block rows: the column span of each row, mutable and not.
        let spans: Vec<Vec<f64>> = f.block_rows(1..3, 2..4).map(<[f64]>::to_vec).collect();
        assert_eq!(spans, [f.pack(1, 2, 2, 4), f.pack(2, 3, 2, 4)]);
        for row in f.block_rows_mut(4..6, 0..1) {
            row.fill(7.0);
        }
        assert_eq!(f.pack(4, 6, 0, 1), [7.0; 6]);
        assert_eq!(f.get(4, 1, 0), 4010.0);
    }

    #[test]
    fn gather_scatter_comp_match_per_node_access() {
        // Owned blocks 1x1 .. 16x9 inside a halo-2 frame, 1-3 components.
        for (nr, nc) in [(1, 1), (1, 7), (5, 1), (12, 10), (16, 9)] {
            for ncomp in 1..=3 {
                let f = numbered(nr + 4, nc + 4, ncomp);
                let (rows, cols) = (2..2 + nr, 2..2 + nc);
                for k in 0..ncomp {
                    let got = f.gather_comp(rows.clone(), cols.clone(), k);
                    let want: Vec<f64> = rows
                        .clone()
                        .flat_map(|r| cols.clone().map(move |c| (r, c)))
                        .map(|(r, c)| f.get(r, c, k))
                        .collect();
                    assert_eq!(got, want, "{nr}x{nc}x{ncomp} comp {k}");

                    // Scatter writes exactly that component of the block.
                    let mut g = Field::zeros(nr + 4, nc + 4, ncomp);
                    g.scatter_comp(rows.clone(), cols.clone(), k, &got);
                    for r in 0..nr + 4 {
                        for c in 0..nc + 4 {
                            for j in 0..ncomp {
                                let inside = rows.contains(&r) && cols.contains(&c) && j == k;
                                let want = if inside { f.get(r, c, j) } else { 0.0 };
                                assert_eq!(g.get(r, c, j), want);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pack_empty_rect_is_empty() {
        let f = Field::zeros(4, 4, 1);
        assert!(f.pack(2, 2, 0, 4).is_empty());
        assert!(f.pack(0, 4, 3, 3).is_empty());
    }

    #[test]
    fn axpby_combines_fields() {
        let mut a = Field::zeros(2, 2, 1);
        a.fill(2.0);
        let mut b = Field::zeros(2, 2, 1);
        b.fill(3.0);
        a.axpby(0.5, &b, 2.0);
        assert_eq!(a.get(1, 1, 0), 7.0);
    }

    #[test]
    fn set_node_and_max_abs() {
        let mut f = Field::zeros(2, 2, 3);
        f.set_node(0, 1, &[1.0, -9.0, 2.0]);
        assert_eq!(f.max_abs(), 9.0);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn zero_components_rejected() {
        let _ = Field::zeros(2, 2, 0);
    }
}

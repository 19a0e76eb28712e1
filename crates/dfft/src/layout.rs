//! Index distributions, rectangle helpers, and the pack/unpack kernels
//! for data redistribution.
//!
//! The reshape engine ([`crate::redistribute`]) reduces to strided
//! rectangle copies. The kernels here are stride-aware rather than
//! element-wise: row runs move as single `memcpy`s, collapsing to ONE
//! memcpy when the sub-rectangle spans every column of its parent.
//! [`pack_into`] appends a send block to a buffer; `assemble_into`
//! appends a whole destination rectangle, each row's runs in column
//! order, from pieces that are received blocks or a view of the source
//! buffer itself. Neither writes anything twice or zero-fills first.
//! (Nothing here moves columns: the column transforms run in place
//! across the row-major buffer, see [`crate::plan`].)

use std::ops::Range;

/// Balanced block distribution of `n` indices over `parts` owners:
/// owner `i` holds `[⌊n·i/parts⌋, ⌊n·(i+1)/parts⌋)`, so part sizes differ
/// by at most one and concatenate to `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dist {
    /// Total index count.
    pub n: usize,
    /// Number of owners.
    pub parts: usize,
}

impl Dist {
    /// Create a distribution (requires at least one part).
    pub fn new(n: usize, parts: usize) -> Self {
        assert!(parts > 0, "distribution needs at least one part");
        Dist { n, parts }
    }

    /// The index range owned by `part`.
    pub fn range(&self, part: usize) -> Range<usize> {
        assert!(part < self.parts, "part {part} out of {}", self.parts);
        (self.n * part) / self.parts..(self.n * (part + 1)) / self.parts
    }

    /// Number of indices owned by `part`.
    pub fn len(&self, part: usize) -> usize {
        self.range(part).len()
    }

    /// Whether `part` owns nothing.
    pub fn is_empty(&self, part: usize) -> bool {
        self.len(part) == 0
    }

    /// The owner of global index `i`.
    pub fn owner(&self, i: usize) -> usize {
        assert!(i < self.n, "index {i} out of {}", self.n);
        // With the floor-based split, owner = ⌈(i+1)·parts/n⌉ − 1; guard
        // rounding with a local scan.
        let mut guess = (i * self.parts) / self.n.max(1);
        while !self.range(guess).contains(&i) {
            if self.range(guess).start > i {
                guess -= 1;
            } else {
                guess += 1;
            }
        }
        guess
    }
}

/// A half-open rectangle of global (row, col) index space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rect {
    /// Global row range.
    pub rows: Range<usize>,
    /// Global column range.
    pub cols: Range<usize>,
}

impl Rect {
    /// Construct from ranges.
    pub fn new(rows: Range<usize>, cols: Range<usize>) -> Self {
        Rect { rows, cols }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    /// Total element count.
    pub fn area(&self) -> usize {
        self.nrows() * self.ncols()
    }

    /// Whether the rectangle holds no elements.
    pub fn is_empty(&self) -> bool {
        self.area() == 0
    }

    /// Intersection with another rectangle (possibly empty).
    pub fn intersect(&self, other: &Rect) -> Rect {
        let rs = self.rows.start.max(other.rows.start);
        let re = self.rows.end.min(other.rows.end).max(rs);
        let cs = self.cols.start.max(other.cols.start);
        let ce = self.cols.end.min(other.cols.end).max(cs);
        Rect::new(rs..re, cs..ce)
    }

    /// Row-major offset of global `(r, c)` within a buffer laid out as
    /// this rectangle.
    #[inline]
    pub fn offset(&self, r: usize, c: usize) -> usize {
        debug_assert!(self.rows.contains(&r) && self.cols.contains(&c));
        (r - self.rows.start) * self.ncols() + (c - self.cols.start)
    }
}

/// Copy the sub-rectangle `sub` out of a row-major buffer laid out as
/// `from`, producing a row-major `sub`-shaped vector.
///
/// Stride-aware: each row run is one `memcpy`, and a full-width `sub`
/// (every column of `from`, the common case for slab reshapes) is a
/// single contiguous `memcpy` of the whole region.
pub fn pack<T: Copy>(buf: &[T], from: &Rect, sub: &Rect) -> Vec<T> {
    let mut out = Vec::with_capacity(sub.area());
    pack_into(buf, from, sub, &mut out);
    out
}

/// [`pack`] appending to `out` instead of a new vector.
pub fn pack_into<T: Copy>(buf: &[T], from: &Rect, sub: &Rect, out: &mut Vec<T>) {
    debug_assert_eq!(buf.len(), from.area());
    if sub.is_empty() {
        return;
    }
    if sub.ncols() == from.ncols() {
        let start = from.offset(sub.rows.start, sub.cols.start);
        out.extend_from_slice(&buf[start..start + sub.area()]);
        return;
    }
    out.reserve(sub.area());
    for r in sub.rows.clone() {
        let start = from.offset(r, sub.cols.start);
        out.extend_from_slice(&buf[start..start + sub.ncols()]);
    }
}

/// Write a row-major `sub`-shaped vector into a row-major buffer laid out
/// as `into`. Single-`memcpy` fast path for full-width `sub`, like
/// [`pack`].
pub fn unpack<T: Copy>(buf: &mut [T], into: &Rect, sub: &Rect, data: &[T]) {
    debug_assert_eq!(buf.len(), into.area());
    debug_assert_eq!(data.len(), sub.area());
    if sub.ncols() == into.ncols() && !sub.is_empty() {
        let start = into.offset(sub.rows.start, sub.cols.start);
        buf[start..start + sub.area()].copy_from_slice(data);
        return;
    }
    for (i, r) in sub.rows.clone().enumerate() {
        let dst = into.offset(r, sub.cols.start);
        let src = i * sub.ncols();
        buf[dst..dst + sub.ncols()].copy_from_slice(&data[src..src + sub.ncols()]);
    }
}

/// One source of a destination rectangle: the sub-rectangle `sub` of
/// the row-major buffer `buf`, which is laid out as `layout` — a
/// received block (`layout` is `sub` itself) or the source buffer of a
/// reshape, read in place for the part a rank keeps.
pub(crate) struct Piece<'a, T> {
    pub sub: &'a Rect,
    pub buf: &'a [T],
    pub layout: &'a Rect,
}

/// Append the row-major `into`-shaped rectangle to `out`, built from
/// `pieces` whose rectangles tile `into`. Every element is written
/// once: rows in order, each row's runs in column order. A piece that
/// spans every column of `into` and of its own buffer goes in as one
/// contiguous copy of all its rows.
///
/// # Panics
/// Panics if the pieces do not tile `into` (a gap or an overlap in some
/// row).
pub(crate) fn assemble_into<T: Copy>(into: &Rect, pieces: &mut [Piece<'_, T>], out: &mut Vec<T>) {
    pieces.sort_unstable_by_key(|p| p.sub.cols.start);
    out.reserve(into.area());
    let mut r = into.rows.start;
    while r < into.rows.end {
        let mut col = into.cols.start;
        let mut next = r + 1;
        for p in pieces.iter().filter(|p| p.sub.rows.contains(&r)) {
            assert_eq!(
                p.sub.cols.start, col,
                "assemble: pieces do not tile {into:?} at row {r}"
            );
            debug_assert_eq!(p.buf.len(), p.layout.area());
            let start = p.layout.offset(r, p.sub.cols.start);
            let end = if p.sub.cols == into.cols && p.sub.cols == p.layout.cols {
                next = p.sub.rows.end;
                p.layout.offset(next - 1, p.sub.cols.start) + p.sub.ncols()
            } else {
                start + p.sub.ncols()
            };
            out.extend_from_slice(&p.buf[start..end]);
            col = p.sub.cols.end;
        }
        assert_eq!(
            col, into.cols.end,
            "assemble: pieces do not tile {into:?} at row {r}"
        );
        r = next;
    }
}

/// The row-major `into`-shaped buffer built from `(sub, data)` blocks
/// by [`assemble_into`]: the reshape's assembly before the part a rank
/// keeps was read in place, kept for the tests.
#[cfg(test)]
pub(crate) fn assemble<T: Copy>(into: &Rect, blocks: &mut [(Rect, Vec<T>)]) -> Vec<T> {
    let mut pieces: Vec<Piece<'_, T>> = blocks
        .iter()
        .map(|(sub, data)| Piece {
            sub,
            buf: data,
            layout: sub,
        })
        .collect();
    let mut out = Vec::new();
    assemble_into(into, &mut pieces, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_partitions_exactly() {
        for (n, p) in [(10usize, 3usize), (7, 7), (5, 8), (0, 4), (1024, 32)] {
            let d = Dist::new(n, p);
            let mut covered = 0;
            for i in 0..p {
                let r = d.range(i);
                assert_eq!(r.start, covered);
                covered = r.end;
                assert!(r.len() <= n / p + 1);
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn dist_owner_is_consistent_with_range() {
        for (n, p) in [(10usize, 3usize), (7, 7), (100, 6), (9, 2)] {
            let d = Dist::new(n, p);
            for i in 0..n {
                let o = d.owner(i);
                assert!(d.range(o).contains(&i), "n={n} p={p} i={i} owner={o}");
            }
        }
    }

    #[test]
    fn rect_intersection() {
        let a = Rect::new(0..10, 0..10);
        let b = Rect::new(5..15, 8..20);
        let i = a.intersect(&b);
        assert_eq!(i, Rect::new(5..10, 8..10));
        assert_eq!(i.area(), 10);
        let disjoint = a.intersect(&Rect::new(20..30, 0..10));
        assert!(disjoint.is_empty());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let from = Rect::new(2..6, 10..15); // 4x5
        let buf: Vec<u32> = (0..20).collect();
        let sub = Rect::new(3..5, 11..14); // 2x3
        let packed = pack(&buf, &from, &sub);
        assert_eq!(packed.len(), 6);
        // Row 3 of `from` starts at offset 5; col 11 is offset 1.
        assert_eq!(packed, vec![6, 7, 8, 11, 12, 13]);
        let mut dst = vec![0u32; 20];
        unpack(&mut dst, &from, &sub, &packed);
        for r in 3..5 {
            for c in 11..14 {
                assert_eq!(dst[from.offset(r, c)], buf[from.offset(r, c)]);
            }
        }
    }

    #[test]
    fn pack_whole_rect_is_identity() {
        let r = Rect::new(0..3, 0..4);
        let buf: Vec<i64> = (0..12).collect();
        assert_eq!(pack(&buf, &r, &r), buf);
    }

    #[test]
    fn full_width_pack_matches_row_by_row() {
        // The single-memcpy fast path (sub spans every column) must
        // agree with the general strided path.
        let from = Rect::new(0..6, 3..8); // 6x5
        let buf: Vec<u32> = (0..30).collect();
        let sub = Rect::new(2..5, 3..8); // full width, rows 2..5
        let packed = pack(&buf, &from, &sub);
        assert_eq!(packed, (10..25).collect::<Vec<u32>>());
        let mut a = vec![0u32; 30];
        unpack(&mut a, &from, &sub, &packed);
        assert_eq!(&a[10..25], &buf[10..25]);
        assert!(a[..10].iter().chain(&a[25..]).all(|&v| v == 0));
    }

    /// Value of global `(r, c)` in the assemble tests.
    fn at(r: usize, c: usize) -> u32 {
        (r * 100 + c) as u32
    }

    fn piece(sub: Rect) -> (Rect, Vec<u32>) {
        let data = sub
            .rows
            .clone()
            .flat_map(|r| sub.cols.clone().map(move |c| at(r, c)))
            .collect();
        (sub, data)
    }

    #[test]
    fn assemble_writes_the_row_major_rectangle_from_any_tiling() {
        let into = Rect::new(2..9, 3..10);
        let want: Vec<u32> = into
            .rows
            .clone()
            .flat_map(|r| into.cols.clone().map(move |c| at(r, c)))
            .collect();
        for tiling in [
            // Full-width row bands (the row → column reshape's shape).
            vec![Rect::new(2..5, 3..10), Rect::new(5..9, 3..10)],
            // Column bands (block → row), given out of column order.
            vec![Rect::new(2..9, 7..10), Rect::new(2..9, 3..7)],
            // Ragged: bands whose row ranges differ, and a full-width
            // piece between them.
            vec![
                Rect::new(2..4, 3..6),
                Rect::new(2..4, 6..10),
                Rect::new(4..6, 3..10),
                Rect::new(6..9, 3..4),
                Rect::new(6..9, 4..10),
            ],
            vec![into.clone()],
        ] {
            let mut pieces: Vec<_> = tiling.into_iter().map(piece).collect();
            assert_eq!(assemble(&into, &mut pieces), want);
        }
        let empty = Rect::new(4..4, 0..3);
        assert!(assemble::<u32>(&empty, &mut []).is_empty());
    }

    #[test]
    #[should_panic(expected = "do not tile")]
    fn assemble_rejects_a_gap() {
        let into = Rect::new(0..2, 0..4);
        assemble(&into, &mut [piece(Rect::new(0..2, 0..3))]);
    }

    #[test]
    #[should_panic(expected = "do not tile")]
    fn assemble_rejects_an_overlap() {
        let into = Rect::new(0..2, 0..4);
        assemble(
            &into,
            &mut [piece(into.clone()), piece(Rect::new(0..1, 2..4))],
        );
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn zero_parts_rejected() {
        let _ = Dist::new(4, 0);
    }
}

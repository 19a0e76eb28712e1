//! Generic rectangle redistribution, planned once.
//!
//! Every reshape in the distributed FFT moves data between two
//! *rectangle-per-rank* layouts of the same global index space. Because
//! both layouts are computable from rank indices alone, each rank derives
//! every pairwise intersection analytically — no metadata travels with the
//! payloads, exactly as in production transpose engines.
//!
//! A [`Reshape`] makes that derivation once, when it is built: this
//! rank's source and destination rectangles, the peers it sends a block
//! to and receives one from with each block's rectangle, and the piece
//! it keeps. [`Reshape::run`] then only copies and exchanges. An element
//! that travels is written twice — packed into its block, assembled into
//! the receiver's destination — and an element a rank keeps once,
//! straight from the source buffer into the destination; a reshape that
//! keeps every element in place ([`Reshape::in_place`]: any reshape of a
//! one-rank group) copies nothing and hands its input back. Every block
//! and output comes from a bounded [`FreeList`], and every received
//! block goes back to it, so a block received in one run is packed and
//! sent, or becomes the output, in a later one: a plan run over and over
//! stops allocating after its first runs. Nothing is zero-filled.

use crate::layout::{assemble_into, pack_into, Piece, Rect};
use beatnik_comm::message::CommData;
use beatnik_comm::{wait_all, AllToAllAlgo, Communicator};

/// Message tag for p2p reshape traffic. One message per `(source, tag)`
/// per reshape plus the mailbox's non-overtaking guarantee keeps
/// back-to-back reshapes from cross-matching, so a constant tag suffices.
const DFFT_TAG: u64 = 0x4446_4654; // "DFFT"

/// Most buffers one [`FreeList`] keeps.
pub const FREE_LIST_CAP: usize = 16;

/// Buffers kept for reuse, at most [`FREE_LIST_CAP`] of them: when the
/// list is full, a buffer given back replaces the smallest one kept if
/// it is larger, and is dropped otherwise.
#[derive(Debug)]
pub struct FreeList<T> {
    bufs: Vec<Vec<T>>,
}

impl<T> Default for FreeList<T> {
    fn default() -> Self {
        FreeList { bufs: Vec::new() }
    }
}

impl<T> FreeList<T> {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with room for `n` elements: the smallest kept
    /// buffer that has it, the one given back last among equals (the
    /// likeliest to be in cache), or a new allocation when none does.
    pub fn take(&mut self, n: usize) -> Vec<T> {
        if n == 0 {
            return Vec::new();
        }
        let fit = (0..self.bufs.len())
            .rev()
            .filter(|&i| self.bufs[i].capacity() >= n)
            .min_by_key(|&i| self.bufs[i].capacity());
        match fit {
            Some(i) => {
                let mut buf = self.bufs.remove(i);
                buf.clear();
                buf
            }
            None => Vec::with_capacity(n),
        }
    }

    /// Keep `buf` for a later [`FreeList::take`].
    pub fn give(&mut self, buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        if self.bufs.len() < FREE_LIST_CAP {
            self.bufs.push(buf);
        } else if let Some(smallest) = self.bufs.iter_mut().min_by_key(|b| b.capacity()) {
            if smallest.capacity() < buf.capacity() {
                *smallest = buf;
            }
        }
    }

    /// Buffers kept.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// Whether no buffer is kept.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }
}

/// One rank's part of a reshape between two rectangle-per-rank layouts
/// of a group, planned once and run any number of times.
///
/// `algo` selects the exchange engine (the heFFTe `AllToAll` knob):
/// [`AllToAllAlgo::Direct`] runs nonblocking point-to-point — every
/// receive is posted up front, sends go out pairwise, and arrivals
/// complete in whatever order they land; the p2p path also skips peers
/// whose rectangle intersection is empty, so sparse reshapes send fewer
/// messages than the collective. Every other choice runs the collective
/// `alltoallv` with that algorithm — including
/// [`AllToAllAlgo::Adaptive`], which picks the engine from this rank's
/// volume, the piece it keeps included.
///
/// Either way the packed blocks are handed to the exchange by
/// ownership. The source rectangles must tile the global index space
/// (every layout here does); a destination they leave a gap in or
/// overlap panics when the reshape runs.
#[derive(Debug)]
pub struct Reshape {
    rank: usize,
    size: usize,
    src: Rect,
    dst: Rect,
    /// `(peer, block)` for every peer this rank sends a nonempty block,
    /// in pairwise order: `rank + 1`, `rank + 2`, … modulo the size.
    sends: Vec<(usize, Rect)>,
    /// `(peer, block)` for every peer this rank receives a nonempty
    /// block from, ascending.
    recvs: Vec<(usize, Rect)>,
    /// `src ∩ dst`: what this rank keeps (possibly empty).
    keep: Rect,
    algo: AllToAllAlgo,
    /// Elements this rank hands the exchange, the kept piece included:
    /// what [`AllToAllAlgo::Adaptive`] resolves from.
    volume: usize,
    /// The layouts themselves, for the unplanned reference path.
    #[cfg(test)]
    layouts: (Vec<Rect>, Vec<Rect>),
}

impl Reshape {
    /// Plan rank `rank`'s part of the reshape of a `size`-rank group
    /// from the layout `src_rect` (member → its source rectangle) to
    /// `dest_rect`.
    pub fn new(
        rank: usize,
        size: usize,
        src_rect: &dyn Fn(usize) -> Rect,
        dest_rect: &dyn Fn(usize) -> Rect,
        algo: AllToAllAlgo,
    ) -> Self {
        let (src, dst) = (src_rect(rank), dest_rect(rank));
        let keep = src.intersect(&dst);
        let sends: Vec<(usize, Rect)> = (1..size)
            .map(|step| (rank + step) % size)
            .map(|d| (d, src.intersect(&dest_rect(d))))
            .filter(|(_, block)| !block.is_empty())
            .collect();
        let recvs = (0..size)
            .filter(|&s| s != rank)
            .map(|s| (s, src_rect(s).intersect(&dst)))
            .filter(|(_, block)| !block.is_empty())
            .collect();
        let volume = keep.area() + sends.iter().map(|(_, block)| block.area()).sum::<usize>();
        Reshape {
            rank,
            size,
            src,
            dst,
            sends,
            recvs,
            keep,
            algo,
            volume,
            #[cfg(test)]
            layouts: ((0..size).map(src_rect).collect(), (0..size).map(dest_rect).collect()),
        }
    }

    /// This rank's rectangle in the source layout.
    pub fn src(&self) -> &Rect {
        &self.src
    }

    /// This rank's rectangle in the destination layout.
    pub fn dst(&self) -> &Rect {
        &self.dst
    }

    /// Messages one run sends from this rank: one per nonempty block on
    /// the point-to-point path, one to every other member (empty blocks
    /// too) on the collective path. The piece a rank keeps is none.
    pub fn messages(&self) -> usize {
        match self.algo {
            AllToAllAlgo::Direct => self.sends.len(),
            _ => self.size - 1,
        }
    }

    /// Payload bytes one run sends from this rank, for `T` elements.
    pub fn bytes<T>(&self) -> u64 {
        let elems: usize = self.sends.iter().map(|(_, block)| block.area()).sum();
        (elems * std::mem::size_of::<T>()) as u64
    }

    /// Whether every element stays where it is: this rank sends and
    /// receives nothing, and its source rectangle is its destination.
    pub fn in_place(&self) -> bool {
        self.sends.is_empty() && self.recvs.is_empty() && self.src == self.dst
    }

    /// Move `data` (this rank's source rectangle, row-major) to the
    /// destination layout and return this rank's destination rectangle,
    /// row-major. Blocks and the output come from `free`; the blocks
    /// received go back to it. Collective over `comm`, which must be the
    /// group the reshape was planned for.
    pub fn run<T: CommData + Copy>(
        &self,
        comm: &Communicator,
        data: &[T],
        free: &mut FreeList<T>,
    ) -> Vec<T> {
        let _phase = comm.telemetry().phase("dfft-redistribute");
        let received = self.exchange(comm, data, free);
        let mut pieces: Vec<Piece<'_, T>> = Vec::with_capacity(self.recvs.len() + 1);
        if !self.keep.is_empty() {
            pieces.push(Piece {
                sub: &self.keep,
                buf: data,
                layout: &self.src,
            });
        }
        for ((s, sub), block) in self.recvs.iter().zip(&received) {
            assert_eq!(block.len(), sub.area(), "redistribute: bad block from {s}");
            pieces.push(Piece {
                sub,
                buf: block,
                layout: sub,
            });
        }
        let mut out = free.take(self.dst.area());
        assemble_into(&self.dst, &mut pieces, &mut out);
        for block in received {
            free.give(block);
        }
        out
    }

    /// [`Reshape::run`] on a buffer it consumes: an [in-place]
    /// reshape makes the same calls on `comm` and hands `data` back as
    /// its output, copying nothing; any other gives `data` to `free`.
    ///
    /// [in-place]: Reshape::in_place
    pub fn run_owned<T: CommData + Copy>(
        &self,
        comm: &Communicator,
        data: Vec<T>,
        free: &mut FreeList<T>,
    ) -> Vec<T> {
        if !self.in_place() {
            let out = self.run(comm, &data, free);
            free.give(data);
            return out;
        }
        let _phase = comm.telemetry().phase("dfft-redistribute");
        let received = self.exchange(comm, &data, free);
        debug_assert!(received.is_empty());
        data
    }

    /// The same reshape run by [`redistribute_unplanned`], the bitwise
    /// reference.
    #[cfg(test)]
    pub(crate) fn run_unplanned<T: CommData + Copy>(
        &self,
        comm: &Communicator,
        data: &[T],
    ) -> Vec<T> {
        let (src, dst) = &self.layouts;
        let (src_rect, dest_rect) = (|q: usize| src[q].clone(), |q: usize| dst[q].clone());
        redistribute_unplanned(comm, data, &src_rect, &dest_rect, self.algo).1
    }

    /// Pack and send this rank's blocks, and return the blocks it
    /// receives, in `recvs` order.
    fn exchange<T: CommData + Copy>(
        &self,
        comm: &Communicator,
        data: &[T],
        free: &mut FreeList<T>,
    ) -> Vec<Vec<T>> {
        assert_eq!(
            (comm.rank(), comm.size()),
            (self.rank, self.size),
            "redistribute: planned for another group"
        );
        assert_eq!(data.len(), self.src.area(), "redistribute: bad source buffer");
        let mut pack = |sub: &Rect| {
            let mut block = free.take(sub.area());
            pack_into(data, &self.src, sub, &mut block);
            block
        };
        match self.algo {
            AllToAllAlgo::Direct => {
                // Both sides planned the same intersections, so receiver
                // and sender agree on exactly which peers exchange a
                // message. Pairwise destination order spreads traffic
                // instead of having every rank hit rank 0 first; each
                // block's allocation moves to its receiver.
                let reqs = self
                    .recvs
                    .iter()
                    .map(|&(s, _)| comm.irecv::<T>(s, DFFT_TAG))
                    .collect();
                let sends: Vec<_> = self
                    .sends
                    .iter()
                    .map(|(d, sub)| comm.isend_owned(*d, DFFT_TAG, pack(sub)))
                    .collect();
                let got = wait_all(reqs);
                for s in sends {
                    s.wait();
                }
                got
            }
            collective => {
                let mut blocks: Vec<Vec<T>> = (0..self.size).map(|_| Vec::new()).collect();
                for (d, sub) in &self.sends {
                    blocks[*d] = pack(sub);
                }
                let volume = self.volume * std::mem::size_of::<T>();
                let algo = collective.resolve(self.size, volume as u64);
                let mut got = comm.alltoallv_owned(blocks, algo);
                self.recvs.iter().map(|&(s, _)| std::mem::take(&mut got[s])).collect()
            }
        }
    }
}

/// Move data from `my_rect` (this rank's rectangle in the source layout,
/// with row-major `data`) to the destination layout described by
/// `dest_rect(r)` over all ranks of `comm`. `src_rect(r)` must describe the
/// source layout for every rank (used to reconstruct incoming block
/// shapes). Returns this rank's new rectangle and its row-major contents.
///
/// One [`Reshape`] planned and run once, over an empty free list; a
/// caller that reshapes the same layouts again keeps the plan instead.
pub fn redistribute<T: CommData + Copy>(
    comm: &Communicator,
    data: &[T],
    src_rect: &dyn Fn(usize) -> Rect,
    dest_rect: &dyn Fn(usize) -> Rect,
    algo: AllToAllAlgo,
) -> (Rect, Vec<T>) {
    let plan = Reshape::new(comm.rank(), comm.size(), src_rect, dest_rect, algo);
    let out = plan.run(comm, data, &mut FreeList::new());
    (plan.dst, out)
}

/// Simulate heFFTe's skipped-reorder path: push the assembled buffer
/// through an element-wise strided pass (a copy into `scratch` +
/// per-element placement). Data is unchanged; local memory traffic
/// roughly doubles, matching the cost of operating on non-contiguous
/// layouts.
pub fn no_reorder_penalty<T: Copy>(buf: &mut [T], scratch: &mut Vec<T>) {
    scratch.clear();
    scratch.extend_from_slice(buf);
    // Reverse-order element-wise writeback defeats the memcpy fast path,
    // behaving like a strided gather/scatter.
    let n = buf.len();
    for i in 0..n {
        buf[n - 1 - i] = scratch[n - 1 - i];
    }
}

/// The reshape as it ran before it was planned, kept as the bitwise
/// reference: every call intersects the layouts anew, packs one new
/// block per destination — its own included — and assembles the
/// destination from the blocks.
#[cfg(test)]
pub(crate) fn redistribute_unplanned<T: CommData + Copy>(
    comm: &Communicator,
    data: &[T],
    src_rect: &dyn Fn(usize) -> Rect,
    dest_rect: &dyn Fn(usize) -> Rect,
    algo: AllToAllAlgo,
) -> (Rect, Vec<T>) {
    use crate::layout::{assemble, pack};
    let _phase = comm.telemetry().phase("dfft-redistribute");
    let p = comm.size();
    let me = comm.rank();
    let my_src = src_rect(me);
    let my_dst = dest_rect(me);
    let mut blocks: Vec<Vec<T>> = (0..p)
        .map(|d| pack(data, &my_src, &my_src.intersect(&dest_rect(d))))
        .collect();
    let received: Vec<Vec<T>> = match algo {
        AllToAllAlgo::Direct => {
            let expect: Vec<usize> = (0..p)
                .filter(|&s| s != me && !src_rect(s).intersect(&my_dst).is_empty())
                .collect();
            let reqs = expect.iter().map(|&s| comm.irecv::<T>(s, DFFT_TAG)).collect();
            let sends: Vec<_> = (1..p)
                .map(|step| (me + step) % p)
                .filter_map(|d| {
                    let block = std::mem::take(&mut blocks[d]);
                    (!block.is_empty()).then(|| comm.isend_owned(d, DFFT_TAG, block))
                })
                .collect();
            let got = wait_all(reqs);
            for s in sends {
                s.wait();
            }
            let mut received: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
            received[me] = std::mem::take(&mut blocks[me]);
            for (s, block) in expect.into_iter().zip(got) {
                received[s] = block;
            }
            received
        }
        collective => comm.alltoallv_owned(blocks, collective),
    };
    let mut pieces: Vec<(Rect, Vec<T>)> = received
        .into_iter()
        .enumerate()
        .map(|(s, block)| (src_rect(s).intersect(&my_dst), block))
        .filter(|(inter, _)| !inter.is_empty())
        .collect();
    let out = assemble(&my_dst, &mut pieces);
    (my_dst, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Dist;
    use beatnik_comm::World;
    use beatnik_fft::Complex;

    /// Global 8x6 grid with value = row*100 + col, moved between layouts.
    fn value(r: usize, c: usize) -> Complex {
        Complex::new((r * 100 + c) as f64, 0.0)
    }

    fn fill(rect: &Rect) -> Vec<Complex> {
        let mut v = Vec::with_capacity(rect.area());
        for r in rect.rows.clone() {
            for c in rect.cols.clone() {
                v.push(value(r, c));
            }
        }
        v
    }

    fn check(rect: &Rect, data: &[Complex]) {
        let mut i = 0;
        for r in rect.rows.clone() {
            for c in rect.cols.clone() {
                assert_eq!(data[i], value(r, c), "({r},{c})");
                i += 1;
            }
        }
    }

    #[test]
    fn block_to_row_slab_and_back() {
        let (nr, nc) = (8usize, 6usize);
        for p in [1usize, 2, 4] {
            World::builder(p).run(move |comm| {
                // Source: row blocks of a 2D decomposition collapsed to
                // 1D rows for simplicity (rows split over p, full width).
                let rows = Dist::new(nr, p);
                let cols_full = 0..nc;
                let src = move |r: usize| Rect::new(rows.range(r), cols_full.clone());
                // Destination: column slabs (full height, cols split).
                let cd = Dist::new(nc, p);
                let dst = move |r: usize| Rect::new(0..nr, cd.range(r));

                let my = src(comm.rank());
                let data = fill(&my);
                let (got_rect, got) =
                    redistribute(&comm, &data, &src, &dst, AllToAllAlgo::Pairwise);
                assert_eq!(got_rect, dst(comm.rank()));
                check(&got_rect, &got);

                // And back again with the Direct algorithm.
                let (back_rect, back) =
                    redistribute(&comm, &got, &dst, &src, AllToAllAlgo::Direct);
                assert_eq!(back_rect, my);
                check(&back_rect, &back);
            });
        }
    }

    #[test]
    fn two_d_block_to_row_slab() {
        // 2D 2x2 block layout -> row slabs on 4 ranks.
        let (nr, nc) = (8usize, 8usize);
        World::builder(4).run(move |comm| {
            let rd = Dist::new(nr, 2);
            let cd = Dist::new(nc, 2);
            let src = move |r: usize| Rect::new(rd.range(r / 2), cd.range(r % 2));
            let sd = Dist::new(nr, 4);
            let dst = move |r: usize| Rect::new(sd.range(r), 0..nc);
            let my = src(comm.rank());
            let data = fill(&my);
            let (rect, got) = redistribute(&comm, &data, &src, &dst, AllToAllAlgo::Pairwise);
            check(&rect, &got);
        });
    }

    #[test]
    fn empty_destinations_are_fine() {
        // 3 ranks, 2 global rows: one destination rank owns nothing.
        World::builder(3).run(|comm| {
            let rows = Dist::new(2, 3);
            let src = move |r: usize| Rect::new(rows.range(r), 0..4);
            let dst = move |r: usize| Rect::new(if r == 0 { 0..2 } else { 2..2 }, 0..4);
            let my = src(comm.rank());
            let data = fill(&my);
            let (rect, got) = redistribute(&comm, &data, &src, &dst, AllToAllAlgo::Pairwise);
            if comm.rank() == 0 {
                assert_eq!(got.len(), 8);
                check(&rect, &got);
            } else {
                assert!(got.is_empty());
            }
        });
    }

    #[test]
    fn ragged_idle_and_disjoint_layouts_reshape_exactly() {
        // 7x5 grid. Sources: 2D blocks whose rows and columns split
        // unevenly. Destinations: row slabs with idle ranks (7 rows over
        // up to 9 ranks), column slabs narrower than the rank count, and
        // one rank owning everything (every other intersection empty).
        let (nr, nc) = (7usize, 5usize);
        for p in [1usize, 2, 3, 5, 6, 9] {
            World::builder(p).run(move |comm| {
                let pr = if p % 3 == 0 { 3 } else { 1 };
                let (rd, cd) = (Dist::new(nr, pr), Dist::new(nc, p / pr));
                let src = move |r: usize| Rect::new(rd.range(r / (p / pr)), cd.range(r % (p / pr)));
                let rows = Dist::new(nr, p);
                let cols = Dist::new(nc, p);
                let row_slab = move |r: usize| Rect::new(rows.range(r), 0..nc);
                let col_slab = move |r: usize| Rect::new(0..nr, cols.range(r));
                let one = move |r: usize| {
                    if r == p - 1 {
                        Rect::new(0..nr, 0..nc)
                    } else {
                        Rect::new(0..0, 0..0)
                    }
                };
                let dests: [&dyn Fn(usize) -> Rect; 3] = [&row_slab, &col_slab, &one];
                let data = fill(&src(comm.rank()));
                for (d, dst) in dests.into_iter().enumerate() {
                    for algo in [AllToAllAlgo::Direct, AllToAllAlgo::Pairwise] {
                        let (rect, got) = redistribute(&comm, &data, &src, dst, algo);
                        assert_eq!(rect, dst(comm.rank()), "p={p} layout {d}");
                        assert_eq!(got.len(), rect.area(), "p={p} layout {d}");
                        check(&rect, &got);
                        // And back, from the ragged side to the blocks.
                        let (back_rect, back) = redistribute(&comm, &got, dst, &src, algo);
                        assert_eq!(back_rect, src(comm.rank()));
                        check(&back_rect, &back);
                    }
                }
            });
        }
    }

    #[test]
    fn direct_path_is_nonblocking_p2p() {
        use beatnik_comm::OpKind;
        let (nr, nc) = (8usize, 6usize);
        let (_, trace) = World::builder(4).run_traced(move |comm| {
            let rows = Dist::new(nr, 4);
            let src = move |r: usize| Rect::new(rows.range(r), 0..nc);
            let cd = Dist::new(nc, 4);
            let dst = move |r: usize| Rect::new(0..nr, cd.range(r));
            let my = src(comm.rank());
            let data = fill(&my);
            let (rect, got) = redistribute(&comm, &data, &src, &dst, AllToAllAlgo::Direct);
            check(&rect, &got);
        });
        // The Direct engine is pure point-to-point: no collective traffic,
        // one message per nonempty peer intersection (3 per rank here),
        // with all receives posted before the sends drain. Every block
        // travels by ownership transfer — zero protocol copies, all
        // payload bytes on the handoff counter.
        assert_eq!(trace.total(OpKind::Alltoallv).messages, 0);
        for r in 0..4 {
            let t = trace.rank(r);
            assert_eq!(t.get(OpKind::Send).messages, 3);
            assert_eq!(t.copied_bytes(), 0, "rank {r} copied payload bytes");
            assert_eq!(t.handoff_bytes(), t.get(OpKind::Send).bytes);
            assert!(t.peak_outstanding() >= 4, "rank {r}");
            assert_eq!(t.outstanding_requests(), 0);
        }
    }

    #[test]
    fn free_list_takes_the_best_fit_and_keeps_the_largest() {
        let mut free: FreeList<u8> = FreeList::new();
        for cap in [8, 32, 16] {
            free.give(Vec::with_capacity(cap));
        }
        free.give(Vec::new());
        assert_eq!(free.len(), 3, "an empty buffer is not kept");
        let mut fit = free.take(10);
        assert_eq!(fit.capacity(), 16);
        fit.push(7);
        free.give(fit);
        assert!(free.take(16).is_empty(), "a taken buffer comes back empty");
        assert_eq!(free.take(64).capacity(), 64, "none fits: a new one");
        // Full: a larger buffer replaces the smallest, a smaller one is
        // dropped.
        let mut full: FreeList<u8> = FreeList::new();
        for _ in 0..FREE_LIST_CAP {
            full.give(Vec::with_capacity(4));
        }
        full.give(Vec::with_capacity(2));
        full.give(Vec::with_capacity(100));
        assert_eq!(full.len(), FREE_LIST_CAP);
        assert_eq!(full.take(50).capacity(), 100);
        assert_eq!(full.take(3).capacity(), 4);
    }

    #[test]
    fn no_reorder_penalty_preserves_data() {
        let mut buf: Vec<Complex> = (0..100).map(|i| Complex::new(i as f64, -(i as f64))).collect();
        let orig = buf.clone();
        no_reorder_penalty(&mut buf, &mut Vec::new());
        assert_eq!(buf, orig);
    }
}

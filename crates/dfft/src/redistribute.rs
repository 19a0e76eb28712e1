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
//! it keeps — checking that the kept piece and the received blocks tile
//! the destination. [`Reshape::run`] then only copies and exchanges. An
//! element that travels is written twice — packed into its block,
//! assembled into the receiver's destination — and an element a rank
//! keeps once, straight from the source buffer into the destination; a
//! reshape that keeps every element in place ([`Reshape::in_place`]: any
//! reshape of a one-rank group) copies nothing and hands its input back.
//!
//! The real transforms fuse the *row side* of their reshapes into their
//! row transforms instead (`plan.rs`). Into a rows layout,
//! `Reshape::exchange_into_rows` packs and exchanges as `run` does and
//! `RowsIn` hands out each destination row where it lies — read in
//! place when one piece holds it whole, gathered into one row of scratch
//! otherwise — so no row layout is assembled. Out of a rows layout,
//! `RowsOut` takes each source row as it is transformed and appends its
//! runs to the send blocks and writes its kept run into the output,
//! so nothing is packed; `RowsOut::finish` exchanges the blocks as they
//! are and copies only the received ones into the output. Same blocks,
//! peers, tag and order as `run`.
//!
//! Every block and output comes from a bounded [`FreeList`], and every
//! received block goes back to it, so a block received in one run is
//! packed and sent, or becomes the output, in a later one: a plan run
//! over and over stops allocating after its first runs. Nothing is
//! zero-filled.

use crate::layout::{assemble_into, pack_into, Piece, Rect};
use beatnik_comm::message::CommData;
use beatnik_comm::{wait_all, AllToAllAlgo, Communicator};
use std::mem::MaybeUninit;

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
/// overlap panics when the reshape is planned.
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
        let recvs: Vec<(usize, Rect)> = (0..size)
            .filter(|&s| s != rank)
            .map(|s| (s, src_rect(s).intersect(&dst)))
            .filter(|(_, block)| !block.is_empty())
            .collect();
        let volume = keep.area() + sends.iter().map(|(_, block)| block.area()).sum::<usize>();
        // Each piece lies inside `dst`, so disjoint pieces that add up to
        // its area tile it: every run writes each destination element
        // exactly once, some of them before the exchange.
        let pieces: Vec<&Rect> = std::iter::once(&keep)
            .chain(recvs.iter().map(|(_, block)| block))
            .collect();
        let disjoint = pieces
            .iter()
            .enumerate()
            .all(|(i, a)| pieces[i + 1..].iter().all(|b| a.intersect(b).is_empty()));
        let area: usize = pieces.iter().map(|p| p.area()).sum();
        assert!(
            disjoint && area == dst.area(),
            "redistribute: the source layout does not tile {dst:?}"
        );
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
        let received = self.exchange_from(comm, data, free);
        let mut out = free.take(self.dst.area());
        assemble_into(&self.dst, &mut self.pieces(data, &received), &mut out);
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
        let received = self.exchange_from(comm, &data, free);
        debug_assert!(received.is_empty());
        data
    }

    /// The exchange of a reshape *into* a rows layout (every destination
    /// row spans every column) whose caller reads the destination rows
    /// where they lie instead of assembling them: pack and exchange the
    /// blocks, as [`Reshape::run`] does, and return the blocks received,
    /// for [`Reshape::rows_in`]. Collective over `comm`.
    pub(crate) fn exchange_into_rows<T: CommData + Copy>(
        &self,
        comm: &Communicator,
        data: &[T],
        free: &mut FreeList<T>,
    ) -> Vec<Vec<T>> {
        let _phase = comm.telemetry().phase("dfft-redistribute");
        self.exchange_from(comm, data, free)
    }

    /// This rank's destination rows, read from the kept piece of `data`
    /// (the source buffer) and the `received` blocks of
    /// [`Reshape::exchange_into_rows`].
    pub(crate) fn rows_in<'a, T: Copy>(
        &'a self,
        data: &'a [T],
        received: &'a [Vec<T>],
    ) -> RowsIn<'a, T> {
        let mut pieces = self.pieces(data, received);
        pieces.sort_unstable_by_key(|p| p.sub.cols.start);
        RowsIn {
            dst: &self.dst,
            pieces,
        }
    }

    /// The send blocks and output of a reshape *out of* a rows layout
    /// (every source row spans every column), for its caller to write a
    /// source row at a time: the blocks and the output come from `free`,
    /// empty.
    pub(crate) fn rows_out<T: Copy>(&self, free: &mut FreeList<T>) -> RowsOut<'_, T> {
        RowsOut {
            plan: self,
            blocks: self.sends.iter().map(|(_, sub)| free.take(sub.area())).collect(),
            out: free.take(self.dst.area()),
            next: self.src.rows.start,
        }
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

    /// The pieces of this rank's destination: the kept one, read in
    /// place from the source buffer `data`, and the `received` blocks.
    fn pieces<'a, T>(&'a self, data: &'a [T], received: &'a [Vec<T>]) -> Vec<Piece<'a, T>> {
        let mut pieces = Vec::with_capacity(self.recvs.len() + 1);
        if !self.keep.is_empty() {
            pieces.push(Piece {
                sub: &self.keep,
                buf: data,
                layout: &self.src,
            });
        }
        for ((s, sub), block) in self.recvs.iter().zip(received) {
            assert_eq!(block.len(), sub.area(), "redistribute: bad block from {s}");
            pieces.push(Piece {
                sub,
                buf: block,
                layout: sub,
            });
        }
        pieces
    }

    /// Pack each send block of `data` into a buffer from `free`, and
    /// [`Reshape::exchange`] them.
    fn exchange_from<T: CommData + Copy>(
        &self,
        comm: &Communicator,
        data: &[T],
        free: &mut FreeList<T>,
    ) -> Vec<Vec<T>> {
        assert_eq!(data.len(), self.src.area(), "redistribute: bad source buffer");
        let blocks = self.sends.iter().map(|(_, sub)| {
            let mut block = free.take(sub.area());
            pack_into(data, &self.src, sub, &mut block);
            block
        });
        self.exchange(comm, blocks)
    }

    /// Send `blocks`, one per `sends` entry in its order, each as it
    /// comes, and return the blocks this rank receives, in `recvs` order.
    fn exchange<T: CommData + Copy>(
        &self,
        comm: &Communicator,
        blocks: impl Iterator<Item = Vec<T>>,
    ) -> Vec<Vec<T>> {
        assert_eq!(
            (comm.rank(), comm.size()),
            (self.rank, self.size),
            "redistribute: planned for another group"
        );
        let blocks = self.sends.iter().zip(blocks);
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
                let sends: Vec<_> = blocks
                    .map(|((d, _), block)| comm.isend_owned(*d, DFFT_TAG, block))
                    .collect();
                let got = wait_all(reqs);
                for s in sends {
                    s.wait();
                }
                got
            }
            collective => {
                let mut all: Vec<Vec<T>> = (0..self.size).map(|_| Vec::new()).collect();
                for ((d, _), block) in blocks {
                    all[*d] = block;
                }
                let volume = self.volume * std::mem::size_of::<T>();
                let algo = collective.resolve(self.size, volume as u64);
                let mut got = comm.alltoallv_owned(all, algo);
                self.recvs.iter().map(|&(s, _)| std::mem::take(&mut got[s])).collect()
            }
        }
    }

    /// How many pieces (the kept one and the received blocks) hold part
    /// of destination row `r`.
    #[cfg(test)]
    pub(crate) fn pieces_in_row(&self, r: usize) -> usize {
        std::iter::once(&self.keep)
            .chain(self.recvs.iter().map(|(_, block)| block))
            .filter(|p| !p.is_empty() && p.rows.contains(&r))
            .count()
    }

    /// What this rank keeps of its source rectangle.
    #[cfg(test)]
    pub(crate) fn keep(&self) -> &Rect {
        &self.keep
    }
}

/// The destination rows of a reshape into a rows layout, read where
/// they lie: in the kept piece of the source buffer and in the received
/// blocks ([`Reshape::rows_in`]).
pub(crate) struct RowsIn<'a, T> {
    dst: &'a Rect,
    /// In column order.
    pieces: Vec<Piece<'a, T>>,
}

impl<T: Copy> RowsIn<'_, T> {
    /// Destination row `r`: read in place when one piece holds all of
    /// it in one run, gathered into `scratch` otherwise.
    pub(crate) fn row<'s>(&'s self, r: usize, scratch: &'s mut Vec<T>) -> &'s [T] {
        let mut holding = self.pieces.iter().filter(|p| p.sub.rows.contains(&r));
        if let (Some(p), None) = (holding.next(), holding.next()) {
            if p.sub.cols == self.dst.cols && p.layout.cols == self.dst.cols {
                let start = p.layout.offset(r, p.sub.cols.start);
                return &p.buf[start..start + p.sub.ncols()];
            }
        }
        self.gather(r, scratch)
    }

    /// Destination row `r` copied into `scratch`, its runs in column
    /// order, each copied once.
    pub(crate) fn gather<'s>(&self, r: usize, scratch: &'s mut Vec<T>) -> &'s mut [T] {
        scratch.clear();
        for p in self.pieces.iter().filter(|p| p.sub.rows.contains(&r)) {
            let start = p.layout.offset(r, p.sub.cols.start);
            scratch.extend_from_slice(&p.buf[start..start + p.sub.ncols()]);
        }
        debug_assert_eq!(scratch.len(), self.dst.ncols());
        scratch
    }
}

/// The send blocks and output of a reshape out of a rows layout
/// ([`Reshape::rows_out`]), written a source row at a time by
/// [`RowsOut::push`] and exchanged by [`RowsOut::finish`].
pub(crate) struct RowsOut<'a, T> {
    plan: &'a Reshape,
    /// One per `plan.sends` entry, appended to row by row.
    blocks: Vec<Vec<T>>,
    /// Room for `plan.dst`: the kept piece is written into its spare
    /// capacity as its rows come, the received blocks after the
    /// exchange.
    out: Vec<T>,
    /// The source row `push` writes next.
    next: usize,
}

impl<T: CommData + Copy> RowsOut<'_, T> {
    /// Write the next source row: `fill` writes its `src.ncols()`
    /// elements into the slots it is given and hands them back written.
    /// A row this rank keeps whole is written where it goes in the
    /// output; any other into `scratch`, whose runs are then appended to
    /// their send blocks and copied into the output.
    ///
    /// # Panics
    /// Panics if every source row has been written already, or if `fill`
    /// hands back other slots than it was given.
    pub(crate) fn push<F>(&mut self, scratch: &mut Vec<T>, fill: F)
    where
        F: FnOnce(&mut [MaybeUninit<T>]) -> &mut [T],
    {
        let Reshape {
            src,
            dst,
            sends,
            keep,
            ..
        } = self.plan;
        let r = self.next;
        assert!(src.rows.contains(&r), "rows out: no source row is left to write");
        self.next += 1;
        let width = src.ncols();
        let kept = !keep.is_empty() && keep.rows.contains(&r);
        if kept && keep.cols == src.cols {
            let at = dst.offset(r, keep.cols.start);
            written(&mut self.out.spare_capacity_mut()[at..at + width], fill);
            return;
        }
        scratch.clear();
        scratch.reserve(width);
        let row = written(&mut scratch.spare_capacity_mut()[..width], fill);
        let run = |sub: &Rect| &row[sub.cols.start - src.cols.start..][..sub.ncols()];
        for ((_, sub), block) in sends.iter().zip(&mut self.blocks) {
            if sub.rows.contains(&r) {
                block.extend_from_slice(run(sub));
            }
        }
        if kept {
            let at = dst.offset(r, keep.cols.start);
            self.out.spare_capacity_mut()[at..at + keep.ncols()].write_copy_of_slice(run(keep));
        }
    }

    /// Exchange the send blocks, copy the received ones into the output
    /// and return it: this rank's destination rectangle, row-major. The
    /// blocks received go back to `free`. Collective over `comm`.
    ///
    /// # Panics
    /// Panics if a source row was not written.
    pub(crate) fn finish(self, comm: &Communicator, free: &mut FreeList<T>) -> Vec<T> {
        let RowsOut {
            plan,
            blocks,
            mut out,
            next,
        } = self;
        assert_eq!(next, plan.src.rows.end, "rows out: a source row is unwritten");
        let _phase = comm.telemetry().phase("dfft-redistribute");
        let received = plan.exchange(comm, blocks.into_iter());
        let slots = out.spare_capacity_mut();
        for ((s, sub), block) in plan.recvs.iter().zip(&received) {
            assert_eq!(block.len(), sub.area(), "redistribute: bad block from {s}");
            let (at, stride) = (plan.dst.offset(sub.rows.start, sub.cols.start), plan.dst.ncols());
            for (i, row) in block.chunks_exact(sub.ncols()).enumerate() {
                slots[at + i * stride..][..row.len()].write_copy_of_slice(row);
            }
        }
        // SAFETY: the kept piece and the received blocks tile `dst`
        // (checked when the reshape was planned). `push` wrote the kept
        // piece, a run of each source row, and every source row was
        // pushed (asserted above); the loop wrote each received block.
        unsafe { out.set_len(plan.dst.area()) };
        for block in received {
            free.give(block);
        }
        out
    }
}

/// `fill` run on `slots`, checked to hand back those very slots: a
/// `&mut [T]` over them is proof that every one was written.
fn written<T, F>(slots: &mut [MaybeUninit<T>], fill: F) -> &mut [T]
where
    F: FnOnce(&mut [MaybeUninit<T>]) -> &mut [T],
{
    let (at, len) = (slots.as_ptr().cast::<T>(), slots.len());
    let row = fill(slots);
    assert!(
        std::ptr::eq(row.as_ptr(), at) && row.len() == len,
        "rows out: a row must be written into the slots given"
    );
    row
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
    fn rows_in_and_rows_out_move_what_run_moves() {
        // The 7x5 layouts of the test above: ragged blocks into row slabs
        // (rows from 1 to 5 pieces, kept pieces empty or not), and row
        // slabs out to blocks and to column slabs narrower than the rank
        // count.
        let (nr, nc) = (7usize, 5usize);
        for p in [1usize, 2, 3, 5, 6] {
            World::builder(p).run(move |comm| {
                let me = comm.rank();
                let pc = if p % 3 == 0 { p / 3 } else { p };
                let (rd, cd) = (Dist::new(nr, p / pc), Dist::new(nc, pc));
                let block = move |r: usize| Rect::new(rd.range(r / pc), cd.range(r % pc));
                let rows = Dist::new(nr, p);
                let row_slab = move |r: usize| Rect::new(rows.range(r), 0..nc);
                let cols = Dist::new(nc, p);
                let col_slab = move |r: usize| Rect::new(0..nr, cols.range(r));
                let mut free = FreeList::new();
                let mut scratch = Vec::new();
                for algo in [AllToAllAlgo::Direct, AllToAllAlgo::Pairwise] {
                    let into = Reshape::new(me, p, &block, &row_slab, algo);
                    let data = fill(&block(me));
                    let want = into.run(&comm, &data, &mut free);
                    let received = into.exchange_into_rows(&comm, &data, &mut free);
                    let rows_in = into.rows_in(&data, &received);
                    for (r, want) in into.dst().rows.clone().zip(want.chunks_exact(nc)) {
                        assert_eq!(rows_in.row(r, &mut scratch), want, "p={p} row {r}");
                        assert_eq!(rows_in.gather(r, &mut scratch), want, "p={p} row {r}");
                    }
                    let dests: [&dyn Fn(usize) -> Rect; 2] = [&block, &col_slab];
                    for dst in dests {
                        let out_of = Reshape::new(me, p, &row_slab, dst, algo);
                        let data = fill(&row_slab(me));
                        let want = out_of.run(&comm, &data, &mut free);
                        let mut rows_out = out_of.rows_out(&mut free);
                        for row in data.chunks_exact(nc) {
                            rows_out.push(&mut scratch, |slots| slots.write_copy_of_slice(row));
                        }
                        assert_eq!(rows_out.finish(&comm, &mut free), want, "p={p}");
                    }
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "into the slots given")]
    fn rows_out_rejects_a_row_written_elsewhere() {
        World::builder(1).run(|comm| {
            let rect = Rect::new(0..2, 0..3);
            let reshape = Reshape::new(0, 1, &|_| rect.clone(), &|_| rect.clone(), AllToAllAlgo::Direct);
            let mut rows_out = reshape.rows_out(&mut FreeList::new());
            let elsewhere = Box::leak(vec![Complex::default(); 3].into_boxed_slice());
            rows_out.push(&mut Vec::new(), move |_| elsewhere);
            let _ = rows_out.finish(&comm, &mut FreeList::new());
        });
    }

    #[test]
    #[should_panic(expected = "does not tile")]
    fn a_destination_the_sources_overlap_is_rejected_when_planned() {
        // Both ranks' sources hold row 1.
        let src = |r: usize| Rect::new(r..r + 2, 0..4);
        let dst = |_: usize| Rect::new(0..3, 0..4);
        let _ = Reshape::new(0, 2, &src, &dst, AllToAllAlgo::Direct);
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

//! Generic rectangle redistribution.
//!
//! Every reshape in the distributed FFT moves data between two
//! *rectangle-per-rank* layouts of the same global index space. Because
//! both layouts are computable from rank indices alone, each rank derives
//! every pairwise intersection analytically — no metadata travels with the
//! payloads, exactly as in production transpose engines.
//!
//! Each element is written twice on its way: once into the packed block
//! a destination is sent, once into the destination rectangle, which
//! [`crate::layout::assemble`] builds row by row from the received
//! blocks in column order. Neither buffer is zero-filled first.

use crate::layout::{assemble, pack, Rect};
use beatnik_comm::message::CommData;
use beatnik_comm::{wait_all, AllToAllAlgo, Communicator};

/// Message tag for p2p reshape traffic. One message per `(source, tag)`
/// per reshape plus the mailbox's non-overtaking guarantee keeps
/// back-to-back reshapes from cross-matching, so a constant tag suffices.
const DFFT_TAG: u64 = 0x4446_4654; // "DFFT"

/// Move data from `my_rect` (this rank's rectangle in the source layout,
/// with row-major `data`) to the destination layout described by
/// `dest_rect(r)` over all ranks of `comm`. `src_rect(r)` must describe the
/// source layout for every rank (used to reconstruct incoming block
/// shapes). Returns this rank's new rectangle and its row-major contents.
///
/// `algo` selects the exchange engine (the heFFTe `AllToAll` knob):
/// [`AllToAllAlgo::Direct`] runs nonblocking point-to-point — every
/// receive is posted up front, sends go out pairwise, and arrivals
/// complete in whatever order they land; the p2p path also skips peers
/// whose rectangle intersection is empty, so sparse reshapes send fewer
/// messages than the collective. Every other choice runs the collective
/// `alltoallv` with that algorithm — including
/// [`AllToAllAlgo::Adaptive`], which picks the engine per call from
/// this rank's send volume.
///
/// Either way the packed per-destination blocks are handed to the
/// exchange by ownership, and the destination rectangle is assembled
/// straight from the received blocks, row by row in column order, into
/// a buffer that is never zero-filled: a reshape writes each element
/// twice (pack, assemble) and the receiver frees the block it was sent.
/// The source rectangles must tile the global index space (every
/// layout here does); a destination they leave a gap in or overlap
/// panics.
pub fn redistribute<T: CommData + Copy + Default>(
    comm: &Communicator,
    data: &[T],
    src_rect: &dyn Fn(usize) -> Rect,
    dest_rect: &dyn Fn(usize) -> Rect,
    algo: AllToAllAlgo,
) -> (Rect, Vec<T>) {
    let _phase = comm.telemetry().phase("dfft-redistribute");
    let p = comm.size();
    let me = comm.rank();
    let my_src = src_rect(me);
    let my_dst = dest_rect(me);
    debug_assert_eq!(data.len(), my_src.area(), "redistribute: bad source buffer");

    // Pack the intersection of my source data with every destination.
    let mut blocks: Vec<Vec<T>> = (0..p)
        .map(|d| {
            let inter = my_src.intersect(&dest_rect(d));
            if inter.is_empty() {
                Vec::new()
            } else {
                pack(data, &my_src, &inter)
            }
        })
        .collect();

    let received: Vec<Vec<T>> = match algo {
        AllToAllAlgo::Direct => {
            // Both sides compute the same intersections, so receiver and
            // sender agree on exactly which peers exchange a message.
            let expect: Vec<usize> = (0..p)
                .filter(|&s| s != me && !src_rect(s).intersect(&my_dst).is_empty())
                .collect();
            let reqs = expect
                .iter()
                .map(|&s| comm.irecv::<T>(s, DFFT_TAG))
                .collect();
            // Pairwise destination order spreads traffic instead of having
            // every rank hit rank 0 first. The packed per-destination
            // blocks are given up wholesale: ownership-transfer sends
            // move each block's allocation to its receiver with zero
            // payload copies at any size.
            let sends: Vec<_> = (1..p)
                .map(|step| (me + step) % p)
                .filter_map(|d| {
                    if blocks[d].is_empty() {
                        None
                    } else {
                        Some(comm.isend_owned(d, DFFT_TAG, std::mem::take(&mut blocks[d])))
                    }
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

    // Build my destination rectangle from the received blocks, each
    // element written once.
    let mut pieces: Vec<(Rect, Vec<T>)> = received
        .into_iter()
        .enumerate()
        .filter_map(|(s, block)| {
            let inter = src_rect(s).intersect(&my_dst);
            if inter.is_empty() {
                debug_assert!(block.is_empty());
                return None;
            }
            debug_assert_eq!(
                block.len(),
                inter.area(),
                "redistribute: bad block from {s}"
            );
            Some((inter, block))
        })
        .collect();
    let out = assemble(&my_dst, &mut pieces);
    (my_dst, out)
}

/// Simulate heFFTe's skipped-reorder path: push the assembled buffer
/// through an element-wise strided pass (scratch copy + per-element
/// placement). Data is unchanged; local memory traffic roughly doubles,
/// matching the cost of operating on non-contiguous layouts.
pub fn no_reorder_penalty<T: Copy>(buf: &mut [T]) {
    let scratch: Vec<T> = buf.to_vec();
    // Reverse-order element-wise writeback defeats the memcpy fast path,
    // behaving like a strided gather/scatter.
    let n = buf.len();
    for i in 0..n {
        buf[n - 1 - i] = scratch[n - 1 - i];
    }
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
    fn no_reorder_penalty_preserves_data() {
        let mut buf: Vec<Complex> = (0..100).map(|i| Complex::new(i as f64, -(i as f64))).collect();
        let orig = buf.clone();
        no_reorder_penalty(&mut buf);
        assert_eq!(buf, orig);
    }
}

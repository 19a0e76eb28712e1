//! All-to-all exchange — the communication pattern at the heart of the
//! paper's low-order (FFT) benchmark and of particle migration.
//!
//! Two base algorithms are provided because the heFFTe evaluation in
//! the paper (Section 5.5, Figure 9) is precisely about the difference
//! between MPI's built-in `MPI_Alltoall` and a library's custom
//! point-to-point exchange:
//!
//! * [`AllToAllAlgo::Pairwise`] — the scheduled pairwise exchange used by
//!   `MPI_Alltoall` for large messages: P−1 steps, in step `s` rank `r`
//!   sends to `(r+s) mod P` and receives from `(r−s) mod P`, so each
//!   network link carries one message at a time.
//! * [`AllToAllAlgo::Direct`] — post-everything-then-receive, the strategy
//!   custom exchange code (like heFFTe's `AllToAll=False` path) typically
//!   uses; fewer synchronization constraints, but all P−1 messages
//!   contend simultaneously.
//!
//! [`AllToAllAlgo::Adaptive`] picks one of the two per call from this
//! rank's mean block size, using the same power-of-two size bins
//! ([`beatnik_telemetry::sizebins`]) the trace histograms are keyed by:
//!
//! | condition (bytes per destination) | choice   |
//! |-----------------------------------|----------|
//! | ≥ 32 KiB                          | Pairwise |
//! | otherwise                         | Direct   |
//!
//! The per-rank volumes of an irregular exchange differ, so ranks may
//! resolve differently. That is safe: Pairwise and Direct post identical
//! message sets with identical tags, so a mixed world still matches up.
//!
//! Both algorithms produce identical results; they differ (on a real
//! network) in congestion behaviour, which `beatnik-model` models for
//! the figures.

use crate::communicator::Communicator;
use crate::error::CommError;
use crate::message::CommData;
use crate::trace::OpKind;
use beatnik_telemetry::{algos, sizebins, CommOp};

/// Algorithm selector for [`Communicator::alltoallv_owned`] and
/// [`Communicator::alltoallv_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllToAllAlgo {
    /// Scheduled pairwise exchange (MPI_Alltoall-style).
    #[default]
    Pairwise,
    /// Post all sends, then receive (custom p2p exchange style).
    Direct,
    /// Choose per call from the mean block size.
    Adaptive,
}

/// Size-bin threshold for [`AllToAllAlgo::Adaptive`], expressed as a
/// [`sizebins`] bucket index so the selection lines up with the trace
/// histograms that motivated it. Blocks in buckets
/// `>= PAIRWISE_MIN_BUCKET` (≥32 KiB) are bandwidth-bound: the scheduled
/// pairwise exchange keeps each link to one transfer at a time. Below
/// it, Direct's unsynchronized posts win.
const PAIRWISE_MIN_BUCKET: usize = 15; // ≥32 KiB

impl AllToAllAlgo {
    /// The engine this choice runs when a rank hands the exchange
    /// `total_bytes` over `p` destinations, its own block included:
    /// [`AllToAllAlgo::Adaptive`] resolved by the table above, the
    /// others as they are. A caller that keeps its own block out of the
    /// exchange resolves with it here first, so the choice is the same.
    pub fn resolve(self, p: usize, total_bytes: u64) -> AllToAllAlgo {
        match self {
            AllToAllAlgo::Adaptive => resolve(p, total_bytes),
            a => a,
        }
    }
}

/// Resolve [`AllToAllAlgo::Adaptive`] from this rank's total send
/// volume over `p` destinations.
fn resolve(p: usize, total_bytes: u64) -> AllToAllAlgo {
    let per_dest = total_bytes / p.max(1) as u64;
    if sizebins::bucket_of(per_dest) >= PAIRWISE_MIN_BUCKET {
        AllToAllAlgo::Pairwise
    } else {
        AllToAllAlgo::Direct
    }
}

/// Irregular all-to-all: `blocks[d]` goes to rank `d` and the result is
/// indexed by source rank. Block lengths may differ and may be zero;
/// zero-length blocks are still exchanged (as zero-byte messages),
/// keeping the message-matching schedule deterministic.
pub(crate) fn alltoallv<T: CommData + Clone>(
    comm: &Communicator,
    mut blocks: Vec<Vec<T>>,
    algo: AllToAllAlgo,
) -> Result<Vec<Vec<T>>, CommError> {
    comm.coll_begin(OpKind::Alltoallv);
    let mut span = comm.telemetry().op(CommOp::Alltoallv);
    let total: u64 = blocks
        .iter()
        .map(|b| std::mem::size_of_val(b.as_slice()) as u64)
        .sum();
    span.bytes(total);
    comm.check_group_alive()?;
    let p = comm.size();
    let r = comm.rank();
    let algo = algo.resolve(p, total);
    let code = if algo == AllToAllAlgo::Pairwise {
        algos::PAIRWISE
    } else {
        algos::DIRECT
    };
    span.algo(code);
    // Stamp the resolved algorithm for the duration of the exchange so
    // the per-phase communication matrix attributes each send round to
    // pairwise or direct.
    let _algo_scope = comm.telemetry().algo_scope(code);
    let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
    out[r] = std::mem::take(&mut blocks[r]);
    if algo == AllToAllAlgo::Pairwise {
        for s in 1..p {
            let dst = (r + s) % p;
            let src = (r + p - s) % p;
            let block = std::mem::take(&mut blocks[dst]);
            comm.coll_send(dst, s as u64, block, OpKind::Alltoallv);
            out[src] = comm.try_coll_recv::<T>(src, s as u64, "alltoall")?;
        }
    } else {
        // Post every send up front (buffered), then drain receives.
        // Tag by *step distance* so the matching schedule is identical
        // to Pairwise and repeated exchanges cannot cross-match.
        for s in 1..p {
            let dst = (r + s) % p;
            let block = std::mem::take(&mut blocks[dst]);
            comm.coll_send(dst, s as u64, block, OpKind::Alltoallv);
        }
        for s in 1..p {
            let src = (r + p - s) % p;
            out[src] = comm.try_coll_recv::<T>(src, s as u64, "alltoall")?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::{resolve, AllToAllAlgo};
    use crate::trace::OpKind;
    use crate::world::World;

    /// Every rank sends `[r, d]` to rank `d`; verify receipt from all.
    fn roundtrip(p: usize, algo: AllToAllAlgo) {
        let out = World::builder(p).run(move |c| {
            let blocks: Vec<Vec<u64>> = (0..p).map(|d| vec![c.rank() as u64, d as u64]).collect();
            c.alltoallv_owned(blocks, algo)
        });
        for (r, got) in out.into_iter().enumerate() {
            for (src, block) in got.iter().enumerate() {
                assert_eq!(block, &[src as u64, r as u64], "p={p} algo={algo:?}");
            }
        }
    }

    #[test]
    fn pairwise_all_sizes() {
        for p in [1, 2, 3, 4, 5, 8] {
            roundtrip(p, AllToAllAlgo::Pairwise);
        }
    }

    #[test]
    fn direct_all_sizes() {
        for p in [1, 2, 3, 4, 5, 8] {
            roundtrip(p, AllToAllAlgo::Direct);
        }
    }

    #[test]
    fn adaptive_all_sizes() {
        for p in [1, 2, 3, 4, 5, 8, 9] {
            roundtrip(p, AllToAllAlgo::Adaptive);
        }
    }

    #[test]
    fn adaptive_resolution_follows_size_table() {
        use AllToAllAlgo::*;
        // Small and mid-size blocks: Direct, at any world size.
        assert_eq!(resolve(16, 16 * 64), Direct);
        assert_eq!(resolve(4, 4 * 64), Direct);
        assert_eq!(resolve(16, 16 * 4096), Direct);
        // Blocks of 32 KiB and up: Pairwise.
        assert_eq!(resolve(16, 16 * 32 * 1024), Pairwise);
        assert_eq!(resolve(4, 4 * 64 * 1024), Pairwise);
        assert_eq!(resolve(2, 2 << 20), Pairwise);
    }

    #[test]
    fn alltoallv_with_empty_and_ragged_blocks() {
        let out = World::builder(4).run(|c| {
            // Rank r sends r+1 copies of its rank to each destination of
            // higher rank, nothing to lower ranks.
            let counts: Vec<usize> = (0..4)
                .map(|d| if d > c.rank() { c.rank() + 1 } else { 0 })
                .collect();
            let send = vec![c.rank() as u32; counts.iter().sum()];
            c.alltoallv_with(&send, &counts, AllToAllAlgo::Pairwise)
        });
        for (r, (flat, rcounts)) in out.into_iter().enumerate() {
            let mut rest = flat.as_slice();
            for (src, &n) in rcounts.iter().enumerate() {
                let (block, tail) = rest.split_at(n);
                rest = tail;
                if src < r {
                    assert_eq!(block, vec![src as u32; src + 1]);
                } else {
                    assert!(block.is_empty());
                }
            }
        }
    }

    /// Some destinations get zero elements; every algorithm must agree
    /// on the result at several world sizes.
    fn alltoallv_zero_blocks(p: usize, algo: AllToAllAlgo) {
        let out = World::builder(p).run(move |c| {
            // Rank r sends r+1 copies of (r*P+d) to each *even* rank d,
            // nothing to odd ranks.
            let counts: Vec<usize> = (0..p)
                .map(|d| if d % 2 == 0 { c.rank() + 1 } else { 0 })
                .collect();
            let send: Vec<u64> = (0..p)
                .flat_map(|d| vec![(c.rank() * p + d) as u64; counts[d]])
                .collect();
            c.alltoallv_with(&send, &counts, algo)
        });
        for (r, (flat, rcounts)) in out.into_iter().enumerate() {
            assert_eq!(rcounts.len(), p, "p={p} algo={algo:?}");
            let mut rest = flat.as_slice();
            for (src, &n) in rcounts.iter().enumerate() {
                let (block, tail) = rest.split_at(n);
                rest = tail;
                if r % 2 == 0 {
                    assert_eq!(n, src + 1, "p={p} algo={algo:?}");
                    assert_eq!(
                        block,
                        vec![(src * p + r) as u64; src + 1],
                        "p={p} algo={algo:?}"
                    );
                } else {
                    assert!(block.is_empty(), "p={p} algo={algo:?}");
                }
            }
        }
    }

    #[test]
    fn alltoallv_zero_length_blocks_all_algorithms() {
        for p in [2, 6, 16] {
            for algo in [
                AllToAllAlgo::Pairwise,
                AllToAllAlgo::Direct,
                AllToAllAlgo::Adaptive,
            ] {
                alltoallv_zero_blocks(p, algo);
            }
        }
    }

    #[test]
    fn alltoall_message_counts() {
        let (_, trace) = World::builder(4).run_traced(|c| {
            // 10 elements per destination.
            let _ = c.alltoallv_owned(vec![vec![0f64; 10]; 4], AllToAllAlgo::Pairwise);
        });
        for r in 0..4 {
            let s = trace.rank(r).get(OpKind::Alltoallv);
            assert_eq!(s.calls, 1);
            assert_eq!(s.messages, 3);
            assert_eq!(s.bytes, 3 * 80);
        }
    }

    #[test]
    fn repeated_alltoalls_do_not_cross_match() {
        World::builder(3).run(|c| {
            for i in 0..10u64 {
                let blocks: Vec<Vec<u64>> = (0..3).map(|d| vec![i * 100 + d]).collect();
                let got = c.alltoallv_owned(blocks, AllToAllAlgo::Pairwise);
                assert_eq!(got, vec![vec![i * 100 + c.rank() as u64]; 3], "iter {i}");
            }
        });
    }

    #[test]
    fn mixed_pairwise_and_direct_ranks_interoperate() {
        // Pairwise and Direct post identical message sets with identical
        // tags, so an adaptive world where ranks disagree must still
        // complete. Force maximal disagreement explicitly.
        let out = World::builder(5).run(|c| {
            let algo = if c.rank() % 2 == 0 {
                AllToAllAlgo::Pairwise
            } else {
                AllToAllAlgo::Direct
            };
            let blocks: Vec<Vec<i32>> = (0..5).map(|d| vec![(c.rank() * 5 + d) as i32]).collect();
            c.alltoallv_owned(blocks, algo)
        });
        for (r, got) in out.into_iter().enumerate() {
            let expect: Vec<Vec<i32>> = (0..5).map(|s| vec![(s * 5 + r) as i32]).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn direct_and_pairwise_agree() {
        for p in [2usize, 5, 6] {
            let run = |algo| {
                World::builder(p).run(move |c| {
                    let blocks: Vec<Vec<i32>> =
                        (0..p).map(|d| vec![(c.rank() * p + d) as i32]).collect();
                    c.alltoallv_owned(blocks, algo)
                })
            };
            assert_eq!(run(AllToAllAlgo::Pairwise), run(AllToAllAlgo::Direct));
        }
    }
}

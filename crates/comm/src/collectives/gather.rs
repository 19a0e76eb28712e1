//! Gather and ring allgather.
//!
//! Gather is direct-to-root (the algorithm MPI implementations use for
//! short messages). Allgather uses the ring algorithm: in step `s`, each
//! rank forwards the block it received in step `s−1` to its right
//! neighbor. P−1 steps, bandwidth-optimal, and the same pattern heFFTe's
//! non-alltoall exchanges produce.

use crate::communicator::Communicator;
use crate::error::CommError;
use crate::message::CommData;
use crate::trace::OpKind;
use beatnik_telemetry::CommOp;

/// Gather per-rank buffers to `root`. The root receives a `Vec` indexed by
/// source rank; other ranks get `None`. Buffers may have differing lengths.
pub(crate) fn gather<T: CommData + Clone>(
    comm: &Communicator,
    root: usize,
    data: Vec<T>,
) -> Result<Option<Vec<Vec<T>>>, CommError> {
    comm.coll_begin(OpKind::Gather);
    let mut span = comm.telemetry().op(CommOp::Gather);
    span.peer(root);
    span.bytes(std::mem::size_of_val(data.as_slice()) as u64);
    comm.check_group_alive()?;
    let p = comm.size();
    let r = comm.rank();
    assert!(root < p, "gather: root {root} out of range");
    if r == root {
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        out[root] = data;
        for (src, slot) in out.iter_mut().enumerate() {
            if src != root {
                *slot = comm.try_coll_recv::<T>(src, src as u64, "gather")?;
            }
        }
        Ok(Some(out))
    } else {
        comm.coll_send(root, r as u64, data, OpKind::Gather);
        Ok(None)
    }
}

/// All-gather per-rank buffers with the ring algorithm; every rank returns
/// the same `Vec` indexed by source rank. Buffers may differ in length.
pub(crate) fn allgather<T: CommData + Clone>(
    comm: &Communicator,
    data: Vec<T>,
) -> Result<Vec<Vec<T>>, CommError> {
    comm.coll_begin(OpKind::Allgather);
    let mut span = comm.telemetry().op(CommOp::Allgather);
    span.bytes(std::mem::size_of_val(data.as_slice()) as u64);
    comm.check_group_alive()?;
    let p = comm.size();
    let r = comm.rank();
    let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
    if p == 1 {
        out[0] = data;
        return Ok(out);
    }
    let right = (r + 1) % p;
    let left = (r + p - 1) % p;
    out[r] = data;
    // In step s we forward the block originated by rank (r - s + 1) and
    // receive the block originated by rank (r - s).
    for s in 1..p {
        let fwd_origin = (r + p - (s - 1)) % p;
        let recv_origin = (r + p - s) % p;
        let fwd = out[fwd_origin].clone();
        comm.coll_send(right, s as u64, fwd, OpKind::Allgather);
        out[recv_origin] = comm.try_coll_recv::<T>(left, s as u64, "allgather")?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::trace::OpKind;
    use crate::world::World;

    #[test]
    fn gather_collects_in_rank_order() {
        for p in [1usize, 2, 3, 5, 8] {
            let out = World::builder(p).run(|c| c.gather(0, &vec![c.rank() as u32; c.rank() + 1]));
            let want: Vec<u32> = (0..p).flat_map(|src| vec![src as u32; src + 1]).collect();
            assert_eq!(out[0].as_ref().unwrap(), &want);
            for v in &out[1..] {
                assert!(v.is_none());
            }
        }
    }

    #[test]
    fn allgather_all_sizes_variable_lengths() {
        for p in [1usize, 2, 3, 4, 7] {
            let out =
                World::builder(p).run(|c| c.allgather(&vec![c.rank() as i64; c.rank() % 3 + 1]));
            let want: Vec<i64> = (0..p)
                .flat_map(|src| vec![src as i64; src % 3 + 1])
                .collect();
            for got in out {
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn allgather_ring_message_count() {
        let (_, trace) = World::builder(4).run_traced(|c| {
            let _ = c.allgather(&[0u64; 8]); // 64 bytes per block
        });
        for r in 0..4 {
            let s = trace.rank(r).get(OpKind::Allgather);
            assert_eq!(s.calls, 1);
            assert_eq!(s.messages, 3); // P-1 ring steps
            assert_eq!(s.bytes, 3 * 64);
        }
    }
}

//! Allreduce: recursive doubling for power-of-two groups, with a
//! binomial reduce-to-rank-0 plus broadcast fallback for the rest, as
//! MPICH does.

use crate::communicator::Communicator;
use crate::error::CommError;
use crate::message::CommData;
use crate::reduce_op::ReduceOp;
use crate::trace::OpKind;
use beatnik_telemetry::CommOp;

/// Binomial-tree reduce to rank 0, on the allreduce's account: rank 0
/// gets `Some(result)`, every other rank `None` once its partial sum
/// has gone up the tree.
fn reduce_impl<T: CommData + Clone, O: ReduceOp<T>>(
    comm: &Communicator,
    value: Vec<T>,
    op: &O,
) -> Result<Option<Vec<T>>, CommError> {
    let p = comm.size();
    let r = comm.rank();
    let mut acc = value;
    let mut mask = 1usize;
    while mask < p {
        if r & mask == 0 {
            let src = r | mask;
            if src < p {
                let other = comm.try_coll_recv::<T>(src, mask as u64, "reduce")?;
                assert_eq!(
                    other.len(),
                    acc.len(),
                    "reduce: mismatched vector lengths across ranks"
                );
                for (a, b) in acc.iter_mut().zip(other.iter()) {
                    *a = op.combine(a, b);
                }
            }
        } else {
            comm.coll_send(r & !mask, mask as u64, acc, OpKind::Allreduce);
            return Ok(None);
        }
        mask <<= 1;
    }
    Ok(Some(acc))
}

/// Allreduce a single value across all ranks.
pub(crate) fn allreduce<T: CommData + Clone + Sync, O: ReduceOp<T>>(
    comm: &Communicator,
    value: T,
    op: &O,
) -> Result<T, CommError> {
    Ok(allreduce_vec(comm, vec![value], op)?.pop().unwrap())
}

/// Element-wise allreduce over equal-length vectors.
///
/// Uses recursive doubling when the group size is a power of two
/// (⌈log₂P⌉ rounds, every rank active every round); otherwise falls back
/// to a binomial reduce to rank 0 followed by a binomial broadcast.
pub(crate) fn allreduce_vec<T: CommData + Clone + Sync, O: ReduceOp<T>>(
    comm: &Communicator,
    value: Vec<T>,
    op: &O,
) -> Result<Vec<T>, CommError> {
    comm.coll_begin(OpKind::Allreduce);
    let mut span = comm.telemetry().op(CommOp::Allreduce);
    span.bytes(std::mem::size_of_val(value.as_slice()) as u64);
    comm.check_group_alive()?;
    let p = comm.size();
    if p == 1 {
        return Ok(value);
    }
    if p.is_power_of_two() {
        let r = comm.rank();
        let mut acc = value;
        let mut mask = 1usize;
        while mask < p {
            let partner = r ^ mask;
            comm.coll_send(partner, mask as u64, acc.clone(), OpKind::Allreduce);
            let other = comm.try_coll_recv::<T>(partner, mask as u64, "allreduce")?;
            assert_eq!(
                other.len(),
                acc.len(),
                "allreduce: mismatched vector lengths across ranks"
            );
            for (a, b) in acc.iter_mut().zip(other.iter()) {
                *a = op.combine(a, b);
            }
            mask <<= 1;
        }
        Ok(acc)
    } else {
        let reduced = reduce_impl(comm, value, op)?;
        // Broadcast the result from rank 0 on the allreduce's account.
        crate::collectives::broadcast::broadcast(comm, 0, reduced)
    }
}

#[cfg(test)]
mod tests {
    use crate::reduce_op::{FnOp, MaxOp, MinOp, SumOp};
    use crate::trace::OpKind;
    use crate::world::World;

    #[test]
    fn allreduce_sum_min_max_all_sizes() {
        for p in [1usize, 2, 3, 4, 5, 7, 8, 16] {
            let out = World::builder(p).run(|c| {
                let r = c.rank() as f64;
                (c.allreduce_sum(r), c.allreduce_min(r), c.allreduce_max(r))
            });
            let expect_sum: f64 = (0..p).map(|x| x as f64).sum();
            for (s, mn, mx) in out {
                assert_eq!(s, expect_sum, "p={p}");
                assert_eq!(mn, 0.0);
                assert_eq!(mx, (p - 1) as f64);
            }
        }
    }

    #[test]
    fn allreduce_with_custom_argmax_op() {
        let out = World::builder(5).run(|c| {
            let v = (c.rank() as f64 - 2.0).abs(); // max at ranks 0 and 4
            let op = FnOp(|a: &(f64, u64), b: &(f64, u64)| {
                if (a.0, a.1) >= (b.0, b.1) {
                    *a
                } else {
                    *b
                }
            });
            c.allreduce((v, c.rank() as u64), &op)
        });
        for (v, r) in out {
            assert_eq!(v, 2.0);
            assert_eq!(r, 4); // tie broken toward larger rank by the op
        }
    }

    #[test]
    fn allreduce_vec_recursive_doubling_message_count() {
        let (_, trace) = World::builder(8).run_traced(|c| {
            let _ = c.allreduce_vec(vec![1.0f64; 4], &SumOp);
        });
        for r in 0..8 {
            let s = trace.rank(r).get(OpKind::Allreduce);
            assert_eq!(s.calls, 1);
            assert_eq!(s.messages, 3); // log2(8)
            assert_eq!(s.bytes, 3 * 32); // 4 f64 per round
        }
    }

    #[test]
    fn min_max_ops_on_integers() {
        let out = World::builder(3).run(|c| {
            let r = c.rank() as i64 - 1; // -1, 0, 1
            (c.allreduce(r, &MinOp), c.allreduce(r, &MaxOp))
        });
        for (mn, mx) in out {
            assert_eq!(mn, -1);
            assert_eq!(mx, 1);
        }
    }
}

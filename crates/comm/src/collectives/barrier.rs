//! Dissemination barrier.
//!
//! In round `k` every rank sends a zero-byte token to `(rank + 2^k) % P`
//! and waits for the token from `(rank − 2^k) mod P`. After ⌈log₂P⌉
//! rounds, every rank transitively depends on every other rank having
//! entered the barrier. This is the classic algorithm used by MPICH for
//! medium process counts.

use crate::communicator::Communicator;
use crate::error::CommError;
use crate::trace::OpKind;
use beatnik_telemetry::CommOp;

/// Block until all ranks of `comm` have entered, or surface a group
/// failure or the deadline as a `CommError` instead of hanging.
pub(crate) fn barrier(comm: &Communicator) -> Result<(), CommError> {
    comm.coll_begin(OpKind::Barrier);
    // RAII guard: the span closes on every exit path (incl. p == 1).
    let _span = comm.telemetry().op(CommOp::Barrier);
    comm.check_group_alive()?;
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    let r = comm.rank();
    let mut dist = 1usize;
    let mut round = 0u64;
    while dist < p {
        let dst = (r + dist) % p;
        let src = (r + p - dist) % p;
        comm.coll_send::<u8>(dst, round, Vec::new(), OpKind::Barrier);
        let _: Vec<u8> = comm.try_coll_recv(src, round, "barrier")?;
        dist *= 2;
        round += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::trace::OpKind;
    use crate::world::World;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn barrier_orders_phases() {
        // Every rank increments before the barrier; after the barrier each
        // rank must observe the full count.
        for p in [1usize, 2, 3, 4, 7, 8] {
            let counter = Arc::new(AtomicUsize::new(0));
            let c2 = Arc::clone(&counter);
            World::builder(p).run(move |comm| {
                c2.fetch_add(1, Ordering::SeqCst);
                comm.barrier();
                assert_eq!(c2.load(Ordering::SeqCst), p);
            });
        }
    }

    #[test]
    fn barrier_message_count_is_log2() {
        let (_, trace) = World::builder(8).run_traced(|comm| {
            comm.barrier();
        });
        for r in 0..8 {
            let s = trace.rank(r).get(OpKind::Barrier);
            assert_eq!(s.calls, 1);
            assert_eq!(s.messages, 3); // log2(8) rounds
            assert_eq!(s.bytes, 0);
        }
    }

    #[test]
    fn repeated_barriers_do_not_interfere() {
        World::builder(5).run(|comm| {
            for _ in 0..20 {
                comm.barrier();
            }
        });
    }
}

//! Binomial-tree broadcast.
//!
//! Ranks are renumbered relative to the root; in ⌈log₂P⌉ rounds the set of
//! ranks holding the data doubles. Each rank receives at most once and
//! sends to at most ⌈log₂P⌉ children.

use crate::communicator::Communicator;
use crate::error::CommError;
use crate::message::CommData;
use crate::trace::OpKind;
use beatnik_telemetry::CommOp;

/// Broadcast `root`'s buffer to all ranks. The root passes `Some(data)`,
/// all other ranks pass `None`; every rank returns the full buffer.
/// A group failure or the receive deadline surfaces as a `CommError`.
///
/// # Panics
/// Panics if the root passes `None` or a non-root passes `Some` (a
/// collective-contract violation).
pub(crate) fn broadcast<T: CommData + Clone + Sync>(
    comm: &Communicator,
    root: usize,
    data: Option<Vec<T>>,
) -> Result<Vec<T>, CommError> {
    comm.coll_begin(OpKind::Broadcast);
    let mut span = comm.telemetry().op(CommOp::Broadcast);
    span.peer(root);
    comm.check_group_alive()?;
    let p = comm.size();
    let r = comm.rank();
    assert!(root < p, "broadcast: root {root} out of range");
    if r == root {
        assert!(data.is_some(), "broadcast: root must supply data");
    } else {
        assert!(data.is_none(), "broadcast: non-root must pass None");
    }
    if p == 1 {
        let buf = data.expect("broadcast: root must supply data");
        span.bytes(std::mem::size_of_val(buf.as_slice()) as u64);
        return Ok(buf);
    }

    let vrank = (r + p - root) % p;
    let mut buf: Option<Vec<T>> = data;

    // Receive phase: the lowest set bit of vrank identifies the parent.
    if vrank != 0 {
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                let parent = ((vrank - mask) + root) % p;
                buf = Some(comm.try_coll_recv::<T>(parent, mask as u64, "broadcast")?);
                break;
            }
            mask <<= 1;
        }
    }
    let buf = buf.expect("broadcast: internal protocol error");

    // Send phase: forward to children at decreasing strides.
    let mut mask = {
        // Highest power of two below p, halved down from vrank's position.
        let mut m = 1usize;
        while m < p {
            m <<= 1;
        }
        m >>= 1;
        m
    };
    // One Arc fans the buffer out to every child without a sender-side
    // clone per child; the last receiver to claim it takes the
    // allocation, so a forwarding rank clones at most once (below, if a
    // child still holds a reference when we reclaim our copy).
    let shared = std::sync::Arc::new(buf);
    while mask > 0 {
        if vrank & (mask - 1) == 0 && vrank | mask < p && vrank & mask == 0 {
            let child = ((vrank | mask) + root) % p;
            comm.coll_send_shared(child, mask as u64, &shared, OpKind::Broadcast);
        }
        mask >>= 1;
    }
    span.bytes(std::mem::size_of_val(shared.as_slice()) as u64);
    Ok(std::sync::Arc::try_unwrap(shared).unwrap_or_else(|arc| (*arc).clone()))
}

#[cfg(test)]
mod tests {
    use crate::trace::OpKind;
    use crate::world::World;

    #[test]
    fn broadcast_from_every_root_every_size() {
        for p in [1usize, 2, 3, 4, 5, 8, 9] {
            for root in 0..p {
                let out = World::builder(p).run(move |c| {
                    let data = if c.rank() == root {
                        Some(vec![root as f64, 42.0])
                    } else {
                        None
                    };
                    c.broadcast(root, data)
                });
                for v in out {
                    assert_eq!(v, vec![root as f64, 42.0], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn broadcast_message_budget_is_logarithmic() {
        let (_, trace) = World::builder(8).run_traced(|c| {
            let data = if c.rank() == 0 { Some(vec![1u8; 10]) } else { None };
            let _ = c.broadcast(0, data);
        });
        // Total messages in a binomial bcast = P - 1.
        assert_eq!(trace.total(OpKind::Broadcast).messages, 7);
        // Root sends log2(P) messages.
        assert_eq!(trace.rank(0).get(OpKind::Broadcast).messages, 3);
    }

    #[test]
    fn consecutive_broadcasts_keep_order() {
        World::builder(4).run(|c| {
            for i in 0..10u64 {
                let data = if c.rank() == 1 { Some(vec![i]) } else { None };
                let v = c.broadcast(1, data);
                assert_eq!(v, vec![i]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "root must supply data")]
    fn root_without_data_panics() {
        World::builder(1).run(|c| {
            let _ = c.broadcast::<u8>(0, None);
        });
    }
}

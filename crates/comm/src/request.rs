//! Nonblocking request handles — the `MPI_Isend`/`MPI_Irecv` analogue.
//!
//! The `isend` family ([`crate::Communicator::isend`],
//! [`crate::Communicator::isend_owned`]) delivers its envelope
//! immediately (sends are buffered), returning a [`SendRequest`] that
//! exists for API symmetry and instrumentation.
//! [`crate::Communicator::irecv`] posts a receive *intent* for the next
//! message from one source with one tag and returns a [`RecvRequest`]
//! that the caller completes later with [`RecvRequest::wait`] (blocking)
//! or polls with [`RecvRequest::test`] — the window between post and
//! wait is where communication overlaps computation.
//!
//! [`wait_all`] retires a batch of receive requests in *arrival* order
//! (whichever message lands first is absorbed first), while returning
//! payloads in posted order — the semantics of `MPI_Waitall`.
//!
//! Every post/retire is counted in the per-rank [`crate::RankTrace`]
//! (`request_posted`/`request_completed`), so traces report how deeply a
//! communication pattern pipelines (`peak_outstanding`).

use crate::communicator::{Communicator, Tag, Watch};
use crate::error::CommError;
use crate::mailbox::PostedId;
use crate::message::{CommData, Envelope};
use crate::trace::OpKind;
use beatnik_telemetry::{CommOp, SpanKind};
use std::time::Instant;

/// Handle for a posted nonblocking send.
///
/// The payload is already buffered at the destination when `isend`
/// returns, so completion never blocks; the handle's job is to mark the
/// point where the program *would* have to wait on a real network, and to
/// retire the request in the instrumentation. Dropping the handle retires
/// it implicitly.
#[must_use = "complete the send with wait() (or let the handle drop to retire it)"]
pub struct SendRequest<'c> {
    comm: &'c Communicator,
    retired: bool,
}

impl<'c> SendRequest<'c> {
    pub(crate) fn new(comm: &'c Communicator) -> Self {
        comm.trace().request_posted();
        SendRequest {
            comm,
            retired: false,
        }
    }

    fn retire(&mut self) {
        if !self.retired {
            self.retired = true;
            self.comm.trace().request_completed();
        }
    }

    /// Complete the send.
    pub fn wait(mut self) {
        self.retire();
    }
}

impl Drop for SendRequest<'_> {
    fn drop(&mut self) {
        self.retire();
    }
}

/// Handle for a posted nonblocking receive of a `Vec<T>` payload.
///
/// Completed by [`RecvRequest::wait`] (blocking, returns the payload),
/// [`RecvRequest::test`] (nonblocking poll), or [`wait_all`] over a
/// batch. Dropping an incomplete request cancels it (the message, if it
/// ever arrives, stays in the mailbox for a later receive).
#[must_use = "complete the receive with wait(), test(), or wait_all()"]
pub struct RecvRequest<'c, T: CommData> {
    comm: &'c Communicator,
    src: usize,
    tag: Tag,
    /// Posted slot in the mailbox's receive registry. Sends matching
    /// `(src, tag)` deposit their envelope directly here.
    posted: PostedId,
    data: Option<Vec<T>>,
    retired: bool,
}

impl<'c, T: CommData> RecvRequest<'c, T> {
    pub(crate) fn new(comm: &'c Communicator, src: usize, tag: Tag, posted: PostedId) -> Self {
        comm.trace().request_posted();
        RecvRequest {
            comm,
            src,
            tag,
            posted,
            data: None,
            retired: false,
        }
    }

    fn absorb(&mut self, env: Envelope) -> Result<(), CommError> {
        self.comm.trace().called(OpKind::Recv);
        self.comm.trace().request_completed();
        self.retired = true;
        self.data = Some(env.try_into_data()?);
        Ok(())
    }

    /// Nonblocking poll: take one zero-wait drain of this rank's inbound
    /// wire, as `MPI_Test` makes progress, then absorb the message if it
    /// has been delivered to this request's posted slot. Returns whether
    /// the request is complete.
    pub fn test(&mut self) -> bool {
        if self.data.is_some() {
            return true;
        }
        self.comm.drain_inbound();
        self.absorb_delivered()
    }

    /// Absorb the message if it is in this request's posted slot,
    /// without draining the wire. Returns whether the request is
    /// complete.
    fn absorb_delivered(&mut self) -> bool {
        if self.data.is_some() {
            return true;
        }
        let mb = self.comm.user_mailbox();
        if let Some(env) = mb.try_claim(self.posted) {
            // Receive-side flow marker for causal tracing: this is how
            // batched waits absorb envelopes, so each claimed message
            // gets its own instant edge endpoint inside the enclosing
            // blocking span (a no-op on untraced runs).
            if env.ctx != 0 {
                self.comm.telemetry().instant_flow(
                    SpanKind::Op(CommOp::Recv),
                    env.src as i64,
                    env.tag,
                    env.bytes as u64,
                    env.ctx,
                );
            }
            self.absorb(env).unwrap_or_else(|e| panic!("{e}"));
            true
        } else {
            false
        }
    }

    /// Block until the message arrives and return the payload.
    ///
    /// # Panics
    /// Panics on receive timeout (a deadlock converted into a loud
    /// failure) or if a peer rank fails while we wait — the same policy
    /// as the blocking [`crate::Communicator::recv`].
    pub fn wait(mut self) -> Vec<T> {
        if self.data.is_none() {
            if let Err(e) = self
                .comm
                .claim(self.posted, self.src, self.tag)
                .and_then(|env| self.absorb(env))
            {
                self.comm.escalate("irecv wait", e)
            }
        }
        self.data.take().expect("wait: completed without payload")
    }
}

impl<T: CommData> Drop for RecvRequest<'_, T> {
    fn drop(&mut self) {
        // Cancelled (never completed) requests withdraw their posted
        // slot — an already-deposited message is requeued at its
        // original position for a later receive — and still retire in
        // the outstanding-depth gauge so it balances back to zero.
        if !self.retired {
            self.retired = true;
            self.comm.user_mailbox().cancel_post(self.posted);
            self.comm.trace().request_completed();
        }
    }
}

/// Complete a batch of receive requests, absorbing messages in whatever
/// order they arrive, and return their payloads in *posted* order — the
/// semantics of `MPI_Waitall`.
///
/// All requests must come from the same communicator (they share one
/// mailbox). An empty batch returns immediately.
///
/// # Panics
/// Panics on receive timeout or peer failure, like blocking receives.
pub fn wait_all<T: CommData>(requests: Vec<RecvRequest<'_, T>>) -> Vec<Vec<T>> {
    let Some(comm) = requests.first().map(|r| r.comm) else {
        return Vec::new();
    };
    try_wait_all(requests).unwrap_or_else(|e| comm.escalate("wait_all", e))
}

/// The body of [`wait_all`], with peer failure and the receive deadline
/// as a [`CommError`]. On error the incomplete requests
/// are dropped (cancelling their posted slots); completed payloads
/// absorbed before the failure are discarded with them, matching MPI's
/// non-uniform-completion semantics.
fn try_wait_all<T: CommData>(
    mut requests: Vec<RecvRequest<'_, T>>,
) -> Result<Vec<Vec<T>>, CommError> {
    let Some(comm) = requests.first().map(|r| r.comm) else {
        return Ok(Vec::new());
    };
    debug_assert!(
        requests.iter().all(|r| std::ptr::eq(r.comm, comm)),
        "wait_all: requests from different communicators"
    );
    let mut span = comm.telemetry().op(CommOp::WaitAll);
    let mb = comm.user_mailbox();
    let deadline = Instant::now() + comm.recv_timeout();
    let mut pending: Vec<PostedId> = Vec::new();
    let mut first = (requests[0].src, requests[0].tag);
    comm.wait_until(&mb, deadline, Watch::Source, "wait_all", |since, wait| {
        if wait.is_zero() {
            // Absorb whatever has landed (the wait loop drained the wire
            // already), note what is still out.
            pending.clear();
            for r in requests.iter_mut() {
                if !r.absorb_delivered() {
                    if pending.is_empty() {
                        first = (r.src, r.tag);
                    }
                    pending.push(r.posted);
                }
            }
            if pending.is_empty() {
                return Ok(());
            }
        } else {
            // One sleep on every pending slot; the next drain absorbs
            // whatever woke it.
            mb.wait_any_posted(&pending, since, wait);
        }
        Err(first)
    })?;
    let out: Vec<Vec<T>> = requests
        .into_iter()
        .map(|mut r| r.data.take().expect("wait_all: incomplete request"))
        .collect();
    let bytes: usize = out.iter().map(|v| std::mem::size_of_val(v.as_slice())).sum();
    span.bytes(bytes as u64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::request::wait_all;
    use crate::world::World;

    #[test]
    fn isend_irecv_roundtrip() {
        World::builder(2).run(|c| {
            if c.rank() == 0 {
                let req = c.isend(1, 3, &[1.5f64, 2.5, 3.5]);
                req.wait();
            } else {
                let req = c.irecv::<f64>(0, 3);
                assert_eq!(req.wait(), vec![1.5, 2.5, 3.5]);
            }
        });
    }

    #[test]
    fn irecv_test_polls_without_blocking() {
        World::builder(2).run(|c| {
            if c.rank() == 0 {
                c.barrier();
                c.isend(1, 9, &[42u32]).wait();
            } else {
                let mut req = c.irecv::<u32>(0, 9);
                // Nothing sent yet: poll must not block or complete.
                assert!(!req.test());
                c.barrier();
                while !req.test() {
                    std::hint::spin_loop();
                }
                assert_eq!(req.wait(), vec![42]);
            }
        });
    }

    #[test]
    fn wait_all_returns_in_posted_order() {
        World::builder(4).run(|c| {
            if c.rank() == 0 {
                let reqs: Vec<_> = (1..4).map(|s| c.irecv::<u64>(s, 1)).collect();
                let got = wait_all(reqs);
                assert_eq!(got, vec![vec![100], vec![200], vec![300]]);
            } else {
                c.isend(0, 1, &[c.rank() as u64 * 100]).wait();
            }
        });
    }

    #[test]
    fn dropped_incomplete_request_balances_the_gauge() {
        let (_, trace) = World::builder(2).run_traced(|c| {
            if c.rank() == 1 {
                let req = c.irecv::<u8>(0, 5);
                drop(req); // cancelled: rank 0 never sends on tag 5
            }
            c.barrier();
        });
        assert_eq!(trace.rank(1).outstanding_requests(), 0);
        assert_eq!(trace.rank(1).peak_outstanding(), 1);
    }
}

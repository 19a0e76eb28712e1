//! The shared routing table mapping `(communicator id, rank)` to mailboxes.
//!
//! A [`Registry`] is created per [`crate::World`] and shared (via `Arc`) by
//! every rank thread. Mailboxes are created lazily on first use so that
//! communicators produced by `split` need no global setup phase: the first
//! send to — or receive on — a `(comm, rank)` address materializes its
//! mailbox.
//!
//! The registry is also the world's **failure ledger** (the shared-memory
//! analogue of an MPI runtime's out-of-band failure detector): a dying
//! rank marks itself failed here, and every mailbox is interrupted so
//! blocked receives re-check the ledger. The abort flag beside it ends
//! the whole world once any rank unwinds.

use crate::mailbox::Mailbox;
use crate::message::Envelope;
use crate::sync::{Mutex, RwLock};
use crate::transport::{CtrlMsg, Route, Transport};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Identifier of a communicator within one `World`.
pub type CommId = u64;

/// The id of the world communicator every rank starts with.
pub const WORLD_COMM_ID: CommId = 0;

/// Routing table shared by all ranks of a world.
pub struct Registry {
    mailboxes: RwLock<HashMap<(CommId, usize), Arc<Mailbox>>>,
    next_comm_id: AtomicU64,
    /// Set when any rank panics, so ranks blocked in receives fail fast
    /// instead of waiting out their full timeout.
    abort: AtomicBool,
    /// World ranks marked dead, with the instant each was first marked
    /// (the reference point for detection-latency measurements).
    failed: Mutex<HashMap<usize, Instant>>,
    /// The world's metrics plane, installed by the `World` runners after
    /// every per-rank publisher exists. `None` only for registries built
    /// outside a `World` (unit tests, ad-hoc harnesses).
    metrics: Mutex<Option<Arc<crate::metrics::MetricsPlane>>>,
    /// The transport carrying envelopes between ranks, installed by the
    /// `World` runners (or the `proc` launcher) before rank code runs.
    /// `None` means direct mailbox delivery — the behavior raw-registry
    /// unit tests and ad-hoc harnesses have always had.
    transport: RwLock<Option<Arc<dyn Transport>>>,
    /// Typed causes for transport-declared peer deaths: one
    /// [`CommError::LinkDown`] per stream that tore. The
    /// failure ledger records *that* a rank died; this records *why*.
    link_downs: Mutex<Vec<crate::error::CommError>>,
    /// Yield turns a waiting rank takes before it sleeps on its mailbox
    /// (see [`crate::communicator::YIELD_TURNS`]); set once at launch,
    /// before any communicator exists. Zero unless this process hosts
    /// more ranks than it has CPUs.
    yield_turns: AtomicU32,
}

impl Registry {
    /// Create a registry with the world communicator id reserved.
    pub fn new() -> Self {
        Registry {
            mailboxes: RwLock::new(HashMap::new()),
            next_comm_id: AtomicU64::new(WORLD_COMM_ID + 1),
            abort: AtomicBool::new(false),
            failed: Mutex::new(HashMap::new()),
            metrics: Mutex::new(None),
            transport: RwLock::new(None),
            link_downs: Mutex::new(Vec::new()),
            yield_turns: AtomicU32::new(0),
        }
    }

    /// Set the waiters' yield turns (once, at world setup).
    pub(crate) fn set_yield_turns(&self, turns: u32) {
        self.yield_turns.store(turns, Ordering::Relaxed);
    }

    /// Yield turns a waiting rank of this world takes before it sleeps.
    pub(crate) fn yield_turns(&self) -> u32 {
        self.yield_turns.load(Ordering::Relaxed)
    }

    /// Install the world's metrics plane (once, at world setup).
    pub fn install_metrics(&self, plane: Arc<crate::metrics::MetricsPlane>) {
        *self.metrics.lock() = Some(plane);
    }

    /// Install the transport that carries envelopes between ranks (once,
    /// at world setup, before any rank code runs).
    pub fn install_transport(&self, transport: Arc<dyn Transport>) {
        *self.transport.write() = Some(transport);
    }

    /// The installed transport, if any.
    pub fn transport(&self) -> Option<Arc<dyn Transport>> {
        self.transport.read().clone()
    }

    /// Route one envelope through the installed transport; with none
    /// installed, fall back to a direct mailbox push (the historical
    /// in-process behavior raw-registry harnesses rely on).
    pub fn deliver(&self, route: Route, env: Envelope) {
        match self.transport.read().as_ref() {
            Some(t) => t.deliver(self, route, env),
            None => self.mailbox(route.comm, route.dst_local).push(env),
        }
    }

    /// Broadcast failure-ledger news through the transport, if one is
    /// installed and has peers to tell.
    fn publish_ctrl(&self, msg: CtrlMsg) {
        if let Some(t) = self.transport.read().as_ref() {
            t.publish_ctrl(msg);
        }
    }

    /// Fold remotely-published ledger news into this registry *without*
    /// re-publishing (the news arrived over the wire; echoing it back
    /// would ping-pong forever).
    pub fn apply_remote_ctrl(&self, msg: CtrlMsg) {
        match msg {
            CtrlMsg::Failed(rank) => {
                self.failed.lock().entry(rank).or_insert_with(Instant::now);
                self.interrupt_all();
            }
            CtrlMsg::Abort => {
                self.abort.store(true, Ordering::SeqCst);
                self.interrupt_all();
            }
            // Clean goodbyes matter to connection-oriented transports
            // (they suppress failure detection on the coming EOF), not
            // to the ledger.
            CtrlMsg::Bye(_) => {}
        }
    }

    /// The world's metrics plane, if one was installed.
    pub fn metrics_plane(&self) -> Option<Arc<crate::metrics::MetricsPlane>> {
        self.metrics.lock().clone()
    }

    /// Mark the world as aborting (a rank panicked) and interrupt every
    /// mailbox, so blocked receives see it at once rather than at the
    /// end of their poll slice.
    pub fn signal_abort(&self) {
        let fresh = !self.abort.swap(true, Ordering::SeqCst);
        if fresh {
            self.interrupt_all();
            self.publish_ctrl(CtrlMsg::Abort);
        }
    }

    /// Whether a rank has panicked and the world is tearing down.
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// Mark a world rank dead and interrupt every mailbox so blocked
    /// receives observe the failure promptly. Idempotent: the first mark
    /// wins, keeping the original failure instant.
    pub fn mark_failed(&self, world_rank: usize) {
        let fresh = {
            let mut failed = self.failed.lock();
            match failed.entry(world_rank) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(Instant::now());
                    true
                }
                std::collections::hash_map::Entry::Occupied(_) => false,
            }
        };
        self.interrupt_all();
        if fresh {
            // Publish outside the ledger lock: a transport may fold its
            // own bookkeeping into the broadcast.
            self.publish_ctrl(CtrlMsg::Failed(world_rank));
        }
    }

    /// Record that the transport's stream to `peer` ended without a
    /// goodbye and mark the peer failed. The typed
    /// [`CommError::LinkDown`] lands in the link-down ledger so callers
    /// (and `FtReport`) can distinguish "the stream tore" from an
    /// injected or observed rank death.
    pub fn record_link_down(&self, peer: usize) {
        self.link_downs
            .lock()
            .push(crate::error::CommError::LinkDown { peer });
        self.mark_failed(peer);
    }

    /// Snapshot of the typed link-down causes recorded so far.
    pub fn link_downs(&self) -> Vec<crate::error::CommError> {
        self.link_downs.lock().clone()
    }

    /// Whether any rank has been marked failed.
    pub fn any_failed(&self) -> bool {
        !self.failed.lock().is_empty()
    }

    /// Whether a specific world rank has been marked failed.
    pub fn is_failed(&self, world_rank: usize) -> bool {
        self.failed.lock().contains_key(&world_rank)
    }

    /// Sorted snapshot of the failed world ranks.
    pub fn failed_snapshot(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.failed.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// When `world_rank` was first marked failed, if it has been.
    pub fn failed_at(&self, world_rank: usize) -> Option<Instant> {
        self.failed.lock().get(&world_rank).copied()
    }

    /// Wake every sleeping waiter in every mailbox so they re-check the
    /// failure ledger, and every rank asleep on its own wire (see
    /// [`crate::transport::Progress`]).
    fn interrupt_all(&self) {
        for mb in self.mailboxes.read().values() {
            mb.interrupt();
        }
        if let Some(progress) = self.transport.read().as_ref().and_then(|t| t.progress()) {
            progress.ring_all();
        }
    }

    /// Fetch the mailbox for `(comm, rank)`, creating it if needed.
    pub fn mailbox(&self, comm: CommId, rank: usize) -> Arc<Mailbox> {
        if let Some(mb) = self.mailboxes.read().get(&(comm, rank)) {
            return Arc::clone(mb);
        }
        let mut w = self.mailboxes.write();
        Arc::clone(
            w.entry((comm, rank))
                .or_insert_with(|| Arc::new(Mailbox::new())),
        )
    }

    /// Allocate a contiguous block of `n` fresh communicator ids and return
    /// the first. Used by `split`, where rank 0 of the parent allocates one
    /// id per color group and broadcasts the base so every member of each
    /// group deterministically agrees on its new communicator id.
    pub fn allocate_comm_ids(&self, n: u64) -> CommId {
        self.next_comm_id.fetch_add(n, Ordering::Relaxed)
    }

    /// Number of mailboxes currently materialized (diagnostics only).
    pub fn mailbox_count(&self) -> usize {
        self.mailboxes.read().len()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mailboxes_are_created_lazily_and_shared() {
        let reg = Registry::new();
        assert_eq!(reg.mailbox_count(), 0);
        let a = reg.mailbox(0, 1);
        let b = reg.mailbox(0, 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.mailbox_count(), 1);
        let _c = reg.mailbox(3, 1);
        assert_eq!(reg.mailbox_count(), 2);
    }

    #[test]
    fn comm_id_blocks_are_disjoint_and_never_world() {
        let reg = Registry::new();
        let a = reg.allocate_comm_ids(4);
        let b = reg.allocate_comm_ids(2);
        assert!(a > WORLD_COMM_ID);
        assert!(b >= a + 4);
    }

    #[test]
    fn failure_ledger_is_idempotent_and_sorted() {
        let reg = Registry::new();
        assert!(!reg.any_failed());
        assert_eq!(reg.failed_snapshot(), Vec::<usize>::new());
        reg.mark_failed(3);
        let t0 = reg.failed_at(3).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        reg.mark_failed(3); // second mark must not move the timestamp
        assert_eq!(reg.failed_at(3), Some(t0));
        reg.mark_failed(1);
        assert!(reg.any_failed());
        assert!(reg.is_failed(1) && reg.is_failed(3) && !reg.is_failed(0));
        assert_eq!(reg.failed_snapshot(), vec![1, 3]);
    }
}

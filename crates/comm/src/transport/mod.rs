//! The pluggable transport layer: how envelopes move between ranks.
//!
//! Everything above this module — the one send path, indexed
//! mailboxes, posted receives, every collective algorithm, fault
//! injection, and the metrics plane — is written against the indexed
//! [`crate::mailbox::Mailbox`] and never names a backend. A
//! [`Transport`] implementation decides what happens *between* a
//! sender's [`Transport::deliver`] call and the envelope appearing in
//! the destination mailbox:
//!
//! * [`thread::ThreadTransport`] — the classic in-process path: the
//!   envelope is pushed straight into the destination mailbox, payload
//!   buffers moving by pointer between rank threads. Zero copies beyond
//!   what the protocol itself charges.
//! * [`wire::Wire`] over a [`wire::Pipe`] — the one wire transport:
//!   envelopes are serialized into `len u32 | inner` frames, and the two
//!   byte pipes differ only in how bytes move, what a rank sleeps on,
//!   and where a read splits the frames. [`shmem::Shm`] copies bytes
//!   through memory-mapped SPSC rings, one per ordered rank pair, and
//!   sleeps on a futex word per rank; the rings are plain files under a
//!   shared directory, so the same code serves a single process
//!   (loopback mode, used by the backend test matrix) and one process
//!   per rank (spawned by [`crate::proc`]). [`tcp::Tcp`] writes frames to
//!   one plain TCP stream per rank pair, with `TCP_NODELAY`, and sleeps
//!   in `poll(2)`. EOF or a socket error on a stream whose peer has not
//!   said `BYE` marks the peer failed in the ledger, so a dead process
//!   ends its world the way a dead thread-rank does.
//!
//! ## Progress on call
//!
//! No wire backend runs a thread of its own. Only rank threads move
//! bytes from a wire into a mailbox ([`Progress`]), as an MPI library
//! makes progress when a rank calls into it: a rank that waits drains
//! its own inbound and sleeps on it, `test()` drains once, and a writer
//! blocked on a full ring or socket drains its own inbound between
//! tries, so two ranks that each write more than the wire holds to the
//! other cannot deadlock. A rank whose closure has returned keeps
//! draining until every rank of its process has returned (the
//! `MPI_Finalize` analogue), so no sender is left blocked on it. The
//! one thread a transport may spawn is the link-down reporter, started
//! after a failure ([`report_link_down`]).
//!
//! ## The contract (DESIGN.md §13 in full)
//!
//! A backend must (1) deliver envelopes **FIFO per (sender, receiver,
//! channel)** — the non-overtaking guarantee every collective schedule
//! leans on; (2) deliver into the *destination mailbox* so posted
//! receives, `(src, tag)` matching, and interrupts behave identically on
//! every backend; (3) propagate failure-ledger news ([`CtrlMsg`]) to
//! every rank that does not share the sender's [`Registry`]; and (4)
//! treat payload bytes as opaque — a wire backend may only carry
//! [`Envelope`]s whose element type is plain data (no drop glue), and
//! must refuse loudly otherwise.
//!
//! Copy accounting happens *above* the transport, where the envelope
//! is built (a borrowed slice is copied once into an owned buffer; owned
//! and shared buffers move by pointer), so it is backend-independent;
//! wire backends add their own serialization copies, which the protocol
//! counters never charge.

pub mod shmem;
pub mod tcp;
pub mod thread;
pub mod wire;

use crate::message::Envelope;
use crate::registry::{CommId, Registry};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// The selectable transport backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// In-process: ranks are threads, envelopes move by pointer.
    Thread,
    /// Memory-mapped shared-memory rings (in-process or one process per
    /// rank via [`crate::proc`]).
    Shmem,
    /// Length-prefixed frames over per-pair TCP sockets.
    Tcp,
}

impl TransportKind {
    /// Every backend, for test matrices and smoke loops.
    pub fn all() -> [TransportKind; 3] {
        [TransportKind::Thread, TransportKind::Shmem, TransportKind::Tcp]
    }

    /// Stable lowercase name (env values, metrics labels, bench rows).
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Thread => "thread",
            TransportKind::Shmem => "shmem",
            TransportKind::Tcp => "tcp",
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "thread" => Ok(TransportKind::Thread),
            "shmem" | "shm" => Ok(TransportKind::Shmem),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!(
                "unknown transport '{other}' (expected thread|shmem|tcp)"
            )),
        }
    }
}

/// Addressing for one envelope delivery: which mailbox, hosted where,
/// sent by whom. `comm` already carries the collective-channel bit, so
/// it is exactly the destination mailbox key's communicator component.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    /// Communicator id OR'd with the channel bit.
    pub comm: CommId,
    /// Destination rank *within* that communicator (the mailbox key).
    pub dst_local: usize,
    /// World rank sending the envelope (selects the wire, if any).
    pub src_world: usize,
    /// World rank hosting the destination mailbox.
    pub dst_world: usize,
}

/// Failure-ledger news a transport must carry to ranks that do not
/// share the sender's [`Registry`]. In-process backends (and wire
/// backends in loopback mode) never need to: the ledger itself is
/// shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlMsg {
    /// A world rank died; peers must mark it in their ledgers.
    Failed(usize),
    /// A rank panicked with a genuine bug; the world is tearing down.
    Abort,
    /// Clean goodbye from a world rank: its connection closing is a
    /// shutdown, not a failure.
    Bye(usize),
}

/// A pluggable envelope-delivery backend. See the module docs for the
/// contract a backend must uphold.
pub trait Transport: Send + Sync {
    /// Which backend this is (metrics labels, diagnostics).
    fn kind(&self) -> TransportKind;

    /// One-time wiring after the world's registry exists: wire backends
    /// keep a weak handle to it for failure reports and writer exits.
    fn attach(&self, _registry: &Arc<Registry>) {}

    /// Deliver `env` along `route`. Must preserve per-(sender,
    /// receiver, channel) FIFO order and terminate in a
    /// `registry.mailbox(route.comm, route.dst_local).push(env)` on the
    /// rank that hosts the destination mailbox.
    fn deliver(&self, registry: &Registry, route: Route, env: Envelope);

    /// Propagate failure-ledger news to ranks with their own registry.
    /// No-op for backends whose ranks share one.
    fn publish_ctrl(&self, _ctrl: CtrlMsg) {}

    /// Take one last drain on the calling thread and release wire
    /// resources. Called by the world runner after every rank thread has
    /// joined (loopback) or by the process teardown path (multi-process).
    fn shutdown(&self) {}

    /// The receive progress a rank drives on its own thread, for
    /// backends whose inbound bytes it reads itself. `None` (the
    /// default): the sender delivers, and a waiting rank sleeps on its
    /// mailbox.
    fn progress(&self) -> Option<Arc<dyn Progress>> {
        None
    }
}

/// Receive progress made by the rank that needs it: instead of
/// sleeping on its mailbox until another thread delivers, a rank reads
/// its own inbound wire and sleeps on the wire itself.
///
/// The protocol that keeps a delivery from slipping between a check and
/// a sleep: read [`Progress::epoch`] *before* looking in the mailbox,
/// and hand it to [`Progress::progress`], which does not sleep once the
/// epoch has moved past it. Interrupts of the failure ledger reach a
/// rank sleeping here through [`Progress::ring_all`].
pub trait Progress: Send + Sync {
    /// A count for `rank` that moves whenever a frame is delivered to
    /// it, by any thread; a backend may also move it when a frame is
    /// written toward the rank or its doorbell rings.
    fn epoch(&self, rank: usize) -> u64;

    /// Deliver what has arrived for `rank`, without sleeping.
    fn drain(&self, registry: &Registry, rank: usize);

    /// Deliver what has arrived for `rank`. If the epoch still equals
    /// `seen`, sleep until bytes arrive for it, its doorbell rings, or
    /// `timeout` passes, and deliver what woke it.
    fn progress(&self, registry: &Registry, rank: usize, seen: u64, timeout: Duration);

    /// Wake every rank sleeping in [`Progress::progress`] or blocked on
    /// a full wire.
    fn ring_all(&self);
}

/// Report that `observer`'s link from `peer` ended on bytes or a socket
/// state no frame can be made of: [`Registry::record_link_down`] posts a
/// typed [`crate::CommError::LinkDown`] and marks the peer failed. The
/// report runs on a thread of its own, because marking a peer failed
/// broadcasts through [`Transport::publish_ctrl`], which may wait on a
/// full wire, and the thread that found the fault may be a writer
/// draining its own inbound while it holds that wire.
pub(crate) fn report_link_down(registry: &Weak<Registry>, peer: usize, observer: usize) {
    let Some(registry) = registry.upgrade() else {
        return;
    };
    eprintln!(
        "beatnik-comm: {} (observed by rank {observer})",
        crate::error::CommError::LinkDown { peer }
    );
    std::thread::Builder::new()
        .name("beatnik-link-down".into())
        .spawn(move || registry.record_link_down(peer))
        .expect("spawning the link-down reporter");
}

/// Build a loopback transport: all `num_ranks` ranks live in this
/// process and share one registry, but inter-rank envelopes still cross
/// the backend's real wire (rings or sockets). This is what the world
/// runners install for `World::builder(n).transport(kind)`.
pub(crate) fn build_loopback(
    kind: TransportKind,
    num_ranks: usize,
    config: &crate::config::CommConfig,
) -> Arc<dyn Transport> {
    match kind {
        TransportKind::Thread => Arc::new(thread::ThreadTransport),
        TransportKind::Shmem => Arc::new(
            shmem::loopback(num_ranks, config.shm_ring_bytes)
                .unwrap_or_else(|e| panic!("shmem transport setup failed: {e}")),
        ),
        TransportKind::Tcp => Arc::new(
            tcp::loopback(num_ranks).unwrap_or_else(|e| panic!("tcp transport setup failed: {e}")),
        ),
    }
}

/// Instantiate a block of transport-parameterized tests once per
/// backend.
///
/// Write each test as `fn name(kind: TransportKind) { ... }`; the macro
/// expands it into `thread_backend::name`, `shmem_backend::name`, and
/// `tcp_backend::name` `#[test]` functions, binding `kind` to the
/// matching [`TransportKind`] so the body can do
/// `World::builder(n).transport(kind)`. Ordinary test attributes
/// (`#[ignore]`, `#[should_panic]`) pass through.
///
/// ```
/// beatnik_comm::backend_matrix! {
///     fn allreduce_sums(kind: TransportKind) {
///         let sums = beatnik_comm::World::builder(2)
///             .transport(kind)
///             .run(|c| c.allreduce_sum(1.0));
///         assert_eq!(sums, [2.0, 2.0]);
///     }
/// }
/// # fn main() {}
/// ```
#[macro_export]
macro_rules! backend_matrix {
    ($($(#[$attr:meta])* fn $name:ident($kind:ident: TransportKind) $body:block)*) => {
        $crate::backend_matrix!(@backend thread_backend, Thread,
            $($(#[$attr])* fn $name($kind) $body)*);
        $crate::backend_matrix!(@backend shmem_backend, Shmem,
            $($(#[$attr])* fn $name($kind) $body)*);
        $crate::backend_matrix!(@backend tcp_backend, Tcp,
            $($(#[$attr])* fn $name($kind) $body)*);
    };
    (@backend $module:ident, $variant:ident,
     $($(#[$attr:meta])* fn $name:ident($kind:ident) $body:block)*) => {
        mod $module {
            #[allow(unused_imports)]
            use super::*;
            $(
                $(#[$attr])*
                #[test]
                fn $name() {
                    let $kind: $crate::TransportKind = $crate::TransportKind::$variant;
                    $body
                }
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrips_through_names() {
        for kind in TransportKind::all() {
            assert_eq!(kind.name().parse::<TransportKind>().unwrap(), kind);
        }
        assert_eq!("shm".parse::<TransportKind>().unwrap(), TransportKind::Shmem);
        assert_eq!(" TCP ".parse::<TransportKind>().unwrap(), TransportKind::Tcp);
        assert!("carrier-pigeon".parse::<TransportKind>().is_err());
    }
}

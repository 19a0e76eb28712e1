//! # beatnik-comm — an in-process MPI-like message-passing runtime
//!
//! This crate is the communication substrate for Beatnik-RS. The paper's
//! Beatnik runs on MPI; Rust has no mature MPI story, so this crate
//! reimplements the message-passing model Beatnik needs, from scratch:
//!
//! * **Ranks as threads.** [`World::builder`] spawns `P` scoped threads,
//!   each receiving its own [`Communicator`] handle for the world group.
//! * **Point-to-point messaging** with MPI-style `(source, tag)` matching,
//!   buffered (non-blocking) sends and blocking receives.
//! * **Collectives** implemented with the same algorithms production MPI
//!   libraries use: dissemination barrier, binomial-tree broadcast,
//!   recursive-doubling allreduce, direct gather, ring allgather, and
//!   both pairwise-exchange and direct (post-all) all-to-allv. This matters
//!   because Beatnik is a *communication pattern* benchmark — the pattern
//!   of messages, not just the result, must match an MPI execution.
//! * **Communicator splitting** ([`Communicator::split`]) and a 2D
//!   [`cart::CartComm`] Cartesian topology with neighbor shifts, used for
//!   mesh halos and pencil FFT row/column exchanges.
//! * **Instrumentation**: every operation is counted (messages, bytes,
//!   calls) in a per-rank [`trace::RankTrace`], which the analytic
//!   performance model (`beatnik-model`) consumes to extrapolate runs to
//!   the paper's 4–1024 GPU scales. With profiling enabled
//!   ([`WorldBuilder::run_profiled`]), every operation additionally records a
//!   timestamped span into a per-rank `beatnik-telemetry` ring buffer,
//!   aggregated into a [`telemetry::WorldTimeline`] for wait-time
//!   attribution, collective-skew, and Chrome-trace export.
//!
//! Messages move `Vec<T>` buffers by pointer between threads (no
//! serialization), and there is one send path under every entry point:
//! an owned or shared buffer moves as it is, a borrowed slice is copied
//! once into an owned buffer first, and either deposits directly into a
//! posted receive when one exists (see [`message`]). Byte counts for the
//! trace are computed as `len * size_of::<T>()`.
//!
//! ## Example
//!
//! ```
//! use beatnik_comm::World;
//!
//! // Sum ranks with an allreduce across 4 ranks.
//! let results = World::builder(4).run(|comm| {
//!     comm.allreduce_sum(comm.rank() as f64)
//! });
//! assert!(results.iter().all(|&s| s == 6.0));
//! ```
//!
//! Ranks default to threads of this process, but the transport is
//! pluggable ([`transport::Transport`]): `World::builder(n).transport(...)`
//! selects shared-memory rings or TCP sockets, and [`proc`] launches one
//! process per rank.

pub mod cart;
mod collectives;
pub mod communicator;
pub mod config;
pub mod error;
pub mod fault;
pub mod mailbox;
pub mod message;
pub mod metrics;
pub mod proc;
pub mod rankpool;
pub mod reduce_op;
pub mod registry;
pub mod request;
pub mod sync;
pub mod trace;
pub mod transport;
pub mod world;

pub use cart::{dims_create, CartComm};
pub use communicator::{Communicator, Tag, ANY_SOURCE, ANY_TAG};
pub use config::{
    CommConfig, HANDSHAKE_TIMEOUT_ENV, HB_MISSES_ENV, HB_PERIOD_ENV, RECONNECT_ATTEMPTS_ENV,
    RECONNECT_BACKOFF_ENV, RECV_TIMEOUT_ENV, SHM_RING_BYTES_ENV, TRANSPORT_ENV,
};
pub use error::CommError;
pub use fault::{
    seed_from_env, CollectiveFailed, FaultEvent, FaultKind, FaultPlan, RankKilled,
    DEFAULT_FAULT_SEED, FAULT_SEED_ENV, RECOVERY_PHASE, SHRINK_PHASE,
};
pub use metrics::MetricsPlane;
pub use rankpool::{RankLease, RankPool};
pub use reduce_op::{MaxOp, MinOp, ProdOp, ReduceOp, SumOp};
pub use request::{try_wait_all, wait_all, RecvRequest, SendRequest};
pub use trace::{
    MatrixCell, MatrixImbalance, OpKind, OpStats, RankTrace, WorldMatrixCell, WorldTrace,
};
pub use transport::{LinkStats, Transport, TransportKind};
pub use world::{FtReport, World, WorldBuilder, DEFAULT_RECV_TIMEOUT};

pub use collectives::alltoall::AllToAllAlgo;

/// Re-export of the span-tracing layer so downstream crates reach the
/// telemetry types through their existing `beatnik-comm` dependency.
pub use beatnik_telemetry as telemetry;
pub use beatnik_telemetry::{SpanRecorder, WorldTimeline};

//! Collective communication algorithms.
//!
//! Each collective is implemented with the point-to-point algorithms real
//! MPI libraries use, because Beatnik's purpose is to exercise — and its
//! instrumentation to count — realistic message patterns:
//!
//! | collective | algorithm | messages per rank |
//! |---|---|---|
//! | barrier | dissemination | ⌈log₂P⌉ |
//! | broadcast | binomial tree | ≤ ⌈log₂P⌉ |
//! | allreduce | recursive doubling (P = 2ᵏ) or reduce+bcast | ⌈log₂P⌉ / 2⌈log₂P⌉ |
//! | gather | direct to root | P−1 at root |
//! | allgather | ring | P−1 |
//! | alltoallv | pairwise exchange or direct | P−1 |
//!
//! The free functions here are crate-internal; the one public entry
//! point per collective is the matching [`Communicator`] method.
//!
//! [`Communicator`]: crate::Communicator

pub(crate) mod alltoall;
pub(crate) mod barrier;
pub(crate) mod broadcast;
pub(crate) mod gather;
pub(crate) mod reduce;

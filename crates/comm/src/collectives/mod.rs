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
//! | reduce | binomial tree | ≤ ⌈log₂P⌉ |
//! | allreduce | recursive doubling (P = 2ᵏ) or reduce+bcast | ⌈log₂P⌉ / 2⌈log₂P⌉ |
//! | gather / scatter | direct to/from root | P−1 at root |
//! | allgather | ring | P−1 |
//! | alltoall | pairwise exchange or direct | P−1 |
//! | alltoallv | pairwise exchange | P−1 |

pub mod alltoall;
pub mod barrier;
pub mod broadcast;
pub mod gather;
pub mod reduce;
pub mod scatter;

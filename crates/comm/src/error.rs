//! Error types for the message-passing runtime.

use std::fmt;

/// Errors surfaced by fallible communicator operations.
///
/// Most protocol violations (e.g. receiving into the wrong element type)
/// are programming errors and panic with a descriptive message, mirroring
/// how MPI aborts the job; `CommError` covers conditions a caller can
/// reasonably handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A receive with a timeout expired before a matching message arrived.
    Timeout {
        /// Receiving rank.
        rank: usize,
        /// Source rank the receive was waiting on.
        src: usize,
        /// Tag the receive was waiting on.
        tag: u64,
    },
    /// A rank index was out of range for the communicator.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// The communicator size.
        size: usize,
    },
    /// Requested Cartesian dimensions do not multiply to the group size.
    BadDims {
        /// Product of the requested dimensions.
        product: usize,
        /// The communicator size.
        size: usize,
    },
    /// A buffer length or count vector disagrees with what the collective
    /// requires (e.g. an `alltoall` send buffer not divisible by the
    /// communicator size, or a counts slice of the wrong length).
    SizeMismatch {
        /// Which quantity was wrong (e.g. `"alltoall send length"`).
        what: &'static str,
        /// The size the operation required.
        expected: usize,
        /// The size the caller supplied.
        got: usize,
    },
    /// A peer rank the operation depends on has died (MPI's
    /// `MPI_ERR_PROC_FAILED`). Collectives report the lowest-numbered
    /// failed member of the communicator.
    RankFailed {
        /// Rank that observed the failure.
        rank: usize,
        /// World rank of the failed peer.
        failed: usize,
    },
    /// A wire stream to a peer ended without a goodbye: EOF, a socket
    /// error, or bytes no frame can be made of. Distinct from
    /// [`CommError::RankFailed`]: the *connection* is gone, which is the
    /// transport's evidence for declaring the peer dead — `LinkDown` is
    /// the cause, the ledger mark the effect.
    LinkDown {
        /// World rank on the far side of the dead link.
        peer: usize,
    },
    /// The received message's element type does not match the type the
    /// receiver asked for — the moral equivalent of an MPI datatype
    /// mismatch.
    TypeMismatch {
        /// Element type name the receiver requested.
        expected: &'static str,
        /// Element type name the sender actually sent.
        got: &'static str,
        /// Sender's rank within the communicator.
        src: usize,
        /// Message tag.
        tag: u64,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout { rank, src, tag } => write!(
                f,
                "recv timeout on rank {rank} waiting for src={src} tag={tag}"
            ),
            CommError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for communicator of size {size}")
            }
            CommError::BadDims { product, size } => write!(
                f,
                "cartesian dims product {product} does not match communicator size {size}"
            ),
            CommError::SizeMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected {expected}, got {got}"),
            CommError::RankFailed { rank, failed } => write!(
                f,
                "rank {rank} detected failure of world rank {failed}"
            ),
            CommError::LinkDown { peer } => {
                write!(f, "stream to world rank {peer} ended without a goodbye")
            }
            CommError::TypeMismatch {
                expected,
                got,
                src,
                tag,
            } => write!(
                f,
                "message type mismatch: received {got} from rank {src} (tag {tag}) but tried \
                 to receive as Vec<{expected}>"
            ),
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = CommError::Timeout {
            rank: 3,
            src: 1,
            tag: 7,
        };
        assert!(e.to_string().contains("rank 3"));
        let e = CommError::InvalidRank { rank: 9, size: 4 };
        assert!(e.to_string().contains("out of range"));
        let e = CommError::BadDims {
            product: 6,
            size: 4,
        };
        assert!(e.to_string().contains("dims"));
        let e = CommError::SizeMismatch {
            what: "alltoall send length",
            expected: 4,
            got: 3,
        };
        assert!(e.to_string().contains("expected 4, got 3"));
        let e = CommError::RankFailed { rank: 0, failed: 2 };
        assert!(e.to_string().contains("world rank 2"));
        let e = CommError::LinkDown { peer: 3 };
        assert!(e.to_string().contains("world rank 3"));
        assert!(e.to_string().contains("without a goodbye"));
        let e = CommError::TypeMismatch {
            expected: "f64",
            got: "u32",
            src: 3,
            tag: 9,
        };
        assert!(e.to_string().contains("message type mismatch"));
        assert!(e.to_string().contains("Vec<f64>"));
    }
}

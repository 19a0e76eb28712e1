//! The span record and its vocabulary of operation kinds.

/// Communication operations a span can describe.
///
/// These mirror the runtime's surface rather than `beatnik-comm`'s
/// `OpKind` counters: the nonblocking post (`Isend`/`Irecv`) and the
/// blocking completion (`Wait`/`WaitAll`) are distinct here because
/// the whole point of a timeline is separating the cheap post from
/// the time spent blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CommOp {
    /// Blocking buffered send (returns as soon as the envelope is queued).
    Send,
    /// Nonblocking send post.
    Isend,
    /// Blocking receive (includes all time blocked in the mailbox).
    Recv,
    /// Nonblocking receive post (instant: marks the posting time).
    Irecv,
    /// Blocking wait on a single receive request.
    Wait,
    /// Blocking wait on a batch of requests.
    WaitAll,
    Barrier,
    Broadcast,
    Reduce,
    Allreduce,
    Gather,
    Allgather,
    Scatter,
    Alltoall,
    Alltoallv,
}

impl CommOp {
    /// Spans of this kind represent time the rank could not compute:
    /// blocked in a receive/wait or inside a collective. Posts and
    /// buffered sends return immediately and do not count.
    pub fn is_blocking(self) -> bool {
        !matches!(self, CommOp::Send | CommOp::Isend | CommOp::Irecv)
    }

    /// True for collective operations (used by the skew analysis).
    pub fn is_collective(self) -> bool {
        matches!(
            self,
            CommOp::Barrier
                | CommOp::Broadcast
                | CommOp::Reduce
                | CommOp::Allreduce
                | CommOp::Gather
                | CommOp::Allgather
                | CommOp::Scatter
                | CommOp::Alltoall
                | CommOp::Alltoallv
        )
    }

    /// Stable lowercase name (used in trace exports and summaries).
    pub fn name(self) -> &'static str {
        match self {
            CommOp::Send => "send",
            CommOp::Isend => "isend",
            CommOp::Recv => "recv",
            CommOp::Irecv => "irecv",
            CommOp::Wait => "wait",
            CommOp::WaitAll => "wait_all",
            CommOp::Barrier => "barrier",
            CommOp::Broadcast => "broadcast",
            CommOp::Reduce => "reduce",
            CommOp::Allreduce => "allreduce",
            CommOp::Gather => "gather",
            CommOp::Allgather => "allgather",
            CommOp::Scatter => "scatter",
            CommOp::Alltoall => "alltoall",
            CommOp::Alltoallv => "alltoallv",
        }
    }

    /// Every operation kind, in export order.
    pub const ALL: [CommOp; 15] = [
        CommOp::Send,
        CommOp::Isend,
        CommOp::Recv,
        CommOp::Irecv,
        CommOp::Wait,
        CommOp::WaitAll,
        CommOp::Barrier,
        CommOp::Broadcast,
        CommOp::Reduce,
        CommOp::Allreduce,
        CommOp::Gather,
        CommOp::Allgather,
        CommOp::Scatter,
        CommOp::Alltoall,
        CommOp::Alltoallv,
    ];
}

/// What a span describes: a communication operation or a named
/// algorithmic phase (solver step, FFT reshape, halo exchange, ...).
///
/// Phase names are `&'static str` so recording a span never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Op(CommOp),
    Phase(&'static str),
}

impl SpanKind {
    /// Display name for exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Op(op) => op.name(),
            SpanKind::Phase(p) => p,
        }
    }

    /// Chrome-trace category: `"comm"` or `"phase"`.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Op(_) => "comm",
            SpanKind::Phase(_) => "phase",
        }
    }
}

/// The packed causal trace context carried on message envelopes and
/// recorded in [`Span::flow`]: `origin rank (16 bits) | step epoch
/// (16 bits) | per-rank send sequence (32 bits)`. Zero means "no
/// context" — tracing disabled, or a span that is not a flow endpoint.
pub mod flow {
    /// Pack a trace context. The sequence counter wraps at 2^32, the
    /// rank and epoch at 2^16 — all far beyond any loopback world.
    #[inline]
    pub fn pack(origin_rank: u16, step_epoch: u16, seq: u32) -> u64 {
        ((origin_rank as u64) << 48) | ((step_epoch as u64) << 32) | seq as u64
    }

    /// The world rank that minted this context (the sender).
    #[inline]
    pub fn origin_rank(ctx: u64) -> usize {
        (ctx >> 48) as usize
    }

    /// The step epoch the sender was in when it minted this context.
    #[inline]
    pub fn step_epoch(ctx: u64) -> u64 {
        (ctx >> 32) & 0xFFFF
    }

    /// The sender-local send sequence number.
    #[inline]
    pub fn seq(ctx: u64) -> u64 {
        ctx & 0xFFFF_FFFF
    }
}

/// Codes identifying the collective algorithm a span executed, for the
/// `algo` field of [`Span`]. Kept as small integers (not an enum) so
/// `Span` stays `Copy` + fixed-size and the comm crate can stamp them
/// without telemetry depending on comm types.
pub mod algos {
    /// No algorithm recorded (point-to-point ops, rooted collectives).
    pub const NONE: u8 = 0;
    /// Pairwise-exchange alltoall (`p - 1` synchronized rounds).
    pub const PAIRWISE: u8 = 1;
    /// Direct post-all-then-receive alltoall.
    pub const DIRECT: u8 = 2;
    /// Bruck log-P alltoall for small blocks.
    pub const BRUCK: u8 = 3;

    /// Stable lowercase name for trace exports; `None` for [`NONE`]
    /// and unknown codes.
    pub fn name(code: u8) -> Option<&'static str> {
        match code {
            PAIRWISE => Some("pairwise"),
            DIRECT => Some("direct"),
            BRUCK => Some("bruck"),
            _ => None,
        }
    }
}

/// One recorded interval on a rank's timeline. `Copy` and fixed-size
/// so the ring buffer is a flat preallocated array.
///
/// Times are nanoseconds since the world's shared epoch (the same
/// monotonic clock on every rank, so cross-rank skew is meaningful).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub kind: SpanKind,
    /// Peer rank (destination for sends, source for receives, root for
    /// rooted collectives); `-1` when not applicable.
    pub peer: i64,
    /// Message-matching tag, `0` when not applicable.
    pub tag: u64,
    /// Payload bytes this rank contributed to / received from the op.
    pub bytes: u64,
    /// Collective algorithm code from [`algos`]; `algos::NONE` when not
    /// applicable.
    pub algo: u8,
    /// Causal trace context (see [`flow`]): on send-side spans, the
    /// context stamped into the outgoing envelope; on receive-side
    /// spans, the context claimed from the matched envelope. `0` when
    /// the span is not a flow endpoint.
    pub flow: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds (0 for instant spans).
    #[inline]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration in seconds.
    pub fn dur_s(&self) -> f64 {
        self.dur_ns() as f64 * 1e-9
    }

    /// Whether `inner` lies within this span (inclusive bounds) and is
    /// not the very same interval.
    pub fn contains(&self, inner: &Span) -> bool {
        self.start_ns <= inner.start_ns
            && inner.end_ns <= self.end_ns
            && (self.start_ns, self.end_ns) != (inner.start_ns, inner.end_ns)
    }
}

impl Default for Span {
    fn default() -> Self {
        Span {
            kind: SpanKind::Phase(""),
            peer: -1,
            tag: 0,
            bytes: 0,
            algo: algos::NONE,
            flow: 0,
            start_ns: 0,
            end_ns: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_classification() {
        assert!(!CommOp::Send.is_blocking());
        assert!(!CommOp::Isend.is_blocking());
        assert!(!CommOp::Irecv.is_blocking());
        assert!(CommOp::Recv.is_blocking());
        assert!(CommOp::Wait.is_blocking());
        assert!(CommOp::Allreduce.is_blocking());
        for op in CommOp::ALL {
            assert_eq!(
                op.is_collective(),
                !matches!(
                    op,
                    CommOp::Send
                        | CommOp::Isend
                        | CommOp::Recv
                        | CommOp::Irecv
                        | CommOp::Wait
                        | CommOp::WaitAll
                ),
            );
        }
    }

    #[test]
    fn containment_is_strict_on_identical_intervals() {
        let outer = Span {
            start_ns: 10,
            end_ns: 50,
            ..Span::default()
        };
        let inner = Span {
            start_ns: 20,
            end_ns: 30,
            ..Span::default()
        };
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(!outer.contains(&outer));
    }
}

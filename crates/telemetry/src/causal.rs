//! Cross-rank causal flow edges: matching send-side spans to the
//! receive-side spans that claimed their envelopes.
//!
//! Every traced send mints a packed trace context
//! ([`crate::span::flow`]) and stamps it into the outgoing envelope;
//! the comm layer records the same context on the send span and on
//! whichever receive-side span (blocking recv, request wait, or an
//! instant recv marker inside a batched wait) absorbed the envelope.
//! This module rebuilds the edge set from a finished
//! [`WorldTimeline`]: the input to Chrome-trace flow events
//! (`ph: "s"/"f"`), the upstream-rank attribution in
//! [`WorldTimeline::critical_path`], and the no-orphan-flow test
//! invariant.

use crate::span::{flow, CommOp, Span, SpanKind};
use crate::timeline::WorldTimeline;
use std::collections::BTreeMap;

/// One matched send→recv edge. Ranks are positions in
/// [`WorldTimeline::ranks`]; span indices point into that rank's
/// `spans` vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEdge {
    /// The packed trace context both endpoints recorded.
    pub flow: u64,
    /// Sending rank (timeline position).
    pub src_rank: usize,
    /// Send-side span index on `src_rank`.
    pub src_span: usize,
    /// Receiving rank (timeline position).
    pub dst_rank: usize,
    /// Receive-side span index on `dst_rank`.
    pub dst_span: usize,
}

/// The rebuilt causal graph over one world timeline.
#[derive(Debug, Clone, Default)]
pub struct FlowGraph {
    /// Matched edges, in receive-side (rank, span) order.
    pub edges: Vec<FlowEdge>,
    /// Receive-side spans carrying a context no send span recorded —
    /// the signature of a send span lost to ring overflow (see
    /// `dropped_spans`). Empty on a healthy traced run.
    pub orphan_recvs: Vec<(usize, usize)>,
    /// Send contexts never claimed by a receive-side span. Nonzero is
    /// normal: buffered messages a receiver had not yet claimed
    /// when the world shut down, or receive paths below the telemetry
    /// horizon.
    pub unmatched_sends: usize,
}

/// Whether a span is a send-side flow endpoint.
#[inline]
pub fn is_send_endpoint(s: &Span) -> bool {
    s.flow != 0 && matches!(s.kind, SpanKind::Op(CommOp::Send | CommOp::Isend))
}

/// Whether a span is a receive-side flow endpoint (any non-send comm
/// span carrying a context: blocking recv, wait, or an instant recv
/// marker from a batched claim).
#[inline]
pub fn is_recv_endpoint(s: &Span) -> bool {
    s.flow != 0 && matches!(s.kind, SpanKind::Op(op) if !matches!(op, CommOp::Send | CommOp::Isend))
}

/// Rebuild the causal edge set from a finished timeline.
///
/// Contexts are unique per send (each mint bumps the sender's sequence
/// counter), so the send side is a plain map; a duplicated delivery
/// (wire-level chaos) shows up as two edges sharing one send endpoint,
/// which is exactly what happened.
pub fn flow_graph(tl: &WorldTimeline) -> FlowGraph {
    let mut sends: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    for (r, rt) in tl.ranks.iter().enumerate() {
        for (i, s) in rt.spans.iter().enumerate() {
            if is_send_endpoint(s) {
                sends.insert(s.flow, (r, i));
            }
        }
    }
    let mut graph = FlowGraph::default();
    let mut claimed: BTreeMap<u64, u32> = BTreeMap::new();
    for (r, rt) in tl.ranks.iter().enumerate() {
        for (i, s) in rt.spans.iter().enumerate() {
            if !is_recv_endpoint(s) {
                continue;
            }
            match sends.get(&s.flow) {
                Some(&(sr, si)) => {
                    *claimed.entry(s.flow).or_insert(0) += 1;
                    graph.edges.push(FlowEdge {
                        flow: s.flow,
                        src_rank: sr,
                        src_span: si,
                        dst_rank: r,
                        dst_span: i,
                    });
                }
                None => graph.orphan_recvs.push((r, i)),
            }
        }
    }
    graph.unmatched_sends = sends.len() - claimed.len();
    graph
}

impl FlowGraph {
    /// The origin world rank a receive-side span is causally bound to,
    /// straight from its packed context (works even for orphan recvs,
    /// whose send span was dropped but whose context still names its
    /// minter).
    pub fn upstream_rank(span: &Span) -> Option<usize> {
        if is_recv_endpoint(span) {
            Some(flow::origin_rank(span.flow))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::RankTimeline;

    fn span(kind: SpanKind, flow: u64, start: u64, end: u64) -> Span {
        Span {
            kind,
            flow,
            start_ns: start,
            end_ns: end,
            ..Span::default()
        }
    }

    fn tl(ranks: Vec<Vec<Span>>) -> WorldTimeline {
        WorldTimeline::new(
            ranks
                .into_iter()
                .enumerate()
                .map(|(rank, spans)| RankTimeline {
                    rank,
                    spans,
                    dropped: 0,
                })
                .collect(),
        )
    }

    #[test]
    fn matches_send_to_recv_by_context() {
        let ctx = flow::pack(0, 1, 7);
        let w = tl(vec![
            vec![span(SpanKind::Op(CommOp::Isend), ctx, 10, 20)],
            vec![span(SpanKind::Op(CommOp::Recv), ctx, 15, 40)],
        ]);
        let g = flow_graph(&w);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(
            g.edges[0],
            FlowEdge {
                flow: ctx,
                src_rank: 0,
                src_span: 0,
                dst_rank: 1,
                dst_span: 0,
            }
        );
        assert!(g.orphan_recvs.is_empty());
        assert_eq!(g.unmatched_sends, 0);
        assert_eq!(
            FlowGraph::upstream_rank(&w.ranks[1].spans[0]),
            Some(0)
        );
    }

    #[test]
    fn orphan_recv_and_unmatched_send_are_reported() {
        let sent = flow::pack(0, 0, 1);
        let lost = flow::pack(1, 0, 9); // no send span recorded it
        let w = tl(vec![
            vec![span(SpanKind::Op(CommOp::Send), sent, 0, 5)],
            vec![span(SpanKind::Op(CommOp::Wait), lost, 10, 30)],
        ]);
        let g = flow_graph(&w);
        assert!(g.edges.is_empty());
        assert_eq!(g.orphan_recvs, vec![(1, 0)]);
        assert_eq!(g.unmatched_sends, 1);
    }

    #[test]
    fn zero_context_spans_are_not_endpoints() {
        let w = tl(vec![vec![
            span(SpanKind::Op(CommOp::Send), 0, 0, 5),
            span(SpanKind::Op(CommOp::Recv), 0, 6, 9),
            span(SpanKind::Phase("step"), 0, 0, 10),
        ]]);
        let g = flow_graph(&w);
        assert!(g.edges.is_empty());
        assert!(g.orphan_recvs.is_empty());
        assert_eq!(g.unmatched_sends, 0);
    }
}

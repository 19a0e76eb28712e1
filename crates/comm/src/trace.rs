//! Communication instrumentation.
//!
//! Beatnik exists to *measure communication*, so every operation the
//! runtime performs is counted here: one [`RankTrace`] per world rank,
//! shared by all communicators that rank derives (splits, Cartesian row/
//! column subcommunicators), aggregated into a [`WorldTrace`] when the
//! world finishes. The analytic performance model in `beatnik-model` maps
//! these counts onto machine parameters to predict time at scale.

use crate::sync::Mutex;
use beatnik_telemetry::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use beatnik_telemetry::sizebins;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Per-message size histogram over the shared power-of-two buckets of
/// [`beatnik_telemetry::sizebins`]: `hist[i]` counts messages whose
/// payload falls in bucket `i`. Telemetry skew reports and the `model`
/// crate's network predictions use the same buckets, so a measured
/// histogram feeds the analytic model directly.
pub type ByteHistogram = [u64; sizebins::NUM_BUCKETS];

/// The kinds of operations the runtime distinguishes in traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Point-to-point send.
    Send,
    /// Point-to-point receive.
    Recv,
    /// Barrier participation.
    Barrier,
    /// Broadcast participation.
    Broadcast,
    /// Reduce-to-root participation.
    Reduce,
    /// Allreduce participation.
    Allreduce,
    /// Gather participation.
    Gather,
    /// Allgather participation.
    Allgather,
    /// Scatter participation.
    Scatter,
    /// All-to-all participation (regular counts).
    Alltoall,
    /// All-to-all participation (variable counts).
    Alltoallv,
}

impl OpKind {
    /// Every op kind, in trace order (`index` order).
    pub const ALL: [OpKind; 11] = [
        OpKind::Send,
        OpKind::Recv,
        OpKind::Barrier,
        OpKind::Broadcast,
        OpKind::Reduce,
        OpKind::Allreduce,
        OpKind::Gather,
        OpKind::Allgather,
        OpKind::Scatter,
        OpKind::Alltoall,
        OpKind::Alltoallv,
    ];

    /// Dense index of this kind into [`OpKind::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lowercase label used for the `op` metric label.
    pub fn metric_label(self) -> &'static str {
        match self {
            OpKind::Send => "send",
            OpKind::Recv => "recv",
            OpKind::Barrier => "barrier",
            OpKind::Broadcast => "broadcast",
            OpKind::Reduce => "reduce",
            OpKind::Allreduce => "allreduce",
            OpKind::Gather => "gather",
            OpKind::Allgather => "allgather",
            OpKind::Scatter => "scatter",
            OpKind::Alltoall => "alltoall",
            OpKind::Alltoallv => "alltoallv",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Counters for one operation kind on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Number of calls to the operation.
    pub calls: u64,
    /// Number of point-to-point messages the operation put on the "wire".
    pub messages: u64,
    /// Total payload bytes sent by this rank within the operation.
    pub bytes: u64,
}

impl OpStats {
    fn merge(&mut self, other: &OpStats) {
        self.calls += other.calls;
        self.messages += other.messages;
        self.bytes += other.bytes;
    }
}

/// One (phase, algorithm, destination) cell of a rank's communication
/// matrix row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixCell {
    /// Innermost solver phase open when the traffic was sent (`""` for
    /// traffic outside any phase).
    pub phase: &'static str,
    /// Collective-algorithm code in force ([`beatnik_telemetry::algos::NONE`] outside any
    /// all-to-all engine).
    pub algo: u8,
    /// Destination *world* rank.
    pub dst: usize,
    /// Point-to-point messages sent to `dst` in this (phase, algo).
    pub messages: u64,
    /// Payload bytes sent to `dst` in this (phase, algo).
    pub bytes: u64,
}

/// Registry-backed atomic cells for one op kind: the per-op byte
/// accounting of this trace *is* the metrics registry's cells, so the
/// summary tables and the OpenMetrics exposition can never drift.
#[derive(Debug)]
struct OpCells {
    calls: Counter,
    messages: Counter,
    bytes: Counter,
    sizes: Histogram,
}

/// Matrix cells keyed by `(phase, algo, dst)`, holding
/// `(messages, bytes)`.
type PhasedCells = BTreeMap<(&'static str, u8, usize), (u64, u64)>;

/// All counters for one rank, shared across its derived communicators.
///
/// Since the metrics plane landed, the per-op counters and size
/// histograms are handles into a [`MetricsRegistry`] (lock-free atomic
/// cells registered under `beatnik_comm_*{rank,op}`); the old ad-hoc
/// mutex-map accounting is gone and every read path — summaries, the
/// analytic model, OpenMetrics — observes the same cells.
#[derive(Debug)]
pub struct RankTrace {
    /// Registry-backed per-op cells, indexed by [`OpKind::index`].
    ops: Vec<OpCells>,
    /// Per-(phase, algo, dst) communication-matrix row. `peer_bytes` is
    /// derived from this by summing over phases, so the per-phase
    /// matrix and the classic byte matrix agree *exactly* by
    /// construction.
    phased: Mutex<PhasedCells>,
    /// Nonblocking requests currently posted but not yet retired.
    outstanding: Gauge,
    /// High-water mark of `outstanding` — how deeply the program pipelines.
    peak_outstanding: Gauge,
    /// Payload bytes physically copied on this rank's sends: a
    /// borrowed-slice send copies its payload once into the owned buffer
    /// that travels; owned and shared sends move the allocation and
    /// count zero, on every backend — wire serialization is
    /// transport-internal and never charged here, so the accounting is
    /// backend-uniform.
    copied: Counter,
    /// Payload bytes moved by ownership transfer (owned-`Vec` and shared
    /// `Arc` sends): the zero-copy traffic. Disjoint from `copied` by
    /// construction — a send charges one or the other, never both.
    handoff: Counter,
}

impl Default for RankTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl RankTrace {
    /// Fresh, zeroed trace backed by a private registry (rank label 0).
    /// Worlds use [`with_registry`](RankTrace::with_registry) so every
    /// rank publishes into one shared registry.
    pub fn new() -> Self {
        Self::with_registry(&MetricsRegistry::new(), 0)
    }

    /// A trace whose counters are registered in `reg` under
    /// `rank="<rank>"` labels.
    pub fn with_registry(reg: &MetricsRegistry, rank: usize) -> Self {
        let r = rank.to_string();
        let ops = OpKind::ALL
            .iter()
            .map(|k| {
                let labels: [(&str, &str); 2] = [("rank", &r), ("op", k.metric_label())];
                OpCells {
                    calls: reg.counter(
                        "beatnik_comm_calls_total",
                        "communication operation calls",
                        &labels,
                    ),
                    messages: reg.counter(
                        "beatnik_comm_messages_total",
                        "point-to-point messages put on the wire",
                        &labels,
                    ),
                    bytes: reg.counter(
                        "beatnik_comm_bytes_total",
                        "payload bytes sent",
                        &labels,
                    ),
                    sizes: reg.histogram(
                        "beatnik_comm_message_size_bytes",
                        "per-message payload size",
                        &labels,
                    ),
                }
            })
            .collect();
        let rl: [(&str, &str); 1] = [("rank", &r)];
        RankTrace {
            ops,
            phased: Mutex::new(BTreeMap::new()),
            outstanding: reg.gauge(
                "beatnik_requests_outstanding",
                "nonblocking requests posted but not retired",
                &rl,
            ),
            peak_outstanding: reg.gauge(
                "beatnik_requests_outstanding_peak",
                "high-water mark of outstanding nonblocking requests",
                &rl,
            ),
            copied: reg.counter(
                "beatnik_transport_copied_bytes_total",
                "payload bytes physically copied by the transport",
                &rl,
            ),
            handoff: reg.counter(
                "beatnik_transport_handoff_bytes_total",
                "payload bytes moved by zero-copy ownership transfer",
                &rl,
            ),
        }
    }

    /// Count one call of `kind` on this rank: a receive completing, or
    /// a collective being entered.
    pub fn called(&self, kind: OpKind) {
        self.ops[kind.index()].calls.inc();
    }

    /// Count one point-to-point message of `bytes` payload bytes put on
    /// the "wire" toward world rank `peer` — the single accounting point
    /// under every send entry point. The message lands in `kind`'s
    /// traffic counters and size histogram, in the communication matrix
    /// under the given solver phase and collective-algorithm code, and
    /// in exactly one of the `copied` (a borrowed slice was materialised)
    /// or `handoff` (the allocation moved) byte counters. A
    /// [`OpKind::Send`] message is its own call; a collective's call was
    /// counted once at entry ([`RankTrace::called`]).
    pub fn sent(
        &self,
        kind: OpKind,
        bytes: u64,
        copied: bool,
        peer: usize,
        phase: &'static str,
        algo: u8,
    ) {
        let c = &self.ops[kind.index()];
        if kind == OpKind::Send {
            c.calls.inc();
        }
        c.messages.inc();
        c.bytes.add(bytes);
        c.sizes.observe(bytes);
        if copied {
            self.copied.add(bytes);
        } else {
            self.handoff.add(bytes);
        }
        let mut m = self.phased.lock();
        let e = m.entry((phase, algo, peer)).or_insert((0, 0));
        e.0 += 1;
        e.1 += bytes;
    }

    /// The per-message size histogram for one op kind (zeroed if the op
    /// never sent a message).
    pub fn byte_histogram(&self, kind: OpKind) -> ByteHistogram {
        self.ops[kind.index()].sizes.bucket_counts()
    }

    /// All per-op message-size histograms (ops that never sent are
    /// omitted).
    pub fn byte_histograms(&self) -> BTreeMap<OpKind, ByteHistogram> {
        OpKind::ALL
            .iter()
            .filter(|k| self.ops[k.index()].sizes.count() > 0)
            .map(|&k| (k, self.byte_histogram(k)))
            .collect()
    }

    /// Bytes sent per world peer (summed over phases and algorithms).
    pub fn peer_bytes(&self) -> BTreeMap<usize, u64> {
        let mut out: BTreeMap<usize, u64> = BTreeMap::new();
        for (&(_, _, dst), &(_, bytes)) in self.phased.lock().iter() {
            *out.entry(dst).or_default() += bytes;
        }
        out
    }

    /// The full per-(phase, algo, dst) communication-matrix row.
    pub fn matrix_cells(&self) -> Vec<MatrixCell> {
        self.phased
            .lock()
            .iter()
            .map(|(&(phase, algo, dst), &(messages, bytes))| MatrixCell {
                phase,
                algo,
                dst,
                messages,
                bytes,
            })
            .collect()
    }

    /// Snapshot the per-op counters (ops never recorded are omitted).
    pub fn snapshot(&self) -> BTreeMap<OpKind, OpStats> {
        OpKind::ALL
            .iter()
            .map(|&k| (k, self.get(k)))
            .filter(|(_, s)| *s != OpStats::default())
            .collect()
    }

    /// Stats for one op kind (zeroed if never recorded).
    pub fn get(&self, kind: OpKind) -> OpStats {
        let c = &self.ops[kind.index()];
        OpStats {
            calls: c.calls.get(),
            messages: c.messages.get(),
            bytes: c.bytes.get(),
        }
    }

    /// Total bytes sent by this rank across all op kinds.
    pub fn total_bytes(&self) -> u64 {
        self.ops.iter().map(|c| c.bytes.get()).sum()
    }

    /// Total messages sent by this rank across all op kinds.
    pub fn total_messages(&self) -> u64 {
        self.ops.iter().map(|c| c.messages.get()).sum()
    }

    /// Record that a nonblocking request (`isend`/`irecv`) was posted.
    pub fn request_posted(&self) {
        let now = self.outstanding.add(1);
        self.peak_outstanding.max_with(now);
    }

    /// Record that a nonblocking request completed (wait/test success or
    /// handle drop).
    pub fn request_completed(&self) {
        self.outstanding.sub(1);
    }

    /// Payload bytes physically copied by this rank's sends.
    pub fn copied_bytes(&self) -> u64 {
        self.copied.get()
    }

    /// Payload bytes this rank's sends moved by zero-copy handoff.
    pub fn handoff_bytes(&self) -> u64 {
        self.handoff.get()
    }

    /// Nonblocking requests currently posted and not yet retired.
    pub fn outstanding_requests(&self) -> u64 {
        self.outstanding.get()
    }

    /// High-water mark of simultaneously outstanding requests.
    pub fn peak_outstanding(&self) -> u64 {
        self.peak_outstanding.get()
    }

    /// Reset every counter to zero (benchmark harnesses call this between
    /// warmup and measured phases).
    pub fn reset(&self) {
        for c in &self.ops {
            c.calls.reset();
            c.messages.reset();
            c.bytes.reset();
            c.sizes.reset();
        }
        self.phased.lock().clear();
        self.outstanding.reset();
        self.peak_outstanding.reset();
        self.copied.reset();
        self.handoff.reset();
    }
}

/// Aggregated traces for a completed world run, indexed by world rank.
#[derive(Debug)]
pub struct WorldTrace {
    per_rank: Vec<Arc<RankTrace>>,
}

impl WorldTrace {
    /// Build from the per-rank trace handles the world created.
    pub fn new(per_rank: Vec<Arc<RankTrace>>) -> Self {
        WorldTrace { per_rank }
    }

    /// Number of ranks traced.
    pub fn num_ranks(&self) -> usize {
        self.per_rank.len()
    }

    /// The trace of one rank.
    pub fn rank(&self, r: usize) -> &RankTrace {
        &self.per_rank[r]
    }

    /// Sum of an op's stats over all ranks.
    pub fn total(&self, kind: OpKind) -> OpStats {
        let mut acc = OpStats::default();
        for t in &self.per_rank {
            acc.merge(&t.get(kind));
        }
        acc
    }

    /// Total bytes moved across the whole world.
    pub fn total_bytes(&self) -> u64 {
        self.per_rank.iter().map(|t| t.total_bytes()).sum()
    }

    /// Maximum bytes sent by any single rank — a first-order load-imbalance
    /// indicator for communication volume.
    pub fn max_rank_bytes(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|t| t.total_bytes())
            .max()
            .unwrap_or(0)
    }

    /// Deepest request pipeline any rank built (max over ranks of the
    /// per-rank peak of simultaneously outstanding `isend`/`irecv`
    /// requests).
    pub fn peak_outstanding(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|t| t.peak_outstanding())
            .max()
            .unwrap_or(0)
    }

    /// Payload bytes physically copied by sends across the whole world.
    /// Compare against [`total_bytes`](WorldTrace::total_bytes) to see
    /// the copy factor the program achieved (1× = all borrowed-slice
    /// sends, 0× = all owned or shared moves).
    pub fn copied_bytes(&self) -> u64 {
        self.per_rank.iter().map(|t| t.copied_bytes()).sum()
    }

    /// Payload bytes moved by zero-copy ownership transfer across the
    /// whole world. Together with [`copied_bytes`](WorldTrace::copied_bytes)
    /// this partitions all accounted payload traffic: handoff bytes are
    /// the ones the transport did *not* have to touch.
    pub fn handoff_bytes(&self) -> u64 {
        self.per_rank.iter().map(|t| t.handoff_bytes()).sum()
    }

    /// Sum of one op's per-message size histogram over all ranks.
    pub fn byte_histogram(&self, kind: OpKind) -> ByteHistogram {
        let mut acc = [0u64; sizebins::NUM_BUCKETS];
        for t in &self.per_rank {
            for (i, c) in t.byte_histogram(kind).iter().enumerate() {
                acc[i] += c;
            }
        }
        acc
    }

    /// Render the non-empty per-op message-size histograms as a table
    /// (one row per populated size bucket).
    pub fn histogram_text(&self) -> String {
        use std::fmt::Write as _;
        let mut kinds: BTreeMap<OpKind, ByteHistogram> = BTreeMap::new();
        for t in &self.per_rank {
            for (k, h) in t.byte_histograms() {
                let acc = kinds.entry(k).or_insert([0; sizebins::NUM_BUCKETS]);
                for (i, c) in h.iter().enumerate() {
                    acc[i] += c;
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "message-size histograms (shared model buckets):");
        for (k, h) in kinds {
            if h.iter().all(|&c| c == 0) {
                continue;
            }
            let _ = writeln!(out, "  {k}:");
            for (i, &c) in h.iter().enumerate() {
                if c > 0 {
                    let _ = writeln!(out, "    {:>8} {c:>10}", sizebins::label(i));
                }
            }
        }
        out
    }

    /// The world communication matrix: `matrix[src][dst]` = bytes sent.
    pub fn peer_matrix(&self) -> Vec<Vec<u64>> {
        let n = self.per_rank.len();
        let mut m = vec![vec![0u64; n]; n];
        for (src, t) in self.per_rank.iter().enumerate() {
            for (dst, bytes) in t.peer_bytes() {
                if dst < n {
                    m[src][dst] = bytes;
                }
            }
        }
        m
    }

    /// Render the communication matrix as an aligned table (KiB entries).
    pub fn matrix_text(&self) -> String {
        use std::fmt::Write as _;
        let m = self.peer_matrix();
        let n = m.len();
        let mut out = String::new();
        let _ = writeln!(out, "communication matrix (KiB sent, row=src col=dst):");
        let _ = write!(out, "{:>6}", "");
        for d in 0..n {
            let _ = write!(out, " {d:>8}");
        }
        let _ = writeln!(out);
        for (s, row) in m.iter().enumerate() {
            let _ = write!(out, "{s:>6}");
            for &b in row {
                let _ = write!(out, " {:>8}", b / 1024);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// The full per-phase communication matrix: one entry per
    /// (src, phase, algo, dst) with traffic, sorted by source rank then
    /// phase. Summing a (src, dst) pair over phases and algorithms
    /// reproduces [`peer_matrix`](WorldTrace::peer_matrix) exactly.
    pub fn phased_matrix(&self) -> Vec<WorldMatrixCell> {
        let mut out = Vec::new();
        for (src, t) in self.per_rank.iter().enumerate() {
            for c in t.matrix_cells() {
                out.push(WorldMatrixCell {
                    src,
                    phase: c.phase,
                    algo: c.algo,
                    dst: c.dst,
                    messages: c.messages,
                    bytes: c.bytes,
                });
            }
        }
        out
    }

    /// Communication-volume imbalance statistics over the per-rank
    /// total bytes sent (the row sums of the matrix).
    pub fn imbalance(&self) -> MatrixImbalance {
        let rows: Vec<u64> = self
            .per_rank
            .iter()
            .map(|t| t.peer_bytes().values().sum::<u64>())
            .collect();
        MatrixImbalance::from_rank_bytes(&rows)
    }

    /// Human-readable multi-line summary table.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut kinds: BTreeMap<OpKind, OpStats> = BTreeMap::new();
        for t in &self.per_rank {
            for (k, s) in t.snapshot() {
                kinds.entry(k).or_default().merge(&s);
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{:<12} {:>10} {:>12} {:>16}", "op", "calls", "messages", "bytes");
        for (k, s) in kinds {
            let _ = writeln!(
                out,
                "{:<12} {:>10} {:>12} {:>16}",
                k.to_string(),
                s.calls,
                s.messages,
                s.bytes
            );
        }
        let copied = self.copied_bytes();
        if copied > 0 {
            let _ = writeln!(out, "payload bytes copied by transport: {copied}");
        }
        let handoff = self.handoff_bytes();
        if handoff > 0 {
            let _ = writeln!(out, "payload bytes moved zero-copy (ownership transfer): {handoff}");
        }
        let peak = self.peak_outstanding();
        if peak > 0 {
            let _ = writeln!(out, "peak outstanding requests (any rank): {peak}");
        }
        out
    }
}

/// One world-scope cell of the per-phase communication matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldMatrixCell {
    /// Source world rank.
    pub src: usize,
    /// Solver phase the traffic was sent under (`""` if none).
    pub phase: &'static str,
    /// Collective-algorithm code (see [`beatnik_telemetry::algos`]).
    pub algo: u8,
    /// Destination world rank.
    pub dst: usize,
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
}

/// Communication-volume imbalance over the matrix row sums.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixImbalance {
    /// Largest per-rank total bytes sent.
    pub max_bytes: u64,
    /// Mean per-rank total bytes sent.
    pub mean_bytes: f64,
    /// `max / mean` — 1.0 is perfectly balanced; meaningless (reported
    /// as 0) when nothing was sent.
    pub max_over_mean: f64,
    /// Gini coefficient of the per-rank totals in `[0, 1)`; 0 is
    /// perfectly balanced.
    pub gini: f64,
}

impl MatrixImbalance {
    /// Compute from per-rank total sent bytes.
    pub fn from_rank_bytes(rows: &[u64]) -> Self {
        let n = rows.len();
        if n == 0 {
            return MatrixImbalance {
                max_bytes: 0,
                mean_bytes: 0.0,
                max_over_mean: 0.0,
                gini: 0.0,
            };
        }
        let total: u64 = rows.iter().sum();
        let mean = total as f64 / n as f64;
        let max = rows.iter().copied().max().unwrap_or(0);
        if total == 0 {
            return MatrixImbalance {
                max_bytes: 0,
                mean_bytes: 0.0,
                max_over_mean: 0.0,
                gini: 0.0,
            };
        }
        // Gini via the sorted formulation: G = (2·Σ i·x_i)/(n·Σ x) − (n+1)/n
        // with 1-based index i over ascending x.
        let mut sorted: Vec<u64> = rows.to_vec();
        sorted.sort_unstable();
        let weighted: f64 = sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
            .sum();
        let gini = (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64;
        MatrixImbalance {
            max_bytes: max,
            mean_bytes: mean,
            max_over_mean: max as f64 / mean,
            gini: gini.max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beatnik_telemetry::algos;

    /// One phaseless message of `bytes` from this rank to `peer`.
    fn send(t: &RankTrace, kind: OpKind, bytes: u64, peer: usize) {
        t.sent(kind, bytes, false, peer, "", algos::NONE);
    }

    #[test]
    fn record_and_snapshot() {
        let t = RankTrace::new();
        send(&t, OpKind::Send, 100, 1);
        send(&t, OpKind::Send, 50, 1);
        // Collective rounds add traffic to a call counted at entry.
        t.called(OpKind::Alltoall);
        send(&t, OpKind::Alltoall, 4, 1);
        send(&t, OpKind::Alltoall, 6, 2);
        let s = t.get(OpKind::Send);
        assert_eq!((s.calls, s.messages, s.bytes), (2, 2, 150));
        let a = t.get(OpKind::Alltoall);
        assert_eq!((a.calls, a.messages, a.bytes), (1, 2, 10));
        assert_eq!(t.total_bytes(), 160);
        assert_eq!(t.total_messages(), 4);
        t.reset();
        assert_eq!(t.get(OpKind::Send), OpStats::default());
    }

    #[test]
    fn request_counters() {
        let t = RankTrace::new();
        t.request_posted();
        t.request_posted();
        assert_eq!(t.outstanding_requests(), 2);
        t.request_completed();
        t.request_posted();
        t.request_posted();
        assert_eq!(t.peak_outstanding(), 3);
        t.request_completed();
        t.request_completed();
        t.request_completed();
        assert_eq!(t.outstanding_requests(), 0);
        assert_eq!(t.peak_outstanding(), 3);
        t.reset();
        assert_eq!(t.peak_outstanding(), 0);
    }

    #[test]
    fn byte_histograms_share_model_buckets() {
        let t = RankTrace::new();
        send(&t, OpKind::Send, 1, 1); // bucket 0
        send(&t, OpKind::Send, 100, 1); // 64 < 100 <= 128 -> bucket 7
        send(&t, OpKind::Send, 128, 1); // bucket 7
        send(&t, OpKind::Alltoall, 4096, 1); // bucket 12
        let h = t.byte_histogram(OpKind::Send);
        assert_eq!(h[0], 1);
        assert_eq!(h[sizebins::bucket_of(100)], 2);
        assert_eq!(h.iter().sum::<u64>(), 3);
        assert_eq!(t.byte_histogram(OpKind::Alltoall)[12], 1);
        // Never-recorded op yields an all-zero histogram.
        assert_eq!(t.byte_histogram(OpKind::Barrier), [0; sizebins::NUM_BUCKETS]);
        t.reset();
        assert!(t.byte_histograms().is_empty());
    }

    #[test]
    fn world_histogram_sums_ranks() {
        let a = Arc::new(RankTrace::new());
        let b = Arc::new(RankTrace::new());
        send(&a, OpKind::Send, 1024, 1);
        send(&b, OpKind::Send, 1024, 0);
        send(&b, OpKind::Send, 3, 0);
        let w = WorldTrace::new(vec![a, b]);
        let h = w.byte_histogram(OpKind::Send);
        assert_eq!(h[sizebins::bucket_of(1024)], 2);
        assert_eq!(h[sizebins::bucket_of(3)], 1);
        let text = w.histogram_text();
        assert!(text.contains("Send"), "{text}");
        assert!(text.contains("message-size histograms"), "{text}");
    }

    #[test]
    fn world_trace_reports_peak_outstanding() {
        let a = Arc::new(RankTrace::new());
        let b = Arc::new(RankTrace::new());
        a.request_posted();
        for _ in 0..4 {
            b.request_posted();
        }
        let w = WorldTrace::new(vec![a, b]);
        assert_eq!(w.peak_outstanding(), 4);
        assert!(w.summary().contains("peak outstanding requests (any rank): 4"));
    }

    #[test]
    fn copied_and_handoff_bytes_aggregate() {
        let a = Arc::new(RankTrace::new());
        let b = Arc::new(RankTrace::new());
        // A message is charged to exactly one of the two counters.
        a.sent(OpKind::Send, 100, true, 1, "", algos::NONE);
        a.sent(OpKind::Send, 28, true, 1, "", algos::NONE);
        a.sent(OpKind::Send, 40, false, 1, "", algos::NONE);
        b.sent(OpKind::Send, 72, true, 0, "", algos::NONE);
        assert_eq!((a.copied_bytes(), a.handoff_bytes()), (128, 40));
        let w = WorldTrace::new(vec![Arc::clone(&a), b]);
        assert_eq!((w.copied_bytes(), w.handoff_bytes()), (200, 40));
        assert_eq!(w.copied_bytes() + w.handoff_bytes(), w.total_bytes());
        let s = w.summary();
        assert!(s.contains("payload bytes copied by transport: 200"), "{s}");
        assert!(s.contains("(ownership transfer): 40"), "{s}");
        a.reset();
        assert_eq!((a.copied_bytes(), a.handoff_bytes()), (0, 0));
    }

    #[test]
    fn phased_matrix_sums_to_peer_bytes_exactly() {
        let t = RankTrace::new();
        t.sent(OpKind::Send, 100, false, 1, "halo", algos::NONE);
        t.sent(OpKind::Send, 50, false, 1, "halo", algos::NONE);
        t.sent(OpKind::Alltoall, 25, false, 1, "dfft-redistribute", algos::BRUCK);
        t.sent(OpKind::Alltoall, 8, false, 2, "dfft-redistribute", algos::BRUCK);
        send(&t, OpKind::Send, 7, 2); // phaseless traffic still lands in the matrix
        let peers = t.peer_bytes();
        assert_eq!(peers.get(&1), Some(&175));
        assert_eq!(peers.get(&2), Some(&15));
        let cells = t.matrix_cells();
        assert_eq!(cells.len(), 4);
        let by_dst: u64 = cells.iter().filter(|c| c.dst == 1).map(|c| c.bytes).sum();
        assert_eq!(by_dst, 175);
        let halo = cells.iter().find(|c| c.phase == "halo").unwrap();
        assert_eq!((halo.messages, halo.bytes), (2, 150));
        let bruck: u64 = cells
            .iter()
            .filter(|c| c.algo == algos::BRUCK)
            .map(|c| c.bytes)
            .sum();
        assert_eq!(bruck, 33);
        t.reset();
        assert!(t.matrix_cells().is_empty());
        assert!(t.peer_bytes().is_empty());
    }

    #[test]
    fn world_phased_matrix_and_imbalance() {
        let a = Arc::new(RankTrace::new());
        let b = Arc::new(RankTrace::new());
        a.sent(OpKind::Send, 300, false, 1, "step", algos::NONE);
        b.sent(OpKind::Send, 100, false, 0, "step", algos::NONE);
        let w = WorldTrace::new(vec![a, b]);
        let cells = w.phased_matrix();
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().any(|c| c.src == 0 && c.dst == 1 && c.bytes == 300));
        // Per-(src,dst) totals reproduce the classic matrix exactly.
        let m = w.peer_matrix();
        for c in &cells {
            assert_eq!(m[c.src][c.dst], c.bytes);
        }
        let imb = w.imbalance();
        assert_eq!(imb.max_bytes, 300);
        assert!((imb.mean_bytes - 200.0).abs() < 1e-9);
        assert!((imb.max_over_mean - 1.5).abs() < 1e-9);
        // Two ranks at 300/100: Gini = |300-100| / (2·2·200) = 0.25.
        assert!((imb.gini - 0.25).abs() < 1e-9, "{}", imb.gini);
    }

    #[test]
    fn imbalance_degenerate_cases() {
        let z = MatrixImbalance::from_rank_bytes(&[]);
        assert_eq!(z.max_over_mean, 0.0);
        let z = MatrixImbalance::from_rank_bytes(&[0, 0]);
        assert_eq!((z.max_bytes, z.gini), (0, 0.0));
        let even = MatrixImbalance::from_rank_bytes(&[50, 50, 50, 50]);
        assert!((even.max_over_mean - 1.0).abs() < 1e-12);
        assert!(even.gini.abs() < 1e-12);
    }

    #[test]
    fn trace_publishes_into_shared_registry() {
        let reg = MetricsRegistry::new();
        let t0 = RankTrace::with_registry(&reg, 0);
        let t1 = RankTrace::with_registry(&reg, 1);
        t0.sent(OpKind::Send, 64, true, 1, "", algos::NONE);
        t1.called(OpKind::Alltoall);
        send(&t1, OpKind::Alltoall, 300, 0);
        t1.request_posted();
        let snap = reg.snapshot();
        assert_eq!(
            snap.value("beatnik_comm_bytes_total", &[("rank", "0"), ("op", "send")]),
            Some(64)
        );
        assert_eq!(
            snap.value("beatnik_comm_calls_total", &[("rank", "1"), ("op", "alltoall")]),
            Some(1)
        );
        assert_eq!(
            snap.value("beatnik_comm_message_size_bytes", &[("rank", "0"), ("op", "send")]),
            Some(1)
        );
        assert_eq!(
            snap.value("beatnik_transport_copied_bytes_total", &[("rank", "0")]),
            Some(64)
        );
        assert_eq!(
            snap.value("beatnik_requests_outstanding_peak", &[("rank", "1")]),
            Some(1)
        );
    }

    #[test]
    fn registry_backed_traces_leave_the_summary_byte_identical() {
        // Redirecting the counters through a metrics registry is a pure
        // publication change: the human-facing summary — the text users
        // diff across runs — must not move by a single byte.
        let record = |t: &RankTrace| {
            send(t, OpKind::Send, 64, 1);
            send(t, OpKind::Send, 64, 1);
            t.called(OpKind::Alltoall);
            send(t, OpKind::Alltoall, 100, 1);
            t.sent(OpKind::Send, 100, true, 1, "", algos::NONE);
            t.request_posted();
        };
        let plain = Arc::new(RankTrace::new());
        record(&plain);
        let reg = MetricsRegistry::new();
        let backed = Arc::new(RankTrace::with_registry(&reg, 0));
        record(&backed);
        let w_plain = WorldTrace::new(vec![plain]);
        let w_backed = WorldTrace::new(vec![backed]);
        assert_eq!(w_plain.summary(), w_backed.summary());
        assert_eq!(w_plain.histogram_text(), w_backed.histogram_text());
        assert_eq!(w_plain.matrix_text(), w_backed.matrix_text());
    }

    #[test]
    fn world_trace_aggregates_over_ranks() {
        let a = Arc::new(RankTrace::new());
        let b = Arc::new(RankTrace::new());
        a.called(OpKind::Alltoall);
        send(&a, OpKind::Alltoall, 300, 1);
        b.called(OpKind::Alltoall);
        send(&b, OpKind::Alltoall, 500, 0);
        send(&b, OpKind::Send, 7, 0);
        let w = WorldTrace::new(vec![a, b]);
        assert_eq!(w.num_ranks(), 2);
        let t = w.total(OpKind::Alltoall);
        assert_eq!(t.calls, 2);
        assert_eq!(t.bytes, 800);
        assert_eq!(w.total_bytes(), 807);
        assert_eq!(w.max_rank_bytes(), 507);
        let s = w.summary();
        assert!(s.contains("Alltoall"));
        assert!(s.contains("800"));
    }
}

#[cfg(test)]
mod matrix_tests {
    use crate::world::World;

    #[test]
    fn matrix_records_world_peers_for_p2p() {
        let (_, trace) = World::builder(3).run_traced(|c| {
            if c.rank() == 0 {
                c.send(2, 0, vec![0u8; 1024]);
            } else if c.rank() == 2 {
                let _ = c.recv::<u8>(0, 0);
            }
        });
        let m = trace.peer_matrix();
        assert_eq!(m[0][2], 1024);
        assert_eq!(m[0][1], 0);
        assert_eq!(m[2][0], 0);
        let text = trace.matrix_text();
        assert!(text.contains("communication matrix"));
    }

    #[test]
    fn matrix_attributes_subcommunicator_traffic_to_world_ranks() {
        // Split into a reversed-order subgroup; traffic must still land on
        // the correct *world* rows/cols.
        let (_, trace) = World::builder(4).run_traced(|c| {
            let sub = c.split(Some(0), -(c.rank() as i64)).unwrap();
            // sub rank 0 = world rank 3, sub rank 3 = world rank 0.
            if sub.rank() == 0 {
                sub.send(3, 7, vec![0u64; 16]); // world 3 -> world 0, 128 B
            } else if sub.rank() == 3 {
                let _ = sub.recv::<u64>(0, 7);
            }
        });
        let m = trace.peer_matrix();
        // The 128-byte payload lands on the world-3 -> world-0 entry (on
        // top of the split's own small collective traffic); the reverse
        // direction carries only collective overhead.
        assert!(m[3][0] >= 128, "{m:?}");
        assert!(m[0][3] < 128, "{m:?}");
    }

    #[test]
    fn collective_traffic_appears_in_the_matrix() {
        let (_, trace) = World::builder(4).run_traced(|c| {
            let _ = c.alltoall(&[0u8; 1024]); // 256 bytes per destination
        });
        let m = trace.peer_matrix();
        for (s, row) in m.iter().enumerate() {
            for (d, &bytes) in row.iter().enumerate() {
                if s != d {
                    assert_eq!(bytes, 256, "{s}->{d}");
                }
            }
        }
    }
}

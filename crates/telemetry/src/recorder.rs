//! The per-rank lock-free span ring buffer.

use crate::span::{algos, flow, CommOp, Span, SpanKind};
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default ring capacity: 64 Ki spans ≈ 3 MiB per rank, enough for
/// several hundred rocketrig timesteps before the ring wraps.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// Ring capacity when causal tracing is on (profiled worlds): double
/// the plain default. Causal analysis needs *matched pairs* — a send
/// span dropped to ring wrap-around orphans its receive edge — so
/// traced runs get more headroom before the drop-oldest policy starts
/// truncating edges. Exporters additionally warn when `dropped_spans
/// > 0` (see `beatnik-io`).
pub const TRACED_SPAN_CAPACITY: usize = 1 << 17;

/// The phase name whose entry advances the recorder's step epoch (the
/// 16-bit field of every minted trace context). Matches the phase the
/// solver drivers open once per timestep and the name
/// `WorldTimeline::critical_path` segments on.
pub const STEP_PHASE: &str = "step";

/// The span clock. Every traced message stamps at least one span, so a
/// stamp is a raw *tick*, converted to nanoseconds since the epoch only
/// when the ring is read ([`SpanRecorder::snapshot`]). Where the kernel
/// keeps its own clock on an invariant time-stamp counter, a tick is one
/// `rdtsc`: about 20 ns on the 2-vCPU reference VM, where
/// `Instant::now()` costs 45 ns. Elsewhere a tick is a nanosecond of
/// `Instant` since a process-wide origin.
mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Whether the time-stamp counter can stamp spans: the CPU says it
    /// ticks at one rate in every power state (CPUID 8000_0007h, EDX bit
    /// 8), and Linux runs its own clock on it, which it does only once it
    /// has found the counters of all CPUs in step.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn tsc_usable() -> bool {
        static USABLE: OnceLock<bool> = OnceLock::new();
        *USABLE.get_or_init(|| {
            use std::arch::x86_64::__cpuid;
            #[allow(unused_unsafe)]
            // SAFETY: `cpuid` exists on every x86-64 CPU, and leaf
            // 8000_0007h is read only where leaf 8000_0000h says it exists.
            let invariant = unsafe {
                __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0
            };
            invariant
                && std::fs::read_to_string(
                    "/sys/devices/system/clocksource/clocksource0/current_clocksource",
                )
                .is_ok_and(|source| source.trim() == "tsc")
        })
    }

    /// The current tick.
    #[inline]
    pub fn ticks() -> u64 {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if tsc_usable() {
            #[allow(unused_unsafe)]
            // SAFETY: `rdtsc` exists on every x86-64 CPU and only reads
            // the counter.
            return unsafe { std::arch::x86_64::_rdtsc() };
        }
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Opaque start-of-span timestamp handed out by [`SpanRecorder::begin`].
///
/// Carrying the disabled state in the ticket keeps the `end` call
/// branch-cheap and means callers never test an `Option`.
#[derive(Debug, Clone, Copy)]
pub struct Ticket(u64);

const DISABLED: u64 = u64::MAX;

/// A per-rank span recorder: a preallocated ring buffer of [`Span`]s
/// stamped against a monotonic epoch shared by every rank of a world.
///
/// # Single-writer protocol (why this is lock-free *and* sound)
///
/// Each rank's `Communicator` — and every communicator split or
/// duplicated from it — runs on exactly one OS thread and shares one
/// recorder, so **all writes to a given recorder come from one
/// thread**. The world keeps a second handle per rank but only reads
/// it after `thread::scope` joins the rank threads, which establishes
/// a happens-before edge covering every slot write. The hot path is
/// therefore a plain indexed store plus one release counter bump: no
/// locks, no CAS loops, no allocation.
///
/// [`snapshot`](SpanRecorder::snapshot) must only be called when the
/// writing thread has finished (after the world joins) or from the
/// writing thread itself; calling it concurrently with recording can
/// observe a half-written slot.
///
/// # Overflow policy
///
/// The ring wraps: the newest span overwrites the oldest, and the
/// number of overwritten spans is reported by
/// [`dropped_spans`](SpanRecorder::dropped_spans). Recent history is
/// what the timeline analyses need, so drop-oldest degrades gracefully.
pub struct SpanRecorder {
    epoch: Instant,
    /// A tick read at construction and the epoch time it fell at: with
    /// a second such pair read at [`snapshot`](SpanRecorder::snapshot),
    /// the line that turns the ticks in the ring into epoch time.
    origin: (u64, u64),
    /// Spans whose `start_ns`/`end_ns` hold ticks (see the `clock`
    /// module) until [`snapshot`](SpanRecorder::snapshot) converts them.
    /// Allocated uninitialised, so building a recorder touches none of
    /// its memory: slot `i` is written by the `i`-th push and read only
    /// once `pushed > i`, so no path reads a slot before its first write.
    slots: Box<[UnsafeCell<MaybeUninit<Span>>]>,
    /// Total spans ever pushed (monotonic; `pushed % capacity` is the
    /// next write index, `pushed - capacity` the drop count).
    pushed: AtomicU64,
    /// Stack of currently open phase names, maintained even when span
    /// recording is disabled so the comm layer can attribute traffic to
    /// the innermost solver phase (the live comm-matrix dimension).
    /// Written and read only by the owning rank thread — the same
    /// single-writer protocol as the ring itself.
    phase_stack: UnsafeCell<Vec<&'static str>>,
    /// Collective-algorithm code currently in force (see
    /// [`algos`]), set by the all-to-all engines around their send
    /// rounds via [`algo_scope`](SpanRecorder::algo_scope).
    current_algo: AtomicU8,
    /// Always-on phase entry counters (phase name → entries), published
    /// into the metrics snapshot so recovery and fault-kill occurrences
    /// are visible without span recording. Entered phases are not hot
    /// (a handful per timestep), so an uncontended mutex is fine here.
    phase_counts: Mutex<BTreeMap<&'static str, u64>>,
    /// Monotonic send-sequence counter for minted trace contexts
    /// ([`SpanRecorder::mint_flow`]). Only advanced when enabled, and
    /// only by the owning rank thread.
    flow_seq: AtomicU64,
    /// Step epoch stamped into minted contexts; advanced each time the
    /// [`STEP_PHASE`] phase opens.
    step_epoch: AtomicU64,
}

// SAFETY: see "Single-writer protocol" above — slot writes never race
// with each other (one writing thread) and reads happen only after a
// join (happens-before) or on the writing thread.
unsafe impl Sync for SpanRecorder {}

impl SpanRecorder {
    /// An enabled recorder with `capacity` preallocated slots.
    /// `capacity == 0` yields a disabled recorder.
    pub fn new(capacity: usize, epoch: Instant) -> Self {
        // SAFETY: `UnsafeCell<MaybeUninit<Span>>` has the layout and the
        // validity of `MaybeUninit<Span>`, for which uninitialised memory
        // is a valid value.
        let slots = unsafe {
            Box::<[UnsafeCell<MaybeUninit<Span>>]>::new_uninit_slice(capacity).assume_init()
        };
        // Disabled recorders never stamp, so they read no clock.
        let origin = if capacity == 0 {
            (0, 0)
        } else {
            (clock::ticks(), epoch.elapsed().as_nanos() as u64)
        };
        SpanRecorder {
            epoch,
            origin,
            slots,
            pushed: AtomicU64::new(0),
            phase_stack: UnsafeCell::new(Vec::with_capacity(8)),
            current_algo: AtomicU8::new(algos::NONE),
            phase_counts: Mutex::new(BTreeMap::new()),
            flow_seq: AtomicU64::new(0),
            step_epoch: AtomicU64::new(0),
        }
    }

    /// A recorder that records nothing and costs one branch per call.
    /// This is what every world uses unless profiling is requested.
    pub fn disabled() -> Self {
        SpanRecorder::new(0, Instant::now())
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Nanoseconds since the shared epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span. Returns a [`Ticket`] to hand back to
    /// [`end`](SpanRecorder::end). When disabled this reads one bool
    /// and touches neither the clock nor the buffer.
    #[inline]
    pub fn begin(&self) -> Ticket {
        if self.slots.is_empty() {
            return Ticket(DISABLED);
        }
        Ticket(clock::ticks())
    }

    /// Finish a span started with [`begin`](SpanRecorder::begin).
    #[inline]
    pub fn end(&self, ticket: Ticket, kind: SpanKind, peer: i64, tag: u64, bytes: u64) {
        self.end_full(ticket, kind, peer, tag, bytes, algos::NONE, 0);
    }

    /// [`end`](SpanRecorder::end) with an algorithm code attached.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn end_full(
        &self,
        ticket: Ticket,
        kind: SpanKind,
        peer: i64,
        tag: u64,
        bytes: u64,
        algo: u8,
        flow: u64,
    ) {
        if ticket.0 == DISABLED {
            return;
        }
        self.push(Span {
            kind,
            peer,
            tag,
            bytes,
            algo,
            flow,
            start_ns: ticket.0,
            end_ns: clock::ticks(),
        });
    }

    /// [`end`](SpanRecorder::end) with a causal trace context attached —
    /// the flow endpoint for sends and receives recorded without an
    /// [`OpGuard`].
    #[inline]
    pub fn end_flow(
        &self,
        ticket: Ticket,
        kind: SpanKind,
        peer: i64,
        tag: u64,
        bytes: u64,
        flow: u64,
    ) {
        self.end_full(ticket, kind, peer, tag, bytes, algos::NONE, flow);
    }

    /// Record a zero-duration marker (e.g. an `irecv` post).
    #[inline]
    pub fn instant(&self, kind: SpanKind, peer: i64, tag: u64, bytes: u64) {
        self.instant_flow(kind, peer, tag, bytes, 0);
    }

    /// [`instant`](SpanRecorder::instant) carrying a causal trace
    /// context — the receive-side flow marker for batched waits, where
    /// one blocking span absorbs many envelopes and each needs its own
    /// edge endpoint.
    #[inline]
    pub fn instant_flow(&self, kind: SpanKind, peer: i64, tag: u64, bytes: u64, flow: u64) {
        if let SpanKind::Phase(name) = kind {
            // Instant phase markers (fault injections)
            // count as phase entries even when span recording is off.
            self.count_phase(name);
        }
        if self.slots.is_empty() {
            return;
        }
        let now = clock::ticks();
        self.push(Span {
            kind,
            peer,
            tag,
            bytes,
            algo: algos::NONE,
            flow,
            start_ns: now,
            end_ns: now,
        });
    }

    /// Mint a fresh causal trace context for an outgoing message from
    /// `origin_rank`: origin | current step epoch | next send sequence
    /// (see [`crate::span::flow`]). Returns `0` when the recorder is
    /// disabled, so untraced runs never pay the atomic bump and the
    /// envelope field stays "no context".
    #[inline]
    pub fn mint_flow(&self, origin_rank: usize) -> u64 {
        if self.slots.is_empty() {
            return 0;
        }
        // The owning rank thread is the only writer (the single-writer
        // protocol), so a plain load and store replace a locked add.
        let seq = self.flow_seq.load(Ordering::Relaxed);
        self.flow_seq.store(seq + 1, Ordering::Relaxed);
        flow::pack(
            origin_rank as u16,
            self.step_epoch.load(Ordering::Relaxed) as u16,
            // Sequence 0 is reserved so a packed context is never the
            // all-zero "no context" sentinel (rank 0, epoch 0, seq 0).
            (seq as u32).wrapping_add(1),
        )
    }

    /// The current step epoch (advanced on every [`STEP_PHASE`] entry).
    #[inline]
    pub fn step_epoch(&self) -> u64 {
        self.step_epoch.load(Ordering::Relaxed)
    }

    /// RAII guard recording a named phase span over its lifetime.
    ///
    /// Also pushes `name` onto the always-on phase stack (popped when
    /// the guard drops) and bumps the phase entry counter, so the comm
    /// matrix and metrics snapshot see phases even when span recording
    /// is disabled.
    #[inline]
    pub fn phase(&self, name: &'static str) -> PhaseGuard<'_> {
        self.count_phase(name);
        if name == STEP_PHASE {
            self.step_epoch.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: single-writer protocol — only the owning rank thread
        // touches the phase stack (see the field docs).
        unsafe {
            (*self.phase_stack.get()).push(name);
        }
        PhaseGuard {
            rec: self,
            start: self.begin(),
            name,
        }
    }

    /// The innermost currently open phase, or `""` outside any phase.
    /// Must be called from the owning rank thread.
    #[inline]
    pub fn current_phase(&self) -> &'static str {
        // SAFETY: single-writer protocol — caller is the owning thread.
        unsafe { (*self.phase_stack.get()).last().copied().unwrap_or("") }
    }

    /// The collective-algorithm code currently in force (see
    /// [`algos`]); [`algos::NONE`] outside any algorithm scope.
    #[inline]
    pub fn current_algo(&self) -> u8 {
        self.current_algo.load(Ordering::Relaxed)
    }

    /// RAII scope stamping `code` as the current collective algorithm;
    /// the previous code is restored on drop. The all-to-all engines
    /// wrap their send rounds in this so matrix traffic is attributed
    /// per algorithm.
    #[inline]
    pub fn algo_scope(&self, code: u8) -> AlgoScope<'_> {
        let prev = self.current_algo.swap(code, Ordering::Relaxed);
        AlgoScope { rec: self, prev }
    }

    #[inline]
    fn count_phase(&self, name: &'static str) {
        let mut m = self.phase_counts.lock().unwrap_or_else(|p| p.into_inner());
        *m.entry(name).or_insert(0) += 1;
    }

    /// Phase entry counts (phase name → times entered), always on.
    /// Safe to call from any thread.
    pub fn phase_counts(&self) -> Vec<(&'static str, u64)> {
        let m = self.phase_counts.lock().unwrap_or_else(|p| p.into_inner());
        m.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// RAII guard recording a communication-op span over its lifetime.
    /// Peer/tag/bytes can be filled in before the guard drops.
    #[inline]
    pub fn op(&self, op: CommOp) -> OpGuard<'_> {
        OpGuard {
            rec: self,
            start: self.begin(),
            op,
            peer: -1,
            tag: 0,
            bytes: 0,
            algo: algos::NONE,
            flow: 0,
        }
    }

    #[inline]
    fn push(&self, span: Span) {
        let cap = self.slots.len() as u64;
        let n = self.pushed.load(Ordering::Relaxed);
        // Every capacity in use is a power of two; a mask is cheaper
        // than the division.
        let at = if cap.is_power_of_two() { n & (cap - 1) } else { n % cap };
        // SAFETY: single-writer protocol (see type docs) — no other
        // thread writes this slot, and readers synchronize via the
        // release store below or via thread join.
        unsafe {
            (*self.slots[at as usize].get()).write(span);
        }
        self.pushed.store(n + 1, Ordering::Release);
    }

    /// Spans pushed over the recorder's lifetime (including dropped).
    pub fn total_pushed(&self) -> u64 {
        self.pushed.load(Ordering::Acquire)
    }

    /// Spans lost to ring wrap-around (drop-oldest overflow gauge).
    pub fn dropped_spans(&self) -> u64 {
        self.total_pushed().saturating_sub(self.slots.len() as u64)
    }

    /// Spans currently held in the ring.
    pub fn len(&self) -> usize {
        self.total_pushed().min(self.slots.len() as u64) as usize
    }

    /// Whether no spans have been recorded (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out the retained spans in chronological begin order, plus
    /// the dropped-span count.
    ///
    /// Spans land in the ring at *end* time, and instant flow markers
    /// recorded inside an enclosing blocking span land before it, so
    /// the raw ring order is not begin order; a stable sort by
    /// `start_ns` restores it (ties keep record order, preserving
    /// determinism).
    ///
    /// Call only after the writing rank thread has finished, or from
    /// that thread — see the single-writer protocol in the type docs.
    pub fn snapshot(&self) -> (Vec<Span>, u64) {
        let pushed = self.pushed.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        if cap == 0 || pushed == 0 {
            return (Vec::new(), 0);
        }
        let kept = pushed.min(cap);
        let first = if pushed > cap { pushed % cap } else { 0 };
        // Ticks to epoch nanoseconds: the line through the origin pair
        // and a pair read now.
        let (t0, ns0) = self.origin;
        let (t1, ns1) = (clock::ticks(), self.now_ns());
        let ns_per_tick = if t1 > t0 {
            ns1.saturating_sub(ns0) as f64 / (t1 - t0) as f64
        } else {
            1.0
        };
        let to_ns = |t: u64| ns0 + (t.saturating_sub(t0) as f64 * ns_per_tick) as u64;
        let mut out = Vec::with_capacity(kept as usize);
        for i in 0..kept {
            let idx = ((first + i) % cap) as usize;
            // SAFETY: the writer has finished (caller contract), so the
            // slot is not being concurrently written; `idx` is one of the
            // `kept` slots the last `pushed` pushes wrote (all below
            // `pushed` before the ring wraps, every slot after), so it
            // holds an initialised span.
            let mut span = unsafe { (*self.slots[idx].get()).assume_init() };
            span.start_ns = to_ns(span.start_ns);
            span.end_ns = to_ns(span.end_ns);
            out.push(span);
        }
        out.sort_by_key(|s| s.start_ns);
        (out, pushed - kept)
    }
}

/// Records a phase span when dropped. See [`SpanRecorder::phase`].
pub struct PhaseGuard<'a> {
    rec: &'a SpanRecorder,
    start: Ticket,
    name: &'static str,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        // SAFETY: single-writer protocol — guards live on the owning
        // rank thread and drop LIFO, mirroring the pushes in `phase`.
        unsafe {
            (*self.rec.phase_stack.get()).pop();
        }
        self.rec
            .end(self.start, SpanKind::Phase(self.name), -1, 0, 0);
    }
}

/// Restores the previous collective-algorithm code when dropped. See
/// [`SpanRecorder::algo_scope`].
pub struct AlgoScope<'a> {
    rec: &'a SpanRecorder,
    prev: u8,
}

impl Drop for AlgoScope<'_> {
    fn drop(&mut self) {
        self.rec.current_algo.store(self.prev, Ordering::Relaxed);
    }
}

/// Records a comm-op span when dropped. See [`SpanRecorder::op`].
pub struct OpGuard<'a> {
    rec: &'a SpanRecorder,
    start: Ticket,
    op: CommOp,
    peer: i64,
    tag: u64,
    bytes: u64,
    algo: u8,
    flow: u64,
}

impl OpGuard<'_> {
    /// Set the peer rank recorded with the span.
    #[inline]
    pub fn peer(&mut self, peer: usize) {
        self.peer = if peer == usize::MAX { -1 } else { peer as i64 };
    }

    /// Set the matching tag recorded with the span.
    #[inline]
    pub fn tag(&mut self, tag: u64) {
        self.tag = tag;
    }

    /// Set (or accumulate onto) the byte count recorded with the span.
    #[inline]
    pub fn bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }

    /// Add to the byte count (for batched waits).
    #[inline]
    pub fn add_bytes(&mut self, bytes: u64) {
        self.bytes += bytes;
    }

    /// Set the collective-algorithm code (see [`crate::span::algos`])
    /// recorded with the span.
    #[inline]
    pub fn algo(&mut self, code: u8) {
        self.algo = code;
    }

    /// Attach a causal trace context (see [`crate::span::flow`]): the
    /// context stamped into a sent envelope or claimed from a received
    /// one. `0` (the default) records no flow endpoint.
    #[inline]
    pub fn flow(&mut self, ctx: u64) {
        self.flow = ctx;
    }
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        self.rec.end_full(
            self.start,
            SpanKind::Op(self.op),
            self.peer,
            self.tag,
            self.bytes,
            self.algo,
            self.flow,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_metadata() {
        let rec = SpanRecorder::new(16, Instant::now());
        assert!(rec.is_enabled());
        let t = rec.begin();
        rec.end(t, SpanKind::Op(CommOp::Send), 3, 7, 64);
        rec.instant(SpanKind::Op(CommOp::Irecv), 1, 9, 0);
        {
            let _g = rec.phase("halo");
        }
        let (spans, dropped) = rec.snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].kind, SpanKind::Op(CommOp::Send));
        assert_eq!((spans[0].peer, spans[0].tag, spans[0].bytes), (3, 7, 64));
        assert_eq!(spans[1].dur_ns(), 0);
        assert_eq!(spans[2].kind, SpanKind::Phase("halo"));
        // Chronological: start times never decrease.
        assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    /// Spans are stamped in clock ticks; the snapshot hands them back in
    /// nanoseconds since the epoch, on the same scale as `Instant`.
    #[test]
    fn tick_stamps_read_back_as_epoch_nanoseconds() {
        let epoch = Instant::now();
        let rec = SpanRecorder::new(8, epoch);
        let before = epoch.elapsed().as_nanos() as u64;
        let t = rec.begin();
        std::thread::sleep(std::time::Duration::from_millis(20));
        rec.end(t, SpanKind::Phase("nap"), -1, 0, 0);
        let after = epoch.elapsed().as_nanos() as u64;
        let (spans, _) = rec.snapshot();
        let nap = spans[0];
        let slack = 50_000;
        assert!(nap.start_ns + slack >= before, "{nap:?} starts before {before}");
        assert!(nap.end_ns <= after + slack, "{nap:?} ends after {after}");
        assert!(
            (20_000_000..200_000_000).contains(&nap.dur_ns()),
            "a 20 ms sleep read as {} ns",
            nap.dur_ns()
        );
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let rec = SpanRecorder::new(4, Instant::now());
        for i in 0..10u64 {
            rec.instant(SpanKind::Op(CommOp::Send), 0, i, i);
        }
        assert_eq!(rec.total_pushed(), 10);
        assert_eq!(rec.dropped_spans(), 6);
        assert_eq!(rec.len(), 4);
        let (spans, dropped) = rec.snapshot();
        assert_eq!(dropped, 6);
        // The four *newest* spans survive, oldest-first.
        let tags: Vec<u64> = spans.iter().map(|s| s.tag).collect();
        assert_eq!(tags, vec![6, 7, 8, 9]);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = SpanRecorder::disabled();
        assert!(!rec.is_enabled());
        let t = rec.begin();
        rec.end(t, SpanKind::Op(CommOp::Recv), 0, 0, 8);
        rec.instant(SpanKind::Op(CommOp::Irecv), 0, 0, 0);
        {
            let mut g = rec.op(CommOp::Allreduce);
            g.bytes(128);
            let _p = rec.phase("step");
        }
        assert_eq!(rec.total_pushed(), 0);
        assert_eq!(rec.dropped_spans(), 0);
        let (spans, dropped) = rec.snapshot();
        assert!(spans.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn op_guard_records_peer_tag_bytes() {
        let rec = SpanRecorder::new(8, Instant::now());
        {
            let mut g = rec.op(CommOp::Alltoallv);
            g.peer(2);
            g.tag(5);
            g.bytes(100);
            g.add_bytes(28);
        }
        {
            let mut g = rec.op(CommOp::Recv);
            g.peer(usize::MAX); // no single peer maps to -1
        }
        let (spans, _) = rec.snapshot();
        assert_eq!(spans[0].kind, SpanKind::Op(CommOp::Alltoallv));
        assert_eq!((spans[0].peer, spans[0].tag, spans[0].bytes), (2, 5, 128));
        assert_eq!(spans[1].peer, -1);
    }

    #[test]
    fn phase_context_tracks_even_when_disabled() {
        let rec = SpanRecorder::disabled();
        assert_eq!(rec.current_phase(), "");
        {
            let _step = rec.phase("step");
            assert_eq!(rec.current_phase(), "step");
            {
                let _halo = rec.phase("halo");
                assert_eq!(rec.current_phase(), "halo");
            }
            assert_eq!(rec.current_phase(), "step");
            let _halo2 = rec.phase("halo");
        }
        assert_eq!(rec.current_phase(), "");
        rec.instant(SpanKind::Phase("fault-kill"), -1, 0, 0);
        assert_eq!(rec.total_pushed(), 0, "disabled ring stays empty");
        let counts: std::collections::BTreeMap<_, _> =
            rec.phase_counts().into_iter().collect();
        assert_eq!(counts.get("step"), Some(&1));
        assert_eq!(counts.get("halo"), Some(&2));
        assert_eq!(counts.get("fault-kill"), Some(&1));
    }

    #[test]
    fn algo_scope_nests_and_restores() {
        let rec = SpanRecorder::disabled();
        assert_eq!(rec.current_algo(), algos::NONE);
        {
            let _a = rec.algo_scope(algos::BRUCK);
            assert_eq!(rec.current_algo(), algos::BRUCK);
            {
                let _b = rec.algo_scope(algos::PAIRWISE);
                assert_eq!(rec.current_algo(), algos::PAIRWISE);
            }
            assert_eq!(rec.current_algo(), algos::BRUCK);
        }
        assert_eq!(rec.current_algo(), algos::NONE);
    }

    #[test]
    fn mint_flow_packs_origin_epoch_and_sequence() {
        let rec = SpanRecorder::new(8, Instant::now());
        assert_eq!(rec.step_epoch(), 0);
        let a = rec.mint_flow(3);
        {
            let _step = rec.phase(STEP_PHASE);
            let b = rec.mint_flow(3);
            assert_eq!(flow::origin_rank(a), 3);
            assert_eq!(flow::origin_rank(b), 3);
            assert_eq!(flow::step_epoch(a), 0);
            assert_eq!(flow::step_epoch(b), 1);
            assert_eq!(flow::seq(b), flow::seq(a) + 1);
            assert_ne!(a, 0, "seq is 1-based so contexts are never the sentinel");
        }
        // Disabled recorders mint the "no context" sentinel.
        let off = SpanRecorder::disabled();
        assert_eq!(off.mint_flow(0), 0);
    }

    #[test]
    fn op_guard_records_flow_context() {
        let rec = SpanRecorder::new(8, Instant::now());
        let ctx = rec.mint_flow(1);
        {
            let mut g = rec.op(CommOp::Isend);
            g.peer(2);
            g.flow(ctx);
        }
        rec.instant_flow(SpanKind::Op(CommOp::Recv), 1, 0, 64, ctx);
        let (spans, _) = rec.snapshot();
        assert_eq!(spans[0].flow, ctx);
        assert_eq!(spans[1].flow, ctx);
    }

    #[test]
    fn op_guard_records_algorithm_code() {
        let rec = SpanRecorder::new(8, Instant::now());
        {
            let mut g = rec.op(CommOp::Alltoall);
            g.algo(algos::BRUCK);
        }
        {
            let _g = rec.op(CommOp::Barrier);
        }
        let (spans, _) = rec.snapshot();
        assert_eq!(spans[0].algo, algos::BRUCK);
        assert_eq!(spans[1].algo, algos::NONE);
    }
}

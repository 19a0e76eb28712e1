//! The rank-local communicator handle: point-to-point messaging,
//! splitting, and entry points to the collective algorithms.

use crate::collectives::{self, alltoall::AllToAllAlgo};
use crate::error::CommError;
use crate::fault::{CollectiveFailed, FaultInjector, Injection, RankKilled};
use crate::mailbox::{Mailbox, PostedId};
use crate::message::{CommData, Envelope};
use crate::reduce_op::ReduceOp;
use crate::registry::{CommId, Registry};
use crate::request::{RecvRequest, SendRequest};
use crate::trace::{OpKind, RankTrace};
use crate::transport::{Progress, Route};
use beatnik_telemetry::{CommOp, OpGuard, SpanKind, SpanRecorder};
use std::panic::panic_any;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Message tag type (MPI uses `int`; we use the full `u64` space).
pub type Tag = u64;

/// Collective traffic travels on a shadow channel so a user receive
/// can never match a collective's internal message, whatever its tag.
const COLLECTIVE_CHANNEL: CommId = 1 << 63;

/// How a send entry point names itself to [`Communicator::post`]: which
/// channel and trace counter the message lands in and what the timeline
/// shows for it.
#[derive(Clone, Copy)]
enum SendOp {
    /// A user-channel send, counted under [`OpKind::Send`] and recorded
    /// as its own span of the given op (`send` or `isend`).
    User(CommOp),
    /// One message of a collective, on the shadow channel: counted under
    /// the collective's kind and recorded as an instant `send` marker
    /// inside the enclosing collective span (instant and non-blocking,
    /// so wait attribution is untouched).
    Coll(OpKind),
}

/// Yield turns a waiting rank takes before it sleeps on its mailbox,
/// when this process hosts more ranks than its affinity mask has CPUs
/// (zero otherwise; see [`yield_turns`]).
///
/// On a shared CPU the peer a rank waits for is usually runnable right
/// there, and a futex sleep and wake-up costs more than handing it the
/// CPU: with two threads pinned to one CPU of the 2-vCPU reference VM, a
/// bare `Mutex` + `Condvar` ping-pong takes 2.9–3.9 µs per round trip,
/// the same exchange through `sched_yield` 1.7–2.5 µs, and the comm
/// layer's own 64 B ping-pong, sleeping before every receive, took
/// 11.4–15.0 µs. So a waiter first yields, up to this many times,
/// checking for its message after each, and only then sleeps. The turns
/// are counted, not timed: a yield with nothing else runnable returns at
/// once, so a rank whose peer is not coming spends about a microsecond
/// here and then sleeps as before, whatever the clock says (DESIGN.md
/// §26). Open MPI's `yield_when_idle`, set automatically under
/// oversubscription, is the same rule.
pub const YIELD_TURNS: u32 = 4;

/// The yield turns of a world of `ranks` ranks hosted on `cpus` CPUs:
/// [`YIELD_TURNS`] when the ranks outnumber the CPUs, and zero when they
/// do not — or when the CPU count is unknown — so one rank per core, and
/// one rank per process, keep the plain sleep.
pub(crate) fn yield_turns(ranks: usize, cpus: Option<usize>) -> u32 {
    match cpus {
        Some(cpus) if ranks > cpus => YIELD_TURNS,
        _ => 0,
    }
}

#[cfg(test)]
thread_local! {
    /// Waits this thread has put to sleep on a mailbox.
    static MAILBOX_SLEEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Whose death ends a [`Communicator::wait_until`].
#[derive(Clone, Copy)]
pub(crate) enum Watch {
    /// The source the wait is pending on.
    Source,
    /// Every member of the group: a collective depends on all of them.
    Group,
}

/// Stamp the envelope a receive completed with onto its span.
fn stamp(span: &mut OpGuard<'_>, env: &Envelope) {
    span.peer(env.src);
    span.tag(env.tag);
    span.bytes(env.bytes as u64);
    span.flow(env.ctx);
}

/// A rank's handle to one communication group.
///
/// Cloning is intentionally not provided: like an `MPI_Comm`, a
/// `Communicator` is a per-rank resource that methods take `&self` on;
/// derived groups are created with [`Communicator::split`].
pub struct Communicator {
    registry: Arc<Registry>,
    comm_id: CommId,
    rank: usize,
    size: usize,
    /// Map from comm-local rank to world rank (identity for the world
    /// communicator), used to attribute traffic in the communication
    /// matrix.
    world_of: Arc<Vec<usize>>,
    trace: Arc<RankTrace>,
    /// Per-rank span recorder (disabled unless the world was launched
    /// with profiling); shared with derived communicators, which run on
    /// the same rank thread — the recorder's single-writer invariant.
    telemetry: Arc<SpanRecorder>,
    /// Receives panic after this long without a matching message. This
    /// converts distributed deadlocks (a bug class this runtime exists to
    /// help find) into loud failures rather than silent hangs.
    recv_timeout: Duration,
    /// Fault injector for this rank, present only in worlds launched via
    /// [`crate::WorldBuilder::run_ft`] with a plan targeting this rank. Shared
    /// with derived communicators so the op count is per-rank, not
    /// per-communicator.
    fault: Option<Arc<FaultInjector>>,
    /// The installed transport's receive progress, if it has any: then
    /// [`Communicator::wait_until`] reads this rank's wire itself instead
    /// of sleeping on the mailbox. Chosen once, here.
    progress: Option<Arc<dyn Progress>>,
    /// Yield turns before the first sleep of a wait (see
    /// [`YIELD_TURNS`]), read from the registry once, here.
    yield_turns: u32,
}

impl Communicator {
    /// Construct a communicator handle. Crate-internal: users obtain
    /// communicators from [`crate::WorldBuilder::run`] or
    /// [`Communicator::split`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        registry: Arc<Registry>,
        comm_id: CommId,
        rank: usize,
        size: usize,
        world_of: Arc<Vec<usize>>,
        trace: Arc<RankTrace>,
        telemetry: Arc<SpanRecorder>,
        recv_timeout: Duration,
    ) -> Self {
        let progress = registry.transport().and_then(|t| t.progress());
        let yield_turns = match &progress {
            Some(p) if !p.yields() => 0,
            _ => registry.yield_turns(),
        };
        Communicator {
            registry,
            comm_id,
            rank,
            size,
            world_of,
            trace,
            telemetry,
            recv_timeout,
            fault: None,
            progress,
            yield_turns,
        }
    }

    /// Attach (or clear) this rank's fault injector. Crate-internal:
    /// called once per rank by [`crate::WorldBuilder::run_ft`] and propagated to
    /// derived communicators by [`Communicator::split`].
    pub(crate) fn with_fault(mut self, fault: Option<Arc<FaultInjector>>) -> Self {
        self.fault = fault;
        self
    }

    /// A handle to the same communicator (same group, same mailboxes)
    /// with a different blocking-receive deadline. Lets fault-tolerant
    /// phases scope a short detection deadline without reconfiguring the
    /// whole world.
    pub fn with_recv_timeout(&self, recv_timeout: Duration) -> Communicator {
        Communicator {
            registry: Arc::clone(&self.registry),
            comm_id: self.comm_id,
            rank: self.rank,
            size: self.size,
            world_of: Arc::clone(&self.world_of),
            trace: Arc::clone(&self.trace),
            telemetry: Arc::clone(&self.telemetry),
            recv_timeout,
            fault: self.fault.clone(),
            progress: self.progress.clone(),
            yield_turns: self.yield_turns,
        }
    }

    /// This rank's index within the communicator, in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The per-world-rank instrumentation shared by this communicator and
    /// all communicators derived from it.
    pub fn trace(&self) -> &Arc<RankTrace> {
        &self.trace
    }

    /// This rank's span recorder. Disabled (a no-op recorder) unless
    /// the world was launched with [`crate::WorldBuilder::run_profiled`];
    /// solver layers use it to record algorithmic phase spans, e.g.
    /// `let _g = comm.telemetry().phase("halo");`.
    pub fn telemetry(&self) -> &Arc<SpanRecorder> {
        &self.telemetry
    }

    /// A live snapshot of the world's metrics plane: every registered
    /// counter/gauge/histogram plus the synthesized per-phase comm
    /// matrix and phase-entry families. `None` when the communicator
    /// was built outside a `World` runner. Any rank may call this
    /// mid-run (rank 0 typically flushes it on a step cadence).
    pub fn metrics_snapshot(&self) -> Option<beatnik_telemetry::metrics::MetricsSnapshot> {
        self.registry
            .metrics_plane()
            .map(|p| p.snapshot(&self.registry))
    }

    /// This rank's own user-channel mailbox (where peers' messages land).
    pub(crate) fn user_mailbox(&self) -> Arc<Mailbox> {
        self.mailbox_for(0, self.rank)
    }

    /// One zero-wait drain of this rank's inbound wire, the progress
    /// `MPI_Test` makes (nothing on a backend whose senders deliver).
    pub(crate) fn drain_inbound(&self) {
        if let Some(p) = &self.progress {
            p.drain(&self.registry, self.world_of[self.rank]);
        }
    }

    /// The configured deadlock-detection window for blocking receives.
    pub(crate) fn recv_timeout(&self) -> Duration {
        self.recv_timeout
    }

    /// Blocking claim of a posted receive slot under a `wait` span, for
    /// [`crate::request::RecvRequest`]: drains the slot first, then
    /// surfaces peer failure or the receive deadline as a `CommError`
    /// instead of hanging.
    pub(crate) fn claim(&self, posted: PostedId, src: usize, tag: Tag) -> Result<Envelope, CommError> {
        let mut span = self.telemetry.op(CommOp::Wait);
        let mb = self.user_mailbox();
        let deadline = Instant::now() + self.recv_timeout;
        let env = self.wait_until(&mb, deadline, Watch::Source, "irecv wait", |since, wait| {
            mb.wait_claim(posted, since, wait).ok_or((src, tag))
        })?;
        stamp(&mut span, &env);
        Ok(env)
    }

    /// The one failure-aware wait loop under every blocking receive,
    /// claim and batched wait.
    ///
    /// `poll(since, wait)` takes what the caller is waiting for if it is
    /// there, and otherwise sleeps on `mb` for at most `wait` (not at
    /// all for a zero `wait`), returning early once the mailbox has been
    /// interrupted past the `since` snapshot; while still empty-handed
    /// it names the `(src, tag)` it is pending on. Each turn snapshots
    /// the mailbox's interrupt sequence, drains, *then* reads the abort
    /// flag, the `watch`ed part of the failure ledger and the deadline,
    /// and only then sleeps against that snapshot. So a message sent
    /// before its sender died is still delivered (non-uniform
    /// completion), a death that predates the call is seen
    /// before the first sleep, and one that lands between the check and
    /// the sleep cuts the sleep short: the poll slice is a backstop for
    /// the abort flag, never a detection latency.
    ///
    /// On a transport with [`Progress`], the sleep is on this rank's own
    /// wire instead of the mailbox: the rank delivers what has arrived
    /// for it, and sleeps only if its epoch has not moved since the turn
    /// began, before the zero-wait check. Ledger interrupts ring the
    /// wire's doorbell the way they interrupt the mailbox.
    ///
    /// The first sleep of a wait comes after [`YIELD_TURNS`] turns that
    /// hand the CPU to a runnable peer instead (none when the ranks do
    /// not outnumber the CPUs, and none on TCP, see [`Progress::yields`]);
    /// on a wire, a yield turn drains first and skips the yield when
    /// that moved the epoch. A yield turn is a whole turn of the loop —
    /// snapshot, drain, abort, ledger, deadline — so failure news and the
    /// deadline are read exactly as often as without it.
    pub(crate) fn wait_until<R>(
        &self,
        mb: &Mailbox,
        deadline: Instant,
        watch: Watch,
        ctx: &'static str,
        mut poll: impl FnMut(u64, Duration) -> Result<R, (usize, Tag)>,
    ) -> Result<R, CommError> {
        let me = self.world_of[self.rank];
        let mut yields = 0;
        loop {
            let since = mb.interrupt_seq();
            let seen = self.progress.as_ref().map_or(0, |p| p.epoch(me));
            let (src, tag) = match poll(since, Duration::ZERO) {
                Ok(got) => return Ok(got),
                Err(pending) => pending,
            };
            if self.registry.aborted() {
                panic!(
                    "rank {} aborting during {ctx}: a peer rank failed",
                    self.rank
                );
            }
            let failure = match watch {
                Watch::Source => self.group_error(Some(src)),
                Watch::Group => self.group_error(None),
            };
            if let Some(e) = failure {
                return Err(e);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(CommError::Timeout {
                    rank: self.rank,
                    src,
                    tag,
                });
            }
            let slice = left.min(Duration::from_millis(100));
            if yields < self.yield_turns {
                yields += 1;
                if let Some(p) = &self.progress {
                    p.drain(&self.registry, me);
                    if p.epoch(me) != seen {
                        continue;
                    }
                }
                std::thread::yield_now();
                continue;
            }
            match &self.progress {
                Some(p) => p.progress(&self.registry, me, seen, slice),
                None => {
                    #[cfg(test)]
                    MAILBOX_SLEEPS.with(|n| n.set(n.get() + 1));
                    if let Ok(got) = poll(since, slice) {
                        return Ok(got);
                    }
                }
            }
        }
    }

    /// Convert a `CommError` from a blocking (non-`try`) op into the
    /// panic the panicking API promises: timeouts keep the historical
    /// "deadlock" message; a peer failure carries a [`CollectiveFailed`]
    /// payload, which [`crate::WorldBuilder::run_ft`] reports as a dead
    /// world instead of a bug; local argument errors keep the plain
    /// "op: error" string panic they have always had.
    pub(crate) fn escalate(&self, op: &'static str, e: CommError) -> ! {
        match e {
            CommError::Timeout { .. } => {
                panic!("{op} deadlock on rank {}: {e}", self.rank)
            }
            error @ CommError::RankFailed { .. } => panic_any(CollectiveFailed { op, error }),
            e => panic!("{op}: {e}"),
        }
    }

    /// Collective entry check: `Err(RankFailed)` naming the
    /// lowest-numbered dead member if any member died.
    pub(crate) fn check_group_alive(&self) -> Result<(), CommError> {
        match self.group_error(None) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The error a blocking wait should fail with right now, if any:
    /// the death of the peer `src` it waits on — of any member, lowest
    /// world rank first, for `None` (a collective depends on all of them).
    fn group_error(&self, src: Option<usize>) -> Option<CommError> {
        if !self.registry.any_failed() {
            return None;
        }
        let failed = match src {
            Some(src) => Some(self.world_of[src]).filter(|&w| self.registry.is_failed(w)),
            None => self.world_of.iter().copied().find(|&w| self.registry.is_failed(w)),
        };
        failed.map(|failed| CommError::RankFailed {
            rank: self.rank,
            failed,
        })
    }

    fn check_rank(&self, r: usize) -> Result<(), CommError> {
        if r >= self.size {
            Err(CommError::InvalidRank {
                rank: r,
                size: self.size,
            })
        } else {
            Ok(())
        }
    }

    fn mailbox_for(&self, channel: CommId, rank: usize) -> Arc<Mailbox> {
        self.registry.mailbox(self.comm_id | channel, rank)
    }

    /// Send one envelope toward `dest` through the world's transport
    /// (direct mailbox push when none is installed). This is the single
    /// choke point where comm-local addressing is translated to a world
    /// [`Route`], so every backend sees the same traffic shape.
    fn deliver(&self, channel: CommId, dest: usize, env: Envelope) {
        self.registry.deliver(
            Route {
                comm: self.comm_id | channel,
                dst_local: dest,
                src_world: self.world_of[self.rank],
                dst_world: self.world_of[dest],
            },
            env,
        );
    }

    /// The fallible receive under every blocking receive path: `Err`
    /// when a watched rank dies (the source on the user channel, any
    /// group member on the collective one) or the receive deadline
    /// passes — never a hang.
    fn ft_recv(
        &self,
        channel: CommId,
        src: usize,
        tag: Tag,
        ctx: &'static str,
    ) -> Result<Envelope, CommError> {
        let mb = self.mailbox_for(channel, self.rank);
        let watch = if channel == COLLECTIVE_CHANNEL {
            Watch::Group
        } else {
            Watch::Source
        };
        self.wait_until(&mb, Instant::now() + self.recv_timeout, watch, ctx, |since, wait| {
            mb.recv_matching_timeout(src, tag, since, wait).ok_or((src, tag))
        })
    }

    // ------------------------------------------------------------------
    // Point-to-point, user channel
    // ------------------------------------------------------------------

    /// The one send path under every entry point, user and collective.
    /// In order: the fault point (exactly one counted op per message, so
    /// `@op` ledgers are a function of the program alone), the causal
    /// flow context, the accounting ([`RankTrace::sent`]; `copied` says
    /// whether the wrapper materialised a borrowed slice to build `env`),
    /// delivery through the world's transport unless the fault plan
    /// dropped the message, and the span or marker `op` asks for.
    fn post(&self, dest: usize, env: Envelope, copied: bool, op: SendOp) {
        let deliver = self.fault_point();
        let (channel, kind, span) = match op {
            SendOp::User(span) => (0, OpKind::Send, Some((span, self.telemetry.begin()))),
            SendOp::Coll(kind) => (COLLECTIVE_CHANNEL, kind, None),
        };
        let ctx = self.telemetry.mint_flow(self.world_of[self.rank]);
        let (tag, bytes) = (env.tag, env.bytes as u64);
        self.trace.sent(
            kind,
            bytes,
            copied,
            self.world_of[dest],
            self.telemetry.current_phase(),
            self.telemetry.current_algo(),
        );
        if deliver {
            self.deliver(channel, dest, env.with_ctx(ctx));
        }
        match span {
            Some((span, t)) => {
                self.telemetry
                    .end_flow(t, SpanKind::Op(span), dest as i64, tag, bytes, ctx)
            }
            // The flow endpoint of an untraced run (`ctx == 0`) is nothing.
            None if ctx != 0 => {
                self.telemetry
                    .instant_flow(SpanKind::Op(CommOp::Send), dest as i64, tag, bytes, ctx)
            }
            None => {}
        }
    }

    /// Buffered send of an owned buffer to `dest`. Never blocks.
    ///
    /// The buffer moves to the receiver without copying.
    pub fn send<T: CommData>(&self, dest: usize, tag: Tag, data: Vec<T>) {
        self.check_rank(dest).expect("send: invalid destination");
        let env = Envelope::new(self.rank, tag, data);
        self.post(dest, env, false, SendOp::User(CommOp::Send));
    }

    /// Fault-injection hook on every send-side op. Returns `false` when
    /// the message must be dropped; delays sleep in place; kills mark
    /// this world rank failed, stamp a telemetry instant, and panic with
    /// a [`RankKilled`] payload. A no-op (`true`) without a fault plan.
    fn fault_point(&self) -> bool {
        let Some(inj) = &self.fault else { return true };
        match inj.on_op() {
            Injection::Proceed => true,
            Injection::Drop => {
                self.telemetry.instant(
                    SpanKind::Phase(crate::fault::FAULT_DROP_PHASE),
                    self.world_of[self.rank] as i64,
                    inj.op_count(),
                    0,
                );
                false
            }
            Injection::Delay(d) => {
                let t = self.telemetry.begin();
                std::thread::sleep(d);
                self.telemetry.end(
                    t,
                    SpanKind::Phase(crate::fault::FAULT_DELAY_PHASE),
                    self.world_of[self.rank] as i64,
                    inj.op_count(),
                    0,
                );
                true
            }
            Injection::Kill => self.die(inj, None),
        }
    }

    /// Carry out an injected kill: mark this world rank failed (which
    /// interrupts every mailbox so peers detect the death promptly),
    /// stamp the telemetry instant, and panic with a [`RankKilled`]
    /// payload that [`crate::WorldBuilder::run_ft`] recognizes.
    fn die(&self, inj: &FaultInjector, step: Option<u64>) -> ! {
        let world_rank = self.world_of[self.rank];
        self.telemetry.instant(
            SpanKind::Phase(crate::fault::FAULT_KILL_PHASE),
            world_rank as i64,
            inj.op_count(),
            0,
        );
        self.registry.mark_failed(world_rank);
        panic_any(RankKilled {
            world_rank,
            step,
            op: inj.op_count(),
        })
    }

    /// Driver hook: report the start of solver step `step` to the fault
    /// engine, firing any step-triggered kill configured for this rank.
    /// A no-op without a fault plan.
    pub fn fault_step(&self, step: u64) {
        if let Some(inj) = &self.fault {
            if inj.on_step(step) == Injection::Kill {
                self.die(inj, Some(step));
            }
        }
    }

    /// How long ago the failure of `world_rank` was first detected, if it
    /// has been. The reference point for detection-latency measurements.
    pub fn failure_age(&self, world_rank: usize) -> Option<Duration> {
        self.registry.failed_at(world_rank).map(|t| t.elapsed())
    }

    /// World ranks of this communicator's members that have failed.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.world_of
            .iter()
            .copied()
            .filter(|&w| self.registry.is_failed(w))
            .collect()
    }

    /// Blocking receive of the next buffer from `src` with `tag`, under
    /// a `recv` span. A wait that ends in an error still burned real
    /// blocked time, so its span stays on the timeline with the source
    /// and tag it was waiting on.
    ///
    /// # Panics
    /// Panics if no matching message arrives within the configured receive
    /// timeout, if the source dies first (a [`CollectiveFailed`]
    /// payload), or if the message's element type
    /// differs from `T`.
    pub fn recv<T: CommData>(&self, src: usize, tag: Tag) -> Vec<T> {
        self.check_rank(src).expect("recv: invalid source");
        let mut span = self.telemetry.op(CommOp::Recv);
        span.peer(src);
        span.tag(tag);
        let env = self
            .ft_recv(0, src, tag, "recv")
            .unwrap_or_else(|e| self.escalate("recv", e));
        self.trace.called(OpKind::Recv);
        stamp(&mut span, &env);
        env.into_data()
    }

    /// Combined send-then-receive (deadlock-free because sends are
    /// buffered); the workhorse of ring and pairwise exchange algorithms.
    pub fn sendrecv<T: CommData>(
        &self,
        dest: usize,
        send_data: Vec<T>,
        src: usize,
        tag: Tag,
    ) -> Vec<T> {
        self.send(dest, tag, send_data);
        self.recv(src, tag)
    }

    // ------------------------------------------------------------------
    // Nonblocking point-to-point (request-based)
    // ------------------------------------------------------------------

    /// Nonblocking send of a borrowed slice to `dest`.
    ///
    /// The payload is copied once, at any size, into an owned buffer
    /// that then travels by pointer (charged to the `copied` counter)
    /// and — when the receiver posted an [`Communicator::irecv`] —
    /// deposits directly into that slot. The send is buffered and
    /// completes immediately; the returned [`SendRequest`] completes via
    /// [`SendRequest::wait`] or on drop.
    pub fn isend<T: CommData + Copy>(&self, dest: usize, tag: Tag, data: &[T]) -> SendRequest<'_> {
        self.check_rank(dest).expect("isend: invalid destination");
        let env = Envelope::new(self.rank, tag, data.to_vec());
        self.post(dest, env, true, SendOp::User(CommOp::Isend));
        SendRequest::new(self)
    }

    /// Nonblocking **ownership-transfer** send: the caller gives up the
    /// buffer and the allocation moves to the receiver by pointer — zero
    /// payload bytes copied, at any size, on any backend (charged to the
    /// `handoff` counter, never to `copied`). On the thread backend the
    /// `Vec` itself crosses; on shmem loopback large envelopes ride the
    /// in-process handoff slab (a token frame keeps ring FIFO order)
    /// instead of being serialized; wire backends that must serialize do
    /// so transport-internally, which the protocol accounting never
    /// charges (see DESIGN.md §15).
    ///
    /// Prefer this over [`Communicator::isend`] whenever the payload is
    /// already an owned `Vec` you do not need afterwards — packing loops
    /// that build per-destination buffers send without a copy.
    pub fn isend_owned<T: CommData>(&self, dest: usize, tag: Tag, data: Vec<T>) -> SendRequest<'_> {
        self.check_rank(dest).expect("isend_owned: invalid destination");
        let env = Envelope::new(self.rank, tag, data);
        self.post(dest, env, false, SendOp::User(CommOp::Isend));
        SendRequest::new(self)
    }

    /// Post a nonblocking receive for the next message from `src` with
    /// `tag`. Complete it with [`RecvRequest::wait`], poll with
    /// [`RecvRequest::test`], or batch with [`crate::wait_all`]. Posting
    /// receives *before* independent computation is how solvers overlap
    /// communication with compute — and it publishes a destination slot
    /// that matching sends deposit into directly, skipping the shared
    /// queue.
    pub fn irecv<T: CommData>(&self, src: usize, tag: Tag) -> RecvRequest<'_, T> {
        self.check_rank(src).expect("irecv: invalid source");
        let posted = self.user_mailbox().post_recv(src, tag);
        self.telemetry
            .instant(SpanKind::Op(CommOp::Irecv), src as i64, tag, 0);
        RecvRequest::new(self, src, tag, posted)
    }

    // ------------------------------------------------------------------
    // Point-to-point, collective shadow channel (crate-internal)
    // ------------------------------------------------------------------

    /// Send on the collective channel, attributing traffic to `kind`.
    pub(crate) fn coll_send<T: CommData>(&self, dest: usize, tag: Tag, data: Vec<T>, kind: OpKind) {
        debug_assert!(dest < self.size);
        let env = Envelope::new(self.rank, tag, data);
        self.post(dest, env, false, SendOp::Coll(kind));
    }

    /// Shared-buffer send on the collective channel: one `Arc<Vec<T>>`
    /// fanned out without sender-side clones. Each destination's
    /// envelope holds an `Arc` clone; the last receiver to claim the
    /// buffer takes the allocation itself, earlier ones clone on receipt
    /// (`T: Clone` exists for exactly that fallback).
    pub(crate) fn coll_send_shared<T: CommData + Clone + Sync>(
        &self,
        dest: usize,
        tag: Tag,
        data: &Arc<Vec<T>>,
        kind: OpKind,
    ) {
        debug_assert!(dest < self.size);
        let env = Envelope::from_shared(self.rank, tag, Arc::clone(data));
        self.post(dest, env, false, SendOp::Coll(kind));
    }

    /// Fallible receive on the collective channel: `Err(RankFailed)` when
    /// any group member dies mid-collective, `Err(Timeout)` past the
    /// deadline — never a hang.
    pub(crate) fn try_coll_recv<T: CommData>(
        &self,
        src: usize,
        tag: Tag,
        ctx: &'static str,
    ) -> Result<Vec<T>, CommError> {
        let env = self.ft_recv(COLLECTIVE_CHANNEL, src, tag, ctx)?;
        // Receive-side flow marker inside the enclosing collective span
        // (instant, so the collective's wait attribution is untouched).
        if env.ctx != 0 {
            self.telemetry.instant_flow(
                SpanKind::Op(CommOp::Recv),
                env.src as i64,
                env.tag,
                env.bytes as u64,
                env.ctx,
            );
        }
        env.try_into_data()
    }

    /// Record that a collective of `kind` was invoked once on this rank.
    pub(crate) fn coll_begin(&self, kind: OpKind) {
        self.trace.called(kind);
    }

    // ------------------------------------------------------------------
    // Collectives (delegating to `collectives::*`)
    //
    // One entry point per collective. Each checks its arguments locally,
    // then runs the algorithm; any error reaches the caller through
    // [`Communicator::escalate`], so a peer death arrives as the
    // [`CollectiveFailed`] panic that ends a fault-tolerant world.
    // ------------------------------------------------------------------

    /// Block until every rank of the communicator has entered the barrier.
    pub fn barrier(&self) {
        if let Err(e) = collectives::barrier::barrier(self) {
            self.escalate("barrier", e)
        }
    }

    /// Fallible [`Communicator::barrier`]: `Err(RankFailed)` /
    /// `Err(Timeout)` instead of panicking when the group cannot complete.
    /// The one collective with an error-returning form: a fault-tolerant
    /// loop uses it to fence a step without unwinding.
    pub fn try_barrier(&self) -> Result<(), CommError> {
        collectives::barrier::barrier(self)
    }

    /// Broadcast `root`'s buffer to every rank (binomial tree). The root
    /// passes `Some(data)`, every other rank `None`.
    ///
    /// # Panics
    /// On an out-of-range root, a root that supplies no buffer, or a
    /// group that cannot complete.
    pub fn broadcast<T: CommData + Clone + Sync>(&self, root: usize, data: Option<Vec<T>>) -> Vec<T> {
        self.check_rank(root)
            .and_then(|()| {
                if self.rank == root && data.is_none() {
                    return Err(CommError::SizeMismatch {
                        what: "broadcast root buffer (root must supply data)",
                        expected: 1,
                        got: 0,
                    });
                }
                collectives::broadcast::broadcast(self, root, data)
            })
            .unwrap_or_else(|e| self.escalate("broadcast", e))
    }

    /// Allreduce a single value (recursive doubling / reduce+broadcast).
    pub fn allreduce<T: CommData + Clone + Sync, O: ReduceOp<T>>(&self, value: T, op: &O) -> T {
        collectives::reduce::allreduce(self, value, op)
            .unwrap_or_else(|e| self.escalate("allreduce", e))
    }

    /// Element-wise allreduce over vectors.
    pub fn allreduce_vec<T: CommData + Clone + Sync, O: ReduceOp<T>>(&self, value: Vec<T>, op: &O) -> Vec<T> {
        collectives::reduce::allreduce_vec(self, value, op)
            .unwrap_or_else(|e| self.escalate("allreduce_vec", e))
    }

    /// Sum an `f64` across all ranks.
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        self.allreduce(value, &crate::reduce_op::SumOp)
    }

    /// Maximum of an `f64` across all ranks.
    pub fn allreduce_max(&self, value: f64) -> f64 {
        self.allreduce(value, &crate::reduce_op::MaxOp)
    }

    /// Minimum of an `f64` across all ranks.
    pub fn allreduce_min(&self, value: f64) -> f64 {
        self.allreduce(value, &crate::reduce_op::MinOp)
    }

    /// Gather every rank's slice to `root`, concatenated in rank order
    /// (non-roots get `None`). Per-rank lengths may differ.
    ///
    /// # Panics
    /// On an out-of-range root or a group that cannot complete.
    pub fn gather<T: CommData + Clone>(&self, root: usize, data: &[T]) -> Option<Vec<T>> {
        self.check_rank(root)
            .and_then(|()| collectives::gather::gather(self, root, data.to_vec()))
            .unwrap_or_else(|e| self.escalate("gather", e))
            .map(|blocks| blocks.into_iter().flatten().collect())
    }

    /// Gather every rank's slice to every rank (ring algorithm),
    /// concatenated in rank order. Per-rank lengths may differ.
    pub fn allgather<T: CommData + Clone>(&self, data: &[T]) -> Vec<T> {
        collectives::gather::allgather(self, data.to_vec())
            .unwrap_or_else(|e| self.escalate("allgather", e))
            .into_iter()
            .flatten()
            .collect()
    }

    /// Irregular all-to-all over a flat buffer: `counts[d]` elements go
    /// to rank `d` (counts may be zero and must sum to the buffer
    /// length). Returns the received elements concatenated in source-rank
    /// order, plus the per-source counts. Splits the buffer into blocks
    /// and runs [`Communicator::alltoallv_owned`].
    ///
    /// # Panics
    /// When `counts` does not have one entry per rank or does not sum to
    /// `send.len()`, or when the group cannot complete.
    pub fn alltoallv_with<T: CommData + Clone>(
        &self,
        send: &[T],
        counts: &[usize],
        algo: AllToAllAlgo,
    ) -> (Vec<T>, Vec<usize>) {
        if counts.len() != self.size {
            self.escalate(
                "alltoallv",
                CommError::SizeMismatch {
                    what: "alltoallv counts length",
                    expected: self.size,
                    got: counts.len(),
                },
            );
        }
        let total: usize = counts.iter().sum();
        if total != send.len() {
            self.escalate(
                "alltoallv",
                CommError::SizeMismatch {
                    what: "alltoallv counts sum",
                    expected: send.len(),
                    got: total,
                },
            );
        }
        let mut rest = send;
        let blocks: Vec<Vec<T>> = counts
            .iter()
            .map(|&c| {
                let (head, tail) = rest.split_at(c);
                rest = tail;
                head.to_vec()
            })
            .collect();
        let recv = self.alltoallv_owned(blocks, algo);
        let recv_counts: Vec<usize> = recv.iter().map(Vec::len).collect();
        (recv.into_iter().flatten().collect(), recv_counts)
    }

    /// Irregular all-to-all over **owned** per-destination blocks, the
    /// exchange every step makes (the dfft reshapes, particle
    /// migration): `blocks[d]` moves to rank `d` by ownership transfer
    /// and the result holds the block received from each source rank.
    /// Nothing is flattened on either side, so a caller that packs per
    /// destination and unpacks per source pays pack + move + unpack and
    /// nothing else. The receiver of a block frees it.
    ///
    /// # Panics
    /// When `blocks` does not hold one block per rank, or when the group
    /// cannot complete.
    pub fn alltoallv_owned<T: CommData + Clone>(
        &self,
        blocks: Vec<Vec<T>>,
        algo: AllToAllAlgo,
    ) -> Vec<Vec<T>> {
        if blocks.len() != self.size {
            self.escalate(
                "alltoallv",
                CommError::SizeMismatch {
                    what: "alltoallv block count",
                    expected: self.size,
                    got: blocks.len(),
                },
            );
        }
        collectives::alltoall::alltoallv(self, blocks, algo)
            .unwrap_or_else(|e| self.escalate("alltoallv", e))
    }

    // ------------------------------------------------------------------
    // Group management
    // ------------------------------------------------------------------

    /// Partition the communicator into disjoint groups, one per distinct
    /// `color`; within a group ranks are ordered by `(key, old rank)`.
    /// Ranks passing `color = None` (MPI's `MPI_UNDEFINED`) get `None`
    /// back. Collective over the communicator.
    pub fn split(&self, color: Option<u64>, key: i64) -> Option<Communicator> {
        // Exchange (color?, key, old_rank) triples; encode None as u64::MAX
        // (reserved — asserted below).
        if let Some(c) = color {
            assert_ne!(c, u64::MAX, "split: color u64::MAX is reserved");
        }
        let triple = (color.unwrap_or(u64::MAX), key, self.rank);
        let mut entries: Vec<(u64, i64, usize)> = self.allgather(&[triple]);
        entries.sort_unstable();

        // Enumerate color groups in sorted color order.
        let mut colors: Vec<u64> = entries
            .iter()
            .map(|e| e.0)
            .filter(|&c| c != u64::MAX)
            .collect();
        colors.dedup();
        let num_groups = colors.len() as u64;

        // Rank 0 of the parent allocates a contiguous id block; everyone
        // then derives the same per-group id deterministically.
        let base = if self.rank == 0 {
            let b = self.registry.allocate_comm_ids(num_groups.max(1));
            self.broadcast(0, Some(vec![b]))[0]
        } else {
            self.broadcast::<u64>(0, None)[0]
        };

        let my_color = color?;
        let group_index = colors.iter().position(|&c| c == my_color).unwrap() as u64;
        let members: Vec<(u64, i64, usize)> = entries
            .iter()
            .copied()
            .filter(|e| e.0 == my_color)
            .collect();
        // `entries` is sorted by (color, key, old_rank), so `members` is
        // already in new-rank order.
        let new_rank = members
            .iter()
            .position(|&(_, _, old)| old == self.rank)
            .unwrap();
        let world_of: Arc<Vec<usize>> = Arc::new(
            members
                .iter()
                .map(|&(_, _, old)| self.world_of[old])
                .collect(),
        );
        Some(
            Communicator::new(
                Arc::clone(&self.registry),
                base + group_index,
                new_rank,
                members.len(),
                world_of,
                Arc::clone(&self.trace),
                Arc::clone(&self.telemetry),
                self.recv_timeout,
            )
            .with_fault(self.fault.clone()),
        )
    }

    /// Duplicate the communicator into an independent message space with
    /// the same group (like `MPI_Comm_dup`). Collective.
    pub fn duplicate(&self) -> Communicator {
        self.split(Some(0), self.rank as i64)
            .expect("duplicate: split returned None")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn rank_and_size_are_consistent() {
        let sizes = World::builder(5).run(|c| {
            assert!(c.rank() < c.size());
            c.size()
        });
        assert_eq!(sizes, vec![5; 5]);
    }

    #[test]
    fn p2p_roundtrip_between_two_ranks() {
        World::builder(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 7, vec![1.5f64, 2.5]);
                let back: Vec<f64> = c.recv(1, 8);
                assert_eq!(back, vec![4.0]);
            } else {
                let v: Vec<f64> = c.recv(0, 7);
                assert_eq!(v, vec![1.5, 2.5]);
                c.send(0, 8, vec![v.iter().sum::<f64>()]);
            }
        });
    }

    #[test]
    fn sendrecv_ring_shifts_values() {
        let out = World::builder(4).run(|c| {
            let right = (c.rank() + 1) % 4;
            let left = (c.rank() + 3) % 4;
            let got = c.sendrecv(right, vec![c.rank() as u64], left, 3);
            got[0]
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn messages_with_same_selector_do_not_overtake() {
        World::builder(2).run(|c| {
            if c.rank() == 0 {
                for i in 0..50u32 {
                    c.send(1, 1, vec![i]);
                }
            } else {
                for i in 0..50u32 {
                    assert_eq!(c.recv::<u32>(0, 1), [i]);
                }
            }
        });
    }

    #[test]
    fn split_groups_by_parity() {
        World::builder(6).run(|c| {
            let color = (c.rank() % 2) as u64;
            let sub = c.split(Some(color), c.rank() as i64).unwrap();
            assert_eq!(sub.size(), 3);
            assert_eq!(sub.rank(), c.rank() / 2);
            // Sum world ranks within the subgroup.
            let s = sub.allreduce_sum(c.rank() as f64);
            if color == 0 {
                assert_eq!(s, 0.0 + 2.0 + 4.0);
            } else {
                assert_eq!(s, 1.0 + 3.0 + 5.0);
            }
        });
    }

    #[test]
    fn split_with_undefined_color_returns_none() {
        World::builder(4).run(|c| {
            let sub = if c.rank() == 0 {
                c.split(None, 0)
            } else {
                c.split(Some(1), c.rank() as i64)
            };
            if c.rank() == 0 {
                assert!(sub.is_none());
            } else {
                let sub = sub.unwrap();
                assert_eq!(sub.size(), 3);
            }
        });
    }

    #[test]
    fn split_key_reverses_rank_order() {
        World::builder(4).run(|c| {
            let sub = c.split(Some(0), -(c.rank() as i64)).unwrap();
            assert_eq!(sub.rank(), 3 - c.rank());
        });
    }

    #[test]
    fn duplicated_comm_is_an_independent_message_space() {
        World::builder(2).run(|c| {
            let dup = c.duplicate();
            assert_eq!(dup.size(), 2);
            if c.rank() == 0 {
                c.send(1, 5, vec![1u8]);
                dup.send(1, 5, vec![2u8]);
            } else {
                // Receive from the duplicate first: must not see the
                // message sent on the parent.
                assert_eq!(dup.recv::<u8>(0, 5), [2]);
                assert_eq!(c.recv::<u8>(0, 5), [1]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "invalid destination")]
    fn send_to_out_of_range_rank_panics() {
        World::builder(1).run(|c| {
            c.send(5, 0, vec![0u8]);
        });
    }

    #[test]
    fn trace_counts_p2p_bytes() {
        let (_, trace) = World::builder(2).run_traced(|c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![0u64; 16]); // 128 bytes
            } else {
                let _ = c.recv::<u64>(0, 0);
            }
        });
        let s = trace.rank(0).get(OpKind::Send);
        assert_eq!(s.calls, 1);
        assert_eq!(s.messages, 1);
        assert_eq!(s.bytes, 128);
        assert_eq!(trace.rank(1).get(OpKind::Recv).calls, 1);
    }

    #[test]
    fn flat_gather_concatenates_in_rank_order() {
        World::builder(3).run(|c| {
            let mine = vec![c.rank() as u32 * 10, c.rank() as u32 * 10 + 1];
            let got = c.gather(1, &mine);
            if c.rank() == 1 {
                assert_eq!(got.unwrap(), vec![0, 1, 10, 11, 20, 21]);
            } else {
                assert!(got.is_none());
            }
        });
    }

    #[test]
    fn gatherv_reports_ragged_counts() {
        World::builder(3).run(|c| {
            // Rank r contributes r elements; the root sees each rank's block
            // boundary, and the flat gather concatenates them.
            let mine = vec![c.rank() as u64; c.rank()];
            let blocks = crate::collectives::gather::gather(&c, 0, mine.clone()).unwrap();
            let flat = c.gather(0, &mine);
            if c.rank() == 0 {
                let counts: Vec<usize> = blocks.unwrap().iter().map(Vec::len).collect();
                assert_eq!(counts, vec![0, 1, 2]);
                assert_eq!(flat.unwrap(), vec![1, 2, 2]);
            } else {
                assert!(blocks.is_none() && flat.is_none());
            }
        });
    }

    #[test]
    fn flat_allgather_concatenates_ragged_slices() {
        World::builder(4).run(|c| {
            let got = c.allgather(&[c.rank() as u8]);
            assert_eq!(got, vec![0, 1, 2, 3]);
            let mine = vec![c.rank() as u8; c.rank() % 2 + 1];
            assert_eq!(c.allgather(&mine), vec![0, 1, 1, 2, 3, 3]);
        });
    }

    #[test]
    fn flat_alltoall_transposes_chunks() {
        World::builder(3).run(|c| {
            let me = c.rank() as u64;
            // Chunk for destination d is [me*10 + d].
            let send: Vec<u64> = (0..3).map(|d| me * 10 + d).collect();
            let (got, counts) = c.alltoallv_with(&send, &[1; 3], AllToAllAlgo::Pairwise);
            let want: Vec<u64> = (0..3).map(|s| s * 10 + me).collect();
            assert_eq!(got, want);
            assert_eq!(counts, [1; 3]);
        });
    }

    #[test]
    fn flat_alltoallv_returns_counts() {
        World::builder(3).run(|c| {
            let me = c.rank();
            // Rank r sends r+1 copies of its rank to every destination.
            let counts = vec![me + 1; 3];
            let send = vec![me as u64; 3 * (me + 1)];
            let (flat, rcounts) = c.alltoallv_with(&send, &counts, AllToAllAlgo::Direct);
            assert_eq!(rcounts, vec![1, 2, 3]);
            assert_eq!(flat, vec![0, 1, 1, 2, 2, 2]);
        });
    }

    #[test]
    fn collectives_reject_bad_arguments_locally() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        World::builder(2).run(|c| {
            let panics_with = |want: &str, call: &dyn Fn()| {
                let p = catch_unwind(AssertUnwindSafe(call)).expect_err(want);
                let msg = p.downcast_ref::<String>().expect("a message panic");
                assert!(msg.contains(want), "{msg:?} lacks {want:?}");
            };
            panics_with("gather: rank 5 out of range", &|| drop(c.gather(5, &[0u8])));
            panics_with("broadcast: rank 7 out of range", &|| {
                drop(c.broadcast(7, Some(vec![0u8])))
            });
            panics_with("alltoallv counts sum: expected 4, got 3", &|| {
                drop(c.alltoallv_with(&[0u8; 4], &[1, 2], AllToAllAlgo::Pairwise))
            });
            panics_with("alltoallv counts length: expected 2, got 1", &|| {
                drop(c.alltoallv_with(&[0u8; 4], &[1], AllToAllAlgo::Pairwise))
            });
            panics_with("alltoallv block count: expected 2, got 3", &|| {
                drop(c.alltoallv_owned(vec![vec![0u8]; 3], AllToAllAlgo::Direct))
            });
            if c.rank() == 0 {
                panics_with("root must supply data", &|| drop(c.broadcast::<u8>(0, None)));
            }
            // Errors above are local: no rank entered a collective, so the
            // group is still consistent for a real one.
            assert_eq!(c.allreduce_sum(1.0), 2.0);
        });
    }

    #[test]
    fn every_send_wrapper_counts_exactly_one_fault_op() {
        // `@op` ledgers replay only if a message is one counted op no
        // matter which entry point sent it. The plan targets both ranks
        // (so each carries an injector) but never fires.
        let plan = crate::fault::FaultPlan::parse("kill:r0@step999, kill:r1@step999", 0)
            .expect("static plan");
        World::builder(2).fault_plan(&plan).run_ft(|c| {
            let ops = || c.fault.as_ref().expect("plan targets every rank").op_count();
            let peer = 1 - c.rank();
            let shared = Arc::new(vec![7u8; 3]);
            let wrappers: [(&str, &dyn Fn()); 6] = [
                ("send", &|| c.send(peer, 1, vec![7u8; 3])),
                ("sendrecv", &|| drop(c.sendrecv(peer, vec![7u8; 3], peer, 2))),
                ("isend", &|| c.isend(peer, 1, &[7u8; 3]).wait()),
                ("isend_owned", &|| c.isend_owned(peer, 1, vec![7u8; 3]).wait()),
                ("coll_send", &|| c.coll_send(peer, 1, vec![7u8; 3], OpKind::Gather)),
                ("coll_send_shared", &|| {
                    c.coll_send_shared(peer, 1, &shared, OpKind::Broadcast)
                }),
            ];
            for (name, send) in wrappers {
                let before = ops();
                send();
                assert_eq!(ops(), before + 1, "{name}");
            }
            // Receiving counts nothing.
            let before = ops();
            for _ in 0..3 {
                let _ = c.recv::<u8>(peer, 1);
            }
            for _ in 0..2 {
                c.try_coll_recv::<u8>(peer, 1, "test").expect("queued above");
            }
            assert_eq!(ops(), before);
        });
    }

    /// Run `f` on a thread pinned to one CPU: a world it launches hosts
    /// every rank on that CPU.
    #[cfg(target_os = "linux")]
    fn on_one_cpu<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(crate::affinity::pin_to_one_cpu(), "pinning to one CPU");
                f()
            })
            .join()
            .unwrap()
        })
    }

    #[test]
    fn yield_turns_are_zero_unless_ranks_outnumber_cpus() {
        for (ranks, cpus) in [(1, 1), (2, 2), (2, 8), (16, 16)] {
            assert_eq!(yield_turns(ranks, Some(cpus)), 0, "{ranks} ranks on {cpus} CPUs");
        }
        assert_eq!(yield_turns(2, None), 0, "an unknown CPU count");
        assert_eq!(yield_turns(2, Some(1)), YIELD_TURNS);
        assert_eq!(yield_turns(17, Some(16)), YIELD_TURNS);
        // A live world no larger than this thread's mask keeps the plain
        // sleep on every rank.
        let cpus = crate::affinity::CpuMask::of_this_thread().map_or(1, |m| m.len());
        let ranks = cpus.min(2);
        assert_eq!(World::builder(ranks).run(|c| c.yield_turns), vec![0; ranks]);
        #[cfg(target_os = "linux")]
        assert_eq!(
            on_one_cpu(|| World::builder(2).run(|c| c.yield_turns)),
            [YIELD_TURNS; 2]
        );
    }

    /// Two ranks sharing one CPU: a waiter hands the CPU to its peer,
    /// which answers before the waiter's yield turns run out, so most
    /// waits never reach the mailbox sleep. With the sleep first, nearly
    /// every one of them did.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_ping_pong_on_one_cpu_mostly_hands_the_cpu_over_instead_of_sleeping() {
        const ROUNDS: u64 = 2000;
        let sleeps = on_one_cpu(|| {
            World::builder(2)
                .transport(crate::TransportKind::Thread)
                .run(|c| {
                    let peer = 1 - c.rank();
                    MAILBOX_SLEEPS.with(|n| n.set(0));
                    for i in 0..ROUNDS {
                        if c.rank() == 0 {
                            c.send(peer, i, vec![i]);
                            assert_eq!(c.recv::<u64>(peer, i), [i + 1]);
                        } else {
                            let v = c.recv::<u64>(peer, i);
                            c.send(peer, i, vec![v[0] + 1]);
                        }
                    }
                    MAILBOX_SLEEPS.with(|n| n.get())
                })
        });
        for (rank, &n) in sleeps.iter().enumerate() {
            assert!(
                n as u64 <= ROUNDS / 2,
                "rank {rank} slept in {n} of its {ROUNDS} waits"
            );
        }
    }

    #[test]
    fn recv_times_out_past_a_non_matching_message() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        World::builder(2).run(|c| {
            if c.rank() == 0 {
                // Tag 99 is never sent: this must time out even though a
                // non-matching message (tag 4) may already be queued.
                let short = c.with_recv_timeout(Duration::from_millis(30));
                let p = catch_unwind(AssertUnwindSafe(|| short.recv::<u8>(1, 99)))
                    .expect_err("a receive of a tag never sent");
                let msg = p.downcast_ref::<String>().expect("a message panic");
                assert!(msg.starts_with("recv deadlock on rank 0"), "{msg}");
                c.barrier();
                // After the sender's barrier the message is guaranteed
                // queued, and its own receive takes it.
                assert_eq!(c.recv::<u8>(1, 4), vec![9]);
            } else {
                c.send(0, 4, vec![9u8]);
                c.barrier();
            }
        });
    }
}

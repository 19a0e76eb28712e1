//! The rank-local communicator handle: point-to-point messaging, probes,
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
use crate::transport::Route;
use beatnik_telemetry::{CommOp, OpGuard, SpanKind, SpanRecorder};
use std::panic::panic_any;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Message tag type (MPI uses `int`; we use the full `u64` space).
pub type Tag = u64;

/// Wildcard source selector for [`Communicator::recv_any`].
pub const ANY_SOURCE: usize = usize::MAX;
/// Wildcard tag selector for [`Communicator::recv_any`].
pub const ANY_TAG: Tag = u64::MAX;

/// Collective traffic travels on a shadow channel so user receives with
/// wildcard selectors can never steal a collective's internal messages.
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

/// Whose death or revocation ends a [`Communicator::wait_until`].
#[derive(Clone, Copy)]
pub(crate) enum Watch {
    /// The source the wait is pending on (the whole group for
    /// [`ANY_SOURCE`]), plus revocation of this communicator.
    Source,
    /// Every member of the group: a collective depends on all of them.
    Group,
    /// Nobody: the recovery ops must make progress *despite* failures
    /// and on revoked communicators.
    Nobody,
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
    /// Registry revoke epoch at construction. Any revocation issued after
    /// this communicator was built counts as revoking it too, so ranks
    /// blocked on derived sub-communicators (whose groups may not contain
    /// the failed rank) unblock as soon as any survivor revokes, instead
    /// of waiting out their full receive deadline.
    born_epoch: u64,
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
        let born_epoch = registry.revoke_epoch();
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
            born_epoch,
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
            born_epoch: self.born_epoch,
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

    /// Link-health counters from the installed transport: reconnects,
    /// heartbeat misses, replayed frames, and the latency of the most
    /// recent reconnect. All zero for in-process backends (no wire) and
    /// for communicators built outside a `World` runner.
    pub fn link_stats(&self) -> crate::transport::LinkStats {
        self.registry
            .transport()
            .map(|t| t.link_stats())
            .unwrap_or_default()
    }

    /// This rank's own user-channel mailbox (where peers' messages land).
    pub(crate) fn user_mailbox(&self) -> Arc<Mailbox> {
        self.mailbox_for(0, self.rank)
    }

    /// The configured deadlock-detection window for blocking receives.
    pub(crate) fn recv_timeout(&self) -> Duration {
        self.recv_timeout
    }

    /// Blocking claim of a posted receive slot under a `wait` span, for
    /// [`crate::request::RecvRequest`]: drains the slot first, then
    /// surfaces peer failure, revocation, or the receive deadline as a
    /// `CommError` instead of hanging.
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
    /// claim, batched wait and agreement round.
    ///
    /// `poll(since, wait)` takes what the caller is waiting for if it is
    /// there, and otherwise sleeps on `mb` for at most `wait` (not at
    /// all for a zero `wait`), returning early once the mailbox has been
    /// interrupted past the `since` snapshot; while still empty-handed
    /// it names the `(src, tag)` it is pending on. Each turn snapshots
    /// the mailbox's interrupt sequence, drains, *then* reads the abort
    /// flag, the `watch`ed part of the failure ledger and the deadline,
    /// and only then sleeps against that snapshot. So a message sent
    /// before its sender died is still delivered (ULFM allows
    /// non-uniform completion), a death that predates the call is seen
    /// before the first sleep, and one that lands between the check and
    /// the sleep cuts the sleep short: the poll slice is a backstop for
    /// the abort flag, never a detection latency.
    pub(crate) fn wait_until<R>(
        &self,
        mb: &Mailbox,
        deadline: Instant,
        watch: Watch,
        ctx: &'static str,
        mut poll: impl FnMut(u64, Duration) -> Result<R, (usize, Tag)>,
    ) -> Result<R, CommError> {
        loop {
            let since = mb.interrupt_seq();
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
                Watch::Source => self.group_error(src),
                Watch::Group => self.group_error(ANY_SOURCE),
                Watch::Nobody => None,
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
            if let Ok(got) = poll(since, left.min(Duration::from_millis(100))) {
                return Ok(got);
            }
        }
    }

    /// Convert a `CommError` from a blocking (non-`try`) op into the
    /// panic the panicking API promises: timeouts keep the historical
    /// "deadlock" message; peer failure and revocation carry a
    /// [`CollectiveFailed`] payload so recovery drivers can catch and
    /// downcast them; local argument errors keep the plain "op: error"
    /// string panic they have always had.
    pub(crate) fn escalate(&self, op: &'static str, e: CommError) -> ! {
        match e {
            CommError::Timeout { .. } => {
                panic!("{op} deadlock on rank {}: {e}", self.rank)
            }
            error @ (CommError::RankFailed { .. } | CommError::Revoked { .. }) => {
                panic_any(CollectiveFailed { op, error })
            }
            e => panic!("{op}: {e}"),
        }
    }

    /// The world rank of a failed peer this receive cares about, if any:
    /// a specific `src` watches only that rank, wildcard receives (and
    /// collectives, via [`Communicator::check_group_alive`]) watch the
    /// whole group.
    fn relevant_failure(&self, src: usize) -> Option<usize> {
        if !self.registry.any_failed() {
            return None;
        }
        if src == ANY_SOURCE {
            self.world_of
                .iter()
                .copied()
                .find(|&w| self.registry.is_failed(w))
        } else {
            let w = self.world_of[src];
            self.registry.is_failed(w).then_some(w)
        }
    }

    /// Collective entry/progress check: `Err(Revoked)` if this
    /// communicator was revoked, `Err(RankFailed)` naming the
    /// lowest-numbered dead member if any member died. The ULFM-style
    /// recovery ops (`agree`, [`Communicator::shrink`])
    /// deliberately bypass this — they must make progress *despite*
    /// failures.
    pub(crate) fn check_group_alive(&self) -> Result<(), CommError> {
        match self.group_error(ANY_SOURCE) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The error a blocking wait on `src` should fail with right now, if
    /// any: revocation of this communicator, or a relevant peer failure.
    pub(crate) fn group_error(&self, src: usize) -> Option<CommError> {
        if self.is_revoked() {
            return Some(CommError::Revoked { rank: self.rank });
        }
        self.relevant_failure(src).map(|failed| CommError::RankFailed {
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
    /// group member on the collective one), the communicator is revoked,
    /// or `timeout` passes — never a hang.
    fn ft_recv(
        &self,
        channel: CommId,
        src: usize,
        tag: Tag,
        timeout: Duration,
        ctx: &'static str,
    ) -> Result<Envelope, CommError> {
        let mb = self.mailbox_for(channel, self.rank);
        let watch = if channel == COLLECTIVE_CHANNEL {
            Watch::Group
        } else {
            Watch::Source
        };
        self.wait_until(&mb, Instant::now() + timeout, watch, ctx, |since, wait| {
            mb.recv_matching_timeout(src, tag, since, wait).ok_or((src, tag))
        })
    }

    /// Blocking user-channel receive under a `recv` span. A wait that
    /// ends in an error still burned real blocked time, so its span
    /// stays on the timeline with the selectors it was waiting on.
    fn recv_env(
        &self,
        src: usize,
        tag: Tag,
        timeout: Duration,
        ctx: &'static str,
    ) -> Result<Envelope, CommError> {
        let mut span = self.telemetry.op(CommOp::Recv);
        span.peer(src);
        span.tag(tag);
        let env = self.ft_recv(0, src, tag, timeout, ctx)?;
        self.trace.called(OpKind::Recv);
        stamp(&mut span, &env);
        Ok(env)
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

    /// Blocking receive of a buffer matching exactly `(src, tag)`.
    ///
    /// # Panics
    /// Panics if no matching message arrives within the configured receive
    /// timeout, or if the message's element type differs from `T`.
    pub fn recv<T: CommData>(&self, src: usize, tag: Tag) -> Vec<T> {
        self.check_rank(src).expect("recv: invalid source");
        self.recv_env(src, tag, self.recv_timeout, "recv")
            .unwrap_or_else(|e| self.escalate("recv", e))
            .into_data()
    }

    /// Blocking receive allowing [`ANY_SOURCE`] / [`ANY_TAG`] wildcards.
    /// Returns the payload together with the actual source and tag.
    pub fn recv_any<T: CommData>(&self, src: usize, tag: Tag) -> (Vec<T>, usize, Tag) {
        let env = self
            .recv_env(src, tag, self.recv_timeout, "recv_any")
            .unwrap_or_else(|e| self.escalate("recv_any", e));
        let (s, t) = (env.src, env.tag);
        (env.into_data(), s, t)
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

    /// Non-blocking check whether a matching message is waiting.
    pub fn probe(&self, src: usize, tag: Tag) -> bool {
        self.mailbox_for(0, self.rank).probe(src, tag)
    }

    /// Non-blocking receive: returns the payload if a matching message is
    /// already queued, `None` otherwise (never blocks). Supports the same
    /// wildcards as [`Communicator::recv_any`].
    pub fn try_recv<T: CommData>(&self, src: usize, tag: Tag) -> Option<Vec<T>> {
        let mb = self.mailbox_for(0, self.rank);
        if !mb.probe(src, tag) {
            return None;
        }
        // A matching message exists and nothing else drains this mailbox
        // (one receiver per rank), so this cannot block.
        let t = self.telemetry.begin();
        let env = mb.recv_matching(src, tag);
        self.trace.called(OpKind::Recv);
        self.telemetry.end_flow(
            t,
            SpanKind::Op(CommOp::Recv),
            env.src as i64,
            env.tag,
            env.bytes as u64,
            env.ctx,
        );
        Some(env.into_data())
    }

    /// Fallible blocking receive bounded by `timeout`: returns
    /// `Err(CommError::Timeout)` instead of panicking when no matching
    /// message arrives in time, and `Err(RankFailed)` / `Err(Revoked)` as
    /// soon as the source dies or the communicator is revoked. Wildcards
    /// are allowed.
    pub fn recv_within<T: CommData>(
        &self,
        src: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Vec<T>, CommError> {
        if src != ANY_SOURCE {
            self.check_rank(src)?;
        }
        Ok(self.recv_env(src, tag, timeout, "recv_within")?.into_data())
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
    /// [`SendRequest::wait`]/[`SendRequest::test`] or on drop.
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

    /// Nonblocking **shared-buffer** send: one `Arc<Vec<T>>` fanned out
    /// to many destinations without the sender ever copying payload
    /// bytes. Each destination's envelope holds an `Arc` clone; the last
    /// receiver to claim the buffer takes the allocation itself, earlier
    /// ones clone on receipt (`T: Clone` exists for exactly that
    /// fallback). Send-side copy accounting is zero, like
    /// [`Communicator::isend_owned`].
    pub fn isend_shared<T: CommData + Clone + Sync>(
        &self,
        dest: usize,
        tag: Tag,
        data: &Arc<Vec<T>>,
    ) -> SendRequest<'_> {
        self.check_rank(dest).expect("isend_shared: invalid destination");
        let env = Envelope::from_shared(self.rank, tag, Arc::clone(data));
        self.post(dest, env, false, SendOp::User(CommOp::Isend));
        SendRequest::new(self)
    }

    /// Whether envelopes to `dest` move by pointer end to end on the
    /// installed transport (ownership handoff), rather than being
    /// serialized through a wire. True for the thread backend and for
    /// shmem when `dest` is hosted in this process; false across real
    /// process or machine boundaries.
    pub fn transport_handoff(&self, dest: usize) -> bool {
        self.check_rank(dest)
            .expect("transport_handoff: invalid destination");
        let dst_world = self.world_of[dest];
        match self.registry.transport() {
            Some(t) => t.pointer_handoff(dst_world),
            // No transport installed: direct mailbox pushes, by pointer.
            None => true,
        }
    }

    /// Post a nonblocking receive for a message matching `(src, tag)`
    /// (wildcards allowed). Complete it with [`RecvRequest::wait`],
    /// poll with [`RecvRequest::test`], or batch with
    /// [`crate::wait_all`]. Posting receives *before* independent
    /// computation is how solvers overlap communication with compute —
    /// and it publishes a destination slot that matching sends deposit
    /// into directly, skipping the shared queue.
    pub fn irecv<T: CommData>(&self, src: usize, tag: Tag) -> RecvRequest<'_, T> {
        if src != ANY_SOURCE {
            self.check_rank(src).expect("irecv: invalid source");
        }
        let posted = self.user_mailbox().post_recv(src, tag);
        let peer = if src == ANY_SOURCE { -1 } else { src as i64 };
        self.telemetry
            .instant(SpanKind::Op(CommOp::Irecv), peer, tag, 0);
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
    /// fanned out without sender-side clones (see
    /// [`Communicator::isend_shared`] for the claim semantics).
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
    /// any group member dies mid-collective, `Err(Revoked)` after
    /// revocation, `Err(Timeout)` past the deadline — never a hang.
    pub(crate) fn try_coll_recv<T: CommData>(
        &self,
        src: usize,
        tag: Tag,
        ctx: &'static str,
    ) -> Result<Vec<T>, CommError> {
        let env = self.ft_recv(COLLECTIVE_CHANNEL, src, tag, self.recv_timeout, ctx)?;
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
    // [`Communicator::escalate`], so a peer death or a revocation
    // arrives as the [`CollectiveFailed`] panic recovery drivers catch.
    // ------------------------------------------------------------------

    /// Block until every rank of the communicator has entered the barrier.
    pub fn barrier(&self) {
        if let Err(e) = collectives::barrier::barrier(self) {
            self.escalate("barrier", e)
        }
    }

    /// Fallible [`Communicator::barrier`]: `Err(RankFailed)` / `Err(Revoked)`
    /// / `Err(Timeout)` instead of panicking when the group cannot complete.
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
    // ULFM-style recovery operations
    // ------------------------------------------------------------------

    /// Revoke this communicator (ULFM's `MPI_Comm_revoke`): every pending
    /// and future operation on it — on every rank — errors with
    /// [`CommError::Revoked`]. The first step of recovery: one rank
    /// observes a failure, revokes, and all ranks converge on the error
    /// path instead of some completing and some hanging.
    pub fn revoke(&self) {
        self.telemetry.instant(
            SpanKind::Phase(crate::fault::REVOKE_PHASE),
            self.rank as i64,
            self.comm_id,
            0,
        );
        self.registry.revoke(self.comm_id);
    }

    /// Whether this communicator counts as revoked: either its id was
    /// revoked directly, or *any* revocation was issued after it was
    /// built. The epoch clause is how revocation reaches derived
    /// sub-communicators — a rank blocked in a pencil-FFT row exchange
    /// whose group excludes the failed rank still unblocks the moment a
    /// survivor revokes the parent. Communicators built after the
    /// revocation (the child of a [`Communicator::shrink`]) are clean.
    pub fn is_revoked(&self) -> bool {
        self.registry.is_revoked(self.comm_id) || self.registry.revoke_epoch() > self.born_epoch
    }

    /// Fault-tolerant agreement on the surviving group (ULFM's
    /// `MPI_Comm_agree`, specialised to the failure ledger): returns the
    /// world ranks of this communicator's live members, in comm-rank
    /// order. Works on revoked communicators and *despite* failures: the
    /// survivors run a dissemination barrier among themselves, tagged by
    /// a hash of the observed failed set, and restart with fresh tags
    /// whenever a new failure lands mid-agreement. Because the failed set
    /// only grows, every restart uses tags no earlier attempt used, so
    /// stale tokens from an interrupted attempt can never satisfy a later
    /// one.
    fn agree(&self) -> Result<Vec<usize>, CommError> {
        let deadline = Instant::now() + self.recv_timeout;
        let mb = self.mailbox_for(COLLECTIVE_CHANNEL, self.rank);
        'attempt: loop {
            let snap = self.registry.failed_snapshot();
            let survivors: Vec<usize> = (0..self.size)
                .filter(|&r| !snap.contains(&self.world_of[r]))
                .collect();
            let me = survivors
                .iter()
                .position(|&r| r == self.rank)
                .expect("agree: calling rank is marked failed");
            let p = survivors.len();
            let tagbase = agree_tagbase(&snap);
            let mut dist = 1usize;
            let mut round = 0u64;
            while dist < p {
                let dst = survivors[(me + dist) % p];
                let src = survivors[(me + p - dist) % p];
                let tag = tagbase + round;
                self.coll_send::<u8>(dst, tag, Vec::new(), OpKind::Barrier);
                // The wait ignores the ledger; a death that lands while
                // it sleeps interrupts it, and the round then reports
                // "no token" so the attempt restarts with fresh tags.
                let token = self.wait_until(&mb, deadline, Watch::Nobody, "agree", |since, wait| {
                    if mb.recv_matching_timeout(src, tag, since, wait).is_some() {
                        Ok(true)
                    } else if self.registry.failed_snapshot() != snap {
                        Ok(false)
                    } else {
                        Err((src, tag))
                    }
                })?;
                if !token {
                    continue 'attempt;
                }
                dist *= 2;
                round += 1;
            }
            if self.registry.failed_snapshot() != snap {
                continue 'attempt;
            }
            return Ok(survivors.iter().map(|&r| self.world_of[r]).collect());
        }
    }

    /// Build a new communicator containing only the surviving ranks
    /// (ULFM's `MPI_Comm_shrink`). Survivors keep their relative order;
    /// the new communicator gets a fresh id (fresh mailboxes, so stale
    /// messages from before the failure cannot pollute recovery). If a
    /// further failure strikes during the shrink itself, the closing
    /// barrier errors and the caller retries `shrink()` on the parent.
    pub fn shrink(&self) -> Result<Communicator, CommError> {
        let survivors_world = self.agree()?;
        let me_world = self.world_of[self.rank];
        let new_rank = survivors_world
            .iter()
            .position(|&w| w == me_world)
            .expect("shrink: calling rank is marked failed");
        let size = survivors_world.len();
        let new_id = self.registry.shrink_id(self.comm_id, &survivors_world);
        self.telemetry.instant(
            SpanKind::Phase(crate::fault::SHRINK_PHASE),
            new_rank as i64,
            size as u64,
            0,
        );
        let child = Communicator::new(
            Arc::clone(&self.registry),
            new_id,
            new_rank,
            size,
            Arc::new(survivors_world),
            Arc::clone(&self.trace),
            Arc::clone(&self.telemetry),
            self.recv_timeout,
        )
        .with_fault(self.fault.clone());
        // Confirm every survivor reached the same group. If agreement was
        // broken by a failure racing the barrier above, ranks land in
        // different child communicators and this times out quickly (short
        // deadline) — a retryable error, not a hang.
        child
            .with_recv_timeout(self.recv_timeout.min(Duration::from_secs(5)))
            .try_barrier()?;
        Ok(child)
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

/// Tag base for one `agree` attempt: an FNV-1a hash of the observed
/// failed set, shifted into a high tag region so agreement tokens can
/// never collide with ordinary collective tags on the shadow channel.
/// The failed set is monotone, so each distinct set — and therefore each
/// restarted attempt — gets tags no earlier attempt used.
fn agree_tagbase(snap: &[usize]) -> Tag {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &r in snap {
        h ^= r as u64 + 1;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (0xA9EE_u64 << 48) | ((h & 0xFFFF_FFFF) << 16)
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
    fn wildcard_recv_reports_actual_source_and_tag() {
        World::builder(3).run(|c| {
            if c.rank() == 0 {
                let mut seen = vec![];
                for _ in 0..2 {
                    let (v, src, tag) = c.recv_any::<u32>(ANY_SOURCE, ANY_TAG);
                    seen.push((v[0], src, tag));
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![(10, 1, 100), (20, 2, 200)]);
            } else if c.rank() == 1 {
                c.send(0, 100, vec![10u32]);
            } else {
                c.send(0, 200, vec![20u32]);
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
    fn probe_sees_pending_message() {
        World::builder(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 9, vec![1u8]);
                c.barrier();
            } else {
                c.barrier();
                assert!(c.probe(0, 9));
                assert!(!c.probe(0, 10));
                let _ = c.recv::<u8>(0, 9);
                assert!(!c.probe(0, 9));
            }
        });
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
            let wrappers: [(&str, &dyn Fn()); 7] = [
                ("send", &|| c.send(peer, 1, vec![7u8; 3])),
                ("sendrecv", &|| drop(c.sendrecv(peer, vec![7u8; 3], peer, 2))),
                ("isend", &|| c.isend(peer, 1, &[7u8; 3]).wait()),
                ("isend_owned", &|| c.isend_owned(peer, 1, vec![7u8; 3]).wait()),
                ("isend_shared", &|| c.isend_shared(peer, 1, &shared).wait()),
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
            for _ in 0..4 {
                let _ = c.recv_any::<u8>(peer, 1);
            }
            for _ in 0..2 {
                c.try_coll_recv::<u8>(peer, 1, "test").expect("queued above");
            }
            assert_eq!(ops(), before);
        });
    }

    #[test]
    fn recv_within_times_out_instead_of_panicking() {
        World::builder(2).run(|c| {
            if c.rank() == 0 {
                // Tag 99 is never sent: this must time out even though a
                // non-matching message (tag 4) may already be queued.
                let err = c
                    .recv_within::<u8>(1, 99, Duration::from_millis(30))
                    .unwrap_err();
                assert!(matches!(err, CommError::Timeout { rank: 0, .. }));
                c.barrier();
                // After the sender's barrier the message is guaranteed
                // queued, and a wildcard receive takes it.
                let v = c
                    .recv_within::<u8>(ANY_SOURCE, ANY_TAG, Duration::from_secs(5))
                    .unwrap();
                assert_eq!(v, vec![9]);
            } else {
                c.send(0, 4, vec![9u8]);
                c.barrier();
            }
        });
    }
}

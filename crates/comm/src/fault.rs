//! Deterministic, seeded fault injection for the message-passing runtime.
//!
//! Large-scale MPI runs die in ways a correctness test suite never
//! exercises: a rank is lost mid-collective, a message stalls in a
//! congested NIC, a packet is dropped. This module injects exactly those
//! three failure modes — **rank death**, **message delay**, and
//! **message drop** — at configured `(rank, op-count)`, `(rank, step)`
//! or `(lane, frame-count)` points, driven by [`beatnik_prng`] so a run
//! with the same [`FaultPlan`] and seed replays *identically*: same op
//! indices, same delays, same telemetry.
//!
//! # Spec grammar
//!
//! A plan is a comma-separated list of actions:
//!
//! ```text
//! kill:r2@step5            kill rank 2 at the start of step 5
//! kill:r2@op100            kill rank 2 on its 100th counted comm op
//! drop:r0@op3              silently drop rank 0's 3rd sent message
//! delay:r1@op10:50ms       delay rank 1's 10th send by ~50ms (seeded jitter)
//! delay:r0>r1@link7:2ms    hold the 7th wire frame rank 0 sends to rank 1
//!                          ~2ms before putting it on the wire
//! ```
//!
//! Op counts are **send-side**: every `send`, `isend`, and collective
//! fan-out message a rank initiates bumps its counter, so the trigger
//! point is a deterministic function of the program, independent of
//! scheduling. Step triggers (driver-level, via
//! [`crate::Communicator::fault_step`]) are only meaningful for `kill`.
//!
//! `@linkN` counts the data frames the directed lane `rS>rD` has carried
//! (1-based): a message rank S sends to another rank D is one frame
//! unless the plan dropped it or killed S on it, so link faults are just
//! as deterministic as op faults. `delay` is the one `@link` kind: a
//! byte stream never drops, duplicates or corrupts a frame it delivers,
//! so `dup`, `corrupt`, `partition` and a `drop` at `@link` are refused
//! with [`FaultSpecError::NotAWireFault`].
//!
//! A trigger point — rank, peer and trigger — takes one action, and a
//! spec that names one twice is refused. An `@op` and an `@link` action
//! on the same message are two points: both fire, and their delays add.
//!
//! # One engine
//!
//! [`FaultPlan::injector_for`] gives each targeted rank one
//! [`FaultInjector`] holding all of its actions, `@link` ones on its
//! outgoing lanes included. The communicator consults it at the fault
//! point of its one send path and at
//! [`crate::Communicator::fault_step`], on the rank's own thread, and
//! every firing lands in the rank's one ledger. It is not a transport
//! decorator: the send path holds the span recorder the
//! `fault-kill`/`fault-drop`/`fault-delay` spans go to, sees a killed
//! message before [`crate::RankTrace`] counts it, and covers the thread
//! backend, which has no wire.
//!
//! The seed is [`crate::CommConfig::fault_seed`] (`BEATNIK_FAULT_SEED`).
//! Each rank draws its op jitter from `seed ^ rank` and each lane from
//! `seed ^ lane_salt(S, D)`, so delays are deterministic per rank and
//! lane and uncorrelated across them.

use crate::error::CommError;
use crate::sync::Mutex;
use beatnik_prng::Rng;
use std::sync::Arc;
use std::time::Duration;

/// Environment variable naming the fault-plan seed.
pub const FAULT_SEED_ENV: &str = "BEATNIK_FAULT_SEED";

/// Default seed when `BEATNIK_FAULT_SEED` is unset.
pub const DEFAULT_FAULT_SEED: u64 = 0xBEA7;

/// Telemetry phase name stamped (as an instant) when a kill fires.
pub const FAULT_KILL_PHASE: &str = "fault-kill";
/// Telemetry phase name stamped when a message is dropped.
pub const FAULT_DROP_PHASE: &str = "fault-drop";
/// Telemetry phase name spanning an injected message delay.
pub const FAULT_DELAY_PHASE: &str = "fault-delay";
/// Telemetry phase name spanning a relaunched world's checkpoint
/// restore in the driver.
pub const RECOVERY_PHASE: &str = "recovery";

/// What an injected fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The rank dies (panics with a [`RankKilled`] payload).
    Kill,
    /// One outgoing message is silently discarded.
    Drop,
    /// One outgoing message (or, at `@link`, one wire frame) is held
    /// for the given base duration (±50% seeded jitter) before delivery.
    Delay(Duration),
}

impl FaultKind {
    /// Short label used in telemetry span names and event listings.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Kill => "kill",
            FaultKind::Drop => "drop",
            FaultKind::Delay(_) => "delay",
        }
    }
}

/// When an action fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// On the rank's `n`th counted (1-based, send-side) comm operation.
    Op(u64),
    /// At the start of solver step `n` (driver calls
    /// [`crate::Communicator::fault_step`]). `kill` only.
    Step(u64),
    /// On the `n`th data frame (1-based) the directed lane
    /// `rank -> peer` carries.
    Link(u64),
}

/// One configured fault: do `kind` on `rank` when `trigger` fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultAction {
    /// What to inject.
    pub kind: FaultKind,
    /// World rank the action applies to (the *sender* for link faults).
    pub rank: usize,
    /// Destination world rank, for `@link` actions (`rS>rD` targets).
    pub peer: Option<usize>,
    /// When it fires.
    pub trigger: Trigger,
}

impl FaultAction {
    /// The trigger point as spec text, e.g. `r0>r1@link7`.
    fn point(&self) -> String {
        let peer = self.peer.map(|p| format!(">r{p}")).unwrap_or_default();
        let (name, n) = match self.trigger {
            Trigger::Op(n) => ("op", n),
            Trigger::Step(n) => ("step", n),
            Trigger::Link(n) => ("link", n),
        };
        format!("r{}{peer}@{name}{n}", self.rank)
    }
}

/// A parsed, seeded fault plan. Cheap to clone; seed included so two
/// plans replay identically iff both spec and seed match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The configured actions, in spec order.
    pub actions: Vec<FaultAction>,
    /// Seed for per-rank jitter streams.
    pub seed: u64,
}

/// Why a fault spec was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// The spec does not follow the grammar.
    Malformed(String),
    /// A wire fault no byte stream shows its receiver: `dup`, `corrupt`,
    /// `partition`, or `drop` at `@link`.
    NotAWireFault {
        /// The offending action, as written.
        action: String,
        /// Its kind.
        kind: &'static str,
    },
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpecError::Malformed(msg) => f.write_str(msg),
            FaultSpecError::NotAWireFault { action, kind } => write!(
                f,
                "fault action {action:?}: a stream never shows a {kind}; @link takes only delay"
            ),
        }
    }
}

impl std::error::Error for FaultSpecError {}

impl From<FaultSpecError> for String {
    fn from(e: FaultSpecError) -> String {
        e.to_string()
    }
}

/// The kind of `part` when it is a wire fault a stream cannot show.
fn not_a_wire_fault(part: &str) -> Option<&'static str> {
    match part.split(':').next() {
        Some("dup") => Some("dup"),
        Some("corrupt") => Some("corrupt"),
        Some("partition") => Some("partition"),
        Some("drop") if part.contains("@link") => Some("drop"),
        _ => None,
    }
}

impl FaultPlan {
    /// Parse a comma-separated fault spec (see module docs for grammar).
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, FaultSpecError> {
        let mut actions = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            if let Some(kind) = not_a_wire_fault(part) {
                return Err(FaultSpecError::NotAWireFault {
                    action: part.to_owned(),
                    kind,
                });
            }
            actions.push(parse_action(part).map_err(FaultSpecError::Malformed)?);
        }
        if actions.is_empty() {
            return Err(FaultSpecError::Malformed(format!(
                "fault spec {spec:?} contains no actions"
            )));
        }
        for (i, a) in actions.iter().enumerate() {
            let point = (a.rank, a.peer, a.trigger);
            if actions[..i].iter().any(|b| (b.rank, b.peer, b.trigger) == point) {
                return Err(FaultSpecError::Malformed(format!(
                    "fault spec {spec:?}: two actions at {}; a trigger point takes one",
                    a.point()
                )));
            }
        }
        Ok(FaultPlan { actions, seed })
    }

    /// Build the injector for `world_rank`: its `@op` and `@step`
    /// actions and the `@link` actions on its outgoing lanes. Returns
    /// `None` when the plan has no action for that rank, so untargeted
    /// ranks pay nothing on their send paths.
    pub fn injector_for(&self, world_rank: usize) -> Option<Arc<FaultInjector>> {
        let mine: Vec<FaultAction> = self
            .actions
            .iter()
            .filter(|a| a.rank == world_rank)
            .cloned()
            .collect();
        if mine.is_empty() {
            return None;
        }
        let mut lanes: Vec<Lane> = Vec::new();
        for dst in mine.iter().filter_map(|a| a.peer) {
            if lanes.iter().all(|l| l.dst != dst) {
                lanes.push(Lane {
                    dst,
                    frames: 0,
                    rng: Rng::seed_from_u64(self.seed ^ lane_salt(world_rank, dst)),
                });
            }
        }
        Some(Arc::new(FaultInjector {
            world_rank,
            actions: mine,
            state: Mutex::new(State {
                ops: 0,
                rng: Rng::seed_from_u64(self.seed ^ world_rank as u64),
                lanes,
                events: Vec::new(),
            }),
        }))
    }

    /// Whether *every* action fires on a lane (`@link`). A link-only
    /// plan kills no rank — it only delays frames — so it needs no
    /// checkpoints, and the run result must match a clean run.
    pub fn link_only(&self) -> bool {
        self.actions
            .iter()
            .all(|a| matches!(a.trigger, Trigger::Link(_)))
    }

    /// The plan a relaunched world carries after a world running this
    /// one fired `fired` and lost the ranks in `killed`: every action
    /// that has not fired, renumbered to the survivors' dense ranks (in
    /// their old order). Actions on a killed rank, or on a link to one,
    /// go with it. So `kill:r2@step5` cannot fire again in a world
    /// restored from a step-4 checkpoint.
    pub fn unfired(&self, fired: &[FaultEvent], killed: &[usize]) -> FaultPlan {
        let alive = |r: &usize| !killed.contains(r);
        let renumber = |r: usize| r - killed.iter().filter(|&&k| k < r).count();
        let unfired = self.actions.iter().filter(|a| !fired.iter().any(|e| e.fired(a)));
        let actions = unfired
            .filter(|a| alive(&a.rank) && a.peer.iter().all(alive))
            .map(|a| FaultAction {
                rank: renumber(a.rank),
                peer: a.peer.map(renumber),
                ..a.clone()
            })
            .collect();
        FaultPlan {
            actions,
            seed: self.seed,
        }
    }

    /// Render the plan back into spec text (`parse` ∘ `to_spec` is the
    /// identity). Used to ship a plan to spawned rank processes through
    /// the environment.
    pub fn to_spec(&self) -> String {
        let action = |a: &FaultAction| match a.kind {
            FaultKind::Delay(d) => format!("delay:{}:{}", a.point(), format_duration(d)),
            kind => format!("{}:{}", kind.label(), a.point()),
        };
        self.actions.iter().map(action).collect::<Vec<_>>().join(",")
    }
}

/// Render a duration in the largest suffix `parse_duration` accepts that
/// divides it evenly.
fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos() as u64;
    if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else {
        format!("{}us", ns / 1_000)
    }
}

fn parse_action(part: &str) -> Result<FaultAction, String> {
    let mut fields = part.split(':');
    let kind_str = fields.next().unwrap_or("");
    let target = fields
        .next()
        .ok_or_else(|| format!("fault action {part:?}: missing ':rN@...' target"))?;
    let extra = fields.next();
    if fields.next().is_some() {
        return Err(format!("fault action {part:?}: too many ':' fields"));
    }

    let (rank_str, when_str) = target
        .split_once('@')
        .ok_or_else(|| format!("fault action {part:?}: target needs 'rN@opM' or 'rN@stepM'"))?;
    let parse_rank = |s: &str| -> Result<usize, String> {
        s.strip_prefix('r')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("fault action {part:?}: bad rank {s:?} (want e.g. r2)"))
    };
    // `rS>rD` names a directed link; bare `rN` a rank.
    let (rank, peer) = match rank_str.split_once('>') {
        Some((src, dst)) => (parse_rank(src)?, Some(parse_rank(dst)?)),
        None => (parse_rank(rank_str)?, None),
    };
    let trigger = if let Some(n) = when_str.strip_prefix("op") {
        Trigger::Op(
            n.parse()
                .map_err(|_| format!("fault action {part:?}: bad op count {n:?}"))?,
        )
    } else if let Some(n) = when_str.strip_prefix("step") {
        Trigger::Step(
            n.parse()
                .map_err(|_| format!("fault action {part:?}: bad step {n:?}"))?,
        )
    } else if let Some(n) = when_str.strip_prefix("link") {
        Trigger::Link(
            n.parse()
                .map_err(|_| format!("fault action {part:?}: bad frame count {n:?}"))?,
        )
    } else {
        return Err(format!(
            "fault action {part:?}: trigger {when_str:?} must be opN, stepN, or linkN"
        ));
    };

    let no_duration = |kind: &str| -> Result<(), String> {
        if extra.is_some() {
            return Err(format!("fault action {part:?}: {kind} takes no duration"));
        }
        Ok(())
    };
    let duration = |kind: &str| -> Result<Duration, String> {
        let dur =
            extra.ok_or_else(|| format!("fault action {part:?}: {kind} needs a duration"))?;
        parse_duration(dur).ok_or_else(|| {
            format!("fault action {part:?}: bad duration {dur:?} (want e.g. 50ms, 2s)")
        })
    };
    let kind = match kind_str {
        "kill" => {
            no_duration("kill")?;
            FaultKind::Kill
        }
        "drop" => {
            no_duration("drop")?;
            FaultKind::Drop
        }
        "delay" => FaultKind::Delay(duration("delay")?),
        other => {
            return Err(format!(
                "fault action {part:?}: unknown kind {other:?} (want kill|drop|delay)"
            ))
        }
    };
    let is_link = matches!(trigger, Trigger::Link(_));
    if matches!(trigger, Trigger::Step(_)) && kind != FaultKind::Kill {
        return Err(format!(
            "fault action {part:?}: step triggers only apply to kill (drop/delay need @opN)"
        ));
    }
    if kind == FaultKind::Kill && is_link {
        return Err(format!(
            "fault action {part:?}: kill targets a rank, not a link (use @opN or @stepN)"
        ));
    }
    if peer.is_some() && !is_link {
        return Err(format!(
            "fault action {part:?}: 'rS>rD' targets a link and needs an @linkN trigger"
        ));
    }
    if is_link && peer.is_none() {
        return Err(format!(
            "fault action {part:?}: @linkN needs a directed link target 'rS>rD'"
        ));
    }
    Ok(FaultAction {
        kind,
        rank,
        peer,
        trigger,
    })
}

fn parse_duration(s: &str) -> Option<Duration> {
    let (num, mul_ns) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000_000u64)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1_000u64)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000_000u64)
    } else {
        return None;
    };
    let v: u64 = num.parse().ok()?;
    Some(Duration::from_nanos(v.checked_mul(mul_ns)?))
}

/// What the communicator should do at the current injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Proceed normally.
    Proceed,
    /// Discard this message.
    Drop,
    /// Hold this message for the given (jittered) duration.
    Delay(Duration),
    /// Die now.
    Kill,
}

/// One injected fault, recorded for replay verification and telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// The action's kind label ("kill" / "drop" / "delay").
    pub kind: &'static str,
    /// World rank the fault fired on (the sender, for link faults).
    pub rank: usize,
    /// Destination world rank, for wire-level (`@link`) faults.
    pub peer: Option<usize>,
    /// The rank's send-side op count when it fired (0 for step kills
    /// that fired before any op). For link faults: the directed link's
    /// data-frame count, so the ledger stays byte-identical across
    /// backends and replays.
    pub op_index: u64,
    /// Solver step, for step-triggered kills.
    pub step: Option<u64>,
    /// Applied delay in nanoseconds (delay faults).
    pub delay_ns: u64,
}

impl FaultEvent {
    /// A world ledger's order: by rank, then count; at one count an op
    /// or step event comes before a lane event.
    pub(crate) fn ledger_key(&self) -> (usize, u64, bool) {
        (self.rank, self.op_index, self.peer.is_some())
    }

    /// Whether this event is the firing of `a`.
    fn fired(&self, a: &FaultAction) -> bool {
        let at = match a.trigger {
            Trigger::Step(n) => self.step == Some(n),
            Trigger::Op(n) | Trigger::Link(n) => self.step.is_none() && self.op_index == n,
        };
        at && (self.kind, self.rank, self.peer) == (a.kind.label(), a.rank, a.peer)
    }
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.peer {
            Some(p) => write!(
                f,
                "{} r{}>r{} @ frame {}",
                self.kind, self.rank, p, self.op_index
            )?,
            None => write!(f, "{} r{} @ op {}", self.kind, self.rank, self.op_index)?,
        }
        if let Some(s) = self.step {
            write!(f, " (step {s})")?;
        }
        if self.delay_ns > 0 {
            write!(f, " [{} ns]", self.delay_ns)?;
        }
        Ok(())
    }
}

/// One outgoing lane `rank -> dst` that carries `@link` actions: the
/// data frames it has carried and its seeded jitter stream.
struct Lane {
    dst: usize,
    frames: u64,
    rng: Rng,
}

fn lane_salt(src: usize, dst: usize) -> u64 {
    // Distinct, order-sensitive salt per directed lane so each lane
    // gets an independent deterministic jitter stream.
    (src as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
}

/// What an injector has counted, drawn and fired so far.
struct State {
    ops: u64,
    rng: Rng,
    lanes: Vec<Lane>,
    events: Vec<FaultEvent>,
}

/// Fire `a` at count `n` (`step` for a step kill): draw a delay's ±50 %
/// jitter from `rng`, record the event, and say what to inject.
fn fire(
    events: &mut Vec<FaultEvent>,
    rng: &mut Rng,
    a: &FaultAction,
    n: u64,
    step: Option<u64>,
) -> Injection {
    let delay_ns = match a.kind {
        FaultKind::Delay(base) => (base.as_nanos() as f64 * (0.5 + rng.next_f64())).round() as u64,
        _ => 0,
    };
    events.push(FaultEvent {
        kind: a.kind.label(),
        rank: a.rank,
        peer: a.peer,
        op_index: n,
        step,
        delay_ns,
    });
    match a.kind {
        FaultKind::Kill => Injection::Kill,
        FaultKind::Drop => Injection::Drop,
        FaultKind::Delay(_) => Injection::Delay(Duration::from_nanos(delay_ns)),
    }
}

/// One rank's fault engine: its actions, its op counter and jitter
/// stream, its lanes, and its ledger. Shared (`Arc`) between the
/// communicator and any communicators derived from it by
/// `split`/`duplicate`, so the op count is global to the rank, not
/// per-communicator.
pub struct FaultInjector {
    world_rank: usize,
    actions: Vec<FaultAction>,
    state: Mutex<State>,
}

impl FaultInjector {
    /// Count one send-side op toward world rank `dest` and report what
    /// to inject for it. Unless the op is dropped or killed, a message to
    /// another rank also counts one frame on the lane to `dest`; the
    /// delays of both fire as one.
    pub fn on_send(&self, dest: usize) -> Injection {
        let st = &mut *self.state.lock();
        st.ops += 1;
        let n = st.ops;
        let mut delay = None;
        for a in self.actions.iter().filter(|a| a.trigger == Trigger::Op(n)) {
            match fire(&mut st.events, &mut st.rng, a, n, None) {
                Injection::Delay(d) => delay = Some(delay.unwrap_or_default() + d),
                stop => return stop,
            }
        }
        let lane = st.lanes.iter_mut().find(|l| l.dst == dest);
        if let Some(lane) = lane.filter(|_| dest != self.world_rank) {
            lane.frames += 1;
            let n = lane.frames;
            let on_lane = |a: &&FaultAction| a.peer == Some(dest) && a.trigger == Trigger::Link(n);
            for a in self.actions.iter().filter(on_lane) {
                if let Injection::Delay(d) = fire(&mut st.events, &mut lane.rng, a, n, None) {
                    delay = Some(delay.unwrap_or_default() + d);
                }
            }
        }
        delay.map_or(Injection::Proceed, Injection::Delay)
    }

    /// Report whether a step-triggered kill fires at `step`, recording it.
    pub fn on_step(&self, step: u64) -> Injection {
        let st = &mut *self.state.lock();
        let kill = |a: &&FaultAction| a.kind == FaultKind::Kill && a.trigger == Trigger::Step(step);
        match self.actions.iter().find(kill) {
            Some(a) => fire(&mut st.events, &mut st.rng, a, st.ops, Some(step)),
            None => Injection::Proceed,
        }
    }

    /// The rank's current send-side op count.
    pub fn op_count(&self) -> u64 {
        self.state.lock().ops
    }

    /// World rank this injector belongs to.
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// Snapshot of the faults injected so far, in firing order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.state.lock().events.clone()
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("world_rank", &self.world_rank)
            .field("actions", &self.actions)
            .field("ops", &self.op_count())
            .finish_non_exhaustive()
    }
}

/// Panic payload carried by a rank killed by fault injection. The world
/// runner ([`crate::WorldBuilder::run_ft`]) downcasts for this to tell an
/// injected death from a genuine bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankKilled {
    /// World rank that died.
    pub world_rank: usize,
    /// Step the kill was triggered at, if step-triggered.
    pub step: Option<u64>,
    /// The rank's send-side op count at death.
    pub op: u64,
}

/// Panic payload thrown by the panicking collective wrappers when a
/// *peer failure* — not a local bug — prevented completion.
/// [`crate::WorldBuilder::run_ft`] reads it as a dead world, not a bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectiveFailed {
    /// Name of the collective that could not complete.
    pub op: &'static str,
    /// The underlying failure.
    pub error: CommError,
}

impl std::fmt::Display for CollectiveFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} failed: {}", self.op, self.error)
    }
}

/// Whether a rank's panic payload is the failure path rather than a
/// bug: an injected kill, a peer's death seen in a wait
/// ([`CollectiveFailed`]), a receive deadline (a dropped message), or
/// the abort that unwinds the ranks a failure left blocked.
pub(crate) fn is_failure(p: &(dyn std::any::Any + Send)) -> bool {
    let msg = panic_message(p);
    p.is::<RankKilled>()
        || p.is::<CollectiveFailed>()
        || msg.contains(" deadlock on rank ")
        || is_abort(msg)
}

/// Whether a panic message is the abort a failure elsewhere sets off.
pub(crate) fn is_abort(msg: &str) -> bool {
    msg.contains("a peer rank failed")
}

/// The message of a string panic payload (empty for any other).
pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> &str {
    let owned = p.downcast_ref::<String>().map(String::as_str);
    owned.or_else(|| p.downcast_ref::<&str>().copied()).unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips_all_kinds() {
        let plan =
            FaultPlan::parse("kill:r2@step5, drop:r0@op3,delay:r1@op10:50ms", 7).unwrap();
        assert_eq!(plan.actions.len(), 3);
        assert_eq!(
            plan.actions[0],
            FaultAction {
                kind: FaultKind::Kill,
                rank: 2,
                peer: None,
                trigger: Trigger::Step(5)
            }
        );
        assert_eq!(
            plan.actions[1],
            FaultAction {
                kind: FaultKind::Drop,
                rank: 0,
                peer: None,
                trigger: Trigger::Op(3)
            }
        );
        assert_eq!(
            plan.actions[2],
            FaultAction {
                kind: FaultKind::Delay(Duration::from_millis(50)),
                rank: 1,
                peer: None,
                trigger: Trigger::Op(10)
            }
        );
    }

    #[test]
    fn link_grammar_parses_directed_targets() {
        let plan = FaultPlan::parse("delay:r0>r1@link7:2ms,delay:r1>r0@link3:50ms", 9).unwrap();
        assert_eq!(plan.actions.len(), 2);
        assert_eq!(
            plan.actions[0],
            FaultAction {
                kind: FaultKind::Delay(Duration::from_millis(2)),
                rank: 0,
                peer: Some(1),
                trigger: Trigger::Link(7)
            }
        );
        assert_eq!(
            plan.actions[1],
            FaultAction {
                kind: FaultKind::Delay(Duration::from_millis(50)),
                rank: 1,
                peer: Some(0),
                trigger: Trigger::Link(3)
            }
        );
        assert!(plan.link_only());
    }

    #[test]
    fn to_spec_round_trips_through_parse() {
        for spec in [
            "kill:r2@step5,drop:r0@op3,delay:r1@op10:50ms",
            "delay:r0>r1@link2:3ms,delay:r1>r0@link6:2s",
            "delay:r0>r1@link7:1500us,drop:r0@op4,kill:r3@op9",
        ] {
            let plan = FaultPlan::parse(spec, 7).unwrap();
            assert_eq!(plan.to_spec(), spec);
            assert_eq!(FaultPlan::parse(&plan.to_spec(), 7).unwrap(), plan);
        }
    }

    #[test]
    fn unfired_drops_fired_actions_and_renumbers_the_survivors() {
        let plan = FaultPlan::parse(
            "kill:r2@step5,kill:r3@step7,drop:r1@op4,delay:r3>r0@link2:1ms,drop:r2@op9",
            3,
        )
        .unwrap();
        let kill_2 = FaultEvent {
            kind: "kill",
            rank: 2,
            peer: None,
            op_index: 40,
            step: Some(5),
            delay_ns: 0,
        };
        let drop_1 = FaultEvent {
            kind: "drop",
            rank: 1,
            peer: None,
            op_index: 4,
            step: None,
            delay_ns: 0,
        };
        // Rank 2's own drop dies with it; rank 3 becomes rank 2.
        let rest = plan.unfired(&[kill_2.clone(), drop_1], &[2]);
        assert_eq!(rest.to_spec(), "kill:r2@step7,delay:r2>r0@link2:1ms");
        assert_eq!(rest.seed, 3);
        // An event at another op or step is not this action's firing.
        let early = FaultEvent { step: Some(4), ..kill_2 };
        assert_eq!(plan.unfired(&[early], &[]), plan);
    }

    #[test]
    fn a_rank_whose_only_actions_are_links_gets_an_injector() {
        let plan = FaultPlan::parse("kill:r1@op5,delay:r0>r1@link2:1ms", 0).unwrap();
        assert!(!plan.link_only());
        assert_eq!(plan.injector_for(1).unwrap().on_send(0), Injection::Proceed);
        // Rank 0's one action is on its lane to rank 1: its injector
        // holds it, and fires it on the second frame.
        let inj = plan.injector_for(0).unwrap();
        assert_eq!(inj.on_send(1), Injection::Proceed);
        assert!(matches!(inj.on_send(1), Injection::Delay(_)));
        assert!(plan.injector_for(2).is_none());
    }

    #[test]
    fn grammar_rejects_malformed_specs() {
        for bad in [
            "",
            "kill",
            "kill:r2",
            "kill:2@step5",
            "kill:r2@banana5",
            "explode:r2@step5",
            "delay:r1@op10",       // missing duration
            "delay:r1@op10:fast",  // bad duration
            "drop:r0@step3",       // step trigger on non-kill
            "kill:r2@step5:50ms",  // kill takes no duration
            "delay:r0>r1@op3:1ms", // peer target without @link
            "delay:r0@link4:1ms",  // @link needs a directed rS>rD target
            "delay:r0>r1@link3",   // delay needs a duration at @link too
            "kill:r0>r1@link2",    // kill targets a rank, not a link
            "delay:r0@op1:10ms,drop:r0@op1", // one action per trigger point
        ] {
            assert!(
                matches!(FaultPlan::parse(bad, 0), Err(FaultSpecError::Malformed(_))),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn wire_faults_a_stream_cannot_show_are_refused_by_kind() {
        for (spec, kind) in [
            ("dup:r0>r1@link2", "dup"),
            ("corrupt:r1>r0@link6", "corrupt"),
            ("partition:r0>r1@link3:50ms", "partition"),
            ("drop:r0>r1@link4", "drop"),
            ("delay:r0>r1@link1:1ms, dup:r0@op3", "dup"),
        ] {
            let err = FaultPlan::parse(spec, 0).unwrap_err();
            assert!(
                matches!(&err, FaultSpecError::NotAWireFault { kind: k, .. } if *k == kind),
                "{spec:?}: {err:?}"
            );
            assert!(err.to_string().contains(kind), "{err}");
        }
        // Only `@link` loses drop: at `@op` it still drops a message.
        assert!(FaultPlan::parse("drop:r0@op3", 0).is_ok());
    }

    #[test]
    fn durations_parse_with_all_suffixes() {
        assert_eq!(parse_duration("50ms"), Some(Duration::from_millis(50)));
        assert_eq!(parse_duration("2s"), Some(Duration::from_secs(2)));
        assert_eq!(parse_duration("100us"), Some(Duration::from_micros(100)));
        assert_eq!(parse_duration("50"), None);
        assert_eq!(parse_duration("ms"), None);
    }

    #[test]
    fn injector_fires_on_exact_op_and_counts_deterministically() {
        let plan = FaultPlan::parse("drop:r1@op3", 42).unwrap();
        assert!(plan.injector_for(0).is_none(), "untargeted rank has no injector");
        let inj = plan.injector_for(1).unwrap();
        assert_eq!(inj.on_send(0), Injection::Proceed);
        assert_eq!(inj.on_send(0), Injection::Proceed);
        assert_eq!(inj.on_send(0), Injection::Drop);
        assert_eq!(inj.on_send(0), Injection::Proceed);
        assert_eq!(inj.op_count(), 4);
        let events = inj.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "drop");
        assert_eq!(events[0].op_index, 3);
    }

    #[test]
    fn delay_jitter_replays_identically_per_seed() {
        let ev = |seed: u64| {
            let inj = FaultPlan::parse("delay:r0@op1:10ms", seed)
                .unwrap()
                .injector_for(0)
                .unwrap();
            match inj.on_send(1) {
                Injection::Delay(d) => d,
                other => panic!("expected delay, got {other:?}"),
            }
        };
        let a = ev(5);
        let b = ev(5);
        let c = ev(6);
        assert_eq!(a, b, "same seed must replay the same jitter");
        assert_ne!(a, c, "different seed should jitter differently");
        // Jitter stays within ±50% of the 10ms base.
        assert!(a >= Duration::from_millis(5) && a < Duration::from_millis(15));
    }

    #[test]
    fn step_kills_fire_only_on_their_step() {
        let inj = FaultPlan::parse("kill:r2@step5", 0)
            .unwrap()
            .injector_for(2)
            .unwrap();
        assert_eq!(inj.on_step(4), Injection::Proceed);
        assert_eq!(inj.on_step(5), Injection::Kill);
        let events = inj.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].step, Some(5));
    }

    #[test]
    fn seed_env_parses_and_defaults() {
        // Avoid mutating process env (tests run in parallel); exercise the
        // parse path through a plan equality check instead.
        assert_eq!(
            FaultPlan::parse("kill:r0@op1", DEFAULT_FAULT_SEED).unwrap().seed,
            DEFAULT_FAULT_SEED
        );
    }

    #[test]
    fn actions_fire_on_exact_frame_of_their_directed_link() {
        let plan = FaultPlan::parse("delay:r0>r1@link3:1ms,delay:r1>r0@link2:1ms", 1).unwrap();
        let (r0, r1) = (plan.injector_for(0).unwrap(), plan.injector_for(1).unwrap());
        // r0 -> r1: frames 1, 2 clean, 3 delayed, 4 clean.
        let fired = |i: Injection| matches!(i, Injection::Delay(_));
        assert!(!fired(r0.on_send(1)));
        assert!(!fired(r0.on_send(1)));
        assert!(fired(r0.on_send(1)));
        assert!(!fired(r0.on_send(1)));
        // The reverse lane counts independently.
        assert!(!fired(r1.on_send(0)));
        assert!(fired(r1.on_send(0)));
        let events = [r0.events(), r1.events()].concat();
        assert_eq!(events.len(), 2);
        assert_eq!(
            (events[0].kind, events[0].rank, events[0].peer),
            ("delay", 0, Some(1))
        );
        assert_eq!(events[0].op_index, 3);
        assert_eq!((events[1].rank, events[1].op_index), (1, 2));
    }

    #[test]
    fn delay_jitter_is_seeded_per_link() {
        let engine = |seed| {
            let plan = FaultPlan::parse("delay:r0>r1@link1:10ms", seed).unwrap();
            plan.injector_for(0).unwrap()
        };
        let d = |seed| match engine(seed).on_send(1) {
            Injection::Delay(d) => d,
            other => panic!("expected the frame-1 delay, got {other:?}"),
        };
        assert_eq!(d(5), d(5), "same seed replays the same jitter");
        assert_ne!(d(5), d(6));
        let j = d(5);
        assert!(j >= Duration::from_millis(5) && j < Duration::from_millis(15));
        // The ledger carries the applied (jittered) delay.
        let inj = engine(5);
        let Injection::Delay(applied) = inj.on_send(1) else { unreachable!() };
        assert_eq!(inj.events()[0].delay_ns, applied.as_nanos() as u64);
    }

    #[test]
    fn a_self_send_is_never_a_lane_frame() {
        let inj = FaultPlan::parse("delay:r0>r1@link2:1ms", 0).unwrap().injector_for(0).unwrap();
        assert_eq!(inj.on_send(1), Injection::Proceed);
        assert_eq!(inj.on_send(0), Injection::Proceed, "a self-send counts no frame");
        assert!(matches!(inj.on_send(1), Injection::Delay(_)));
        assert_eq!((inj.op_count(), inj.events()[0].op_index), (3, 2));
    }

    #[test]
    fn a_dropped_message_is_an_op_but_not_a_frame() {
        let inj = FaultPlan::parse("drop:r0@op1,delay:r0>r1@link1:1ms", 0)
            .unwrap()
            .injector_for(0)
            .unwrap();
        assert_eq!(inj.on_send(1), Injection::Drop);
        assert!(matches!(inj.on_send(1), Injection::Delay(_)), "op 2 is frame 1");
        let events = inj.events();
        assert_eq!((events[0].kind, events[0].op_index), ("drop", 1));
        assert_eq!((events[1].kind, events[1].op_index), ("delay", 1));
        assert_eq!(inj.op_count(), 2);
    }

    #[test]
    fn op_and_link_delays_on_one_message_add_up() {
        let inj = FaultPlan::parse("delay:r0@op1:10ms,delay:r0>r1@link1:10ms", 3)
            .unwrap()
            .injector_for(0)
            .unwrap();
        let Injection::Delay(slept) = inj.on_send(1) else { panic!("both delays fire") };
        let events = inj.events();
        assert_eq!(events.len(), 2);
        assert_eq!(slept.as_nanos() as u64, events[0].delay_ns + events[1].delay_ns);
        // The same point named twice is refused, by name.
        let twice = FaultPlan::parse("delay:r0>r1@link1:10ms,delay:r0>r1@link1:10ms", 3);
        assert!(
            matches!(&twice, Err(FaultSpecError::Malformed(m)) if m.contains("r0>r1@link1")),
            "{twice:?}"
        );
    }

    /// The one engine fires what the per-rank op injector and the
    /// world-wide lane engine it replaced fired, with the same jitter:
    /// these events were recorded from the two engines, fed the same
    /// sends, and merged in the world runner's `(rank, op_index)` order.
    #[test]
    fn a_mixed_op_and_link_ledger_matches_the_two_engine_ledger() {
        let plan = FaultPlan::parse(
            "drop:r0@op2,delay:r0@op3:2ms,delay:r0>r2@link1:4ms,delay:r0@op6:1ms,\
             delay:r0>r1@link3:2ms,delay:r0>r1@link5:3ms,kill:r0@op9",
            0x5EED,
        )
        .unwrap();
        let inj = plan.injector_for(0).unwrap();
        let got: Vec<Injection> = [1, 1, 0, 1, 2, 1, 1, 1, 1].map(|d| inj.on_send(d)).into();
        let ns = |n| Injection::Delay(Duration::from_nanos(n));
        use Injection::{Drop, Kill, Proceed};
        let want = [
            Proceed,
            Drop,
            ns(2_868_773),
            Proceed,
            ns(4_591_050),
            ns(1_382_653 + 1_049_377),
            Proceed,
            ns(2_942_713),
            Kill,
        ];
        assert_eq!(got, want);
        let mut ledger = inj.events();
        ledger.sort_by_key(FaultEvent::ledger_key);
        let ev = |kind, peer, op_index, delay_ns| FaultEvent {
            kind,
            rank: 0,
            peer,
            op_index,
            step: None,
            delay_ns,
        };
        assert_eq!(
            ledger,
            [
                ev("delay", Some(2), 1, 4_591_050),
                ev("drop", None, 2, 0),
                ev("delay", None, 3, 2_868_773),
                ev("delay", Some(1), 3, 1_049_377),
                ev("delay", Some(1), 5, 2_942_713),
                ev("delay", None, 6, 1_382_653),
                ev("kill", None, 9, 0),
            ]
        );
    }
}

//! Deterministic wire-level chaos: a transport interposer that drops,
//! duplicates, corrupts, delays, and partitions individual frames.
//!
//! The comm-layer fault injector ([`crate::fault::FaultInjector`])
//! simulates failures *above* the transport — a dropped send never
//! reaches `Transport::deliver` at all. This module attacks the layer
//! underneath: every inter-rank envelope that crosses the backend's
//! wire passes through [`LinkChaos::on_frame`], which counts the data
//! frames each **directed link** `src -> dst` has carried and fires the
//! plan's `@linkN` actions at exact frame indices. Because the frame
//! count is a deterministic function of the program (first
//! transmissions only — retransmits, heartbeats, and handshakes are
//! never counted), the same seeded [`FaultPlan`] produces a
//! byte-identical [`FaultEvent`] ledger on every backend and every
//! replay.
//!
//! Two integration points share one engine:
//!
//! * [`ChaosTransport`] wraps the in-process backends (thread, shmem).
//!   There is no reliability layer underneath, so a dropped or
//!   corrupted frame is simply *lost* — callers must tolerate that
//!   (the backend matrix's replay suite uses per-message tags and
//!   compares ledgers, not payload arrival).
//! * The TCP backend consults the same engine *below* its
//!   sequence/ack/replay layer, so a dropped, corrupted, or
//!   partitioned frame is retransmitted after the link heals and the
//!   application observes a fault-free run.
//!
//! Partition semantics: the triggering frame is lost (the wire is cut
//! mid-send) and the **pair** — both directions — stays severed for
//! the configured window. Frames crossing a severed pair are dropped
//! silently; the ledger records only the partition entry itself, so it
//! stays time-independent.

use crate::fault::{FaultAction, FaultEvent, FaultKind, FaultPlan, Trigger};
use crate::message::Envelope;
use crate::registry::Registry;
use crate::sync::Mutex;
use crate::transport::{CtrlMsg, Route, Transport, TransportKind};
use beatnik_prng::Rng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the chaos engine decided for one wire frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameFate {
    /// Put the frame on the wire at all. False when a `drop` fired or
    /// the pair is inside a partition window.
    pub deliver: bool,
    /// Mangle the frame's bytes on the wire. A CRC-checking receiver
    /// discards and replays; an in-process backend just loses it.
    pub corrupt: bool,
    /// Transmit the frame twice.
    pub duplicate: bool,
    /// Hold the frame this long before transmitting (seeded jitter
    /// already applied).
    pub delay: Option<Duration>,
    /// A `partition` action fired on this frame: the transport should
    /// tear the link now (the window itself is tracked by the engine).
    pub partitioned: bool,
}

impl FrameFate {
    /// The fate of a frame no action touches.
    pub(super) fn clean() -> FrameFate {
        FrameFate {
            deliver: true,
            corrupt: false,
            duplicate: false,
            delay: None,
            partitioned: false,
        }
    }
}

/// Per-directed-link state: how many data frames it has carried, and
/// the seeded jitter stream for its delay actions.
struct LinkLane {
    frames: u64,
    rng: Rng,
}

/// The shared chaos engine: one per world, consulted by every sender.
pub struct LinkChaos {
    actions: Vec<FaultAction>,
    seed: u64,
    lanes: Mutex<HashMap<(usize, usize), LinkLane>>,
    /// Unordered pair `(lo, hi)` -> wall-clock end of the severance.
    partitions: Mutex<HashMap<(usize, usize), Instant>>,
    events: Mutex<Vec<FaultEvent>>,
}

impl LinkChaos {
    /// Build an engine from a plan's `@link` actions. Returns `None`
    /// when the plan has none, so fault-free worlds pay nothing.
    pub fn from_plan(plan: &FaultPlan) -> Option<Arc<LinkChaos>> {
        let actions = plan.link_actions();
        if actions.is_empty() {
            return None;
        }
        Some(Arc::new(LinkChaos {
            actions,
            seed: plan.seed,
            lanes: Mutex::new(HashMap::new()),
            partitions: Mutex::new(HashMap::new()),
            events: Mutex::new(Vec::new()),
        }))
    }

    /// Count one data frame on the directed link `src -> dst` and
    /// report its fate. Call exactly once per *first transmission* —
    /// never for retransmits, heartbeats, or handshake chatter — so the
    /// frame index stays a deterministic function of the program.
    pub fn on_frame(&self, src: usize, dst: usize) -> FrameFate {
        let mut fate = FrameFate::clean();
        {
            let mut lanes = self.lanes.lock();
            let lane = lanes.entry((src, dst)).or_insert_with(|| LinkLane {
                frames: 0,
                rng: Rng::seed_from_u64(self.seed ^ lane_salt(src, dst)),
            });
            lane.frames += 1;
            let n = lane.frames;
            for a in &self.actions {
                if a.rank != src || a.peer != Some(dst) || a.trigger != Trigger::Link(n) {
                    continue;
                }
                let mut delay_ns = 0u64;
                match a.kind {
                    FaultKind::Drop => fate.deliver = false,
                    FaultKind::Duplicate => fate.duplicate = true,
                    FaultKind::Corrupt => fate.corrupt = true,
                    FaultKind::Delay(base) => {
                        // ±50% jitter from the per-link seeded stream,
                        // mirroring the comm-layer injector.
                        let factor = 0.5 + lane.rng.next_f64();
                        let jittered = Duration::from_nanos(
                            (base.as_nanos() as f64 * factor).round() as u64,
                        );
                        delay_ns = jittered.as_nanos() as u64;
                        fate.delay = Some(jittered);
                    }
                    FaultKind::Partition(window) => {
                        delay_ns = window.as_nanos() as u64;
                        fate.deliver = false;
                        fate.partitioned = true;
                        let pair = (src.min(dst), src.max(dst));
                        let end = Instant::now() + window;
                        let mut parts = self.partitions.lock();
                        let slot = parts.entry(pair).or_insert(end);
                        if *slot < end {
                            *slot = end;
                        }
                    }
                    FaultKind::Kill => unreachable!("kill cannot carry an @link trigger"),
                }
                self.events.lock().push(FaultEvent {
                    kind: a.kind.label(),
                    rank: src,
                    peer: Some(dst),
                    op_index: n,
                    step: None,
                    delay_ns,
                });
            }
        }
        if fate.deliver && self.pair_partitioned(src, dst) {
            // Inside someone else's window: the frame is lost silently
            // (no ledger entry — window membership is time-dependent).
            fate.deliver = false;
        }
        fate
    }

    /// Whether the unordered pair `(a, b)` is currently severed.
    /// Expired windows are pruned as a side effect.
    pub fn pair_partitioned(&self, a: usize, b: usize) -> bool {
        let pair = (a.min(b), a.max(b));
        let mut parts = self.partitions.lock();
        match parts.get(&pair) {
            Some(end) if Instant::now() < *end => true,
            Some(_) => {
                parts.remove(&pair);
                false
            }
            None => false,
        }
    }

    /// Snapshot of every wire-level fault fired so far, in firing order
    /// per link (global order across links is scheduling-dependent;
    /// callers sort by `(rank, op_index)` like the world runner does).
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events.lock().clone()
    }
}

fn lane_salt(src: usize, dst: usize) -> u64 {
    // Distinct, order-sensitive salt per directed link so each lane
    // gets an independent deterministic jitter stream.
    (src as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
}

/// A [`Transport`] wrapper injecting wire-level chaos over backends
/// that have no reliability layer of their own (thread, shmem). See
/// the module docs for loss semantics.
pub struct ChaosTransport {
    inner: Arc<dyn Transport>,
    chaos: Arc<LinkChaos>,
}

impl ChaosTransport {
    /// Wrap `inner`, routing every inter-rank delivery through `chaos`.
    pub fn new(inner: Arc<dyn Transport>, chaos: Arc<LinkChaos>) -> ChaosTransport {
        ChaosTransport { inner, chaos }
    }
}

/// Duplicate an envelope through its wire representation. `None` when
/// the payload has drop glue (cannot be byte-copied safely) — the dup
/// event is still in the ledger, the extra delivery just cannot happen.
fn clone_via_wire(env: &Envelope) -> Option<Envelope> {
    env.wire_view().map(|bytes| {
        Envelope::from_wire(
            env.src,
            env.tag,
            env.count,
            env.elem_size,
            env.type_name,
            bytes.to_vec(),
        )
    })
}

impl Transport for ChaosTransport {
    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }

    fn attach(&self, registry: &Arc<Registry>) {
        self.inner.attach(registry);
    }

    fn deliver(&self, registry: &Registry, route: Route, env: Envelope) {
        if route.src_world == route.dst_world {
            // Self-sends never touch a wire on any backend.
            return self.inner.deliver(registry, route, env);
        }
        let fate = self.chaos.on_frame(route.src_world, route.dst_world);
        if let Some(d) = fate.delay {
            std::thread::sleep(d);
        }
        if !fate.deliver || fate.corrupt {
            // No reliability layer underneath: the frame is lost.
            return;
        }
        let dup = if fate.duplicate {
            clone_via_wire(&env)
        } else {
            None
        };
        self.inner.deliver(registry, route, env);
        if let Some(copy) = dup {
            self.inner.deliver(registry, route, copy);
        }
    }

    fn pointer_handoff(&self, dst_world: usize) -> bool {
        self.inner.pointer_handoff(dst_world)
    }

    fn publish_ctrl(&self, ctrl: CtrlMsg) {
        self.inner.publish_ctrl(ctrl);
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(spec: &str, seed: u64) -> Arc<LinkChaos> {
        LinkChaos::from_plan(&FaultPlan::parse(spec, seed).unwrap()).unwrap()
    }

    #[test]
    fn plans_without_link_actions_build_no_engine() {
        let plan = FaultPlan::parse("kill:r0@op5", 0).unwrap();
        assert!(LinkChaos::from_plan(&plan).is_none());
    }

    #[test]
    fn actions_fire_on_exact_frame_of_their_directed_link() {
        let chaos = engine("drop:r0>r1@link3,dup:r1>r0@link2", 1);
        // r0 -> r1: frames 1, 2 clean, 3 dropped, 4 clean.
        assert!(chaos.on_frame(0, 1).deliver);
        assert!(chaos.on_frame(0, 1).deliver);
        let f = chaos.on_frame(0, 1);
        assert!(!f.deliver && !f.duplicate);
        assert!(chaos.on_frame(0, 1).deliver);
        // The reverse link counts independently.
        assert!(!chaos.on_frame(1, 0).duplicate);
        let f = chaos.on_frame(1, 0);
        assert!(f.duplicate && f.deliver);
        let mut events = chaos.events();
        events.sort_by_key(|e| (e.rank, e.op_index));
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].kind, events[0].rank, events[0].peer), ("drop", 0, Some(1)));
        assert_eq!(events[0].op_index, 3);
        assert_eq!((events[1].kind, events[1].op_index), ("dup", 2));
    }

    #[test]
    fn delay_jitter_is_seeded_per_link() {
        let d = |seed| {
            let chaos = engine("delay:r0>r1@link1:10ms", seed);
            chaos.on_frame(0, 1).delay.expect("delay fires on frame 1")
        };
        assert_eq!(d(5), d(5), "same seed replays the same jitter");
        assert_ne!(d(5), d(6));
        let j = d(5);
        assert!(j >= Duration::from_millis(5) && j < Duration::from_millis(15));
        // The ledger carries the applied (jittered) delay.
        let chaos = engine("delay:r0>r1@link1:10ms", 5);
        let applied = chaos.on_frame(0, 1).delay.unwrap();
        assert_eq!(chaos.events()[0].delay_ns, applied.as_nanos() as u64);
    }

    #[test]
    fn partitions_sever_both_directions_then_heal() {
        let chaos = engine("partition:r0>r1@link2:30ms", 3);
        assert!(chaos.on_frame(0, 1).deliver);
        let f = chaos.on_frame(0, 1);
        assert!(!f.deliver && f.partitioned, "triggering frame is lost");
        // Both directions are dark during the window; no extra events.
        assert!(chaos.pair_partitioned(0, 1));
        assert!(chaos.pair_partitioned(1, 0));
        assert!(!chaos.on_frame(0, 1).deliver);
        assert!(!chaos.on_frame(1, 0).deliver);
        assert_eq!(chaos.events().len(), 1);
        assert_eq!(chaos.events()[0].kind, "partition");
        assert_eq!(chaos.events()[0].delay_ns, 30_000_000);
        // Other pairs are unaffected.
        assert!(chaos.on_frame(0, 2).deliver);
        std::thread::sleep(Duration::from_millis(40));
        assert!(!chaos.pair_partitioned(0, 1), "window expired");
        assert!(chaos.on_frame(0, 1).deliver);
    }

    #[test]
    fn frame_counters_keep_running_inside_partition_windows() {
        // drop@link4 must fire even if frames 2..3 fell inside a
        // partition window — the count is program-determined.
        let chaos = engine("partition:r0>r1@link2:25ms,drop:r0>r1@link4", 0);
        assert!(chaos.on_frame(0, 1).deliver); // 1
        assert!(!chaos.on_frame(0, 1).deliver); // 2: partition entry
        assert!(!chaos.on_frame(0, 1).deliver); // 3: inside window
        let ev_before = chaos.events().len();
        chaos.on_frame(0, 1); // 4: drop fires (recorded) regardless of window
        let events = chaos.events();
        assert_eq!(events.len(), ev_before + 1);
        assert_eq!(events.last().unwrap().kind, "drop");
        assert_eq!(events.last().unwrap().op_index, 4);
    }
}

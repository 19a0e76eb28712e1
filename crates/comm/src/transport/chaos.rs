//! Deterministic wire-level chaos: a transport decorator that holds
//! individual frames back before they reach the wire.
//!
//! The comm-layer fault injector ([`crate::fault::FaultInjector`])
//! simulates failures *above* the transport — a dropped send never
//! reaches `Transport::deliver` at all. This module acts one layer
//! down: every inter-rank envelope passes through
//! [`LinkChaos::on_frame`], which counts the data frames each **directed
//! link** `src -> dst` has carried and fires the plan's `@linkN` actions
//! at exact frame indices. Because the frame count is a deterministic
//! function of the program, the same seeded [`FaultPlan`] produces a
//! byte-identical [`FaultEvent`] ledger on every backend and every
//! replay.
//!
//! The one `@link` kind is `delay`: it is the only wire fault a byte
//! stream shows a receiver. A stream never drops, duplicates or
//! corrupts a frame it delivers, and a broken one is a failed peer
//! (DESIGN.md §16). [`ChaosTransport`] wraps every backend alike —
//! thread, shmem and TCP — so no transport carries a chaos hook, and a
//! delayed frame reaches its mailbox late but whole.

use crate::fault::{FaultAction, FaultEvent, FaultKind, FaultPlan, Trigger};
use crate::message::Envelope;
use crate::registry::Registry;
use crate::sync::Mutex;
use crate::transport::{CtrlMsg, Progress, Route, Transport, TransportKind};
use beatnik_prng::Rng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

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
            events: Mutex::new(Vec::new()),
        }))
    }

    /// Count one data frame on the directed link `src -> dst` and return
    /// how long to hold it before it goes on the wire (seeded jitter
    /// applied), if a `delay` fires on it.
    pub fn on_frame(&self, src: usize, dst: usize) -> Option<Duration> {
        let mut lanes = self.lanes.lock();
        let lane = lanes.entry((src, dst)).or_insert_with(|| LinkLane {
            frames: 0,
            rng: Rng::seed_from_u64(self.seed ^ lane_salt(src, dst)),
        });
        lane.frames += 1;
        let n = lane.frames;
        let mut delay = None;
        for a in &self.actions {
            if a.rank != src || a.peer != Some(dst) || a.trigger != Trigger::Link(n) {
                continue;
            }
            let FaultKind::Delay(base) = a.kind else {
                unreachable!("the fault grammar admits only delay at @link")
            };
            // ±50% jitter from the per-link seeded stream, mirroring the
            // comm-layer injector.
            let factor = 0.5 + lane.rng.next_f64();
            let jittered = Duration::from_nanos((base.as_nanos() as f64 * factor).round() as u64);
            self.events.lock().push(FaultEvent {
                kind: a.kind.label(),
                rank: src,
                peer: Some(dst),
                op_index: n,
                step: None,
                delay_ns: jittered.as_nanos() as u64,
            });
            delay = Some(jittered);
        }
        delay
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

/// A [`Transport`] decorator that routes every inter-rank delivery of
/// its inner backend through a [`LinkChaos`] engine.
pub struct ChaosTransport {
    inner: Arc<dyn Transport>,
    chaos: Arc<LinkChaos>,
}

impl ChaosTransport {
    /// `bare` wrapped in the engine, or `bare` itself when there is none.
    pub fn wrap(bare: Arc<dyn Transport>, chaos: Option<Arc<LinkChaos>>) -> Arc<dyn Transport> {
        match chaos {
            Some(chaos) => Arc::new(ChaosTransport { inner: bare, chaos }),
            None => bare,
        }
    }
}

impl Transport for ChaosTransport {
    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }

    fn attach(&self, registry: &Arc<Registry>) {
        self.inner.attach(registry);
    }

    fn deliver(&self, registry: &Registry, route: Route, env: Envelope) {
        // Self-sends never touch a wire on any backend.
        if route.src_world != route.dst_world {
            if let Some(d) = self.chaos.on_frame(route.src_world, route.dst_world) {
                std::thread::sleep(d);
            }
        }
        self.inner.deliver(registry, route, env);
    }

    fn publish_ctrl(&self, ctrl: CtrlMsg) {
        self.inner.publish_ctrl(ctrl);
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn progress(&self) -> Option<Arc<dyn Progress>> {
        self.inner.progress()
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
        let chaos = engine("delay:r0>r1@link3:1ms,delay:r1>r0@link2:1ms", 1);
        // r0 -> r1: frames 1, 2 clean, 3 delayed, 4 clean.
        assert!(chaos.on_frame(0, 1).is_none());
        assert!(chaos.on_frame(0, 1).is_none());
        assert!(chaos.on_frame(0, 1).is_some());
        assert!(chaos.on_frame(0, 1).is_none());
        // The reverse link counts independently.
        assert!(chaos.on_frame(1, 0).is_none());
        assert!(chaos.on_frame(1, 0).is_some());
        let mut events = chaos.events();
        events.sort_by_key(|e| (e.rank, e.op_index));
        assert_eq!(events.len(), 2);
        assert_eq!(
            (events[0].kind, events[0].rank, events[0].peer),
            ("delay", 0, Some(1))
        );
        assert_eq!(events[0].op_index, 3);
        assert_eq!((events[1].rank, events[1].op_index), (1, 2));
    }

    /// A rank under a plan still reads its own TCP streams: the
    /// decorator hands out its backend's receive progress.
    #[test]
    fn the_decorator_keeps_its_backends_receive_progress() {
        let chaos = || Some(engine("delay:r0>r1@link1:1ms", 0));
        let tcp = Arc::new(crate::transport::tcp::loopback(2).unwrap());
        assert!(ChaosTransport::wrap(tcp, chaos()).progress().is_some());
        let thread = Arc::new(crate::transport::thread::ThreadTransport);
        assert!(ChaosTransport::wrap(thread, chaos()).progress().is_none());
    }

    #[test]
    fn delay_jitter_is_seeded_per_link() {
        let d = |seed| {
            let chaos = engine("delay:r0>r1@link1:10ms", seed);
            chaos.on_frame(0, 1).expect("delay fires on frame 1")
        };
        assert_eq!(d(5), d(5), "same seed replays the same jitter");
        assert_ne!(d(5), d(6));
        let j = d(5);
        assert!(j >= Duration::from_millis(5) && j < Duration::from_millis(15));
        // The ledger carries the applied (jittered) delay.
        let chaos = engine("delay:r0>r1@link1:10ms", 5);
        let applied = chaos.on_frame(0, 1).unwrap();
        assert_eq!(chaos.events()[0].delay_ns, applied.as_nanos() as u64);
    }
}

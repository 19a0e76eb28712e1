//! Fault-injection integration tests: every collective must surface a
//! mid-operation rank death as `RankFailed` or `Timeout` (the payload of
//! its panic) within its deadline — never hang — and the seeded fault
//! engine must replay byte-identically.

mod common;

use beatnik_comm::{AllToAllAlgo, CommError, Communicator, FaultPlan, SumOp, TransportKind, World};
use common::caught;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Base world deadline: generous, only reached if detection is broken.
const WORLD_TIMEOUT: Duration = Duration::from_secs(60);
/// Detection deadline the survivors run under; errors must land inside
/// a small multiple of this.
const DETECT: Duration = Duration::from_secs(2);

/// Outcome of one survivor: which error ended its loop and how long
/// after the faulted iteration began it took to surface.
type Survivor = (usize, CommError, Duration);

/// Run `coll` in a loop on `p` ranks with rank `victim` killed at the
/// start of iteration 2 (iteration 1 must complete cleanly). Returns
/// each survivor's terminating error and its latency.
fn kill_mid_collective<F>(p: usize, victim: usize, coll: F) -> Vec<Survivor>
where
    F: Fn(&Communicator) -> Result<(), CommError> + Send + Sync,
{
    let spec = format!("kill:r{victim}@step2");
    let plan = FaultPlan::parse(&spec, 0).expect("static plan");
    let coll = &coll;
    let report = World::builder(p).recv_timeout(WORLD_TIMEOUT).fault_plan(&plan).run_ft(move |comm| {
        let comm = comm.with_recv_timeout(DETECT);
        for step in 1..=100u64 {
            let started = Instant::now();
            comm.fault_step(step); // victim dies here on step 2
            // Non-uniform completion is allowed: a survivor whose
            // messages don't route through the victim (a broadcast root
            // only sends) may legitimately finish the faulted iteration
            // — and without lockstep it could finish the whole loop
            // before the victim even reaches its kill point. The barrier
            // makes every iteration mutually dependent, so each survivor
            // observes the death either inside the collective under test
            // or in the same iteration's barrier.
            match coll(&comm).and_then(|()| comm.try_barrier()) {
                Ok(()) => {}
                Err(e) => return (comm.rank(), e, started.elapsed()),
            }
        }
        panic!("rank {} never observed the failure", comm.rank());
    });
    assert_eq!(report.killed, [victim], "kill did not land");
    let survivors: Vec<Survivor> = report.results.into_iter().flatten().collect();
    assert_eq!(survivors.len(), p - 1, "every survivor must report");
    survivors
}

/// Assert every survivor failed with `RankFailed` (or `Timeout`, if its
/// receive raced the ledger update) well inside the deadline budget.
fn assert_failed_fast(survivors: &[Survivor], what: &str) {
    for (rank, err, latency) in survivors {
        match err {
            CommError::RankFailed { failed, .. } => {
                assert_eq!(*failed, 2, "{what}: wrong culprit on rank {rank}")
            }
            CommError::Timeout { .. } => {}
            other => panic!("{what}: rank {rank} got unexpected error {other}"),
        }
        assert!(
            *latency < DETECT + Duration::from_secs(8),
            "{what}: rank {rank} took {latency:?} to observe the failure"
        );
    }
}

/// Every collective, one rank killed mid-stream, at world size `p`.
/// The victim is rank 2 so it is an interior participant of every
/// algorithm (tree child and parent, ring member, exchange peer). The
/// cases drive the panicking entry points and read the failure from
/// their payload, the path that ends a fault-tolerant world.
type Case = Box<dyn Fn(&Communicator) -> Result<(), CommError> + Send + Sync>;

fn all_collectives_fail_fast(p: usize) {
    let cases: Vec<(&str, Case)> = vec![
        ("barrier", Box::new(|c: &Communicator| caught(c, || c.barrier()))),
        (
            "broadcast",
            Box::new(|c: &Communicator| {
                let root_data = (c.rank() == 0).then(|| vec![7u64; 16]);
                caught(c, || c.broadcast(0, root_data)).map(drop)
            }),
        ),
        (
            "allreduce",
            Box::new(|c: &Communicator| {
                caught(c, || c.allreduce(c.rank() as f64, &SumOp)).map(drop)
            }),
        ),
        (
            "allreduce_vec",
            Box::new(|c: &Communicator| {
                caught(c, || c.allreduce_vec(vec![c.rank() as f64; 4], &SumOp)).map(drop)
            }),
        ),
        (
            "gather",
            Box::new(|c: &Communicator| caught(c, || c.gather(0, &[c.rank() as u64; 4])).map(drop)),
        ),
        (
            "allgather",
            Box::new(|c: &Communicator| caught(c, || c.allgather(&[c.rank() as u64; 4])).map(drop)),
        ),
        (
            "alltoallv_with",
            Box::new(|c: &Communicator| {
                let counts = vec![1usize; c.size()];
                let send = vec![c.rank() as u64; c.size()];
                caught(c, || c.alltoallv_with(&send, &counts, AllToAllAlgo::Pairwise)).map(drop)
            }),
        ),
        (
            "alltoallv_owned",
            Box::new(|c: &Communicator| {
                let blocks = vec![vec![c.rank() as u64]; c.size()];
                caught(c, || c.alltoallv_owned(blocks, AllToAllAlgo::Direct)).map(drop)
            }),
        ),
    ];
    for (name, coll) in cases {
        eprintln!("case: {name} p={p}");
        let survivors = kill_mid_collective(p, 2, coll);
        assert_failed_fast(&survivors, name);
    }
}

#[test]
fn every_collective_fails_fast_when_a_rank_dies_4_ranks() {
    all_collectives_fail_fast(4);
}

#[test]
fn every_collective_fails_fast_when_a_rank_dies_9_ranks() {
    all_collectives_fail_fast(9);
}

/// A dropped message is not a death: the waiting rank must time out
/// (no rank is marked failed) instead of hanging.
#[test]
fn dropped_message_surfaces_as_timeout_not_hang() {
    let plan = FaultPlan::parse("drop:r1@op1", 0).expect("static plan");
    let report = World::builder(4).recv_timeout(WORLD_TIMEOUT).fault_plan(&plan).run_ft(|comm| {
            let comm = comm.with_recv_timeout(Duration::from_millis(500));
            caught(&comm, || comm.allreduce(comm.rank() as f64, &SumOp))
        },
    );
    assert!(report.killed.is_empty(), "a drop must not kill anyone");
    assert_eq!(report.fault_events.len(), 1);
    assert_eq!(report.fault_events[0].rank, 1);
    let errors: Vec<&CommError> = report
        .results
        .iter()
        .flatten()
        .filter_map(|r| r.as_ref().err())
        .collect();
    assert!(!errors.is_empty(), "someone must miss the dropped message");
    for e in errors {
        assert!(
            matches!(e, CommError::Timeout { .. }),
            "drop must surface as Timeout, got {e}"
        );
    }
}

/// A delayed message still arrives: the collective completes correctly,
/// and the jittered delay is recorded in the fault ledger.
#[test]
fn delayed_message_is_still_delivered() {
    let plan = FaultPlan::parse("delay:r1@op1:20ms", 0).expect("static plan");
    let report = World::builder(4).recv_timeout(WORLD_TIMEOUT).fault_plan(&plan).run_ft(|comm| {
        caught(&comm, || comm.allreduce(comm.rank() as f64, &SumOp))
    });
    assert!(report.killed.is_empty());
    for r in report.results.iter().flatten() {
        assert_eq!(*r.as_ref().expect("delay must not fail the op"), 6.0);
    }
    assert_eq!(report.fault_events.len(), 1);
    assert!(report.fault_events[0].delay_ns > 0, "jittered delay recorded");
}

/// Same seed, same plan, same program: the fault ledger — including
/// jittered delay durations — and the kill set replay identically.
#[test]
fn seeded_fault_replay_is_deterministic() {
    let run = || {
        // Both delays fire during the clean steps (1 and 2, two sends
        // per allreduce at p=4), before the kill makes surviving-rank op
        // counts race-dependent: the *ledger* must replay byte-for-byte.
        let plan =
            FaultPlan::parse("delay:r1@op2:10ms, delay:r3@op3:3ms, kill:r2@step3", 42)
                .expect("static plan");
        World::builder(4).recv_timeout(WORLD_TIMEOUT).fault_plan(&plan).run_ft(|comm| {
            let comm = comm.with_recv_timeout(DETECT);
            for step in 1..=3u64 {
                comm.fault_step(step);
                if caught(&comm, || comm.allreduce(1.0f64, &SumOp)).is_err() {
                    break;
                }
            }
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.killed, b.killed);
    assert_eq!(a.fault_events, b.fault_events, "fault ledger must replay");
    assert_eq!(a.killed, [2]);
    // The delays actually fired and carried jitter from the seeded PRNG.
    assert!(a.fault_events.iter().any(|e| e.delay_ns > 0));
}

/// A different seed perturbs the jitter: determinism comes from the
/// seed, not from the delays being constants.
#[test]
fn different_seed_changes_delay_jitter() {
    let run = |seed: u64| {
        let plan = FaultPlan::parse("delay:r1@op1:10ms", seed).expect("static plan");
        World::builder(2).recv_timeout(WORLD_TIMEOUT).fault_plan(&plan).run_ft(|comm| {
            comm.allreduce(1.0f64, &SumOp)
        })
    };
    let a = run(7);
    let b = run(8);
    assert_eq!(a.fault_events.len(), 1);
    assert_eq!(b.fault_events.len(), 1);
    assert_ne!(
        a.fault_events[0].delay_ns, b.fault_events[0].delay_ns,
        "jitter must depend on the seed"
    );
}

/// A rank death must be *observable*, not just survivable: the dead
/// world's report names the kill and freezes the dead rank's matrix
/// rows, the relaunched world carries none of the fired plan, and its
/// recovery phase shows up in the span timeline (what the Chrome trace
/// is written from), in the metrics snapshot's phase-entry counters and
/// in the per-phase communication matrix.
#[test]
fn killed_run_surfaces_recovery_in_metrics_and_timeline() {
    use beatnik_comm::telemetry::metrics::{MetricValue, MetricsSnapshot};
    use beatnik_comm::telemetry::{SpanKind, DEFAULT_SPAN_CAPACITY};

    // Sum every sample of `name` whose labels contain all of `want`.
    fn family_sum(snap: &MetricsSnapshot, name: &str, want: &[(&str, &str)]) -> u64 {
        snap.families
            .iter()
            .filter(|f| f.name == name)
            .flat_map(|f| &f.samples)
            .filter(|s| {
                want.iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| match &s.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
                MetricValue::Histogram { .. } => 0,
            })
            .sum()
    }
    let has_phase = |timeline: &beatnik_comm::WorldTimeline, phase: &'static str| {
        timeline
            .ranks
            .iter()
            .flat_map(|r| &r.spans)
            .any(|s| s.kind == SpanKind::Phase(phase))
    };

    // The world that dies: one clean step, then rank 2 is killed and
    // the survivors' next allreduce fails. Nobody catches it, so the
    // first survivor to unwind aborts the rest.
    let plan = FaultPlan::parse("kill:r2@step2", 0).expect("static plan");
    let world = World::builder(4).recv_timeout(WORLD_TIMEOUT).span_capacity(DEFAULT_SPAN_CAPACITY);
    let died = world.fault_plan(&plan).run_ft(|comm| {
        let comm = comm.with_recv_timeout(DETECT);
        {
            // One clean step so the victim has matrix rows to freeze.
            let _p = comm.telemetry().phase("step");
            assert_eq!(comm.allreduce(1.0f64, &SumOp), 4.0);
        }
        // Rank 2 leaves this barrier only once every rank has entered
        // it, so no rank can still be inside the clean allreduce when
        // the death lands.
        comm.barrier();
        comm.fault_step(2); // rank 2 dies here
        let _p = comm.telemetry().phase("failed-step");
        comm.allreduce(1.0f64, &SumOp)
    });
    assert_eq!(died.killed, [2]);
    assert!(died.results.iter().all(Option::is_none), "every rank ends on the failure path");
    assert!(has_phase(died.timeline.as_ref().expect("profiled"), "fault-kill"));
    let cells = died.trace.phased_matrix();
    let from_2 = |phase: &str| -> u64 {
        cells.iter().filter(|c| c.src == 2 && c.phase == phase).map(|c| c.bytes).sum()
    };
    assert!(from_2("step") > 0);
    assert_eq!(from_2("failed-step"), 0, "the dead rank's rows freeze at its death");

    // The relaunch: the three survivors, renumbered, with nothing left
    // of the plan to fire.
    let rest = plan.unfired(&died.fault_events, &died.killed);
    assert!(rest.actions.is_empty(), "the kill fired and stays fired: {rest:?}");
    let snap_slot: Mutex<Option<MetricsSnapshot>> = Mutex::new(None);
    let world = World::builder(3).recv_timeout(WORLD_TIMEOUT).span_capacity(DEFAULT_SPAN_CAPACITY);
    let relaunched = world.fault_plan(&rest).run_ft(|comm| {
        {
            let _span = comm.telemetry().phase(beatnik_comm::RECOVERY_PHASE);
            assert_eq!(comm.allreduce(comm.rank() as f64, &SumOp), 3.0);
        }
        // Quiesce before sampling: ranks hand rank 0 a token as their
        // final send (peer-traffic counters are bumped before a message
        // is enqueued, so receiving the token means every earlier byte
        // from that rank is already counted). Nothing is sent
        // afterwards, so the snapshot equals the final totals.
        if comm.rank() == 0 {
            for src in 1..comm.size() {
                let _ = comm.recv::<u8>(src, 77);
            }
            *snap_slot.lock().unwrap() = comm.metrics_snapshot();
        } else {
            comm.send(0, 77, vec![1u8]);
        }
    });
    assert!(relaunched.killed.is_empty() && relaunched.fault_events.is_empty());
    assert!(relaunched.results.iter().all(Option::is_some));
    assert!(has_phase(relaunched.timeline.as_ref().expect("profiled"), beatnik_comm::RECOVERY_PHASE));

    // Each of the three relaunched ranks enters recovery exactly once,
    // and each sends recovery-phase traffic.
    let snap = snap_slot.into_inner().unwrap().expect("rank 0 snapshot");
    assert_eq!(
        family_sum(&snap, "beatnik_phase_entries_total", &[("phase", beatnik_comm::RECOVERY_PHASE)]),
        3
    );
    let matrix = "beatnik_comm_matrix_bytes_total";
    for rank in ["0", "1", "2"] {
        assert!(
            family_sum(&snap, matrix, &[("src", rank), ("phase", "recovery")]) > 0,
            "rank {rank} must have recovery-phase matrix bytes"
        );
    }

    // The snapshot's matrix agrees with the RankTrace counters exactly:
    // same total as the post-join phased matrix and the classic P×P
    // byte matrix.
    let snap_total = family_sum(&snap, matrix, &[]);
    let phased_total: u64 = relaunched.trace.phased_matrix().iter().map(|c| c.bytes).sum();
    let classic_total: u64 = relaunched
        .trace
        .peer_matrix()
        .iter()
        .flat_map(|row| row.iter())
        .sum();
    assert_eq!(snap_total, phased_total);
    assert_eq!(snap_total, classic_total);
}

/// On rank 0 of a 2-rank world over `kind`, run `wait` five times —
/// each entered only once rank 1's death is on the failure ledger — and
/// return the last result with the fastest latency. Detection of a death
/// that predates the wait is deterministic, so the minimum is immune to
/// a loaded machine preempting one attempt.
fn wait_on_a_dead_peer<R, F>(kind: TransportKind, wait: F) -> (R, Duration)
where
    R: Send,
    F: Fn(&Communicator) -> R + Send + Sync,
{
    let plan = FaultPlan::parse("kill:r1@step1", 0).expect("static plan");
    let world = World::builder(2).transport(kind).recv_timeout(WORLD_TIMEOUT);
    let report = world.fault_plan(&plan).run_ft(|comm| {
        comm.fault_step(1); // rank 1 dies here
        while comm.failed_ranks().is_empty() {
            std::thread::yield_now();
        }
        let mut best = Duration::MAX;
        let mut last = None;
        for _ in 0..5 {
            let started = Instant::now();
            last = Some(wait(&comm));
            best = best.min(started.elapsed());
        }
        (last.expect("five attempts"), best)
    });
    assert_eq!(report.killed, [1], "kill did not land");
    report.results.into_iter().flatten().next().expect("rank 0 reports")
}

/// Regression: a waiter that *enters* a blocking claim after its peer
/// already died used to snapshot the post-death interrupt sequence and
/// sleep one full 100 ms poll slice before it first read the ledger.
#[test]
fn late_entrant_detects_a_dead_peer_before_its_first_sleep() {
    late_entrant_detects_a_dead_peer(TransportKind::Thread);
}

/// The same on TCP, where the waiter sleeps on its own sockets.
#[test]
fn late_entrant_detects_a_dead_peer_before_its_first_sleep_over_tcp() {
    late_entrant_detects_a_dead_peer(TransportKind::Tcp);
}

fn late_entrant_detects_a_dead_peer(kind: TransportKind) {
    let (result, latency) =
        wait_on_a_dead_peer(kind, |comm| caught(comm, || comm.irecv::<u8>(1, 5).wait()));
    assert_eq!(result, Err(CommError::RankFailed { rank: 0, failed: 1 }));
    assert!(latency < Duration::from_millis(10), "detection took {latency:?}");
}

/// Regression: a receive within its own short deadline (then
/// `recv_within`, now `with_recv_timeout` + `recv`) never read the
/// failure ledger at all — on a dead peer it burned its whole timeout
/// and reported `Timeout`.
#[test]
fn recv_within_on_a_dead_peer_returns_rank_failed_promptly() {
    recv_within_on_a_dead_peer(TransportKind::Thread);
}

/// The same on TCP.
#[test]
fn recv_within_on_a_dead_peer_returns_rank_failed_promptly_over_tcp() {
    recv_within_on_a_dead_peer(TransportKind::Tcp);
}

fn recv_within_on_a_dead_peer(kind: TransportKind) {
    let (result, latency) = wait_on_a_dead_peer(kind, |comm| {
        let short = comm.with_recv_timeout(Duration::from_secs(5));
        caught(&short, || short.recv::<u8>(1, 5))
    });
    assert_eq!(result, Err(CommError::RankFailed { rank: 0, failed: 1 }));
    assert!(latency < Duration::from_millis(10), "detection took {latency:?}");
}

/// How a blocked wait ended: the error it returned, or the message of
/// the panic it raised.
fn ending(outcome: std::thread::Result<Result<Vec<u8>, CommError>>) -> String {
    match outcome {
        Ok(Ok(_)) => "a message".to_string(),
        Ok(Err(e)) => format!("{e:?}"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "a non-string panic".to_string()),
    }
}

/// Where rank 0 waits when rank 1 acts.
#[derive(Clone, Copy)]
enum Waiter {
    /// Over TCP, asleep on its own sockets: rank 1 acts 50 ms after the
    /// barrier. A ledger interrupt must ring the sleeper's doorbell:
    /// without the ring it would see the event only at the end of its
    /// 100 ms poll slice.
    OnSockets,
    /// On the thread transport with both ranks pinned to one CPU: rank 1
    /// acts at once, so rank 0 is in its yield turns (or not yet
    /// waiting), and each turn must still read the ledger and the abort
    /// flag.
    YieldingOnOneCpu,
}

/// Rank 0 blocks in `irecv(1, 5).wait()`, with nothing coming, and
/// rank 1 does `event` (see [`Waiter`]) once every other rank has died:
/// each rank from 2 up takes step 1 of `plan`, whose kills it must hold.
/// Returns how rank 0's wait ended and how long after the event, fastest
/// of three worlds so one preempted attempt cannot fail it.
fn blocked_waiter_sees<F>(
    waiter: Waiter,
    ranks: usize,
    plan: Option<&FaultPlan>,
    event: F,
) -> (String, Duration)
where
    F: Fn(&Communicator) + Send + Sync,
{
    let (kind, delay) = match waiter {
        Waiter::OnSockets => (TransportKind::Tcp, Duration::from_millis(50)),
        Waiter::YieldingOnOneCpu => (TransportKind::Thread, Duration::ZERO),
    };
    let attempt = || {
        let acted: Mutex<Option<Instant>> = Mutex::new(None);
        let ended: Mutex<Option<(String, Instant)>> = Mutex::new(None);
        let left = AtomicUsize::new(0);
        let mut world = World::builder(ranks).transport(kind).recv_timeout(WORLD_TIMEOUT);
        if let Some(plan) = plan {
            world = world.fault_plan(plan);
        }
        // A panicking rank 1 propagates out of the world; only what the
        // ranks recorded matters here.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            world.run_ft(|comm| {
                comm.barrier();
                left.fetch_add(1, Ordering::SeqCst);
                if comm.rank() == 0 {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        caught(&comm, || comm.irecv::<u8>(1, 5).wait())
                    }));
                    *ended.lock().unwrap() = Some((ending(outcome), Instant::now()));
                } else if comm.rank() > 1 {
                    // Die only once every rank has left the barrier, so
                    // that none sees the death inside it.
                    while left.load(Ordering::SeqCst) < ranks {
                        std::thread::yield_now();
                    }
                    comm.fault_step(1);
                } else {
                    while comm.failed_ranks().len() < ranks - 2 {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(delay);
                    *acted.lock().unwrap() = Some(Instant::now());
                    event(&comm);
                }
            })
        }));
        let (how, at) = ended.into_inner().unwrap().expect("rank 0's wait ended");
        (how, at - acted.into_inner().unwrap().expect("rank 1 acted"))
    };
    let mut best: Option<(String, Duration)> = None;
    for _ in 0..3 {
        let (how, latency) = match waiter {
            Waiter::OnSockets => attempt(),
            Waiter::YieldingOnOneCpu => std::thread::scope(|s| {
                s.spawn(|| {
                    assert!(beatnik_comm::affinity::pin_to_one_cpu(), "pinning to one CPU");
                    attempt()
                })
                .join()
                .unwrap()
            }),
        };
        if best.as_ref().is_none_or(|(_, b)| latency < *b) {
            best = Some((how, latency));
        }
    }
    best.expect("three attempts")
}

fn sees_a_peer_killed(waiter: Waiter) {
    let plan = FaultPlan::parse("kill:r1@step1", 0).expect("static plan");
    let (how, latency) = blocked_waiter_sees(waiter, 2, Some(&plan), |comm| comm.fault_step(1));
    assert_eq!(how, format!("{:?}", CommError::RankFailed { rank: 0, failed: 1 }));
    assert!(latency < Duration::from_millis(10), "detection took {latency:?}");
}

fn sees_a_peer_panic(waiter: Waiter) {
    // `resume_unwind` skips the panic hook, whose report (a backtrace,
    // when enabled) would otherwise sit between the event and the abort.
    let (how, latency) = blocked_waiter_sees(waiter, 2, None, |_| {
        std::panic::resume_unwind(Box::new("a genuine bug on rank 1".to_string()))
    });
    assert!(how.contains("a peer rank failed"), "wait ended with {how}");
    assert!(latency < Duration::from_millis(10), "abort took {latency:?}");
}

/// Rank 0 waits on rank 1, which is alive; rank 2 dies. Rank 1 sees
/// the death in a barrier and unwinds, and its unwinding aborts the
/// world: rank 0 never waited on the dead rank, and still ends at once.
fn sees_a_failure_elsewhere(waiter: Waiter) {
    let plan = FaultPlan::parse("kill:r2@step1", 0).expect("static plan");
    let (how, latency) = blocked_waiter_sees(waiter, 3, Some(&plan), |comm| comm.barrier());
    assert!(how.contains("a peer rank failed"), "wait ended with {how}");
    assert!(latency < Duration::from_millis(10), "abort took {latency:?}");
}

#[test]
fn a_rank_blocked_on_its_sockets_sees_a_peer_killed() {
    sees_a_peer_killed(Waiter::OnSockets);
}

#[test]
fn a_rank_blocked_on_its_sockets_sees_a_peer_panic() {
    sees_a_peer_panic(Waiter::OnSockets);
}

#[test]
fn a_rank_blocked_on_its_sockets_sees_a_failure_elsewhere() {
    sees_a_failure_elsewhere(Waiter::OnSockets);
}

#[cfg(target_os = "linux")]
#[test]
fn a_rank_yielding_on_one_cpu_sees_a_peer_killed() {
    sees_a_peer_killed(Waiter::YieldingOnOneCpu);
}

#[cfg(target_os = "linux")]
#[test]
fn a_rank_yielding_on_one_cpu_sees_a_peer_panic() {
    sees_a_peer_panic(Waiter::YieldingOnOneCpu);
}

#[cfg(target_os = "linux")]
#[test]
fn a_rank_yielding_on_one_cpu_sees_a_failure_elsewhere() {
    sees_a_failure_elsewhere(Waiter::YieldingOnOneCpu);
}

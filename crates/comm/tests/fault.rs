//! Fault-injection integration tests: every collective must surface a
//! mid-operation rank death as `RankFailed` or `Timeout` (the payload of
//! its panic, read as a recovery driver reads it) within its deadline —
//! never hang — and the seeded fault engine must replay byte-identically.

mod common;

use beatnik_comm::{AllToAllAlgo, CommError, Communicator, FaultPlan, SumOp, World};
use common::caught;
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
/// their payload, the path recovery drivers take.
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

/// The full ULFM recovery sequence: a rank dies, survivors shrink, and
/// collectives on the shrunken communicator work — with the dead rank
/// still in the failure ledger.
#[test]
fn shrink_after_death_yields_working_communicator() {
    let plan = FaultPlan::parse("kill:r2@step1", 0).expect("static plan");
    let report = World::builder(4).recv_timeout(WORLD_TIMEOUT).fault_plan(&plan).run_ft(|comm| {
        comm.fault_step(1); // rank 2 dies here
        let shrunk = comm.shrink().expect("survivors agree and shrink");
        assert_eq!(shrunk.size(), 3);
        // World ranks 0, 1, 3 survive; their sum distinguishes a correct
        // group from one that silently kept or renumbered the dead rank.
        let sum = shrunk.allreduce(comm.rank() as f64, &SumOp);
        assert_eq!(sum, 4.0);
        shrunk.rank()
    });
    assert_eq!(report.killed, [2]);
    let mut new_ranks: Vec<usize> = report.results.into_iter().flatten().collect();
    new_ranks.sort_unstable();
    assert_eq!(new_ranks, [0, 1, 2], "survivors renumber densely");
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

/// A rank death must be *observable*, not just survivable: the
/// revoke/shrink/recovery sequence has to show up in the span timeline
/// (what the Chrome trace is written from), in the metrics snapshot's
/// phase-entry counters, and in the per-phase communication matrix —
/// where the dead rank's rows freeze at their pre-death values.
#[test]
fn killed_run_surfaces_recovery_in_metrics_and_timeline() {
    use beatnik_comm::telemetry::metrics::{MetricValue, MetricsSnapshot};
    use beatnik_comm::telemetry::{SpanKind, DEFAULT_SPAN_CAPACITY};
    use std::sync::Mutex;

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

    let plan = FaultPlan::parse("kill:r2@step2", 0).expect("static plan");
    let snap_slot: Mutex<Option<MetricsSnapshot>> = Mutex::new(None);
    let report = World::builder(4).recv_timeout(WORLD_TIMEOUT).span_capacity(DEFAULT_SPAN_CAPACITY).fault_plan(&plan).run_ft(|comm| {
            let comm = comm.with_recv_timeout(DETECT);
            comm.fault_step(1);
            {
                // One clean step so the victim has matrix rows to freeze.
                let _p = comm.telemetry().phase("step");
                let sum = comm.allreduce(1.0f64, &SumOp);
                assert_eq!(sum, 4.0);
            }
            comm.fault_step(2); // rank 2 dies here
            if caught(&comm, || comm.allreduce(1.0f64, &SumOp)).is_err() {
                comm.revoke();
            }
            let shrunk = {
                let _span = comm.telemetry().phase(beatnik_comm::RECOVERY_PHASE);
                let shrunk = comm.shrink().expect("survivors shrink");
                let sum = shrunk.allreduce(comm.rank() as f64, &SumOp);
                assert_eq!(sum, 4.0); // world ranks 0 + 1 + 3
                shrunk
            };
            // Quiesce before sampling: survivors hand rank 0 a token as
            // their final send (peer-traffic counters are bumped before a
            // message is enqueued, so receiving the token means every
            // earlier byte from that rank is already counted). Nothing is
            // sent afterwards, so the snapshot equals the final totals.
            if shrunk.rank() == 0 {
                for src in 1..shrunk.size() {
                    let _ = shrunk.recv::<u8>(src, 77);
                }
                *snap_slot.lock().unwrap() = comm.metrics_snapshot();
            } else {
                shrunk.send(0, 77, vec![1u8]);
            }
        },
    );
    assert_eq!(report.killed, [2]);

    // The recovery sequence is on the span timeline (the Chrome trace is
    // a straight serialization of these spans).
    let timeline = report.timeline.expect("profiled run has a timeline");
    for phase in ["revoke", "shrink", beatnik_comm::RECOVERY_PHASE] {
        assert!(
            timeline
                .ranks
                .iter()
                .flat_map(|r| &r.spans)
                .any(|s| s.kind == SpanKind::Phase(phase)),
            "phase {phase:?} missing from the timeline"
        );
    }

    let snap = snap_slot.into_inner().unwrap().expect("rank 0 snapshot");

    // ...and in the always-on phase-entry counters: each of the three
    // survivors revokes, shrinks, and enters recovery exactly once.
    for phase in ["revoke", "shrink", beatnik_comm::RECOVERY_PHASE] {
        assert_eq!(
            family_sum(&snap, "beatnik_phase_entries_total", &[("phase", phase)]),
            3,
            "phase {phase:?} entry count"
        );
    }

    // The dead rank earned matrix rows in the clean step, then froze:
    // no recovery-phase traffic may carry src=2.
    let matrix = "beatnik_comm_matrix_bytes_total";
    assert!(family_sum(&snap, matrix, &[("src", "2"), ("phase", "step")]) > 0);
    assert_eq!(
        family_sum(
            &snap,
            "beatnik_comm_matrix_messages_total",
            &[("src", "2"), ("phase", "recovery")]
        ),
        0,
        "dead rank must not appear in recovery-phase matrix rows"
    );
    for survivor in ["0", "1", "3"] {
        assert!(
            family_sum(&snap, matrix, &[("src", survivor), ("phase", "recovery")]) > 0,
            "survivor {survivor} must have recovery-phase matrix bytes"
        );
    }

    // The snapshot's matrix agrees with the RankTrace counters exactly:
    // same total as the post-join phased matrix and the classic P×P
    // byte matrix.
    let snap_total = family_sum(&snap, matrix, &[]);
    let phased_total: u64 = report.trace.phased_matrix().iter().map(|c| c.bytes).sum();
    let classic_total: u64 = report
        .trace
        .peer_matrix()
        .iter()
        .flat_map(|row| row.iter())
        .sum();
    assert_eq!(snap_total, phased_total);
    assert_eq!(snap_total, classic_total);
}

/// On rank 0 of a 2-rank world, run `wait` five times — each entered
/// only once rank 1's death is on the failure ledger — and return the
/// last result with the fastest latency. Detection of a death that
/// predates the wait is deterministic, so the minimum is immune to a
/// loaded machine preempting one attempt.
fn wait_on_a_dead_peer<R, F>(wait: F) -> (R, Duration)
where
    R: Send,
    F: Fn(&Communicator) -> R + Send + Sync,
{
    let plan = FaultPlan::parse("kill:r1@step1", 0).expect("static plan");
    let report = World::builder(2).recv_timeout(WORLD_TIMEOUT).fault_plan(&plan).run_ft(|comm| {
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
    let (result, latency) = wait_on_a_dead_peer(|comm| comm.irecv::<u8>(1, 5).try_wait());
    assert_eq!(result, Err(CommError::RankFailed { rank: 0, failed: 1 }));
    assert!(latency < Duration::from_millis(10), "detection took {latency:?}");
}

/// Regression: `recv_within` never read the failure ledger at all — on a
/// dead peer it burned its whole timeout and reported `Timeout`.
#[test]
fn recv_within_on_a_dead_peer_returns_rank_failed_promptly() {
    let (result, latency) =
        wait_on_a_dead_peer(|comm| comm.recv_within::<u8>(1, 5, Duration::from_secs(5)));
    assert_eq!(result, Err(CommError::RankFailed { rank: 0, failed: 1 }));
    assert!(latency < Duration::from_millis(10), "detection took {latency:?}");
}

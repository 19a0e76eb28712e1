//! The backend matrix: collective correctness, non-overtaking
//! point-to-point, and fault kill/shrink behavior must hold on every
//! transport backend — the suites below run unmodified over the thread,
//! shared-memory, and TCP loopback transports via [`backend_matrix!`].
//!
//! Payloads are plain-old-data (`f64`/`u64`): wire backends serialize
//! inter-rank envelopes, which droppy element types cannot survive (and
//! the runtime enforces that with a panic).

mod common;

use beatnik_comm::{backend_matrix, AllToAllAlgo, CommError, FaultPlan, OpKind, SumOp, World};
use beatnik_comm::TransportKind;
use common::caught;
use std::time::Duration;

/// Per-op receive deadline: long enough for a loaded CI machine, short
/// enough that a lost wire frame fails the test rather than hanging it.
const TIMEOUT: Duration = Duration::from_secs(30);

backend_matrix! {
    /// Every collective computes the right answer over the wire, at 4
    /// ranks (allreduce by recursive doubling) and at 3 (its
    /// reduce-to-rank-0 + broadcast fallback).
    fn collectives_are_correct(kind: TransportKind) {
        for p in [4usize, 3] {
            World::builder(p).transport(kind).recv_timeout(TIMEOUT).run(move |c| {
                let rank = c.rank();
                let sum: f64 = (0..p).map(|r| r as f64).sum();

                c.barrier();

                let rooted = (rank == 1).then(|| vec![3.0f64, 5.0]);
                assert_eq!(c.broadcast(1, rooted), [3.0, 5.0]);

                assert_eq!(c.allreduce_sum(rank as f64), sum);
                assert_eq!(c.allreduce_max(rank as f64), (p - 1) as f64);
                assert_eq!(c.allreduce_min(rank as f64), 0.0);
                assert_eq!(c.allreduce_vec(vec![rank as f64, 1.0], &SumOp), [sum, p as f64]);

                // Rank r contributes r+1 copies of r.
                let ragged = vec![rank as u64; rank + 1];
                let concat: Vec<u64> = (0..p).flat_map(|r| vec![r as u64; r + 1]).collect();
                assert_eq!(c.gather(p - 1, &ragged), (rank == p - 1).then(|| concat.clone()));
                assert_eq!(c.allgather(&ragged), concat);

                // Ragged exchange, both forms, every algorithm: rank r
                // sends r+d+1 copies of 10r+d to rank d.
                let counts: Vec<usize> = (0..p).map(|d| rank + d + 1).collect();
                let blocks: Vec<Vec<u64>> =
                    (0..p).map(|d| vec![(10 * rank + d) as u64; counts[d]]).collect();
                let want: Vec<Vec<u64>> =
                    (0..p).map(|s| vec![(10 * s + rank) as u64; s + rank + 1]).collect();
                let want_counts: Vec<usize> = want.iter().map(Vec::len).collect();
                for algo in [AllToAllAlgo::Pairwise, AllToAllAlgo::Direct, AllToAllAlgo::Adaptive] {
                    assert_eq!(c.alltoallv_owned(blocks.clone(), algo), want, "{algo:?}");
                    let (flat, rcounts) = c.alltoallv_with(&blocks.concat(), &counts, algo);
                    assert_eq!(flat, want.concat(), "{algo:?}");
                    assert_eq!(rcounts, want_counts, "{algo:?}");
                }
            });
        }
    }

    /// The block-owning alltoallv delivers what the flat call delivers,
    /// copies no payload byte on any backend, and is counted exactly
    /// like it: same calls, messages, bytes and handoff bytes per rank.
    fn alltoallv_owned_matches_flat_call_with_zero_copies(kind: TransportKind) {
        let p = 4usize;
        for algo in [AllToAllAlgo::Pairwise, AllToAllAlgo::Direct, AllToAllAlgo::Adaptive] {
            let run = |owned: bool| {
                let (_, trace) = World::builder(p)
                    .transport(kind)
                    .recv_timeout(TIMEOUT)
                    .run_traced(move |c| {
                        // Ragged: rank r sends r+d+1 copies of 100r+d to d.
                        let counts: Vec<usize> = (0..p).map(|d| c.rank() + d + 1).collect();
                        let blocks: Vec<Vec<u64>> = (0..p)
                            .map(|d| vec![(100 * c.rank() + d) as u64; counts[d]])
                            .collect();
                        let got: Vec<Vec<u64>> = if owned {
                            c.alltoallv_owned(blocks, algo)
                        } else {
                            let (flat, rcounts) = c.alltoallv_with(&blocks.concat(), &counts, algo);
                            let mut rest = flat.as_slice();
                            rcounts
                                .iter()
                                .map(|&n| {
                                    let (head, tail) = rest.split_at(n);
                                    rest = tail;
                                    head.to_vec()
                                })
                                .collect()
                        };
                        for (s, block) in got.iter().enumerate() {
                            let want = vec![(100 * s + c.rank()) as u64; s + c.rank() + 1];
                            assert_eq!(block, &want, "{algo:?} owned={owned} from {s}");
                        }
                    });
                trace
            };
            let (flat, owned) = (run(false), run(true));
            for r in 0..p {
                let (f, o) = (flat.rank(r), owned.rank(r));
                assert_eq!(o.copied_bytes(), 0, "{algo:?} rank {r}");
                assert_eq!(o.get(OpKind::Alltoallv), f.get(OpKind::Alltoallv), "{algo:?} rank {r}");
                assert_eq!(o.total_messages(), f.total_messages(), "{algo:?} rank {r}");
                assert_eq!(o.total_bytes(), f.total_bytes(), "{algo:?} rank {r}");
                assert_eq!(o.handoff_bytes(), f.handoff_bytes(), "{algo:?} rank {r}");
            }
        }
    }

    /// The three send forms — borrowed slice, owned buffer, shared
    /// buffer — interleaved on one `(src, tag)` stream at sizes from
    /// empty to 64 KiB (straddling shmem's 8 KiB handoff threshold)
    /// arrive intact and in order, and each message is charged to exactly
    /// one byte counter: slices to `copied` (one copy at every size),
    /// owned and shared buffers to `handoff`.
    fn slice_owned_and_shared_sends_interleave_intact_and_in_order(kind: TransportKind) {
        const SIZES: [usize; 5] = [0, 64, 8192, 8193, 65536];
        let payload = |seq: usize, len: usize| -> Vec<u8> {
            (0..len).map(|i| (seq * 31 + i) as u8).collect()
        };
        let (_, trace) = World::builder(3)
            .transport(kind)
            .recv_timeout(TIMEOUT)
            .run_traced(move |c| {
                if c.rank() == 0 {
                    for (n, &len) in SIZES.iter().enumerate() {
                        c.isend(1, 7, &payload(3 * n, len)).wait();
                        c.isend(2, 7, &payload(3 * n, len)).wait();
                        c.isend_owned(1, 7, payload(3 * n + 1, len)).wait();
                        c.send(2, 7, payload(3 * n + 1, len));
                        let shared = std::sync::Arc::new(payload(3 * n + 2, len));
                        c.isend_shared(1, 7, &shared).wait();
                        c.isend_shared(2, 7, &shared).wait();
                    }
                } else {
                    for seq in 0..3 * SIZES.len() {
                        // Alternate queue receives and posted slots.
                        let got: Vec<u8> = if seq % 2 == 0 {
                            c.recv(0, 7)
                        } else {
                            c.irecv(0, 7).wait()
                        };
                        assert_eq!(got, payload(seq, SIZES[seq / 3]), "message {seq} on {kind}");
                    }
                }
            });
        let total: u64 = SIZES.iter().map(|&n| n as u64).sum();
        let sender = trace.rank(0);
        assert_eq!(sender.copied_bytes(), 2 * total, "{kind}");
        assert_eq!(sender.handoff_bytes(), 4 * total, "{kind}");
        assert_eq!(sender.get(OpKind::Send).messages, 6 * SIZES.len() as u64, "{kind}");
        for r in 1..3 {
            assert_eq!(trace.rank(r).total_bytes(), 0, "rank {r} on {kind}");
        }
    }

    /// A rank killed mid-collective surfaces as `RankFailed`/`Timeout`
    /// on every survivor — the failure ledger propagates over the
    /// backend instead of hanging it.
    fn killed_rank_fails_collectives_fast(kind: TransportKind) {
        let plan = FaultPlan::parse("kill:r2@step2", 0).expect("static plan");
        let report = World::builder(4)
            .transport(kind)
            .recv_timeout(TIMEOUT)
            .fault_plan(&plan)
            .run_ft(|comm| {
                let comm = comm.with_recv_timeout(Duration::from_secs(5));
                for step in 1..=50u64 {
                    comm.fault_step(step); // rank 2 dies at step 2
                    if let Err(e) = caught(&comm, || comm.allreduce(comm.rank() as f64, &SumOp))
                        .and_then(|_| comm.try_barrier())
                    {
                        return (comm.rank(), e);
                    }
                }
                panic!("rank {} never observed the failure", comm.rank());
            });
        assert_eq!(report.killed, [2]);
        let survivors: Vec<(usize, CommError)> = report.results.into_iter().flatten().collect();
        assert_eq!(survivors.len(), 3, "every survivor must report");
        for (rank, err) in survivors {
            match err {
                CommError::RankFailed { failed, .. } => assert_eq!(failed, 2),
                CommError::Timeout { .. } => {}
                other => panic!("rank {rank} got unexpected error {other}"),
            }
        }
    }

    /// After a death, `shrink` yields a dense working communicator whose
    /// collectives run over the same backend.
    fn shrink_after_death_recovers(kind: TransportKind) {
        let plan = FaultPlan::parse("kill:r2@step1", 0).expect("static plan");
        let report = World::builder(4)
            .transport(kind)
            .recv_timeout(TIMEOUT)
            .fault_plan(&plan)
            .run_ft(|comm| {
                comm.fault_step(1); // rank 2 dies here
                let shrunk = comm.shrink().expect("survivors agree and shrink");
                assert_eq!(shrunk.size(), 3);
                let sum = shrunk.allreduce(comm.rank() as f64, &SumOp);
                assert_eq!(sum, 4.0); // world ranks 0 + 1 + 3
                shrunk.rank()
            });
        assert_eq!(report.killed, [2]);
        let mut new_ranks: Vec<usize> = report.results.into_iter().flatten().collect();
        new_ranks.sort_unstable();
        assert_eq!(new_ranks, [0, 1, 2], "survivors renumber densely");
    }
    /// Causal flow contexts survive the wire on every backend: a
    /// profiled run leaves no orphan recv endpoint (every recv-side
    /// flow matches a recorded send), and both message classes show up
    /// — point-to-point edges anchored on real send spans, collective
    /// fan-out edges anchored on instant markers.
    fn traced_flows_have_no_orphans(kind: TransportKind) {
        let p = 3usize;
        let (_, _, tl) = World::builder(p)
            .transport(kind)
            .recv_timeout(TIMEOUT)
            .run_profiled(move |c| {
                let next = (c.rank() + 1) % p;
                let prev = (c.rank() + p - 1) % p;
                c.send(next, 5, vec![c.rank() as u64]);
                let got: Vec<u64> = c.recv(prev, 5);
                assert_eq!(got, [prev as u64]);
                assert_eq!(c.allreduce_sum(c.rank() as f64), 3.0);
                c.barrier();
            });
        let g = beatnik_comm::telemetry::flow_graph(&tl);
        assert!(
            g.orphan_recvs.is_empty(),
            "recvs without a matching send edge: {:?}",
            g.orphan_recvs
        );
        assert!(!g.edges.is_empty(), "traced run must produce flow edges");
        // Point-to-point edges anchor on a real (non-zero-duration)
        // send span; collective fan-out anchors on instant markers.
        let span = |r: usize, s: usize| &tl.ranks[r].spans[s];
        assert!(
            g.edges.iter().any(|e| {
                let s = span(e.src_rank, e.src_span);
                s.end_ns > s.start_ns
            }),
            "no p2p flow edge found"
        );
        assert!(
            g.edges.iter().any(|e| {
                let s = span(e.src_rank, e.src_span);
                s.end_ns == s.start_ns
            }),
            "no collective flow edge found"
        );
    }

    /// A seeded `@link` drop/dup plan must not fabricate orphan flows:
    /// every message that *does* arrive stays causally tied to its
    /// send, a dropped frame leaves an unmatched send (not a broken
    /// recv), and TCP's reliability layer heals the lane so all edges
    /// come back.
    fn traced_flows_survive_link_chaos(kind: TransportKind) {
        let plan = FaultPlan::parse("drop:r0>r1@link2,dup:r0>r1@link4", 0x5EED)
            .expect("static chaos plan");
        let report = World::builder(2)
            .transport(kind)
            .recv_timeout(TIMEOUT)
            .fault_plan(&plan)
            .span_capacity(1 << 12)
            .run_ft(|c| {
                if c.rank() == 0 {
                    for i in 0..6u64 {
                        c.send(1, 200 + i, vec![i]);
                    }
                    0usize
                } else {
                    (0..6u64)
                        .filter(|&i| {
                            c.recv_within::<u64>(0, 200 + i, Duration::from_secs(2)).is_ok()
                        })
                        .count()
                }
            });
        let arrived = report.results[1].expect("rank 1 survived");
        let tl = report.timeline.expect("profiled chaos run yields a timeline");
        let g = beatnik_comm::telemetry::flow_graph(&tl);
        assert!(
            g.orphan_recvs.is_empty(),
            "chaos fabricated orphan recvs: {:?}",
            g.orphan_recvs
        );
        assert_eq!(
            g.edges.len(),
            arrived,
            "each delivered message must carry exactly one causal edge"
        );
        if kind == TransportKind::Tcp {
            // Below the seq+CRC reliability layer nothing is lost, so
            // the traced picture is complete.
            assert_eq!(arrived, 6, "TCP must heal the dropped frame");
        }
    }

    /// The same seeded `@link` plan produces an *identical* fault-event
    /// ledger on every backend — frame counts, kinds, and jittered
    /// delays included — so a chaos run debugged on the thread backend
    /// replays exactly over real sockets.
    fn link_fault_ledgers_replay_identically_across_backends(kind: TransportKind) {
        let (got, ledger) = chaos_scenario(kind);
        let (_, reference) = chaos_scenario(beatnik_comm::TransportKind::Thread);
        assert_eq!(ledger, reference, "ledger must be backend-invariant");
        assert_eq!(
            ledger.iter().map(|e| e.kind).collect::<Vec<_>>(),
            ["dup", "drop", "corrupt", "delay"],
        );
        assert!(
            ledger.iter().all(|e| e.rank == 0 && e.peer == Some(1)),
            "all events ride the r0>r1 lane: {ledger:?}"
        );
        match kind {
            // Below TCP's reliability layer nothing is lost: the seq
            // check swallows the duplicate, replay restores the dropped
            // and corrupted frames.
            TransportKind::Tcp => assert_eq!(got, [0, 1, 2, 3, 4, 5, 6, 7]),
            // In-process wires drop what chaos drops (frame 4 = message
            // 3, frame 6 = message 5); the duplicate of message 1 is
            // consumed by the tag-matched receive.
            TransportKind::Thread | TransportKind::Shmem => {
                assert_eq!(got, [0, 1, 2, 4, 6, 7]);
            }
        }
    }
    /// One message larger than any socket buffer, one way: the sender
    /// must be able to finish while the receiver's side of the
    /// transport keeps draining.
    fn a_16_mib_send_arrives_intact(kind: TransportKind) {
        finishes(move || {
            World::builder(2).transport(kind).recv_timeout(TIMEOUT).run(|c| {
                let n = (16 << 20) / 8;
                if c.rank() == 0 {
                    c.send(1, 1, pattern(16, n));
                } else {
                    let got: Vec<u64> = c.recv(0, 1);
                    assert_eq!(got.len(), n);
                    assert_eq!(checksum(&got), checksum(&pattern(16, n)));
                }
            });
        });
    }

    /// Both ranks send 8 MiB before either receives: each sender waits
    /// on a socket only the other side's progress can drain.
    fn an_8_mib_sendrecv_both_ways_arrives_intact(kind: TransportKind) {
        finishes(move || {
            World::builder(2).transport(kind).recv_timeout(TIMEOUT).run(|c| {
                let n = (8 << 20) / 8;
                let peer = 1 - c.rank();
                let got = c.sendrecv(peer, pattern(c.rank() as u64, n), peer, 2);
                assert_eq!(got.len(), n);
                assert_eq!(checksum(&got), checksum(&pattern(peer as u64, n)));
            });
        });
    }

    /// Four ranks exchange 2 MiB blocks all-to-all, every rank sending
    /// to and receiving from every other at once.
    fn an_alltoallv_of_2_mib_blocks_arrives_intact(kind: TransportKind) {
        finishes(move || {
            World::builder(4).transport(kind).recv_timeout(TIMEOUT).run(|c| {
                let n = (2 << 20) / 8;
                let seed = |src: usize, dst: usize| (src * 4 + dst) as u64;
                let blocks = (0..4).map(|d| pattern(seed(c.rank(), d), n)).collect();
                let got = c.alltoallv_owned(blocks, AllToAllAlgo::Adaptive);
                for (src, block) in got.iter().enumerate() {
                    assert_eq!(block.len(), n, "block from {src}");
                    assert_eq!(
                        checksum(block),
                        checksum(&pattern(seed(src, c.rank()), n)),
                        "block from {src}"
                    );
                }
            });
        });
    }
}



/// Run a world on a thread of its own and fail — not hang the suite —
/// if it is still running after 30 s.
fn finishes(world: impl FnOnce() + Send + 'static) {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    let (done, wait) = channel();
    std::thread::spawn(move || {
        world();
        let _ = done.send(());
    });
    match wait.recv_timeout(Duration::from_secs(30)) {
        Ok(()) => {}
        Err(RecvTimeoutError::Timeout) => panic!("world still running after 30 s: a message is stuck"),
        Err(RecvTimeoutError::Disconnected) => panic!("world panicked"),
    }
}

/// `n` words that depend on `seed` and on their position.
fn pattern(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| (i ^ seed.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

/// Order-sensitive fold of a payload (FNV-1a over words).
fn checksum(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &w| (h ^ w).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Run the shared link-chaos scenario on `kind`: rank 0 pushes 8 tagged
/// messages at rank 1 through a seeded wire-fault plan, rank 1 collects
/// whatever survives the backend's wire semantics. Returns (messages
/// that arrived, the fault-event ledger).
fn chaos_scenario(kind: beatnik_comm::TransportKind) -> (Vec<u64>, Vec<beatnik_comm::FaultEvent>) {
    let plan = FaultPlan::parse(
        "dup:r0>r1@link2,drop:r0>r1@link4,corrupt:r0>r1@link6,delay:r0>r1@link7:2ms",
        0x5EED,
    )
    .expect("static chaos plan");
    let report = World::builder(2)
        .transport(kind)
        .recv_timeout(TIMEOUT)
        .fault_plan(&plan)
        .run_ft(|c| {
            if c.rank() == 0 {
                for i in 0..8u64 {
                    c.send(1, 100 + i, vec![i]);
                }
                Vec::new()
            } else {
                // Tolerant receives: in-process backends have no
                // reliability layer below the chaos interposer, so a
                // dropped or corrupted frame is simply gone. TCP must
                // heal every one of them.
                let mut got = Vec::new();
                for i in 0..8u64 {
                    if let Ok(v) = c.recv_within::<u64>(0, 100 + i, Duration::from_secs(2)) {
                        got.push(v[0]);
                    }
                }
                got
            }
        });
    let got = report.results.into_iter().flatten().nth(1).unwrap_or_default();
    (got, report.fault_events)
}

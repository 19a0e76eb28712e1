//! Integration tests of span telemetry under real comm traffic: span
//! ordering stays deterministic and chronological per rank even when a
//! 9-rank nonblocking storm completes out of order, and the recorded
//! peers/bytes match what the ranks actually moved.

use beatnik_comm::telemetry::{CommOp, SpanKind};
use beatnik_comm::{wait_all, TransportKind, World};
use std::time::Duration;

#[test]
fn nine_rank_nonblocking_stress_records_deterministic_spans() {
    // Every nonzero rank floods rank 0; rank 0 drains through one irecv
    // per (source, tag) via wait_all. Arrival order is nondeterministic, but the
    // *span* record must not be: per rank, spans come out in
    // chronological begin order with properly nested intervals, rank 0
    // sees exactly one wait_all covering the storm, and each sender's
    // span sequence is its program order.
    let p = 9usize;
    let per_sender = 20u64;
    let (_, _, timeline) = World::builder(p).run_profiled(move |comm| {
        if comm.rank() == 0 {
            let total = per_sender as usize * (p - 1);
            let reqs: Vec<_> = (1..p)
                .flat_map(|s| (0..per_sender).map(move |i| (s, i)))
                .map(|(s, i)| comm.irecv::<u64>(s, i))
                .collect();
            let payloads = wait_all(reqs);
            assert_eq!(payloads.len(), total);
        } else {
            let me = comm.rank() as u64;
            for i in 0..per_sender {
                comm.isend(0, i, &[me, i]).wait();
            }
        }
    });

    assert_eq!(timeline.num_ranks(), p);
    for rt in &timeline.ranks {
        assert_eq!(rt.dropped, 0, "rank {} dropped spans", rt.rank);
        // Chronological by begin time, every interval well-formed.
        for w in rt.spans.windows(2) {
            assert!(
                w[0].start_ns <= w[1].start_ns,
                "rank {} spans out of order",
                rt.rank
            );
        }
        for s in &rt.spans {
            assert!(s.end_ns >= s.start_ns);
        }
    }

    let total = per_sender as usize * (p - 1);
    let root = &timeline.ranks[0];
    let irecvs: Vec<_> = root
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Op(CommOp::Irecv))
        .collect();
    assert_eq!(irecvs.len(), total);
    let waits: Vec<_> = root
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Op(CommOp::WaitAll))
        .collect();
    assert_eq!(waits.len(), 1);
    // The wait_all interval contains no posted-irecv span and accounts
    // for every received byte (each payload is two u64s).
    assert!(irecvs.iter().all(|s| s.start_ns < waits[0].start_ns));
    assert_eq!(waits[0].bytes, 16 * total as u64);

    for rt in &timeline.ranks[1..] {
        let sends: Vec<_> = rt
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Op(CommOp::Isend))
            .collect();
        assert_eq!(sends.len(), per_sender as usize, "rank {}", rt.rank);
        // Program order: tags 0..per_sender in sequence, all to rank 0,
        // each carrying the two-u64 payload.
        for (i, s) in sends.iter().enumerate() {
            assert_eq!(s.tag, i as u64, "rank {}", rt.rank);
            assert_eq!(s.peer, 0);
            assert_eq!(s.bytes, 16);
        }
        // Buffered isend().wait() never blocks, so senders record no
        // wait spans — only blocked receives do.
        assert!(
            !rt.spans.iter().any(|s| s.kind == SpanKind::Op(CommOp::Wait)),
            "rank {}",
            rt.rank
        );
    }
}

#[test]
fn stress_pattern_is_reproducible_across_runs() {
    // Two identical runs must produce identical per-rank span *kind*
    // sequences (timestamps differ; structure must not). Order is causal,
    // not timed: on the thread transport a send lands in rank 0's mailbox
    // before it returns, every sender sends before entering the barrier,
    // and rank 0 waits only after passing it, so its wait_all finds all
    // eight landed and absorbs them in request order.
    let run = || {
        let world = World::builder(9).transport(TransportKind::Thread);
        let (_, _, tl) = world.run_profiled(|comm| {
            if comm.rank() == 0 {
                let reqs: Vec<_> = (1..9).map(|s| comm.irecv::<u64>(s, 3)).collect();
                comm.barrier();
                let _ = wait_all(reqs);
            } else {
                comm.send(0, 3, vec![comm.rank() as u64]);
                comm.barrier();
            }
        });
        tl.ranks
            .iter()
            .map(|rt| {
                rt.spans
                    .iter()
                    .map(|s| (s.kind.name().to_string(), s.peer, s.tag, s.bytes))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "span structure must be deterministic");
}

#[test]
fn disabled_telemetry_records_no_spans_and_moves_no_counter() {
    // The recorder is off the send path's accounting: the same exchange
    // with telemetry off (run_traced) and on (run_profiled) reads the
    // same per-op stats and byte counters — and the disabled run must
    // record no spans at all.
    let p = 4usize;
    let laps = 25u64;
    let exchange = move |comm: &beatnik_comm::Communicator| {
        let right = (comm.rank() + 1) % p;
        let left = (comm.rank() + p - 1) % p;
        let mut token = vec![comm.rank() as u64; 128];
        // Nested solver-style phases around the sends: with the recorder
        // off they must record no span.
        let _outer = comm.telemetry().phase("laps");
        for lap in 0..laps {
            let _inner = comm.telemetry().phase("lap");
            let recv = comm.irecv::<u64>(left, lap);
            let send = comm.isend(right, lap, &token);
            token = recv.wait();
            send.wait();
            comm.barrier();
        }
    };
    let (_, traced) = World::builder(p).run_traced(move |comm| {
        assert!(!comm.telemetry().is_enabled());
        exchange(&comm);
        assert_eq!(comm.telemetry().total_pushed(), 0);
    });
    let (_, profiled, timeline) = World::builder(p).run_profiled(move |comm| exchange(&comm));
    assert!(timeline.total_spans() > 0);
    for r in 0..p {
        let (t, q) = (traced.rank(r), profiled.rank(r));
        assert_eq!(t.snapshot(), q.snapshot(), "rank {r}: telemetry moved a counter");
        assert_eq!(
            (t.copied_bytes(), t.handoff_bytes()),
            (q.copied_bytes(), q.handoff_bytes()),
            "rank {r}: telemetry changed copy accounting"
        );
        assert_eq!(t.copied_bytes(), laps * 128 * 8, "rank {r}");
    }
}

#[test]
fn tiny_capacity_under_stress_drops_oldest_and_counts() {
    // With a 16-span ring under the same storm, overflow must keep the
    // newest spans and report the exact drop count on the gauge.
    let (_, _, timeline) = World::builder(2).recv_timeout(Duration::from_secs(120)).span_capacity(16).run_profiled(|comm| {
            if comm.rank() == 0 {
                for i in 0..100u64 {
                    let _: Vec<u64> = comm.recv(1, i);
                }
            } else {
                for i in 0..100u64 {
                    comm.send(0, i, vec![i]);
                }
            }
        },
    );
    for rt in &timeline.ranks {
        assert_eq!(rt.spans.len(), 16, "rank {}", rt.rank);
        assert_eq!(rt.dropped, 100 - 16, "rank {}", rt.rank);
        // Drop-oldest: the survivors are the *last* 16 ops, so the
        // final span carries the final tag.
        assert_eq!(rt.spans.last().unwrap().tag, 99);
    }
}

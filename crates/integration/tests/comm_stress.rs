//! Communication stress tests: randomized message storms, nested
//! communicator splits, and polling receives under load — the misuse-
//! adjacent patterns a message-passing runtime must survive.

use beatnik_comm::{backend_matrix, wait_all, World};

#[test]
fn many_tags_many_sources_storm() {
    // Every rank sends 50 messages with pseudo-random tags to every other
    // rank; receivers post one irecv per (source, tag), drain them in
    // whatever order they land, and verify totals.
    let p = 4;
    let per_pair = 50u64;
    // Distinct for each `i` below 97, so each (source, tag) is one message.
    let tag_of = |src: u64, i: u64| (src * 1009 + i * 31) % 97;
    World::builder(p).run(move |comm| {
        let me = comm.rank() as u64;
        for dst in 0..p {
            if dst == comm.rank() {
                continue;
            }
            for i in 0..per_pair {
                comm.send(dst, tag_of(me, i), vec![me * 1_000_000 + i]);
            }
        }
        let expect = per_pair * (p as u64 - 1);
        let reqs: Vec<_> = (0..p as u64)
            .filter(|&src| src != me)
            .flat_map(|src| (0..per_pair).map(move |i| (src, i)))
            .map(|(src, i)| comm.irecv::<u64>(src as usize, tag_of(src, i)))
            .collect();
        let got = wait_all(reqs);
        assert_eq!(got.len() as u64, expect);
        let sum: u64 = got.iter().map(|v| v[0] % 1_000_000).sum();
        // Each sender contributed 0..50 payload indices.
        let per_sender: u64 = (0..per_pair).sum();
        assert_eq!(sum, per_sender * (p as u64 - 1));
    });
}

#[test]
fn nested_splits_three_deep() {
    World::builder(8).run(|comm| {
        // 8 -> two groups of 4 -> two groups of 2 -> singletons.
        let g1 = comm.split(Some((comm.rank() / 4) as u64), comm.rank() as i64).unwrap();
        assert_eq!(g1.size(), 4);
        let g2 = g1.split(Some((g1.rank() / 2) as u64), g1.rank() as i64).unwrap();
        assert_eq!(g2.size(), 2);
        let g3 = g2.split(Some(g2.rank() as u64), 0).unwrap();
        assert_eq!(g3.size(), 1);
        // Each layer still functions collectively.
        let s1 = g1.allreduce_sum(comm.rank() as f64);
        let base = (comm.rank() / 4) * 4;
        let expect: usize = (base..base + 4).sum();
        assert_eq!(s1 as usize, expect);
        let s2 = g2.allreduce_sum(1.0);
        assert_eq!(s2, 2.0);
    });
}

backend_matrix! {
    fn irecv_test_polling_loop(kind: TransportKind) {
        World::builder(3).transport(kind).run(|comm| {
            if comm.rank() == 0 {
                // Poll until both workers report, doing "useful work"
                // between polls.
                let mut reqs = [comm.irecv::<u64>(1, 42), comm.irecv::<u64>(2, 42)];
                let mut spins = 0u64;
                while !reqs.iter_mut().all(|r| r.test()) {
                    spins += 1;
                    if spins > 50_000_000 {
                        panic!("polling loop never completed");
                    }
                }
                for r in reqs {
                    assert_eq!(r.wait(), [7]);
                }
                // Nothing left afterwards.
                let mut extra = comm.irecv::<u64>(1, 42);
                assert!(!extra.test());
            } else {
                comm.send(0, 42, vec![7u64]);
            }
        });
    }
}

#[test]
fn interleaved_collectives_and_p2p() {
    // Collectives on the shadow channel must never capture user p2p
    // traffic even when tags collide with internal round numbers.
    World::builder(4).run(|comm| {
        for round in 0..10u64 {
            if comm.rank() == 0 {
                comm.send(1, round, vec![round]);
            }
            let s = comm.allreduce_sum(1.0);
            assert_eq!(s, 4.0);
            comm.barrier();
            if comm.rank() == 1 {
                assert_eq!(comm.recv::<u64>(0, round), [round]);
            }
            let g = comm.allgather(&[comm.rank() as u64]);
            assert_eq!(g.len(), 4);
        }
    });
}

#[test]
fn large_message_volume() {
    // 8 MiB buffers through the ring: exercises buffered transfer of big
    // payloads (moved, not copied).
    World::builder(2).run(|comm| {
        let big: Vec<f64> = (0..1_048_576).map(|i| i as f64).collect();
        if comm.rank() == 0 {
            comm.send(1, 0, big.clone());
            let back: Vec<f64> = comm.recv(1, 1);
            assert_eq!(back.len(), 1_048_576);
            assert_eq!(back[12345], big[12345] * 2.0);
        } else {
            let mut data: Vec<f64> = comm.recv(0, 0);
            for v in &mut data {
                *v *= 2.0;
            }
            comm.send(0, 1, data);
        }
    });
}

#[test]
fn reduction_tree_shapes_agree_with_serial_fold() {
    // Non-power-of-two sizes exercise the reduce+broadcast fallback; all
    // must agree with a serial fold to FP-reassociation tolerance.
    for p in [3usize, 5, 6, 7, 9, 12] {
        let out = World::builder(p).run(move |comm| {
            let v = 1.0 / (comm.rank() + 1) as f64;
            comm.allreduce_sum(v)
        });
        let expect: f64 = (1..=p).map(|r| 1.0 / r as f64).sum();
        for r in out {
            assert!((r - expect).abs() < 1e-12, "p={p}: {r} vs {expect}");
        }
    }
}

//! Transport-protocol integration tests: copy accounting of the owned
//! and shared send forms, and ordering guarantees of the indexed
//! mailbox under randomized same-selector streams.

use beatnik_comm::{wait_all, TransportKind, World};
use beatnik_prng::Rng;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

/// Ownership-transfer sends copy nothing at any size: the buffer the
/// caller gives up is the buffer the receiver unwraps. The bytes are
/// charged to the disjoint `handoff` counter instead, so the zero on
/// `copied` is a pinned invariant, not an accounting gap.
#[test]
fn owned_sends_copy_nothing_at_any_size() {
    let (_, trace) = World::builder(2).recv_timeout(TIMEOUT).run_traced(|c| {
        if c.rank() == 0 {
            c.isend_owned(1, 1, vec![7u64; 100]).wait(); // 800 bytes
            c.isend_owned(1, 2, vec![9u64; 65536]).wait(); // 512 KiB
        } else {
            assert_eq!(c.irecv::<u64>(0, 1).wait(), vec![7u64; 100]);
            assert_eq!(c.irecv::<u64>(0, 2).wait().len(), 65536);
        }
    });
    assert_eq!(trace.rank(0).copied_bytes(), 0, "ownership transfer must not copy");
    assert_eq!(trace.rank(0).handoff_bytes(), 800 + 65536 * 8);
}

/// Shared-buffer sends fan one allocation out to many destinations with
/// zero sender-side copies; the last receiver to claim the buffer takes
/// the allocation itself. Broadcast sends this way: at 3 ranks the root
/// sends to both others itself.
#[test]
fn shared_sends_copy_nothing_at_the_sender() {
    let (_, trace) = World::builder(3).recv_timeout(TIMEOUT).run_traced(|c| {
        let buf = (c.rank() == 0).then(|| vec![0.5f64; 4096]); // 32 KiB
        assert_eq!(c.broadcast(0, buf), vec![0.5f64; 4096]);
    });
    assert_eq!(trace.rank(0).copied_bytes(), 0);
    // Both envelopes' payload bytes move by ownership transfer.
    assert_eq!(trace.rank(0).handoff_bytes(), 2 * 4096 * 8);
}

beatnik_comm::backend_matrix! {
    /// Copy accounting is protocol-level and therefore backend-uniform:
    /// a large ownership-transfer send reports zero copied bytes on
    /// every transport (wire backends serialize internally, which the
    /// protocol counters never charge).
    fn owned_sends_report_zero_copies(kind: TransportKind) {
        let (_, trace) = World::builder(2)
            .transport(kind)
            .recv_timeout(TIMEOUT)
            .run_traced(|c| {
                if c.rank() == 0 {
                    let data: Vec<u64> = (0..8192).collect(); // 64 KiB
                    c.isend_owned(1, 7, data).wait();
                } else {
                    let got = c.irecv::<u64>(0, 7).wait();
                    assert_eq!(got.len(), 8192);
                    assert_eq!(got[4096], 4096);
                }
            });
        for r in 0..2 {
            assert_eq!(trace.rank(r).copied_bytes(), 0, "rank {r} on {kind}");
        }
        assert_eq!(trace.rank(0).handoff_bytes(), 65536);
    }

    /// Which backends move pointers end to end: the thread backend,
    /// whose receiver unwraps the very allocation the sender gave up.
    /// The wire backends serialize, so their receiver gets a fresh
    /// buffer; the address is not compared there, because the allocator
    /// may hand the freed block out again.
    fn handoff_capability_matches_backend(kind: TransportKind) {
        let same_allocation = World::builder(2)
            .transport(kind)
            .recv_timeout(TIMEOUT)
            .run(move |c| {
                if c.rank() == 0 {
                    let data = vec![3u64; 1024]; // 8 KiB
                    let at = data.as_ptr() as u64;
                    c.isend_owned(1, 1, data).wait();
                    c.send(1, 2, vec![at]);
                    None
                } else {
                    let got = c.recv::<u64>(0, 1);
                    assert_eq!(got, vec![3u64; 1024], "{kind}");
                    Some(c.recv::<u64>(0, 2) == [got.as_ptr() as u64])
                }
            });
        if kind == TransportKind::Thread {
            assert_eq!(same_allocation[1], Some(true), "{kind}");
        }
    }
}

/// Same-selector messages must never overtake each other, whichever mix
/// of receive forms drains them. Randomized streams from several
/// senders, consumed through interleaved blocking recvs, irecvs, and
/// `wait_all` batches that post one irecv per open stream.
#[test]
fn non_overtaking_under_randomized_mixed_selectors() {
    const MSGS: u64 = 60;
    for seed in 0..4u64 {
        World::builder(4).run(move |c| {
            if c.rank() == 0 {
                // Per-sender sequence numbers; message value encodes
                // (sender, seq) so ordering violations are detectable.
                let mut next_seq = [0u64; 4];
                let mut rng = Rng::seed_from_u64(seed);
                let mut received = 0;
                while received < MSGS * 3 {
                    // Receives are posted only on senders that still
                    // have messages in flight.
                    let open: Vec<usize> =
                        (1..4).filter(|&s| next_seq[s] < MSGS).collect();
                    let s = open[rng.gen_index(0..open.len())];
                    let got: Vec<(Vec<u64>, usize)> = match rng.gen_index(0..3) {
                        // Blocking receive from a random still-open
                        // sender (tag = sender for variety).
                        0 => vec![(c.recv::<u64>(s, s as u64), s)],
                        // Posted-receive path.
                        1 => vec![(c.irecv::<u64>(s, s as u64).wait(), s)],
                        // One posted receive per open stream, completed
                        // in whatever order they land.
                        _ => {
                            let reqs = open.iter().map(|&s| c.irecv::<u64>(s, s as u64)).collect();
                            wait_all(reqs)
                                .into_iter()
                                .zip(open.iter().copied())
                                .collect()
                        }
                    };
                    for (payload, src) in got {
                        let seq = payload[0] % 1000;
                        let sender = payload[0] / 1000;
                        assert_eq!(sender as usize, src, "seed {seed}");
                        assert_eq!(
                            seq,
                            next_seq[src],
                            "seed {seed}: stream from {src} overtook (got {seq}, want {})",
                            next_seq[src]
                        );
                        next_seq[src] += 1;
                        received += 1;
                    }
                }
            } else {
                // Each sender emits an ordered stream on its own (src,
                // tag) selector, alternating send styles.
                let r = c.rank() as u64;
                for seq in 0..MSGS {
                    let v = [r * 1000 + seq];
                    if seq % 2 == 0 {
                        c.isend(0, r, &v).wait();
                    } else {
                        c.send(0, r, v.to_vec());
                    }
                }
            }
        });
    }
}

/// Posts on two streams, interleaved in one `wait_all` batch, match in
/// posted order per stream: each stream is seen in order.
#[test]
fn wait_all_exact_posts_preserve_stream_order() {
    World::builder(3).run(|c| {
        if c.rank() == 0 {
            // Post: from 1, from 2, from 1, from 2.
            let reqs = vec![
                c.irecv::<u64>(1, 9),
                c.irecv::<u64>(2, 9),
                c.irecv::<u64>(1, 9),
                c.irecv::<u64>(2, 9),
            ];
            let got = wait_all(reqs);
            // Posted-order matching: the first post on a stream gets that
            // sender's first message (100, 200), the second its second.
            assert_eq!(got, [[100], [200], [101], [201]]);
            let from1: Vec<u64> = got.iter().flatten().copied().filter(|v| *v < 200).collect();
            let from2: Vec<u64> = got.iter().flatten().copied().filter(|v| *v >= 200).collect();
            assert_eq!(from1, vec![100, 101]);
            assert_eq!(from2, vec![200, 201]);
        } else {
            let base = c.rank() as u64 * 100;
            c.isend(0, 9, &[base]).wait();
            c.isend(0, 9, &[base + 1]).wait();
        }
    });
}

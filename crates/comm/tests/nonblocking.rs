//! Integration tests of the nonblocking request API under contention:
//! multi-sender mailbox storms drained through irecv and out-of-order
//! `wait_all` completion at several rank counts.

use beatnik_comm::{backend_matrix, wait_all, World};
use std::time::Duration;

#[test]
fn multi_sender_storm_drains_through_irecv() {
    // Every rank floods rank 0 with messages on many tags; rank 0 posts
    // one irecv per expected (source, tag) up front and drains them in
    // whatever order they land.
    let p = 5;
    let per_sender = 40u64;
    World::builder(p).run(move |comm| {
        if comm.rank() == 0 {
            let total = per_sender as usize * (p - 1);
            let reqs: Vec<_> = (1..p as u64)
                .flat_map(|s| (0..per_sender).map(move |i| (s, i)))
                .map(|(s, i)| comm.irecv::<u64>(s as usize, tag_of(s, i)))
                .collect();
            let payloads = wait_all(reqs);
            assert_eq!(payloads.len(), total);
            let sum: u64 = payloads.iter().map(|v| v[0] % 1_000).sum();
            // Each sender contributed indices 0..per_sender.
            let per: u64 = (0..per_sender).sum();
            assert_eq!(sum, per * (p as u64 - 1));
            assert_eq!(comm.trace().outstanding_requests(), 0);
            assert!(comm.trace().peak_outstanding() >= total as u64 / 2);
        } else {
            let me = comm.rank() as u64;
            for i in 0..per_sender {
                comm.isend(0, tag_of(me, i), &[me * 1_000 + i]).wait();
            }
        }
    });
}

/// The tag of sender `s`'s `i`-th message: distinct for each `i` below 61.
fn tag_of(s: u64, i: u64) -> u64 {
    (s * 131 + i * 7) % 61
}

#[test]
fn interleaved_recv_and_irecv() {
    // A posted irecv on one (src, tag) coexists with blocking receives
    // of other traffic: the blocking path must not steal the message the
    // request is waiting on, because matching is by (src, tag), not
    // arrival order.
    World::builder(3).run(|comm| {
        match comm.rank() {
            0 => {
                let reserved = comm.irecv::<u64>(1, 7);
                // Drain rank 2's noise with blocking receives first.
                for _ in 0..10 {
                    assert_eq!(comm.recv::<u64>(2, 3), [99]);
                }
                assert_eq!(reserved.wait(), vec![42]);
            }
            1 => {
                // Wait until rank 2's noise is fully sent before the
                // reserved message goes out.
                let _: Vec<u8> = comm.recv(2, 0);
                comm.send(0, 7, vec![42u64]);
            }
            2 => {
                for _ in 0..10 {
                    comm.send(0, 3, vec![99u64]);
                }
                comm.send(2 - 1, 0, vec![1u8]);
            }
            _ => unreachable!(),
        }
    });
}

#[test]
fn wait_all_completes_out_of_order_at_several_sizes() {
    // Rank 0 posts irecvs in rank order, but senders complete in
    // *reverse* rank order (staggered sleeps). wait_all must still
    // return results in posted order.
    for p in [2usize, 4, 9] {
        World::builder(p).run(move |comm| {
            if comm.rank() == 0 {
                let reqs: Vec<_> = (1..p).map(|s| comm.irecv::<u64>(s, 5)).collect();
                let got = wait_all(reqs);
                for (i, v) in got.iter().enumerate() {
                    assert_eq!(v, &vec![(i + 1) as u64], "p={p}");
                }
                assert_eq!(comm.trace().outstanding_requests(), 0);
            } else {
                // Higher ranks send sooner: arrival order is reversed.
                std::thread::sleep(Duration::from_millis(
                    3 * (p - comm.rank()) as u64,
                ));
                comm.send(0, 5, vec![comm.rank() as u64]);
            }
        });
    }
}

backend_matrix! {
    fn test_poll_makes_progress_without_blocking(kind: TransportKind) {
        // irecv::test() returns false until the message exists, then
        // completes without ever blocking the receiver: each call drains
        // the receiver's wire once, so it needs no other thread.
        World::builder(2).transport(kind).run(|comm| {
            if comm.rank() == 0 {
                let mut req = comm.irecv::<u64>(1, 0);
                let mut polls = 0u64;
                while !req.test() {
                    polls += 1;
                    if polls > 100_000_000 {
                        panic!("test() never completed");
                    }
                }
                assert_eq!(req.wait(), vec![17]);
            } else {
                std::thread::sleep(Duration::from_millis(20));
                comm.send(0, 0, vec![17u64]);
            }
        });
    }
}

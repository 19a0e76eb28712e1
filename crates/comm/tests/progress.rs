//! Progress on call: only rank threads move bytes from a wire into a
//! mailbox, so no transport runs a thread of its own, and two ranks that
//! each write more than the wire holds to the other still finish.
//!
//! Every world in this binary uses 64 KiB shmem rings
//! (`BEATNIK_SHM_RING_BYTES`, set once below, before any world starts);
//! nothing else runs here, so the variable reaches no other test.
#![cfg(target_os = "linux")]

use beatnik_comm::{proc, TransportKind, World, SHM_RING_BYTES_ENV};

/// The libtest argv that routes a spawned child back into `test_name`
/// (`--quiet`: see `proc_spmd.rs`).
fn reexec_args(test_name: &str) -> [&str; 5] {
    [
        test_name,
        "--exact",
        "--nocapture",
        "--test-threads=1",
        "--quiet",
    ]
}

/// Every test here calls this first: the variable is set once, before
/// any test reads the environment.
fn small_rings() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var(SHM_RING_BYTES_ENV, (64 << 10).to_string()));
}

/// Frames each rank sends the other before either receives: 3,000
/// frames of about 300 bytes, fourteen times what a 64 KiB ring holds.
const FRAMES: u64 = 3_000;

/// Send the peer [`FRAMES`] small frames, then receive its frames, in
/// order. Each sender fills its ring long before the peer receives, so
/// each finishes only because a blocked writer drains its own inbound.
fn both_ways_past_the_ring(comm: beatnik_comm::Communicator) -> u64 {
    assert_eq!(
        beatnik_comm::CommConfig::from_env().shm_ring_bytes,
        64 << 10
    );
    let peer = 1 - comm.rank();
    for i in 0..FRAMES {
        comm.send(peer, 5, vec![i; 32]);
    }
    for i in 0..FRAMES {
        assert_eq!(comm.recv::<u64>(peer, 5), [i; 32], "rank {}", comm.rank());
    }
    FRAMES
}

#[test]
fn two_shmem_ranks_overfill_small_rings_toward_each_other_in_one_process() {
    small_rings();
    let got = World::builder(2)
        .transport(TransportKind::Shmem)
        .run(both_ways_past_the_ring);
    assert_eq!(got, [FRAMES; 2]);
}

#[test]
fn two_shmem_processes_overfill_small_rings_toward_each_other() {
    small_rings();
    let name = "two_shmem_processes_overfill_small_rings_toward_each_other";
    let args = reexec_args(name);
    let (got, killed) = proc::spmd(2, TransportKind::Shmem, &args, both_ways_past_the_ring);
    assert_eq!(got, FRAMES);
    assert!(killed.is_empty());
}

/// This process's threads named like the runtime's (`beatnik-*`).
fn runtime_threads() -> Vec<String> {
    let mut names = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        if let Ok(name) = std::fs::read_to_string(task.path().join("comm")) {
            if name.starts_with("beatnik-") {
                names.push(name.trim_end().to_owned());
            }
        }
    }
    names
}

/// After launch, mid-run, no transport thread exists: no TCP event loop,
/// no shmem poller, nothing else of the runtime's.
fn census(comm: beatnik_comm::Communicator) -> Vec<String> {
    comm.barrier();
    let peer = (comm.rank() + 1) % comm.size();
    comm.send(peer, 1, vec![comm.rank() as u64]);
    let _: Vec<u64> = comm.recv((comm.rank() + comm.size() - 1) % comm.size(), 1);
    let names = runtime_threads();
    comm.barrier();
    names
}

#[test]
fn no_transport_runs_a_thread_in_a_loopback_world() {
    small_rings();
    for kind in TransportKind::all() {
        let seen = World::builder(3).transport(kind).run(census);
        assert!(seen.iter().all(Vec::is_empty), "{kind}: {seen:?}");
    }
}

#[test]
fn no_transport_runs_a_thread_in_a_shmem_process_world() {
    small_rings();
    let name = "no_transport_runs_a_thread_in_a_shmem_process_world";
    let (seen, _) = proc::spmd(2, TransportKind::Shmem, &reexec_args(name), |comm| {
        let seen = census(comm);
        assert!(seen.is_empty(), "{seen:?}");
        seen
    });
    assert!(seen.is_empty(), "{seen:?}");
}

#[test]
fn no_transport_runs_a_thread_in_a_tcp_process_world() {
    small_rings();
    let name = "no_transport_runs_a_thread_in_a_tcp_process_world";
    let (seen, _) = proc::spmd(2, TransportKind::Tcp, &reexec_args(name), |comm| {
        let seen = census(comm);
        assert!(seen.is_empty(), "{seen:?}");
        seen
    });
    assert!(seen.is_empty(), "{seen:?}");
}

//! Multi-process smoke tests: [`beatnik_comm::proc::spmd`] re-executes
//! this very test binary (libtest `--exact` filter) to give every rank
//! its own OS process, rendezvousing over shared-memory rings or TCP.
//!
//! Spawned children re-enter the same `#[test]` function, where `spmd`
//! detects the `BEATNIK_PROC_RANK` role, joins the world, and exits the
//! process — only the parent (world rank 0) reaches the assertions.
#![cfg(unix)]

use beatnik_comm::proc;
use beatnik_comm::TransportKind;

/// The libtest argv that routes a spawned child back into `test_name`.
/// `--quiet` keeps the child's harness from printing `test <name> ... `:
/// a child exits before its result line, so that fragment would splice
/// into the parent's own result lines on the shared stdout.
fn reexec_args(test_name: &str) -> [&str; 5] {
    [test_name, "--exact", "--nocapture", "--test-threads=1", "--quiet"]
}

/// Collectives + point-to-point over a world of `n` real processes.
fn spmd_smoke(n: usize, kind: TransportKind, test_name: &str) {
    let (out, killed) = proc::spmd(n, kind, &reexec_args(test_name), move |comm| {
        let (rank, size) = (comm.rank(), comm.size());
        assert_eq!(size, n);

        let sum = comm.allreduce_sum(rank as f64);
        assert_eq!(sum, (n * (n - 1) / 2) as f64, "rank {rank}");

        // A p2p ring: each rank passes a growing payload to the right.
        let next = (rank + 1) % size;
        let prev = (rank + size - 1) % size;
        comm.send(next, 9, vec![rank as u64; rank + 1]);
        let got: Vec<u64> = comm.recv(prev, 9);
        assert_eq!(got, vec![prev as u64; prev + 1], "rank {rank}");

        let gathered = comm.allgather(&[rank as u64 * 100]);
        assert_eq!(gathered, (0..n as u64).map(|r| r * 100).collect::<Vec<_>>());

        sum
    });
    assert_eq!(out, (n * (n - 1) / 2) as f64);
    assert!(killed.is_empty(), "no rank was faulted: {killed:?}");
}

#[test]
fn shmem_world_spans_three_processes() {
    spmd_smoke(3, TransportKind::Shmem, "shmem_world_spans_three_processes");
}

#[test]
fn tcp_world_spans_three_processes() {
    spmd_smoke(3, TransportKind::Tcp, "tcp_world_spans_three_processes");
}

/// Rank 1 of a 3-process shmem world sends rank 0 the ring directory
/// every child joined, which exists while the world runs; `crash` makes
/// rank 1 exit with a failure code once it has. Returns what rank 0
/// heard, and whether the world ended without a panic.
fn shmem_world_dir(test_name: &str, crash: bool) -> (std::path::PathBuf, bool) {
    let heard = &std::sync::OnceLock::new();
    let ended = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        proc::spmd(3, TransportKind::Shmem, &reexec_args(test_name), move |comm| {
            if comm.rank() == 1 {
                let dir = std::env::var(proc::SHM_DIR_ENV).expect("a child knows its ring directory");
                assert!(std::path::Path::new(&dir).is_dir(), "{dir} exists while the world runs");
                comm.send(0, 1, dir.into_bytes());
                if crash {
                    std::process::exit(3);
                }
            } else if comm.rank() == 0 {
                heard.set(String::from_utf8(comm.recv::<u8>(1, 1)).unwrap()).unwrap();
            }
        })
    }));
    (heard.get().expect("rank 1 sent its directory").into(), ended.is_ok())
}

/// The launching process owns a shmem world's ring directory: it is
/// gone once the world has ended.
#[test]
fn a_shmem_world_removes_its_directory_when_it_ends() {
    let (dir, ended) = shmem_world_dir("a_shmem_world_removes_its_directory_when_it_ends", false);
    assert!(ended, "a clean world ends without a panic");
    assert!(!dir.exists(), "{} left behind", dir.display());
}

/// ... and when a child crashes, which fails the world.
#[test]
fn a_shmem_world_removes_its_directory_when_a_child_crashes() {
    let (dir, ended) = shmem_world_dir("a_shmem_world_removes_its_directory_when_a_child_crashes", true);
    assert!(!ended, "a crashed child fails the world");
    assert!(!dir.exists(), "{} left behind", dir.display());
}

#[test]
fn single_process_world_needs_no_children() {
    let (rank, killed) = proc::spmd(
        1,
        TransportKind::Shmem,
        &reexec_args("single_process_world_needs_no_children"),
        |comm| {
            assert_eq!(comm.size(), 1);
            assert_eq!(comm.allreduce_sum(5.0), 5.0);
            comm.rank()
        },
    );
    assert_eq!(rank, 0);
    assert!(killed.is_empty());
}

/// A child that crashes before joining must not hang the parent at
/// rendezvous: the accept loop's deadline converts the missing
/// connection into a typed [`proc::SpmdError::Rendezvous`].
#[test]
fn crashing_child_turns_rendezvous_into_a_typed_error() {
    // The child role crashes before ever dialing the parent; detect it
    // *before* try_spmd so the parent's accept loop sees nothing.
    if proc::child_rank().is_some() {
        std::process::exit(7);
    }
    // Keep the wait short: the deadline under test.
    std::env::set_var("BEATNIK_HANDSHAKE_TIMEOUT_MS", "1500");
    let out = proc::try_spmd(
        2,
        TransportKind::Tcp,
        &reexec_args("crashing_child_turns_rendezvous_into_a_typed_error"),
        None,
        |comm| comm.rank(),
    );
    std::env::remove_var("BEATNIK_HANDSHAKE_TIMEOUT_MS");
    match out {
        Err(proc::SpmdError::Rendezvous { detail }) => {
            assert!(
                detail.contains("rendezvous timed out"),
                "unexpected detail: {detail}"
            );
        }
        Ok(_) => panic!("rendezvous succeeded despite a crashed child"),
        #[allow(unreachable_patterns)]
        Err(e) => panic!("wrong error: {e}"),
    }
}

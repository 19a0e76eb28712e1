//! Numerical parity across process boundaries: the same deck run on
//! two thread-ranks in one process and on two OS processes over the
//! shared-memory transport must produce the same physics — every
//! diagnostic matches to 1e-8. This is the end-to-end proof that wire
//! serialization, mailbox routing, and collective algorithms are
//! transparent to the solver.
#![cfg(unix)]

use beatnik_comm::{proc, TransportKind, World};
use beatnik_rocketrig::{run_rig, RigConfig};

fn small_cfg() -> RigConfig {
    RigConfig {
        mesh_n: 16,
        steps: 3,
        ..RigConfig::default()
    }
}

#[test]
fn two_process_shmem_run_matches_single_process() {
    // Children re-enter here and are consumed by spmd before the
    // single-process reference would run.
    let run_spmd = || {
        let cfg = small_cfg();
        proc::spmd(
            2,
            TransportKind::Shmem,
            &[
                "two_process_shmem_run_matches_single_process",
                "--exact",
                "--nocapture",
                "--test-threads=1",
                // Without it a child prints `test <name> ... ` and exits before
                // its result, splicing that fragment into the parent's line.
                "--quiet",
            ],
            move |comm| run_rig(&comm, &cfg),
        )
    };
    if proc::child_rank().is_some() {
        run_spmd();
        unreachable!("spmd exits the process in a child rank");
    }

    let cfg = small_cfg();
    let reference = World::builder(2)
        .run(move |comm| run_rig(&comm, &cfg))
        .into_iter()
        .next()
        .expect("rank 0 log");

    let (log, killed) = run_spmd();
    assert!(killed.is_empty());

    assert_eq!(log.steps.len(), reference.steps.len());
    for (a, b) in log.steps.iter().zip(&reference.steps) {
        assert_eq!(a.step, b.step);
        assert!((a.time - b.time).abs() < 1e-8, "time diverged at step {}", a.step);
        for (name, x, y) in [
            ("amplitude", a.diagnostics.amplitude, b.diagnostics.amplitude),
            ("z_min", a.diagnostics.z_min, b.diagnostics.z_min),
            ("z_max", a.diagnostics.z_max, b.diagnostics.z_max),
            ("enstrophy", a.diagnostics.enstrophy, b.diagnostics.enstrophy),
        ] {
            assert!(
                (x - y).abs() < 1e-8,
                "{name} diverged at step {}: {x} vs {y}",
                a.step
            );
        }
    }
}

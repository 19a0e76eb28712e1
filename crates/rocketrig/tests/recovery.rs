//! End-to-end fault recovery: a rocketrig run that loses a rank
//! mid-flight must relaunch on the survivors from the last checkpoint
//! and finish — with physics matching a fault-free run of the same deck.

use beatnik_comm::{FaultPlan, World};
use beatnik_io::stats::RunLog;
use beatnik_rocketrig::{run_rig, run_rig_ft, FtRun, Relaunch, RigConfig, FT_RECV_TIMEOUT};

/// Rank-count-sensitive reduction orders (the distributed FFT sums in a
/// different order on 3 ranks than on 4) bound how closely the recovered
/// run can match the reference; everything above this is a real
/// divergence (wrong restore step, stale state, lost vorticity).
const TOL: f64 = 1e-8;

fn config(dir: &std::path::Path) -> RigConfig {
    let mut cfg = RigConfig {
        mesh_n: 16,
        steps: 8,
        diag_every: 1,
        out_dir: dir.to_path_buf(),
        ..RigConfig::default()
    };
    cfg.params.dt = 1e-3;
    cfg
}

/// The fault-free reference on the full 4-rank world.
fn clean_run(dir: &std::path::Path) -> RunLog {
    let cfg = config(dir);
    World::builder(4)
        .run(move |comm| run_rig(&comm, &cfg))
        .into_iter()
        .next()
        .expect("reference log")
}

/// `spec` on 4 ranks, checkpointing every 2 steps.
fn faulted_run(dir: &std::path::Path, spec: &str) -> FtRun {
    let ckpt = dir.join("checkpoint.json");
    let _ = std::fs::remove_file(&ckpt);
    let plan = FaultPlan::parse(spec, 0).expect("static plan");
    let world = |ranks| World::builder(ranks).recv_timeout(FT_RECV_TIMEOUT);
    run_rig_ft(world, 4, Some(plan), &config(dir), 2, &ckpt)
}

/// Every step of the faulted run — including the replayed ones — must
/// match the clean reference.
fn assert_matches(recovered: &RunLog, clean: &RunLog) {
    assert_eq!(recovered.steps.len(), clean.steps.len());
    for (got, want) in recovered.steps.iter().zip(&clean.steps) {
        assert_eq!(got.step, want.step);
        let da = (got.diagnostics.amplitude - want.diagnostics.amplitude).abs();
        let de = (got.diagnostics.enstrophy - want.diagnostics.enstrophy).abs();
        assert!(
            da < TOL && de < TOL,
            "step {}: recovered diverged from clean run \
             (amplitude Δ={da:.3e}, enstrophy Δ={de:.3e})",
            got.step
        );
    }
}

#[test]
fn killed_run_recovers_from_checkpoint_and_matches_clean_run() {
    let dir = std::env::temp_dir().join("beatnik_recovery_test");
    std::fs::create_dir_all(&dir).unwrap();
    let clean = clean_run(&dir);

    // Rank 2 dies at the start of step 5. The world ends, and the
    // driver relaunches the 3 survivors from the step-4 checkpoint to
    // replay steps 5..8.
    let run = faulted_run(&dir, "kill:r2@step5");
    assert_eq!(run.killed, [2], "the kill must land");
    assert_eq!(run.relaunches, [Relaunch { ranks: 3, from_step: 4 }]);
    assert_matches(&run.log, &clean);
}

/// A fired action does not fire again after a relaunch: rank 0's delay
/// fires in the first world and in neither relaunch, and the step-5
/// kill goes with its rank. The second world restores from step 4, runs
/// step 5 again, and carries only the step-7 kill — now aimed at rank 1
/// of the 3 survivors, the same rank. The run finishes on 2 ranks.
#[test]
fn each_action_fires_once_across_relaunches() {
    let dir = std::env::temp_dir().join("beatnik_recovery_twice_test");
    std::fs::create_dir_all(&dir).unwrap();
    let clean = clean_run(&dir);

    let run = faulted_run(&dir, "kill:r2@step5,kill:r1@step7,delay:r0@op3:1ms");
    assert_eq!(run.killed, [1, 2]);
    assert_eq!(
        run.relaunches,
        [Relaunch { ranks: 3, from_step: 4 }, Relaunch { ranks: 2, from_step: 6 }]
    );
    let fired: Vec<_> = run.fault_events.iter().map(|e| (e.kind, e.rank, e.step)).collect();
    assert_eq!(fired, [("delay", 0, None), ("kill", 1, Some(7)), ("kill", 2, Some(5))]);
    assert_eq!(run.trace.num_ranks(), 2, "the last world ran on 2 ranks");
    assert_matches(&run.log, &clean);
}

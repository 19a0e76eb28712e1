//! Wire-level chaos: a rocketrig run over TCP with a seeded `@link`
//! fault plan — frames held back on both directions of the link — must
//! produce physics identical to a fault-free run. A delayed frame
//! arrives late but whole and in order; the driver never sees a fault.
#![cfg(unix)]

use std::sync::{Mutex, MutexGuard};

use beatnik_comm::{proc, FaultPlan, TransportKind, World};
use beatnik_rocketrig::{run_rig, RigConfig, FT_RECV_TIMEOUT};

/// Two ranks both ways, so the distributed-FFT reduction order matches
/// and any divergence above this is a real wire-level fault that
/// leaked through (lost, reordered or mangled frame).
const TOL: f64 = 1e-8;

/// Delays on both lanes, long enough that the peer waits on them.
const CHAOS: &str = "delay:r0>r1@link3:5ms,delay:r1>r0@link5:5ms,\
                     delay:r0>r1@link7:2ms,delay:r1>r0@link9:20ms";

/// The two tests run one at a time. The re-executed child shares the
/// harness's stdout and leaves its libtest `test … ` header unterminated
/// when it exits; run alone, that header can only precede the result
/// line of the test that spawned it, never split the other test's.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn config() -> RigConfig {
    let mut cfg = RigConfig {
        mesh_n: 16,
        steps: 8,
        diag_every: 1,
        out_dir: std::env::temp_dir().join("beatnik_chaos_test"),
        ..RigConfig::default()
    };
    cfg.params.dt = 1e-3;
    cfg
}

fn assert_logs_match(
    got: &beatnik_io::stats::RunLog,
    want: &beatnik_io::stats::RunLog,
    label: &str,
) {
    assert_eq!(got.steps.len(), want.steps.len(), "{label}: step count");
    for (g, w) in got.steps.iter().zip(&want.steps) {
        assert_eq!(g.step, w.step);
        let da = (g.diagnostics.amplitude - w.diagnostics.amplitude).abs();
        let de = (g.diagnostics.enstrophy - w.diagnostics.enstrophy).abs();
        assert!(
            da < TOL && de < TOL,
            "{label}: step {} diverged under wire chaos \
             (amplitude Δ={da:.3e}, enstrophy Δ={de:.3e})",
            g.step
        );
    }
}

#[test]
fn wire_chaos_over_tcp_loopback_matches_the_clean_run() {
    let _serial = serial();
    // Fault-free reference over the same TCP loopback mesh.
    let cfg = config();
    let clean = World::builder(2)
        .transport(TransportKind::Tcp)
        .run(move |comm| run_rig(&comm, &cfg))
        .into_iter()
        .next()
        .expect("reference log");

    // Same deck under seeded wire chaos.
    let plan = FaultPlan::parse(CHAOS, 0xC4A05).expect("static plan");
    assert!(plan.link_only());
    let cfg = config();
    let report = World::builder(2)
        .transport(TransportKind::Tcp)
        .recv_timeout(FT_RECV_TIMEOUT)
        .fault_plan(&plan)
        .run_ft(move |comm| run_rig(&comm, &cfg));

    assert!(report.killed.is_empty(), "link chaos kills no ranks");
    let fired: Vec<(usize, u64)> = report.fault_events.iter().map(|e| (e.rank, e.op_index)).collect();
    assert_eq!(fired, [(0, 3), (0, 7), (1, 5), (1, 9)], "every plan action fires once");

    let chaotic = report
        .results
        .into_iter()
        .flatten()
        .next()
        .expect("chaotic run log");
    assert_logs_match(&chaotic, &clean, "tcp loopback");
}

/// The acceptance run: two real OS processes over TCP, the same chaos
/// plan shipped to the child through the environment, and the physics
/// still matching a clean in-process run bit-for-bit (to tolerance).
#[test]
fn wire_chaos_survives_two_real_processes() {
    let _serial = serial();
    // Children re-enter here and exit inside `spmd_with`; keep the
    // expensive reference run on the parent-only path below.
    let plan = FaultPlan::parse(CHAOS, 0xC4A05).expect("static plan");
    let cfg = config();
    let args = [
        "wire_chaos_survives_two_real_processes",
        "--exact",
        "--nocapture",
        "--test-threads=1",
        // Without it a child prints `test <name> ... ` and exits before
        // its result, splicing that fragment into the parent's line.
        "--quiet",
    ];
    let (log, killed) =
        proc::spmd_with(2, TransportKind::Tcp, &args, Some(&plan), move |comm| run_rig(&comm, &cfg));
    assert!(killed.is_empty(), "link chaos kills no ranks: {killed:?}");

    let cfg = config();
    let clean = World::builder(2)
        .run(move |comm| run_rig(&comm, &cfg))
        .into_iter()
        .next()
        .expect("reference log");
    assert_logs_match(&log, &clean, "two processes");
}

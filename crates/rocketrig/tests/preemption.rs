//! Preemption correctness: a job that is checkpointed mid-flight and
//! resumed — even on a *smaller* gang — must land on the same physics
//! as an uninterrupted run, to 1e-8.

use beatnik_comm::telemetry::metrics::MetricsRegistry;
use beatnik_rocketrig::RigRunner;
use beatnik_serve::{
    JobContext, JobOutcome, JobRunner, JobSpec, JobState, Scheduler, SchedulerConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOL: f64 = 1e-8;

fn spec(name: &str, steps: usize, ranks: usize) -> JobSpec {
    JobSpec {
        name: name.into(),
        mesh_n: 16,
        steps,
        ranks,
        min_ranks: 1,
        ..JobSpec::default()
    }
}

fn assert_close(name: &str, got: f64, want: f64) {
    let limit = TOL + TOL * want.abs();
    assert!(
        (got - want).abs() <= limit,
        "{name} diverged after preemption: {got:e} vs {want:e} (|diff| {:e} > {limit:e})",
        (got - want).abs()
    );
}

fn completed(outcome: JobOutcome) -> (f64, f64) {
    match outcome {
        JobOutcome::Completed {
            amplitude,
            enstrophy,
            ..
        } => (amplitude, enstrophy),
        other => panic!("expected completion, got {other:?}"),
    }
}

/// Runner-level: preempt a 4-rank job mid-run (after its first cadence
/// checkpoint lands), resume it on 2 ranks, and compare against an
/// uninterrupted 4-rank run.
#[test]
fn preempted_job_resumed_on_fewer_ranks_matches_uninterrupted_run() {
    let dir = std::env::temp_dir().join("beatnik-preempt-runner");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("job.ckpt.json");

    let mut preempt_spec = spec("victim", 60, 4);
    preempt_spec.checkpoint_every = 2;

    // Epoch 1 on 4 ranks: a watcher flips the preempt flag as soon as
    // the first cadence checkpoint appears on disk, so the yield lands
    // mid-run (step >= 2) with ~58 steps still to go.
    let ctx = JobContext::standalone(preempt_spec.clone(), 4, ckpt.clone());
    let flag = ctx.preempt.clone();
    let watcher = {
        let ckpt = ckpt.clone();
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(60);
            while !ckpt.exists() {
                assert!(Instant::now() < deadline, "no cadence checkpoint appeared");
                std::thread::sleep(Duration::from_millis(1));
            }
            flag.store(true, std::sync::atomic::Ordering::Relaxed);
        })
    };
    let outcome = RigRunner::new().run(&ctx).expect("epoch 1 failed");
    watcher.join().unwrap();
    let at_step = match outcome {
        JobOutcome::Preempted { at_step, .. } => at_step,
        other => panic!("job was not preempted (finished too fast?): {other:?}"),
    };
    assert!(
        (1..60).contains(&at_step),
        "yield should land mid-run, got step {at_step}"
    );
    assert!(ckpt.exists(), "yield must leave a checkpoint behind");

    // Epoch 2: resume the same job on HALF the gang.
    let mut ctx = JobContext::standalone(preempt_spec, 2, ckpt);
    ctx.resume = true;
    let (amp, ens) = completed(RigRunner::new().run(&ctx).expect("resume failed"));

    // Reference: same spec straight through on 4 ranks.
    let ref_ctx = JobContext::standalone(spec("ref", 60, 4), 4, dir.join("ref.ckpt.json"));
    let (ref_amp, ref_ens) = completed(RigRunner::new().run(&ref_ctx).expect("reference failed"));

    assert_close("amplitude", amp, ref_amp);
    assert_close("enstrophy", ens, ref_ens);
}

/// Scheduler-level: a priority-9 gang the width of the pool preempts a
/// running priority-0 job; the victim resumes and still matches the
/// uninterrupted reference.
#[test]
fn scheduler_preempts_and_resumed_victim_matches_reference() {
    let dir = std::env::temp_dir().join("beatnik-preempt-sched");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SchedulerConfig {
        pool_ranks: 4,
        ckpt_dir: dir.clone(),
        ..SchedulerConfig::default()
    };
    let scheduler = Scheduler::new(
        cfg,
        Arc::new(MetricsRegistry::new()),
        Arc::new(RigRunner::new()),
    );

    let mut victim_spec = spec("victim", 40, 4);
    victim_spec.priority = 0;
    victim_spec.min_ranks = 2;
    let victim = scheduler.submit(victim_spec.clone()).expect("submit victim");

    // Wait until the victim holds the pool.
    let deadline = Instant::now() + Duration::from_secs(60);
    while scheduler.job(victim).unwrap().state != JobState::Running {
        assert!(Instant::now() < deadline, "victim never started");
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut hp = spec("preemptor", 4, 4);
    hp.priority = 9;
    let preemptor = scheduler.submit(hp).expect("submit preemptor");

    assert!(
        scheduler.wait_idle(Duration::from_secs(120)),
        "jobs did not drain"
    );
    let p = scheduler.job(preemptor).unwrap();
    assert_eq!(p.state, JobState::Completed, "preemptor: {:?}", p.error);
    let v = scheduler.job(victim).unwrap();
    assert_eq!(v.state, JobState::Completed, "victim: {:?}", v.error);
    assert!(v.preemptions >= 1, "victim was never preempted");
    assert!(
        v.ranks_history.len() >= 2,
        "victim should have been granted ranks more than once: {:?}",
        v.ranks_history
    );

    let result = v.result.expect("victim has no result");
    let ref_ctx = JobContext::standalone(victim_spec, 4, dir.join("ref.ckpt.json"));
    let (ref_amp, ref_ens) = completed(RigRunner::new().run(&ref_ctx).expect("reference failed"));
    assert_close("amplitude", result.amplitude, ref_amp);
    assert_close("enstrophy", result.enstrophy, ref_ens);
}

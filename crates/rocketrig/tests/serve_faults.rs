//! Fault-plan jobs in the service: a job whose gang dies is requeued
//! from its checkpoint with the unfired rest of its plan, and a
//! fault-plan job is preempted and resumed like any other.

use beatnik_comm::telemetry::metrics::MetricsRegistry;
use beatnik_rocketrig::RigRunner;
use beatnik_serve::{JobContext, JobOutcome, JobRunner, JobSpec, JobState, Scheduler, SchedulerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOL: f64 = 1e-8;

fn spec(name: &str, steps: usize, ranks: usize) -> JobSpec {
    JobSpec {
        name: name.into(),
        mesh_n: 16,
        steps,
        ranks,
        ..JobSpec::default()
    }
}

fn scheduler(dir: &std::path::Path, pool_ranks: usize) -> Scheduler {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = SchedulerConfig {
        pool_ranks,
        ckpt_dir: dir.to_path_buf(),
        ..SchedulerConfig::default()
    };
    Scheduler::new(cfg, Arc::new(MetricsRegistry::new()), Arc::new(RigRunner::new()))
}

/// The final diagnostics of `spec` run straight through, without faults.
fn reference(spec: &JobSpec, dir: &std::path::Path) -> (f64, f64) {
    let clean = JobSpec {
        faults: None,
        ..spec.clone()
    };
    let ctx = JobContext::standalone(clean, spec.ranks, dir.join("ref.ckpt.json"));
    match RigRunner::new().run(&ctx).expect("reference failed") {
        JobOutcome::Completed {
            amplitude,
            enstrophy,
            ..
        } => (amplitude, enstrophy),
        other => panic!("expected completion, got {other:?}"),
    }
}

fn assert_close(name: &str, got: f64, want: f64) {
    assert!((got - want).abs() <= TOL, "{name}: {got:e} vs {want:e}");
}

/// Rank 1 dies at the start of step 3. The gang dies, the job is
/// requeued once, resumes from the step-2 checkpoint without the kill
/// it already fired, and lands on the clean job's physics.
#[test]
fn a_killed_job_is_requeued_once_and_matches_a_clean_job() {
    let dir = std::env::temp_dir().join("beatnik-serve-fault-kill");
    let scheduler = scheduler(&dir, 2);
    let job = JobSpec {
        faults: Some("kill:r1@step3".into()),
        checkpoint_every: 2,
        ..spec("killed", 6, 2)
    };
    let id = scheduler.submit(job.clone()).expect("submit");
    assert!(scheduler.wait_idle(Duration::from_secs(120)), "job did not drain");

    let rec = scheduler.job(id).unwrap();
    assert_eq!(rec.state, JobState::Completed, "{:?}", rec.error);
    assert_eq!(rec.recoveries, 1, "{rec:?}");
    assert_eq!(rec.spec.faults, None, "the kill fired and is spent");
    let result = rec.result.expect("completed job has a result");
    let (amp, ens) = reference(&job, &dir);
    assert_close("amplitude", result.amplitude, amp);
    assert_close("enstrophy", result.enstrophy, ens);
}

/// A priority-9 gang the width of the pool preempts a running
/// fault-plan job, which resumes and still matches the clean job.
#[test]
fn a_fault_plan_job_is_preempted_and_resumed() {
    let dir = std::env::temp_dir().join("beatnik-serve-fault-preempt");
    let scheduler = scheduler(&dir, 2);
    let victim_spec = JobSpec {
        priority: 0,
        faults: Some("delay:r1@op2:1ms".into()),
        ..spec("victim", 40, 2)
    };
    let victim = scheduler.submit(victim_spec.clone()).expect("submit victim");
    let deadline = Instant::now() + Duration::from_secs(60);
    while scheduler.job(victim).unwrap().state != JobState::Running {
        assert!(Instant::now() < deadline, "victim never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    let preemptor = scheduler
        .submit(JobSpec {
            priority: 9,
            min_ranks: 2,
            ..spec("preemptor", 4, 2)
        })
        .expect("submit preemptor");
    assert!(scheduler.wait_idle(Duration::from_secs(120)), "jobs did not drain");

    assert_eq!(scheduler.job(preemptor).unwrap().state, JobState::Completed);
    let v = scheduler.job(victim).unwrap();
    assert_eq!(v.state, JobState::Completed, "{:?}", v.error);
    assert!(v.preemptions >= 1, "the fault-plan job was never preempted: {v:?}");
    let result = v.result.expect("completed job has a result");
    let (amp, ens) = reference(&victim_spec, &dir);
    assert_close("amplitude", result.amplitude, amp);
    assert_close("enstrophy", result.enstrophy, ens);
}

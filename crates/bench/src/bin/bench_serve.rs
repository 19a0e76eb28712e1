//! Multi-tenant service benchmark emitting `BENCH_serve.json`.
//!
//! Boots an in-process `beatnik-serve` instance on a loopback port with
//! an 8-rank pool and drives it entirely through its HTTP surface, the
//! way a real tenant would. Two phases:
//!
//! 1. **Preemption correctness** — a low-priority job wide enough to
//!    own the whole pool is preempted mid-flight by a priority-9 job,
//!    then resumed from its checkpoint. Its final diagnostics must
//!    match an uninterrupted run of the same spec to 1e-8, and at least
//!    one preemption must actually have happened — the bench aborts
//!    otherwise, so the number in the JSON is never from a run where
//!    the scheduler silently stopped preempting.
//!
//! 2. **Mixed tenancy** — a seeded mix of ~200 jobs (coarse meshes, a
//!    few steps each, gangs of 1-4 ranks, priorities 0-9, scattered
//!    deadlines) submitted closed-loop from 8 tenants. Every accepted
//!    job must reach `completed`; the bench records service throughput,
//!    p50/p99 end-to-end latency, and mean queue wait, plus a Jain
//!    fairness index over per-job slowdowns in the summary.
//!
//! 3. **Dead-gang recovery** — a job whose fault plan kills one of its
//!    ranks mid-run must be requeued from its checkpoint and finished,
//!    with bystander jobs unharmed and zero jobs lost. The recorded number is the dead
//!    job's submit→completed wall time, dominated by detection plus
//!    the re-run epoch.
//!
//! Usage: `bench_serve [output.json]` (default `BENCH_serve.json`).

use beatnik_comm::telemetry::metrics::MetricsRegistry;
use beatnik_json::Value;
use beatnik_prng::Rng;
use beatnik_rocketrig::RigRunner;
use beatnik_serve::http::{request, stream_request};
use beatnik_serve::{serve, JobContext, JobOutcome, JobRunner, Scheduler, SchedulerConfig, JobSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const POOL_RANKS: usize = 8;
const TOTAL_JOBS: usize = 200;
const TENANTS: usize = 8;
const SEED: u64 = 41;
const TOL: f64 = 1e-8;

/// Generous drain limit: the whole mix is a few seconds of sim work,
/// but CI hosts oversubscribe the pool's thread-ranks.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(300);

struct Row {
    metric: &'static str,
    ns: f64,
}

fn get_json(addr: &str, path: &str) -> Value {
    let (code, body) = request(addr, "GET", path, None)
        .unwrap_or_else(|e| panic!("GET {path}: {e}"));
    assert_eq!(code, 200, "GET {path} returned {code}: {body}");
    beatnik_json::parse(&body).unwrap_or_else(|e| panic!("GET {path} body: {e:?}"))
}

fn post_job(addr: &str, body: &str) -> u64 {
    let (code, resp) =
        request(addr, "POST", "/jobs", Some(body)).expect("POST /jobs");
    assert_eq!(code, 201, "POST /jobs returned {code}: {resp}");
    beatnik_json::parse(&resp)
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_u64))
        .expect("POST /jobs response has no id")
}

/// Block until the job reaches `state`, or any terminal state when
/// waiting for a terminal one.
fn wait_state(addr: &str, id: u64, want: &str, timeout: Duration) -> Value {
    let deadline = Instant::now() + timeout;
    loop {
        let detail = get_json(addr, &format!("/jobs/{id}"));
        let state = detail
            .get("state")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        if state == want {
            return detail;
        }
        assert!(
            !matches!(state.as_str(), "completed" | "failed" | "canceled"),
            "job {id} reached terminal state {state:?} while waiting for {want:?}"
        );
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {state:?} waiting for {want:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Phase 3: dead-gang recovery through the full HTTP surface. A job's
/// gang dies mid-service; the scheduler must reclaim the ranks, requeue
/// the job, and finish it — with bystander jobs unharmed and zero jobs
/// lost. Returns the dead job's submit→completed wall time.
fn dead_gang_demo(scratch: &std::path::Path) -> f64 {
    let cfg = SchedulerConfig {
        pool_ranks: POOL_RANKS,
        ckpt_dir: scratch.join("ckpt-dead-gang"),
        ..SchedulerConfig::default()
    };
    let scheduler = Arc::new(Scheduler::new(
        cfg,
        Arc::new(MetricsRegistry::new()),
        Arc::new(RigRunner::new()),
    ));
    let handle = serve("127.0.0.1:0", scheduler).expect("cannot bind loopback");
    let addr = handle.addr().to_string();

    let start = Instant::now();
    let phoenix = post_job(
        &addr,
        r#"{"name":"phoenix","order":"low","mesh_n":16,"steps":8,"ranks":2,"priority":5,
            "faults":"kill:r1@step3","checkpoint_every":2}"#,
    );
    let bystanders: Vec<u64> = (0..3)
        .map(|i| {
            post_job(
                &addr,
                &format!(
                    r#"{{"name":"bystander-{i}","order":"low","mesh_n":16,"steps":4,"ranks":2,"priority":3}}"#
                ),
            )
        })
        .collect();
    let detail = wait_state(&addr, phoenix, "completed", Duration::from_secs(120));
    let ns = start.elapsed().as_nanos() as f64;
    let recoveries = detail
        .get("recoveries")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(
        recoveries >= 1,
        "the gang never died — the demo proves nothing"
    );
    for id in bystanders {
        wait_state(&addr, id, "completed", Duration::from_secs(120));
    }
    handle.shutdown();
    ns
}

/// Phase 4: deadline accounting through the live event stream. A
/// multi-ms job with an impossible 1 ms deadline and a small job with
/// a comfortable 60 s deadline run on a fresh instance: the service's
/// miss counter must read exactly 1, the margin histogram must cover
/// both jobs, and each job's final streamed event record must carry
/// its signed margin — the bench aborts otherwise. Returns
/// (overrun ns, slack ns): how far past its deadline the late job
/// landed, and how much slack the on-time job had left.
fn deadline_demo(scratch: &std::path::Path) -> (f64, f64) {
    let cfg = SchedulerConfig {
        pool_ranks: POOL_RANKS,
        ckpt_dir: scratch.join("ckpt-deadline"),
        ..SchedulerConfig::default()
    };
    let scheduler = Arc::new(Scheduler::new(
        cfg,
        Arc::new(MetricsRegistry::new()),
        Arc::new(RigRunner::new()),
    ));
    let handle = serve("127.0.0.1:0", scheduler).expect("cannot bind loopback");
    let addr = handle.addr().to_string();

    // Enough mesh and steps that the run takes well over a millisecond
    // on any hardware — a tiny job can legitimately beat a 1 ms
    // deadline, which would invert the demo.
    let late = post_job(
        &addr,
        r#"{"name":"late","order":"low","mesh_n":32,"steps":16,"ranks":2,"deadline_ms":1}"#,
    );
    let ontime = post_job(
        &addr,
        r#"{"name":"ontime","order":"low","mesh_n":16,"steps":4,"ranks":1,"deadline_ms":60000}"#,
    );
    wait_state(&addr, late, "completed", Duration::from_secs(120));
    wait_state(&addr, ontime, "completed", Duration::from_secs(120));

    let (code, metrics) = request(&addr, "GET", "/metrics", None).expect("GET /metrics");
    assert_eq!(code, 200);
    assert!(
        metrics.contains("beatnik_serve_jobs_deadline_missed_total 1"),
        "exactly one deadline miss expected:\n{metrics}"
    );
    assert!(
        metrics.contains("beatnik_serve_job_deadline_margin_ms"),
        "margin histogram absent:\n{metrics}"
    );

    let final_margin_ms = |id: u64| {
        let (code, lines) = stream_request(
            &addr,
            &format!("/jobs/{id}/events"),
            Duration::from_secs(30),
            |_| true,
        )
        .expect("stream events");
        assert_eq!(code, 200);
        let last = lines.last().expect("job published no events");
        beatnik_json::parse(last)
            .ok()
            .and_then(|v| v.get("deadline_margin_ms").and_then(Value::as_i64))
            .unwrap_or_else(|| panic!("final event record has no margin: {last}"))
    };
    let overrun_ms = -final_margin_ms(late);
    let slack_ms = final_margin_ms(ontime);
    assert!(overrun_ms > 0, "the 1 ms deadline was somehow met");
    assert!(slack_ms > 0, "the 60 s deadline was somehow missed");
    handle.shutdown();
    (overrun_ms as f64 * 1e6, slack_ms as f64 * 1e6)
}

/// Phase 1: demonstrate a preemption and check bit-level (1e-8)
/// agreement with an uninterrupted run. Returns the victim's preemption
/// count (>= 1, asserted).
fn preemption_demo(addr: &str, scratch: &std::path::Path) -> u64 {
    // Wide enough to own the whole pool, long enough that the
    // preemptor's arrival lands between step boundaries.
    let victim_body = r#"{"name":"victim","order":"low","mesh_n":32,"steps":20,
        "ranks":8,"min_ranks":2,"priority":0}"#;
    let victim = post_job(addr, victim_body);
    wait_state(addr, victim, "running", Duration::from_secs(60));

    let preemptor = post_job(
        addr,
        r#"{"name":"preemptor","order":"low","mesh_n":16,"steps":4,"ranks":8,"priority":9}"#,
    );
    let p = wait_state(addr, preemptor, "completed", Duration::from_secs(120));
    let v = wait_state(addr, victim, "completed", Duration::from_secs(120));

    let preemptions = v.get("preemptions").and_then(Value::as_u64).unwrap_or(0);
    assert!(
        preemptions >= 1,
        "victim was never preempted — the demo proves nothing"
    );
    // The preemptor must not have waited for the victim's full run.
    let p_wait = p
        .get("timeline")
        .and_then(|t| t.get("queue_wait_ms"))
        .and_then(Value::as_u64)
        .unwrap_or(u64::MAX);
    eprintln!(
        "preemption demo: victim preempted {preemptions}x, preemptor queue wait {p_wait} ms"
    );

    // Reference: the same spec, uninterrupted, straight through the
    // runner (no scheduler in the loop).
    let spec = JobSpec {
        name: "victim-ref".into(),
        mesh_n: 32,
        steps: 20,
        ranks: 8,
        min_ranks: 2,
        ..JobSpec::default()
    };
    let ctx = JobContext::standalone(spec, POOL_RANKS, scratch.join("ref.ckpt.json"));
    let outcome = RigRunner::new().run(&ctx).expect("reference run failed");
    let (ref_amp, ref_ens) = match outcome {
        JobOutcome::Completed {
            amplitude,
            enstrophy,
            ..
        } => (amplitude, enstrophy),
        other => panic!("reference run did not complete: {other:?}"),
    };

    let result = v.get("result").expect("victim has no result");
    let amp = result.get("amplitude").and_then(Value::as_f64).unwrap();
    let ens = result.get("enstrophy").and_then(Value::as_f64).unwrap();
    for (name, got, want) in [("amplitude", amp, ref_amp), ("enstrophy", ens, ref_ens)] {
        let limit = TOL + TOL * want.abs();
        assert!(
            (got - want).abs() <= limit,
            "preempted run diverged: {name} {got:e} vs uninterrupted {want:e} \
             (|diff| {:e} > {limit:e})",
            (got - want).abs()
        );
    }
    eprintln!(
        "preemption demo: diagnostics match uninterrupted run \
         (amplitude {amp:.12e}, enstrophy {ens:.12e})"
    );
    preemptions
}

/// One tenant job from the seeded mix — same shape as loadgen's, kept
/// small so 200 of them drain in seconds.
fn mix_body(rng: &mut Rng, i: usize) -> String {
    let mesh = [12usize, 16, 24][rng.gen_index(0..3)];
    let steps = rng.gen_index(2..7);
    let ranks = rng.gen_index(1..5);
    let priority = rng.gen_index(0..10);
    let deadline = if rng.gen_bool() {
        format!(",\"deadline_ms\":{}", 5_000 + rng.gen_index(0..8) * 1_000)
    } else {
        String::new()
    };
    format!(
        "{{\"name\":\"mix-{i}\",\"order\":\"low\",\"mesh_n\":{mesh},\"steps\":{steps},\
         \"ranks\":{ranks},\"priority\":{priority}{deadline}}}"
    )
}

/// Per-job numbers pulled back out of `GET /jobs/{id}` once terminal.
struct JobStats {
    latency_ms: u64,
    queue_wait_ms: u64,
    run_ms: u64,
    preemptions: u64,
    completed: bool,
}

fn job_stats(addr: &str, id: u64) -> JobStats {
    let d = get_json(addr, &format!("/jobs/{id}"));
    let t = d.get("timeline").expect("detail has timeline");
    let u = |v: Option<&Value>| v.and_then(Value::as_u64).unwrap_or(0);
    JobStats {
        latency_ms: u(t.get("latency_ms")),
        queue_wait_ms: u(t.get("queue_wait_ms")),
        run_ms: u(t.get("run_ms")),
        preemptions: u(d.get("preemptions")),
        completed: d.get("state").and_then(Value::as_str) == Some("completed"),
    }
}

/// Jain's fairness index over per-job slowdowns (end-to-end latency
/// relative to pure run time): `(Σx)² / (n·Σx²)`, 1.0 = perfectly fair.
fn jain_index(stats: &[JobStats]) -> f64 {
    let x: Vec<f64> = stats
        .iter()
        .map(|s| s.latency_ms as f64 / (s.run_ms.max(1) as f64))
        .collect();
    let sum: f64 = x.iter().sum();
    let sq: f64 = x.iter().map(|v| v * v).sum();
    if sq == 0.0 {
        1.0
    } else {
        sum * sum / (x.len() as f64 * sq)
    }
}

fn percentile_ns(sorted_ms: &[u64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx] as f64 * 1e6
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".into());
    let scratch = std::env::temp_dir().join("beatnik_bench_serve");
    std::fs::create_dir_all(&scratch).expect("cannot create scratch dir");

    let cfg = SchedulerConfig {
        pool_ranks: POOL_RANKS,
        ckpt_dir: scratch.join("ckpt"),
        ..SchedulerConfig::default()
    };
    let scheduler = Arc::new(Scheduler::new(
        cfg,
        Arc::new(MetricsRegistry::new()),
        Arc::new(RigRunner::new()),
    ));
    let handle = serve("127.0.0.1:0", scheduler).expect("cannot bind loopback");
    let addr = handle.addr().to_string();
    eprintln!("bench_serve: service on {addr}, pool {POOL_RANKS} ranks");

    let demo_preemptions = preemption_demo(&addr, &scratch);

    // Phase 2: the seeded mix, submitted closed-loop from TENANTS
    // threads. The demo's two jobs count toward the total.
    let mix_jobs = TOTAL_JOBS - 2;
    let ids = Mutex::new(Vec::with_capacity(mix_jobs));
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..TENANTS {
            let (ids, next, addr) = (&ids, &next, addr.as_str());
            let mut rng = Rng::seed_from_u64(SEED ^ (w as u64).wrapping_mul(0x9e37_79b9));
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= mix_jobs {
                    return;
                }
                let id = post_job(addr, &mix_body(&mut rng, i));
                ids.lock().unwrap().push(id);
            });
        }
    });
    let ids = ids.into_inner().unwrap();
    assert_eq!(ids.len(), mix_jobs, "a submission was lost");

    // Drain: every accepted job must land in a terminal state.
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    loop {
        let doc = get_json(&addr, "/jobs");
        let jobs = match doc.get("jobs") {
            Some(Value::Array(jobs)) => jobs,
            _ => panic!("GET /jobs has no jobs array"),
        };
        let terminal = jobs
            .iter()
            .filter(|j| {
                matches!(
                    j.get("state").and_then(Value::as_str),
                    Some("completed" | "failed" | "canceled")
                )
            })
            .count();
        if terminal == TOTAL_JOBS {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "drain timed out with {} of {TOTAL_JOBS} jobs terminal",
            terminal
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let wall_ns = start.elapsed().as_nanos() as f64;

    let stats: Vec<JobStats> = ids.iter().map(|&id| job_stats(&addr, id)).collect();
    let lost = stats.iter().filter(|s| !s.completed).count();
    assert_eq!(lost, 0, "{lost} mixed jobs did not complete");

    let mut latencies: Vec<u64> = stats.iter().map(|s| s.latency_ms).collect();
    latencies.sort_unstable();
    let mean_wait_ns = stats
        .iter()
        .map(|s| s.queue_wait_ms as f64 * 1e6)
        .sum::<f64>()
        / stats.len() as f64;
    let mix_preemptions: u64 = stats.iter().map(|s| s.preemptions).sum();
    let jain = jain_index(&stats);

    // Phase 3: a gang dies mid-service on its own instance; the job
    // must be requeued and finished with nothing lost.
    let dead_gang_ns = dead_gang_demo(&scratch);

    // Phase 4: deadline-miss accounting, checked through /metrics and
    // the live event stream on its own instance.
    let (deadline_overrun_ns, deadline_slack_ns) = deadline_demo(&scratch);

    let rows = [
        Row {
            metric: "job_throughput_ns_per_job",
            ns: wall_ns / mix_jobs as f64,
        },
        Row {
            metric: "p50_latency",
            ns: percentile_ns(&latencies, 0.50),
        },
        Row {
            metric: "p99_latency",
            ns: percentile_ns(&latencies, 0.99),
        },
        Row {
            metric: "mean_queue_wait",
            ns: mean_wait_ns,
        },
        Row {
            metric: "dead_gang_recovery",
            ns: dead_gang_ns,
        },
        Row {
            metric: "deadline_miss_overrun",
            ns: deadline_overrun_ns,
        },
        Row {
            metric: "deadline_margin_slack",
            ns: deadline_slack_ns,
        },
    ];
    for r in &rows {
        eprintln!("{:<26} jobs={TOTAL_JOBS} pool={POOL_RANKS} {:>14.0} ns", r.metric, r.ns);
    }
    eprintln!(
        "summary: {} preemptions (demo {demo_preemptions}), jain {jain:.4}, 0 lost",
        demo_preemptions + mix_preemptions
    );

    handle.shutdown();

    let bench_rows: Vec<Value> = rows
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("metric".into(), Value::Str(r.metric.into())),
                ("jobs".into(), Value::UInt(TOTAL_JOBS as u64)),
                ("pool_ranks".into(), Value::UInt(POOL_RANKS as u64)),
                ("ns".into(), Value::Float(r.ns)),
            ])
        })
        .collect();
    let summary = Value::Object(vec![
        (
            "preemptions".into(),
            Value::UInt(demo_preemptions + mix_preemptions),
        ),
        ("jain_fairness".into(), Value::Float(jain)),
        ("lost_jobs".into(), Value::UInt(lost as u64)),
    ]);
    let doc = Value::Object(vec![
        ("benches".into(), Value::Array(bench_rows)),
        ("summary".into(), summary),
    ]);
    std::fs::write(&path, beatnik_json::to_string_pretty(&doc))
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path}");
}

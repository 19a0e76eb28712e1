//! HTTP-surface integration tests: golden admission-error bodies and
//! concurrent metrics scrapes against a live server with a stub runner.

use beatnik_serve::http::request;
use beatnik_serve::{
    serve, JobContext, JobOutcome, JobRunner, Scheduler, SchedulerConfig, ServerHandle,
};
use beatnik_telemetry::metrics::MetricsRegistry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spins for `ms`, honoring cancel/preempt like a cooperative job.
struct SleepRunner {
    ms: u64,
}

impl JobRunner for SleepRunner {
    fn run(&self, ctx: &JobContext) -> Result<JobOutcome, String> {
        let deadline = Instant::now() + Duration::from_millis(self.ms);
        while Instant::now() < deadline {
            if ctx.cancel_requested() {
                return Ok(JobOutcome::Canceled { at_step: 0 });
            }
            if ctx.preempt_requested() {
                return Ok(JobOutcome::Preempted {
                    at_step: 0,
                    faults_left: None,
                });
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(JobOutcome::Completed {
            steps: ctx.spec.steps,
            amplitude: 1.0,
            enstrophy: 1.0,
            critical_path: None,
        })
    }
}

fn start(tag: &str, pool: usize, max_queue: usize, ms: u64) -> ServerHandle {
    let cfg = SchedulerConfig {
        pool_ranks: pool,
        max_queue,
        ckpt_dir: std::env::temp_dir().join(format!("beatnik-serve-http-{tag}")),
        ..SchedulerConfig::default()
    };
    let scheduler = Arc::new(Scheduler::new(
        cfg,
        Arc::new(MetricsRegistry::new()),
        Arc::new(SleepRunner { ms }),
    ));
    serve("127.0.0.1:0", scheduler).expect("bind loopback")
}

fn wait_running(addr: &str, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (code, body) = request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        assert_eq!(code, 200);
        if body.contains("\"state\":\"running\"") {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} never ran: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Admission failures must come back with *exactly* these bodies —
/// tenants parse them, so the strings are API surface.
#[test]
fn post_jobs_validation_errors_are_golden() {
    let handle = start("golden", 2, 8, 10);
    let addr = handle.addr().to_string();

    let cases = [
        (
            r#"{"order":"fast"}"#,
            r#"{"error":"invalid job spec: unknown order 'fast' (low|medium|high)"}"#,
        ),
        (
            r#"{"mesh_n":512}"#,
            r#"{"error":"invalid job spec: mesh_n 512 exceeds limit 256"}"#,
        ),
        (
            r#"{"deck":"vortex"}"#,
            r#"{"error":"invalid job spec: unknown deck 'vortex' (multimode|singlemode)"}"#,
        ),
        (
            r#"{"steps":0}"#,
            r#"{"error":"invalid job spec: steps must be at least 1"}"#,
        ),
        (
            r#"{"ranks":4,"min_ranks":5}"#,
            r#"{"error":"invalid job spec: min_ranks 5 must be in 1..=ranks (4)"}"#,
        ),
        (
            r#"{"priority":12}"#,
            r#"{"error":"invalid job spec: priority 12 exceeds maximum 9"}"#,
        ),
    ];
    for (body, want) in cases {
        let (code, got) = request(&addr, "POST", "/jobs", Some(body)).unwrap();
        assert_eq!(code, 400, "POST {body} => {got}");
        assert_eq!(got, want, "POST {body}");
    }

    // Malformed JSON is a 400 with the parser's message behind the
    // stable prefix (the exact parse diagnostics are not API).
    let (code, got) = request(&addr, "POST", "/jobs", Some("not json at all")).unwrap();
    assert_eq!(code, 400);
    assert!(
        got.starts_with(r#"{"error":"invalid job spec: json: "#),
        "malformed body => {got}"
    );

    handle.shutdown();
}

#[test]
fn saturated_queue_returns_golden_429() {
    // One rank slot, two queue slots, slow jobs.
    let handle = start("saturated", 1, 2, 2_000);
    let addr = handle.addr().to_string();

    let spec = r#"{"name":"hog","ranks":1,"steps":1}"#;
    let (code, body) = request(&addr, "POST", "/jobs", Some(spec)).unwrap();
    assert_eq!(code, 201, "{body}");
    let id: u64 = body
        .split("\"id\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    wait_running(&addr, id);

    for _ in 0..2 {
        let (code, body) = request(&addr, "POST", "/jobs", Some(spec)).unwrap();
        assert_eq!(code, 201, "{body}");
    }
    let (code, body) = request(&addr, "POST", "/jobs", Some(spec)).unwrap();
    assert_eq!(code, 429);
    assert_eq!(body, r#"{"error":"queue full (2 jobs waiting)"}"#);

    handle.shutdown();
}

/// `GET /metrics` must stay well-formed under concurrent scrapes while
/// the scheduler is churning jobs.
#[test]
fn concurrent_metrics_scrapes_stay_wellformed() {
    let handle = start("scrape", 2, 64, 30);
    let addr = handle.addr().to_string();

    for i in 0..6 {
        let spec = format!("{{\"name\":\"churn-{i}\",\"ranks\":1,\"steps\":1}}");
        let (code, body) = request(&addr, "POST", "/jobs", Some(&spec)).unwrap();
        assert_eq!(code, 201, "{body}");
    }

    std::thread::scope(|s| {
        for _ in 0..4 {
            let addr = addr.as_str();
            s.spawn(move || {
                for _ in 0..10 {
                    let (code, body) = request(addr, "GET", "/metrics", None).unwrap();
                    assert_eq!(code, 200);
                    assert!(body.contains("beatnik_serve_jobs_submitted_total"), "{body}");
                    assert!(body.contains("beatnik_serve_queue_depth"), "{body}");
                    assert!(body.ends_with("# EOF\n"), "exposition not terminated");
                }
            });
        }
    });

    assert!(
        handle.scheduler().wait_idle(Duration::from_secs(30)),
        "jobs did not drain"
    );
    handle.shutdown();
}

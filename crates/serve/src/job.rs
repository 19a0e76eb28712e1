//! The job model: what a tenant submits (`JobSpec`), what the scheduler
//! tracks (`JobRecord`), and the validation that gates admission.
//!
//! Specs arrive as JSON over `POST /jobs`. Parsing is deliberately
//! forgiving about *absent* fields (everything but `ranks` has a
//! default) and deliberately strict about *present* ones: an unknown
//! order, an oversized mesh, or a malformed fault plan is rejected with
//! a stable, testable error message before the job ever touches the
//! scheduler.

use beatnik_json::{JsonError, ToJson, Value};

/// Hard admission limits; per-deployment knobs live in
/// [`crate::scheduler::SchedulerConfig`].
#[derive(Debug, Clone, Copy)]
pub struct JobLimits {
    /// Largest accepted mesh edge (`n` × `n` surface nodes).
    pub max_mesh_n: usize,
    /// Largest accepted step count.
    pub max_steps: usize,
    /// Rank slots in the pool (a job whose *minimum* gang exceeds this
    /// can never run and is rejected outright).
    pub pool_ranks: usize,
}

impl Default for JobLimits {
    fn default() -> Self {
        JobLimits {
            max_mesh_n: 256,
            max_steps: 100_000,
            pool_ranks: 8,
        }
    }
}

/// Highest accepted priority (inclusive). 0 is background; higher wins.
pub const MAX_PRIORITY: u8 = 9;

/// Receive deadline a fault-plan run goes under, in a serve gang or the
/// CLI: long enough for any smoke-scale solver step, short enough that a
/// dropped message is detected and recovered from in CI time rather
/// than the plain runner's two-minute deadlock window. An injected delay
/// is a sleep on the sending rank, so admission refuses one longer than
/// this.
pub const FT_RECV_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(15);

/// A simulation job as submitted by a tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Display name (free-form, defaults to `"job"`).
    pub name: String,
    /// Input deck: `multimode` or `singlemode`.
    pub deck: String,
    /// Model order: `low`, `medium`, or `high`.
    pub order: String,
    /// Surface mesh nodes per axis.
    pub mesh_n: usize,
    /// Timesteps to run.
    pub steps: usize,
    /// Requested gang size (rank slots).
    pub ranks: usize,
    /// Smallest gang the job accepts when resumed elastically after a
    /// preemption (defaults to 1).
    pub min_ranks: usize,
    /// Priority 0..=9; higher preempts lower (defaults to 4).
    pub priority: u8,
    /// Soft completion deadline in ms from submission; orders jobs
    /// within a priority class (earliest first).
    pub deadline_ms: Option<u64>,
    /// Transport backend: `thread`, `shmem`, or `tcp` (defaults to
    /// `thread`).
    pub transport: String,
    /// Fault-injection plan spec (see `beatnik_comm::FaultPlan`). A
    /// requeue after a preemption or a dead gang rewrites it to the
    /// actions that have not fired yet.
    pub faults: Option<String>,
    /// Checkpoint cadence in steps (0 = only when preempted).
    pub checkpoint_every: usize,
    /// Timestep size override.
    pub dt: Option<f64>,
    /// Record span telemetry and attach a critical-path summary to the
    /// job record (costs ~2 MiB of span ring per rank).
    pub profile: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            name: "job".to_string(),
            deck: "multimode".to_string(),
            order: "low".to_string(),
            mesh_n: 16,
            steps: 4,
            ranks: 1,
            min_ranks: 1,
            priority: 4,
            deadline_ms: None,
            transport: "thread".to_string(),
            faults: None,
            checkpoint_every: 0,
            dt: None,
            profile: false,
        }
    }
}

impl ToJson for JobSpec {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("deck".into(), Value::Str(self.deck.clone())),
            ("order".into(), Value::Str(self.order.clone())),
            ("mesh_n".into(), Value::UInt(self.mesh_n as u64)),
            ("steps".into(), Value::UInt(self.steps as u64)),
            ("ranks".into(), Value::UInt(self.ranks as u64)),
            ("min_ranks".into(), Value::UInt(self.min_ranks as u64)),
            ("priority".into(), Value::UInt(self.priority as u64)),
            ("deadline_ms".into(), self.deadline_ms.to_json()),
            ("transport".into(), Value::Str(self.transport.clone())),
            ("faults".into(), self.faults.to_json()),
            (
                "checkpoint_every".into(),
                Value::UInt(self.checkpoint_every as u64),
            ),
            ("dt".into(), self.dt.to_json()),
            ("profile".into(), Value::Bool(self.profile)),
        ])
    }
}

/// Read `key` if present, else fall back to `default`.
fn opt_field<T: beatnik_json::FromJson>(
    v: &Value,
    key: &str,
    default: T,
) -> Result<T, JsonError> {
    match beatnik_json::field::<Option<T>>(v, key)? {
        Some(x) => Ok(x),
        None => Ok(default),
    }
}

impl beatnik_json::FromJson for JobSpec {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        if !matches!(v, Value::Object(_)) {
            return Err(JsonError::new(format!(
                "job spec must be a JSON object, got {}",
                v.kind()
            )));
        }
        let d = JobSpec::default();
        Ok(JobSpec {
            name: opt_field(v, "name", d.name)?,
            deck: opt_field(v, "deck", d.deck)?,
            order: opt_field(v, "order", d.order)?,
            mesh_n: opt_field(v, "mesh_n", d.mesh_n)?,
            steps: opt_field(v, "steps", d.steps)?,
            ranks: opt_field(v, "ranks", d.ranks)?,
            min_ranks: opt_field(v, "min_ranks", d.min_ranks)?,
            priority: opt_field(v, "priority", d.priority)?,
            deadline_ms: beatnik_json::field(v, "deadline_ms")?,
            transport: opt_field(v, "transport", d.transport)?,
            faults: beatnik_json::field(v, "faults")?,
            checkpoint_every: opt_field(v, "checkpoint_every", d.checkpoint_every)?,
            dt: beatnik_json::field(v, "dt")?,
            profile: opt_field(v, "profile", d.profile)?,
        })
    }
}

impl JobSpec {
    /// Validate against admission limits. Error strings are stable —
    /// the HTTP golden tests pin them.
    pub fn validate(&self, limits: &JobLimits) -> Result<(), String> {
        match self.deck.as_str() {
            "multimode" | "singlemode" => {}
            other => return Err(format!("unknown deck '{other}' (multimode|singlemode)")),
        }
        match self.order.as_str() {
            "low" | "medium" | "high" => {}
            other => return Err(format!("unknown order '{other}' (low|medium|high)")),
        }
        match self.transport.as_str() {
            "thread" | "shmem" | "tcp" => {}
            other => return Err(format!("unknown transport '{other}' (thread|shmem|tcp)")),
        }
        if self.mesh_n < 8 {
            return Err(format!("mesh_n {} below minimum 8", self.mesh_n));
        }
        if self.mesh_n > limits.max_mesh_n {
            return Err(format!(
                "mesh_n {} exceeds limit {}",
                self.mesh_n, limits.max_mesh_n
            ));
        }
        if self.steps == 0 {
            return Err("steps must be at least 1".to_string());
        }
        if self.steps > limits.max_steps {
            return Err(format!(
                "steps {} exceeds limit {}",
                self.steps, limits.max_steps
            ));
        }
        if self.ranks == 0 {
            return Err("ranks must be at least 1".to_string());
        }
        if self.min_ranks == 0 || self.min_ranks > self.ranks {
            return Err(format!(
                "min_ranks {} must be in 1..=ranks ({})",
                self.min_ranks, self.ranks
            ));
        }
        if self.min_ranks > limits.pool_ranks {
            return Err(format!(
                "min_ranks {} can never fit the {}-rank pool",
                self.min_ranks, limits.pool_ranks
            ));
        }
        if self.priority > MAX_PRIORITY {
            return Err(format!(
                "priority {} exceeds maximum {MAX_PRIORITY}",
                self.priority
            ));
        }
        if let Some(dt) = self.dt {
            if dt <= 0.0 || !dt.is_finite() {
                return Err(format!("dt {dt} must be a positive finite number"));
            }
        }
        if let Some(spec) = &self.faults {
            let plan = beatnik_comm::FaultPlan::parse(spec, 0)
                .map_err(|e| format!("bad fault plan: {e}"))?;
            for action in &plan.actions {
                if let beatnik_comm::FaultKind::Delay(d) = action.kind {
                    if d > FT_RECV_TIMEOUT {
                        return Err(format!(
                            "bad fault plan: a {d:?} delay exceeds the {FT_RECV_TIMEOUT:?} receive deadline"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Lifecycle states of a job. `Preempted` means "checkpointed and back
/// in the queue"; a preempt *request* still shows as `Running` until
/// the gang reaches its next step boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a gang of rank slots.
    Queued,
    /// Executing on a leased gang.
    Running,
    /// Paused by the scheduler; checkpoint written, awaiting resume.
    Preempted,
    /// Finished successfully.
    Completed,
    /// Runner returned an error or panicked.
    Failed,
    /// Canceled by `DELETE /jobs/{id}`.
    Canceled,
}

impl JobState {
    /// Lower-case wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Preempted => "preempted",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
        }
    }

    /// Numeric code for the per-job state gauge.
    pub fn code(&self) -> u64 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Preempted => 2,
            JobState::Completed => 3,
            JobState::Failed => 4,
            JobState::Canceled => 5,
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Canceled
        )
    }
}

/// Final result of a completed job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobResult {
    /// Steps actually executed (equals the spec's `steps`).
    pub steps: usize,
    /// Final interface amplitude.
    pub amplitude: f64,
    /// Final enstrophy.
    pub enstrophy: f64,
}

/// Everything the service knows about one job: the spec, the state
/// machine position, and the timeline the latency metrics are built
/// from. All `*_ms` stamps are milliseconds since server start.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Server-assigned id (dense, starting at 1).
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Submission stamp.
    pub submitted_ms: u64,
    /// First dispatch stamp (`None` while queued).
    pub started_ms: Option<u64>,
    /// Terminal stamp (`None` until completed/failed/canceled).
    pub finished_ms: Option<u64>,
    /// Accumulated time spent waiting in the queue (across requeues).
    pub queue_wait_ms: u64,
    /// Accumulated time spent running (across preemption epochs).
    pub run_ms: u64,
    /// Times the scheduler preempted this job.
    pub preemptions: u64,
    /// Times the job was requeued after its gang died mid-run (a rank
    /// death, not a cooperative yield).
    pub recoveries: u64,
    /// Gang size of each dispatch, in order (an elastic resume may
    /// run narrower).
    pub ranks_history: Vec<usize>,
    /// Steps completed so far (monotone across preemptions).
    pub steps_done: usize,
    /// Final result when completed.
    pub result: Option<JobResult>,
    /// Critical-path summary when the spec asked for profiling.
    pub critical_path: Option<String>,
    /// Failure message when `Failed`.
    pub error: Option<String>,
}

impl JobRecord {
    /// A fresh record for a just-admitted spec.
    pub fn new(id: u64, spec: JobSpec, submitted_ms: u64) -> Self {
        JobRecord {
            id,
            spec,
            state: JobState::Queued,
            submitted_ms,
            started_ms: None,
            finished_ms: None,
            queue_wait_ms: 0,
            run_ms: 0,
            preemptions: 0,
            recoveries: 0,
            ranks_history: Vec::new(),
            steps_done: 0,
            result: None,
            critical_path: None,
            error: None,
        }
    }

    /// End-to-end latency (submit → terminal), when terminal.
    pub fn latency_ms(&self) -> Option<u64> {
        self.finished_ms.map(|f| f.saturating_sub(self.submitted_ms))
    }

    /// One-line summary object for `GET /jobs`.
    pub fn summary_json(&self) -> Value {
        Value::Object(vec![
            ("id".into(), Value::UInt(self.id)),
            ("name".into(), Value::Str(self.spec.name.clone())),
            ("state".into(), Value::Str(self.state.name().into())),
            ("priority".into(), Value::UInt(self.spec.priority as u64)),
            ("ranks".into(), Value::UInt(self.spec.ranks as u64)),
            ("steps_done".into(), Value::UInt(self.steps_done as u64)),
            ("preemptions".into(), Value::UInt(self.preemptions)),
            ("recoveries".into(), Value::UInt(self.recoveries)),
            ("queue_wait_ms".into(), Value::UInt(self.queue_wait_ms)),
            ("run_ms".into(), Value::UInt(self.run_ms)),
            ("latency_ms".into(), self.latency_ms().to_json()),
        ])
    }

    /// Full record object for `GET /jobs/{id}`.
    pub fn detail_json(&self) -> Value {
        let timeline = Value::Object(vec![
            ("submitted_ms".into(), Value::UInt(self.submitted_ms)),
            ("started_ms".into(), self.started_ms.to_json()),
            ("finished_ms".into(), self.finished_ms.to_json()),
            ("queue_wait_ms".into(), Value::UInt(self.queue_wait_ms)),
            ("run_ms".into(), Value::UInt(self.run_ms)),
            ("latency_ms".into(), self.latency_ms().to_json()),
        ]);
        let result = match &self.result {
            Some(r) => Value::Object(vec![
                ("steps".into(), Value::UInt(r.steps as u64)),
                ("amplitude".into(), Value::Float(r.amplitude)),
                ("enstrophy".into(), Value::Float(r.enstrophy)),
            ]),
            None => Value::Null,
        };
        Value::Object(vec![
            ("id".into(), Value::UInt(self.id)),
            ("name".into(), Value::Str(self.spec.name.clone())),
            ("state".into(), Value::Str(self.state.name().into())),
            ("spec".into(), self.spec.to_json()),
            ("timeline".into(), timeline),
            (
                "ranks_history".into(),
                Value::Array(
                    self.ranks_history
                        .iter()
                        .map(|&r| Value::UInt(r as u64))
                        .collect(),
                ),
            ),
            ("preemptions".into(), Value::UInt(self.preemptions)),
            ("recoveries".into(), Value::UInt(self.recoveries)),
            ("steps_done".into(), Value::UInt(self.steps_done as u64)),
            ("result".into(), result),
            ("critical_path".into(), self.critical_path.to_json()),
            ("error".into(), self.error.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beatnik_json::from_str;

    #[test]
    fn spec_defaults_fill_absent_fields() {
        let s: JobSpec = from_str(r#"{"ranks": 4}"#).unwrap();
        assert_eq!(s.ranks, 4);
        assert_eq!(s.order, "low");
        assert_eq!(s.deck, "multimode");
        assert_eq!(s.min_ranks, 1);
        assert_eq!(s.priority, 4);
        assert!(!s.profile);
        s.validate(&JobLimits::default()).unwrap();
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let s = JobSpec {
            name: "big".into(),
            order: "medium".into(),
            ranks: 4,
            min_ranks: 2,
            priority: 7,
            deadline_ms: Some(2_000),
            checkpoint_every: 2,
            dt: Some(5e-4),
            ..JobSpec::default()
        };
        let back: JobSpec = from_str(&beatnik_json::to_string(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn validation_rejects_each_bad_field() {
        let limits = JobLimits::default();
        let ok = JobSpec::default();
        ok.validate(&limits).unwrap();
        let cases: Vec<(JobSpec, &str)> = vec![
            (JobSpec { order: "ultra".into(), ..ok.clone() }, "unknown order"),
            (JobSpec { deck: "cube".into(), ..ok.clone() }, "unknown deck"),
            (JobSpec { transport: "pigeon".into(), ..ok.clone() }, "unknown transport"),
            (JobSpec { mesh_n: 4096, ..ok.clone() }, "exceeds limit"),
            (JobSpec { mesh_n: 2, ..ok.clone() }, "below minimum"),
            (JobSpec { steps: 0, ..ok.clone() }, "steps must be"),
            (JobSpec { ranks: 0, ..ok.clone() }, "ranks must be"),
            (JobSpec { ranks: 2, min_ranks: 3, ..ok.clone() }, "min_ranks"),
            (JobSpec { ranks: 99, min_ranks: 99, ..ok.clone() }, "never fit"),
            (JobSpec { priority: 10, ..ok.clone() }, "priority"),
            (JobSpec { dt: Some(-1.0), ..ok.clone() }, "dt"),
            (JobSpec { faults: Some("explode:r1@step1".into()), ..ok.clone() }, "fault plan"),
            (JobSpec { faults: Some("delay:r0@op2:16s".into()), ..ok.clone() }, "receive deadline"),
            (
                JobSpec { faults: Some("delay:r0>r1@link1:18446744073s".into()), ..ok.clone() },
                "receive deadline",
            ),
        ];
        for (spec, needle) in cases {
            let err = spec.validate(&limits).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    /// A delay of exactly the deadline is admitted.
    #[test]
    fn a_delay_up_to_the_receive_deadline_is_admitted() {
        let spec = JobSpec { faults: Some("delay:r0@op2:15s,delay:r1>r0@link3:15000ms".into()), ..JobSpec::default() };
        spec.validate(&JobLimits::default()).unwrap();
    }

    /// `faults` arrives from a client: valid plans with bytes flipped,
    /// cut, grown or swapped for digits are each admitted or refused
    /// with an `Err`, never a panic, and no admitted plan delays past
    /// the receive deadline.
    #[test]
    fn seeded_fault_spec_mutations_are_admitted_or_refused_and_never_panic() {
        let limits = JobLimits::default();
        let base = "kill:r1@step3,delay:r0@op2:5ms,drop:r2@op7,delay:r0>r1@link3:2s";
        let (mut admitted, mut refused) = (0, 0);
        for seed in 0..1_500u64 {
            let mut rng = beatnik_prng::Rng::seed_from_u64(seed);
            let mut spec = base.as_bytes().to_vec();
            for _ in 0..1 + rng.gen_index(0..3) {
                let at = rng.gen_index(0..spec.len() + 1);
                match rng.gen_index(0..4) {
                    0 if at < spec.len() => spec[at] = b"0123456789:@>,rsmuk"[rng.gen_index(0..19)],
                    1 => spec.truncate(at),
                    2 => {
                        let digits = (0..1 + rng.gen_index(0..25)).map(|_| b'0' + rng.gen_index(0..10) as u8);
                        spec.splice(at..at, digits);
                    }
                    _ if at < spec.len() => spec[at] ^= 1 + rng.gen_index(0..255) as u8,
                    _ => {}
                }
            }
            let spec = JobSpec { faults: Some(String::from_utf8_lossy(&spec).into_owned()), ..JobSpec::default() };
            let verdict = std::panic::catch_unwind(|| spec.validate(&limits))
                .unwrap_or_else(|_| panic!("seed {seed}: {:?} panicked", spec.faults));
            match verdict {
                Ok(()) => {
                    admitted += 1;
                    let plan = beatnik_comm::FaultPlan::parse(spec.faults.as_deref().unwrap(), 0).unwrap();
                    for action in plan.actions {
                        if let beatnik_comm::FaultKind::Delay(d) = action.kind {
                            assert!(d <= FT_RECV_TIMEOUT, "seed {seed}: admitted a {d:?} delay");
                        }
                    }
                }
                Err(_) => refused += 1,
            }
        }
        assert!(admitted > 50 && refused > 500, "{admitted} admitted, {refused} refused");
    }

    #[test]
    fn state_machine_names_and_codes_are_stable() {
        // The wire names and gauge codes are API: loadgen and the
        // OpenMetrics consumers both parse them.
        let all = [
            JobState::Queued,
            JobState::Running,
            JobState::Preempted,
            JobState::Completed,
            JobState::Failed,
            JobState::Canceled,
        ];
        let names: Vec<_> = all.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["queued", "running", "preempted", "completed", "failed", "canceled"]
        );
        for (i, s) in all.iter().enumerate() {
            assert_eq!(s.code(), i as u64);
        }
        assert!(JobState::Completed.is_terminal());
        assert!(!JobState::Preempted.is_terminal());
    }

    #[test]
    fn record_json_shapes() {
        let mut rec = JobRecord::new(3, JobSpec::default(), 100);
        rec.state = JobState::Completed;
        rec.finished_ms = Some(600);
        rec.result = Some(JobResult {
            steps: 4,
            amplitude: 0.25,
            enstrophy: 1.5,
        });
        let summary = rec.summary_json();
        assert_eq!(summary.get("latency_ms").and_then(Value::as_u64), Some(500));
        let detail = rec.detail_json();
        assert_eq!(
            detail
                .get("result")
                .and_then(|r| r.get("steps"))
                .and_then(Value::as_u64),
            Some(4)
        );
        assert_eq!(
            detail.get("state").and_then(Value::as_str),
            Some("completed")
        );
    }
}

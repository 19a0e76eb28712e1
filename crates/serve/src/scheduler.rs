//! The job scheduler: admission control, priority + deadline ordering,
//! gang dispatch onto a shared [`RankPool`], and elastic preemption.
//!
//! ## Dispatch policy
//!
//! A dispatcher thread scans the queue in (priority desc, absolute
//! deadline asc, id asc) order and dispatches the first job whose gang
//! fits the pool. Grants are *elastic*: a job asking for `ranks` slots
//! runs with `min(ranks, available)` as long as that is at least its
//! `min_ranks`, so a wide job can start narrow instead of waiting for
//! the whole pool.
//!
//! ## Preemption protocol
//!
//! When the best-ranked queued job cannot get even `min_ranks` and
//! strictly lower-priority jobs are running, the scheduler flags enough
//! victims (lowest priority first) and places a **reservation**: until
//! the reserved job dispatches, no other job may take freed slots, so
//! backfill cannot livelock the high-priority job out of its claim.
//! Victims observe the flag at their next step boundary, write a
//! checkpoint, and return [`JobOutcome::Preempted`]; the scheduler
//! requeues them, and a later dispatch resumes from the checkpoint —
//! possibly with a smaller gang (the checkpoint format is rank-count
//! independent). A job whose gang dies ([`JobOutcome::GangDied`]) is
//! requeued the same way, so a fault-plan job is an ordinary job with
//! its plan attached, preemptible like any other; each requeue carries
//! only the actions of its plan that have not fired.
//!
//! The scheduler is runner-agnostic: the actual physics lives behind
//! [`JobRunner`] (implemented by `beatnik-rocketrig`'s serve driver),
//! which keeps this crate free of a dependency cycle.

use crate::events::JobEvents;
use crate::job::{JobLimits, JobRecord, JobResult, JobSpec, JobState};
use crate::metrics::ServeMetrics;
use beatnik_comm::RankPool;
use beatnik_telemetry::metrics::MetricsRegistry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Requeues granted to a job whose gang keeps dying before it is
/// declared failed: a crashing workload must not monopolize the pool.
const MAX_RECOVERIES: u64 = 3;

/// How a job's execution ended, as reported by the runner.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Ran to the spec's final step.
    Completed {
        /// Total steps executed (across all dispatch epochs).
        steps: usize,
        /// Final interface amplitude.
        amplitude: f64,
        /// Final enstrophy.
        enstrophy: f64,
        /// Critical-path summary when profiling was requested.
        critical_path: Option<String>,
    },
    /// Observed the preempt flag, checkpointed, and stopped.
    Preempted {
        /// Steps completed when the checkpoint was written.
        at_step: usize,
        /// The fault plan the requeued job carries: the spec's actions
        /// that have not fired (`None` when none are left).
        faults_left: Option<String>,
    },
    /// Observed the cancel flag and stopped (no checkpoint kept).
    Canceled {
        /// Steps completed at cancellation.
        at_step: usize,
    },
    /// The gang died under the job — a rank was killed or a collective
    /// failed terminally — rather than yielding cooperatively. The
    /// scheduler returns the ranks to the pool and requeues the job
    /// from its last checkpoint on a fresh (possibly smaller) gang.
    GangDied {
        /// Steps known complete when the gang died (the job resumes
        /// from its last on-disk checkpoint, which may be further on).
        at_step: usize,
        /// The fault plan the requeued job carries, as for `Preempted`.
        faults_left: Option<String>,
    },
}

/// Everything a [`JobRunner`] needs to execute one dispatch epoch of a
/// job.
#[derive(Debug, Clone)]
pub struct JobContext {
    /// Server-assigned job id.
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Gang size granted for this epoch (`min_ranks ..= spec.ranks`).
    pub ranks: usize,
    /// Steps already completed by earlier epochs (0 on first dispatch).
    pub steps_done: usize,
    /// Whether a checkpoint from a previous epoch exists at
    /// `ckpt_path` and should be restored.
    pub resume: bool,
    /// Job-private checkpoint file path.
    pub ckpt_path: PathBuf,
    /// Registry to label per-job world metrics into.
    pub registry: Arc<MetricsRegistry>,
    /// Set by the scheduler when this job must checkpoint and yield at
    /// the next step boundary.
    pub preempt: Arc<AtomicBool>,
    /// Set by `DELETE /jobs/{id}` (and shutdown) to stop the job at
    /// the next step boundary without keeping a checkpoint.
    pub cancel: Arc<AtomicBool>,
    /// Live diagnostics stream: the runner publishes one NDJSON line
    /// per step; `GET /jobs/{id}/events` drains it to the tenant.
    pub events: Arc<JobEvents>,
    /// Milliseconds until the job's soft deadline at dispatch time
    /// (negative when already past it); `None` for deadline-free jobs.
    /// The runner subtracts its own elapsed time for per-step margins.
    pub deadline_remaining_ms: Option<i64>,
}

impl JobContext {
    /// A standalone context for driving a runner outside a scheduler
    /// (tests and benchmarks).
    pub fn standalone(spec: JobSpec, ranks: usize, ckpt_path: PathBuf) -> Self {
        let deadline_remaining_ms = spec.deadline_ms.map(|d| d as i64);
        JobContext {
            id: 0,
            spec,
            ranks,
            steps_done: 0,
            resume: false,
            ckpt_path,
            registry: Arc::new(MetricsRegistry::new()),
            preempt: Arc::new(AtomicBool::new(false)),
            cancel: Arc::new(AtomicBool::new(false)),
            events: Arc::new(JobEvents::new()),
            deadline_remaining_ms,
        }
    }

    /// Whether the scheduler asked this job to checkpoint and yield.
    pub fn preempt_requested(&self) -> bool {
        self.preempt.load(Ordering::Relaxed)
    }

    /// Whether this job was canceled.
    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// Executes one dispatch epoch of a job. Implementations build a world
/// of `ctx.ranks` ranks, restore the checkpoint when `ctx.resume`, poll
/// the context flags at step boundaries, and report how the epoch
/// ended.
pub trait JobRunner: Send + Sync + 'static {
    /// Run (an epoch of) the job described by `ctx`.
    fn run(&self, ctx: &JobContext) -> Result<JobOutcome, String>;

    /// Refuse, at admission, a spec that passed [`JobSpec::validate`]
    /// but that this runner cannot run (HTTP 400). Admits every spec by
    /// default.
    fn admit(&self, _spec: &JobSpec) -> Result<(), String> {
        Ok(())
    }
}

impl<F> JobRunner for F
where
    F: Fn(&JobContext) -> Result<JobOutcome, String> + Send + Sync + 'static,
{
    fn run(&self, ctx: &JobContext) -> Result<JobOutcome, String> {
        self(ctx)
    }
}

/// Admission error for [`Scheduler::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Spec failed validation (HTTP 400).
    Invalid(String),
    /// Queue is at capacity (HTTP 429).
    QueueFull {
        /// The configured queue limit.
        limit: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(msg) => write!(f, "{msg}"),
            SubmitError::QueueFull { limit } => {
                write!(f, "queue full ({limit} jobs waiting)")
            }
        }
    }
}

/// Result of a cancel request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// Job was waiting and is now terminally canceled.
    Canceled,
    /// Job is running; the cancel flag is set and it will stop at the
    /// next step boundary.
    CancelRequested,
    /// No such job.
    NotFound,
    /// Job already reached a terminal state.
    AlreadyTerminal,
}

/// Scheduler deployment knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Rank slots in the shared pool.
    pub pool_ranks: usize,
    /// Maximum jobs waiting in the queue before `submit` returns
    /// [`SubmitError::QueueFull`].
    pub max_queue: usize,
    /// Admission limits (`pool_ranks` is overwritten from this config).
    pub limits: JobLimits,
    /// Directory for per-job checkpoint files.
    pub ckpt_dir: PathBuf,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            pool_ranks: 8,
            max_queue: 256,
            limits: JobLimits::default(),
            ckpt_dir: std::env::temp_dir().join("beatnik-serve"),
        }
    }
}

/// Per-running-job bookkeeping the dispatcher consults for preemption.
struct RunningJob {
    preempt: Arc<AtomicBool>,
    cancel: Arc<AtomicBool>,
    ranks: usize,
    priority: u8,
}

#[derive(Default)]
struct SchedState {
    records: Vec<JobRecord>,
    /// Ids waiting for a gang (order is irrelevant; selection sorts).
    queue: Vec<u64>,
    running: HashMap<u64, RunningJob>,
    /// Per-job live event streams, created at admission so a consumer
    /// can attach while the job is still queued.
    events: HashMap<u64, Arc<JobEvents>>,
    /// Reservation: only this job may dispatch while set.
    reserved: Option<u64>,
    /// When each queued id was last enqueued (ms since epoch).
    enqueued_ms: HashMap<u64, u64>,
    next_id: u64,
    shutdown: bool,
}

impl SchedState {
    fn record_mut(&mut self, id: u64) -> Option<&mut JobRecord> {
        self.records.iter_mut().find(|r| r.id == id)
    }

    fn record(&self, id: u64) -> Option<&JobRecord> {
        self.records.iter().find(|r| r.id == id)
    }
}

struct Shared {
    state: Mutex<SchedState>,
    cv: Condvar,
    pool: RankPool,
    cfg: SchedulerConfig,
    metrics: ServeMetrics,
    runner: Arc<dyn JobRunner>,
    epoch: Instant,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn set_state(&self, rec: &mut JobRecord, state: JobState) {
        rec.state = state;
        self.metrics.job_state(rec.id).set(state.code());
    }

    /// Terminal bookkeeping shared by every path that ends a job:
    /// deadline accounting (miss counter + margin histogram) and the
    /// final event-stream record, after which the stream closes.
    fn account_terminal(&self, rec: &JobRecord, events: Option<&JobEvents>) {
        let margin_ms: Option<i64> = rec.spec.deadline_ms.map(|d| {
            let deadline = rec.submitted_ms.saturating_add(d);
            let finished = rec.finished_ms.unwrap_or_else(|| self.now_ms());
            deadline as i64 - finished as i64
        });
        if let Some(m) = margin_ms {
            self.metrics.deadline_margin_ms.observe(m.max(0) as u64);
            if m < 0 {
                self.metrics.jobs_deadline_missed.inc();
            }
        }
        if let Some(ev) = events {
            let margin = match margin_ms {
                Some(m) => m.to_string(),
                None => "null".to_string(),
            };
            ev.publish(format!(
                "{{\"event\":\"done\",\"id\":{},\"state\":\"{}\",\"steps_done\":{},\
                 \"latency_ms\":{},\"deadline_margin_ms\":{margin}}}",
                rec.id,
                rec.state.name(),
                rec.steps_done,
                rec.latency_ms().unwrap_or(0),
            ));
            ev.close();
        }
    }
}

/// The multi-tenant job scheduler. One instance owns the rank pool,
/// the dispatcher thread, and every job record.
pub struct Scheduler {
    shared: Arc<Shared>,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Build a scheduler over a fresh `cfg.pool_ranks`-slot pool and
    /// start its dispatcher thread.
    pub fn new(
        cfg: SchedulerConfig,
        registry: Arc<MetricsRegistry>,
        runner: Arc<dyn JobRunner>,
    ) -> Self {
        let _ = std::fs::create_dir_all(&cfg.ckpt_dir);
        let metrics = ServeMetrics::new(registry, cfg.pool_ranks);
        let mut cfg = cfg;
        cfg.limits.pool_ranks = cfg.pool_ranks;
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                next_id: 1,
                ..SchedState::default()
            }),
            cv: Condvar::new(),
            pool: RankPool::new(cfg.pool_ranks),
            cfg,
            metrics,
            runner,
            epoch: Instant::now(),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-dispatch".into())
                .spawn(move || dispatch_loop(&shared))
                .expect("spawn dispatcher")
        };
        Scheduler {
            shared,
            dispatcher: Mutex::new(Some(dispatcher)),
        }
    }

    /// The service metrics handles (shared with the HTTP layer).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Milliseconds since the scheduler started (the timeline epoch).
    pub fn now_ms(&self) -> u64 {
        self.shared.now_ms()
    }

    /// Admit a job: validate, check queue capacity, enqueue. Returns
    /// the assigned id.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let admitted = spec
            .validate(&self.shared.cfg.limits)
            .and_then(|()| self.shared.runner.admit(&spec));
        if let Err(msg) = admitted {
            self.shared.metrics.jobs_rejected_invalid.inc();
            return Err(SubmitError::Invalid(msg));
        }
        let mut st = lock(&self.shared.state);
        if st.shutdown {
            self.shared.metrics.jobs_rejected_invalid.inc();
            return Err(SubmitError::Invalid("server is shutting down".into()));
        }
        if st.queue.len() >= self.shared.cfg.max_queue {
            self.shared.metrics.jobs_rejected_queue_full.inc();
            return Err(SubmitError::QueueFull {
                limit: self.shared.cfg.max_queue,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        let now = self.shared.now_ms();
        st.records.push(JobRecord::new(id, spec, now));
        st.queue.push(id);
        st.enqueued_ms.insert(id, now);
        let events = Arc::new(JobEvents::new());
        events.publish(format!("{{\"event\":\"queued\",\"id\":{id}}}"));
        st.events.insert(id, events);
        self.shared.metrics.jobs_submitted.inc();
        self.shared.metrics.queue_depth.set(st.queue.len() as u64);
        self.shared.metrics.job_state(id).set(JobState::Queued.code());
        drop(st);
        self.shared.cv.notify_all();
        Ok(id)
    }

    /// Cancel a job by id.
    pub fn cancel(&self, id: u64) -> CancelOutcome {
        let mut st = lock(&self.shared.state);
        let now = self.shared.now_ms();
        let Some(state) = st.record(id).map(|r| r.state) else {
            return CancelOutcome::NotFound;
        };
        if state.is_terminal() {
            return CancelOutcome::AlreadyTerminal;
        }
        if let Some(run) = st.running.get(&id) {
            run.cancel.store(true, Ordering::Relaxed);
            return CancelOutcome::CancelRequested;
        }
        // Queued (or preempted-and-requeued): remove and finish now.
        st.queue.retain(|&q| q != id);
        if st.reserved == Some(id) {
            st.reserved = None;
        }
        let wait = st.enqueued_ms.remove(&id).map(|t| now.saturating_sub(t));
        let shared = &self.shared;
        let rec = st.record_mut(id).expect("record exists");
        if let Some(w) = wait {
            rec.queue_wait_ms += w;
        }
        rec.finished_ms = Some(now);
        shared.set_state(rec, JobState::Canceled);
        let latency = rec.latency_ms().unwrap_or(0);
        let snapshot = rec.clone();
        shared.metrics.jobs_canceled.inc();
        shared.metrics.job_latency_ms.observe(latency);
        shared.metrics.queue_depth.set(st.queue.len() as u64);
        let events = st.events.get(&id).cloned();
        drop(st);
        shared.account_terminal(&snapshot, events.as_deref());
        self.shared.cv.notify_all();
        CancelOutcome::Canceled
    }

    /// Snapshot of one job's record.
    pub fn job(&self, id: u64) -> Option<JobRecord> {
        lock(&self.shared.state).record(id).cloned()
    }

    /// The live event stream for a job (exists from admission until the
    /// scheduler is dropped; closed once the job goes terminal).
    pub fn events(&self, id: u64) -> Option<Arc<JobEvents>> {
        lock(&self.shared.state).events.get(&id).cloned()
    }

    /// Snapshot of every job record, in submission order.
    pub fn jobs(&self) -> Vec<JobRecord> {
        lock(&self.shared.state).records.clone()
    }

    /// Block until no job is queued or running (or `timeout` expires).
    /// Returns `true` when idle was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.shared.state);
        loop {
            if st.queue.is_empty() && st.running.is_empty() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
    }

    /// Graceful shutdown: cancel queued jobs, ask running jobs to
    /// checkpoint and yield, wait (bounded) for them to drain, and stop
    /// the dispatcher. Preempted jobs keep their checkpoints on disk.
    pub fn shutdown(&self, drain_timeout: Duration) {
        {
            let mut st = lock(&self.shared.state);
            if st.shutdown {
                return;
            }
            st.shutdown = true;
            let now = self.shared.now_ms();
            let queued: Vec<u64> = st.queue.drain(..).collect();
            st.reserved = None;
            for id in queued {
                let wait = st.enqueued_ms.remove(&id).map(|t| now.saturating_sub(t));
                let shared = &self.shared;
                let snapshot = if let Some(rec) = st.record_mut(id) {
                    if let Some(w) = wait {
                        rec.queue_wait_ms += w;
                    }
                    rec.finished_ms = Some(now);
                    shared.set_state(rec, JobState::Canceled);
                    shared.metrics.jobs_canceled.inc();
                    Some(rec.clone())
                } else {
                    None
                };
                if let Some(rec) = snapshot {
                    let events = st.events.get(&id).cloned();
                    shared.account_terminal(&rec, events.as_deref());
                }
            }
            self.shared.metrics.queue_depth.set(0);
            for run in st.running.values() {
                run.preempt.store(true, Ordering::Relaxed);
            }
        }
        self.shared.cv.notify_all();
        // Drain: wait until no worker holds a lease.
        let deadline = Instant::now() + drain_timeout;
        let mut st = lock(&self.shared.state);
        while !st.running.is_empty() && Instant::now() < deadline {
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
        drop(st);
        if let Some(h) = lock(&self.dispatcher).take() {
            let _ = h.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown(Duration::from_secs(30));
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Absolute deadline for queue ordering (`u64::MAX` when none).
fn deadline_key(rec: &JobRecord) -> u64 {
    match rec.spec.deadline_ms {
        Some(d) => rec.submitted_ms.saturating_add(d),
        None => u64::MAX,
    }
}

/// The dispatcher: repeatedly pick the best dispatchable job, grant it
/// a gang (elastically), or arrange a preemption for it.
fn dispatch_loop(shared: &Arc<Shared>) {
    let mut st = lock(&shared.state);
    loop {
        if st.shutdown {
            return;
        }
        match pick_and_grant(shared, &mut st) {
            Some((id, lease)) => {
                start_job(shared, &mut st, id, lease);
                // Immediately look for more dispatchable work.
                continue;
            }
            None => {
                let (guard, _) = shared
                    .cv
                    .wait_timeout(st, Duration::from_millis(25))
                    .unwrap_or_else(|p| p.into_inner());
                st = guard;
            }
        }
    }
}

/// Choose a job and acquire its gang. On failure for the top choice,
/// try to arrange a preemption (reservation + victim flags), then fall
/// back to backfilling a smaller job.
fn pick_and_grant(
    shared: &Arc<Shared>,
    st: &mut SchedState,
) -> Option<(u64, beatnik_comm::RankLease)> {
    if st.queue.is_empty() {
        return None;
    }
    // Queue order: priority desc, absolute deadline asc, id asc.
    let mut order: Vec<u64> = st.queue.clone();
    order.sort_by_key(|&id| {
        let rec = st.record(id).expect("queued record exists");
        (std::cmp::Reverse(rec.spec.priority), deadline_key(rec), rec.id)
    });

    // An active reservation pins dispatch to the reserved job so
    // backfill cannot steal the slots its victims are releasing.
    if let Some(rid) = st.reserved {
        let rec = st.record(rid)?;
        let lease = try_elastic(shared, &rec.spec)?;
        st.reserved = None;
        return Some((rid, lease));
    }

    for (i, &id) in order.iter().enumerate() {
        let rec = st.record(id).expect("queued record exists");
        let spec = rec.spec.clone();
        if let Some(lease) = try_elastic(shared, &spec) {
            return Some((id, lease));
        }
        // Only the head of the queue may trigger preemption; jobs
        // further back wait their turn (or backfill if they fit).
        if i == 0 && arrange_preemption(shared, st, id, &spec) {
            return None;
        }
    }
    None
}

/// Try to acquire an elastic gang for `spec`: full width if available,
/// otherwise whatever is free as long as it meets `min_ranks`.
fn try_elastic(shared: &Shared, spec: &JobSpec) -> Option<beatnik_comm::RankLease> {
    let want = spec.ranks.min(shared.pool.capacity());
    if let Some(lease) = shared.pool.try_acquire(want) {
        return Some(lease);
    }
    let avail = shared.pool.available();
    if avail >= spec.min_ranks && avail < want {
        return shared.pool.try_acquire(avail);
    }
    None
}

/// If strictly lower-priority jobs hold enough slots to
/// seat `spec`, flag them and reserve the pool for job `id`. Returns
/// whether a reservation was placed.
fn arrange_preemption(shared: &Shared, st: &mut SchedState, id: u64, spec: &JobSpec) -> bool {
    let want = spec.ranks.min(shared.pool.capacity());
    let avail = shared.pool.available();
    let mut victims: Vec<(u64, u8, usize)> = st
        .running
        .iter()
        .filter(|(_, r)| r.priority < spec.priority)
        .filter(|(_, r)| !r.preempt.load(Ordering::Relaxed))
        .map(|(&vid, r)| (vid, r.priority, r.ranks))
        .collect();
    // Take the cheapest victims first: lowest priority, then smallest
    // gang (less wasted work), until the job is fully seated.
    victims.sort_by_key(|&(vid, prio, ranks)| (prio, ranks, vid));
    let mut freed = avail;
    let mut chosen = Vec::new();
    for (vid, _, ranks) in victims {
        if freed >= want {
            break;
        }
        freed += ranks;
        chosen.push(vid);
    }
    if freed < spec.min_ranks || chosen.is_empty() {
        return false;
    }
    for vid in chosen {
        if let Some(run) = st.running.get(&vid) {
            run.preempt.store(true, Ordering::Relaxed);
        }
    }
    st.reserved = Some(id);
    true
}

/// Move job `id` from the queue to running on `lease`, and spawn its
/// worker thread.
fn start_job(shared: &Arc<Shared>, st: &mut SchedState, id: u64, lease: beatnik_comm::RankLease) {
    let now = shared.now_ms();
    st.queue.retain(|&q| q != id);
    shared.metrics.queue_depth.set(st.queue.len() as u64);
    let wait = st.enqueued_ms.remove(&id).map(|t| now.saturating_sub(t));
    let granted = lease.ranks();
    let preempt = Arc::new(AtomicBool::new(false));
    let cancel = Arc::new(AtomicBool::new(false));
    let (spec, steps_done, resume, deadline_remaining_ms) = {
        let rec = st.record_mut(id).expect("dispatched record exists");
        if let Some(w) = wait {
            rec.queue_wait_ms += w;
            shared.metrics.queue_wait_ms.observe(w);
        }
        if rec.started_ms.is_none() {
            rec.started_ms = Some(now);
        }
        rec.ranks_history.push(granted);
        shared.set_state(rec, JobState::Running);
        let remaining = rec
            .spec
            .deadline_ms
            .map(|d| rec.submitted_ms.saturating_add(d) as i64 - now as i64);
        // Resume from checkpoint after a cooperative preemption *or* a
        // gang-death recovery (the runner ignores `resume` when no
        // checkpoint file survived).
        (rec.spec.clone(), rec.steps_done, rec.preemptions + rec.recoveries > 0, remaining)
    };
    let events = st.events.get(&id).cloned().unwrap_or_default();
    events.publish(format!(
        "{{\"event\":\"running\",\"id\":{id},\"ranks\":{granted},\"resume\":{resume}}}"
    ));
    st.running.insert(
        id,
        RunningJob {
            preempt: Arc::clone(&preempt),
            cancel: Arc::clone(&cancel),
            ranks: granted,
            priority: spec.priority,
        },
    );
    shared.metrics.ranks_busy.add(granted as u64);

    let ctx = JobContext {
        id,
        spec,
        ranks: granted,
        steps_done,
        resume,
        ckpt_path: shared.cfg.ckpt_dir.join(format!("job-{id}.ckpt.json")),
        registry: Arc::clone(&shared.metrics.registry),
        preempt,
        cancel,
        events,
        deadline_remaining_ms,
    };
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("serve-job-{id}"))
        .spawn(move || {
            let started = Instant::now();
            // A dead gang is an outcome the runner reports; a panic
            // that unwinds out of it is a bug, and fails the job with
            // the panic message.
            let outcome = catch_unwind(AssertUnwindSafe(|| shared.runner.run(&ctx)))
                .unwrap_or_else(|p| Err(panic_message(&p)));
            finish_job(&shared, &ctx, outcome, started.elapsed());
            drop(lease);
            shared.cv.notify_all();
        })
        .expect("spawn job worker");
}

/// Record a worker's outcome and update every derived metric.
fn finish_job(
    shared: &Shared,
    ctx: &JobContext,
    outcome: Result<JobOutcome, String>,
    ran_for: Duration,
) {
    let mut st = lock(&shared.state);
    let now = shared.now_ms();
    st.running.remove(&ctx.id);
    shared.metrics.ranks_busy.sub(ctx.ranks as u64);
    let shutting_down = st.shutdown;
    let mut requeue = false;
    {
        let rec = st.record_mut(ctx.id).expect("finished record exists");
        rec.run_ms += ran_for.as_millis() as u64;
        match outcome {
            Ok(JobOutcome::Completed {
                steps,
                amplitude,
                enstrophy,
                critical_path,
            }) => {
                rec.steps_done = steps;
                rec.result = Some(JobResult {
                    steps,
                    amplitude,
                    enstrophy,
                });
                rec.critical_path = critical_path;
                rec.finished_ms = Some(now);
                shared.set_state(rec, JobState::Completed);
                shared.metrics.jobs_completed.inc();
                shared
                    .metrics
                    .job_latency_ms
                    .observe(rec.latency_ms().unwrap_or(0));
                let _ = std::fs::remove_file(&ctx.ckpt_path);
            }
            Ok(JobOutcome::Preempted { at_step, faults_left }) => {
                rec.steps_done = at_step;
                rec.spec.faults = faults_left;
                rec.preemptions += 1;
                shared.metrics.preemptions.inc();
                shared.set_state(rec, JobState::Preempted);
                // During shutdown the checkpoint stays on disk but the
                // job is not requeued; a future server run could adopt
                // it.
                requeue = !shutting_down;
            }
            Ok(JobOutcome::GangDied {
                at_step,
                faults_left,
            }) => {
                rec.steps_done = rec.steps_done.max(at_step);
                rec.spec.faults = faults_left;
                rec.recoveries += 1;
                shared.metrics.jobs_recovered.inc();
                if shutting_down {
                    // Keep the checkpoint for a future server run.
                    shared.set_state(rec, JobState::Preempted);
                } else if rec.recoveries > MAX_RECOVERIES {
                    rec.error = Some(format!(
                        "gang died {} times; giving up after step {}",
                        rec.recoveries, rec.steps_done
                    ));
                    rec.finished_ms = Some(now);
                    shared.set_state(rec, JobState::Failed);
                    shared.metrics.jobs_failed.inc();
                    shared
                        .metrics
                        .job_latency_ms
                        .observe(rec.latency_ms().unwrap_or(0));
                    let _ = std::fs::remove_file(&ctx.ckpt_path);
                } else {
                    shared.set_state(rec, JobState::Preempted);
                    requeue = true;
                }
            }
            Ok(JobOutcome::Canceled { at_step }) => {
                rec.steps_done = at_step;
                rec.finished_ms = Some(now);
                shared.set_state(rec, JobState::Canceled);
                shared.metrics.jobs_canceled.inc();
                shared
                    .metrics
                    .job_latency_ms
                    .observe(rec.latency_ms().unwrap_or(0));
                let _ = std::fs::remove_file(&ctx.ckpt_path);
            }
            Err(msg) => {
                rec.error = Some(msg);
                rec.finished_ms = Some(now);
                shared.set_state(rec, JobState::Failed);
                shared.metrics.jobs_failed.inc();
                shared
                    .metrics
                    .job_latency_ms
                    .observe(rec.latency_ms().unwrap_or(0));
                let _ = std::fs::remove_file(&ctx.ckpt_path);
            }
        }
        // Per-job step counter mirrors steps_done for scrapers.
        let c = shared.metrics.job_steps(ctx.id);
        let done = rec.steps_done as u64;
        if done > c.get() {
            c.add(done - c.get());
        }
    }
    let snapshot = st.record(ctx.id).cloned();
    let events = st.events.get(&ctx.id).cloned();
    if let Some(rec) = snapshot {
        if rec.state.is_terminal() {
            shared.account_terminal(&rec, events.as_deref());
        } else if let Some(ev) = &events {
            // Non-terminal epoch end (preemption / gang-death requeue):
            // announce it on the stream but keep it open for the next
            // dispatch epoch.
            ev.publish(format!(
                "{{\"event\":\"{}\",\"id\":{},\"at_step\":{}}}",
                rec.state.name(),
                rec.id,
                rec.steps_done
            ));
        }
    }
    if requeue {
        st.queue.push(ctx.id);
        st.enqueued_ms.insert(ctx.id, now);
        shared.metrics.queue_depth.set(st.queue.len() as u64);
    }
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake runner: one "step" is a 1 ms sleep; honors the preempt
    /// and cancel flags at step boundaries and fakes checkpointing via
    /// `ctx.steps_done`.
    struct StubRunner {
        step_ms: u64,
    }

    impl JobRunner for StubRunner {
        fn run(&self, ctx: &JobContext) -> Result<JobOutcome, String> {
            let mut step = ctx.steps_done;
            while step < ctx.spec.steps {
                if ctx.cancel_requested() {
                    return Ok(JobOutcome::Canceled { at_step: step });
                }
                if ctx.preempt_requested() {
                    return Ok(JobOutcome::Preempted {
                        at_step: step,
                        faults_left: None,
                    });
                }
                std::thread::sleep(Duration::from_millis(self.step_ms));
                step += 1;
            }
            Ok(JobOutcome::Completed {
                steps: step,
                amplitude: 1.0,
                enstrophy: 2.0,
                critical_path: None,
            })
        }
    }

    fn sched(pool: usize, max_queue: usize, step_ms: u64) -> Scheduler {
        let cfg = SchedulerConfig {
            pool_ranks: pool,
            max_queue,
            ckpt_dir: std::env::temp_dir().join(format!(
                "beatnik-serve-test-{}-{pool}",
                std::process::id()
            )),
            ..SchedulerConfig::default()
        };
        Scheduler::new(
            cfg,
            Arc::new(MetricsRegistry::new()),
            Arc::new(StubRunner { step_ms }),
        )
    }

    fn spec(ranks: usize, priority: u8, steps: usize) -> JobSpec {
        JobSpec {
            ranks,
            priority,
            steps,
            ..JobSpec::default()
        }
    }

    /// A runner whose gang dies a fixed number of times before running
    /// clean.
    struct DyingGangRunner {
        deaths_left: std::sync::atomic::AtomicU64,
        die_at: usize,
    }

    impl JobRunner for DyingGangRunner {
        fn run(&self, ctx: &JobContext) -> Result<JobOutcome, String> {
            let mut step = ctx.steps_done;
            while step < ctx.spec.steps {
                if step >= self.die_at
                    && self
                        .deaths_left
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                        .is_ok()
                {
                    return Ok(JobOutcome::GangDied {
                        at_step: step,
                        faults_left: None,
                    });
                }
                std::thread::sleep(Duration::from_millis(1));
                step += 1;
            }
            Ok(JobOutcome::Completed {
                steps: step,
                amplitude: 1.0,
                enstrophy: 2.0,
                critical_path: None,
            })
        }
    }

    fn dying_sched(pool: usize, deaths: u64, die_at: usize) -> Scheduler {
        let cfg = SchedulerConfig {
            pool_ranks: pool,
            max_queue: 16,
            ckpt_dir: std::env::temp_dir().join(format!(
                "beatnik-serve-gang-test-{}-{deaths}",
                std::process::id()
            )),
            ..SchedulerConfig::default()
        };
        Scheduler::new(
            cfg,
            Arc::new(MetricsRegistry::new()),
            Arc::new(DyingGangRunner {
                deaths_left: std::sync::atomic::AtomicU64::new(deaths),
                die_at,
            }),
        )
    }

    #[test]
    fn dead_gang_requeues_from_checkpoint_and_completes() {
        let s = dying_sched(2, 2, 1);
        let id = s.submit(spec(2, 4, 5)).unwrap();
        assert!(s.wait_idle(Duration::from_secs(30)));
        let rec = s.job(id).unwrap();
        assert_eq!(rec.state, JobState::Completed, "{rec:?}");
        assert_eq!(rec.recoveries, 2, "both deaths recovered: {rec:?}");
        assert_eq!(rec.result.unwrap().steps, 5);
        // A recovery is a fresh dispatch epoch, not a preemption.
        assert_eq!(rec.preemptions, 0);
        assert_eq!(rec.ranks_history.len(), 3);
        assert_eq!(s.metrics().jobs_recovered.get(), 2);
        assert_eq!(s.metrics().jobs_failed.get(), 0);
    }

    #[test]
    fn perpetually_dying_gang_fails_after_the_recovery_budget() {
        let s = dying_sched(2, u64::MAX, 0);
        let id = s.submit(spec(2, 4, 5)).unwrap();
        assert!(s.wait_idle(Duration::from_secs(30)));
        let rec = s.job(id).unwrap();
        assert_eq!(rec.state, JobState::Failed, "{rec:?}");
        assert_eq!(rec.recoveries, MAX_RECOVERIES + 1);
        assert!(
            rec.error.as_deref().unwrap_or("").contains("gang died"),
            "{rec:?}"
        );
        assert_eq!(s.metrics().jobs_failed.get(), 1);
    }

    #[test]
    fn jobs_run_to_completion() {
        let s = sched(4, 16, 1);
        let ids: Vec<u64> = (0..6)
            .map(|i| s.submit(spec(1 + (i % 3), 4, 3)).unwrap())
            .collect();
        assert!(s.wait_idle(Duration::from_secs(30)));
        for id in ids {
            let rec = s.job(id).unwrap();
            assert_eq!(rec.state, JobState::Completed, "job {id}: {rec:?}");
            assert_eq!(rec.result.unwrap().steps, 3);
            assert!(rec.latency_ms().is_some());
        }
        assert_eq!(s.metrics().jobs_completed.get(), 6);
    }

    #[test]
    fn invalid_and_overflow_submissions_are_rejected() {
        let s = sched(2, 1, 50);
        assert!(matches!(
            s.submit(spec(0, 4, 3)),
            Err(SubmitError::Invalid(_))
        ));
        // Fill the pool, then the 1-deep queue, then overflow.
        let _a = s.submit(spec(2, 4, 40)).unwrap();
        // Give the dispatcher a moment to seat the first job so the
        // queue-depth check below sees exactly one waiter.
        let deadline = Instant::now() + Duration::from_secs(10);
        while s.metrics().ranks_busy.get() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let _b = s.submit(spec(2, 4, 1)).unwrap();
        match s.submit(spec(1, 4, 1)) {
            Err(SubmitError::QueueFull { limit }) => assert_eq!(limit, 1),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(s.metrics().jobs_rejected_queue_full.get(), 1);
    }

    #[test]
    fn cancel_queued_and_running() {
        let s = sched(1, 16, 20);
        let running = s.submit(spec(1, 9, 200)).unwrap();
        let queued = s.submit(spec(1, 0, 200)).unwrap();
        // The queued job cancels instantly.
        let deadline = Instant::now() + Duration::from_secs(10);
        while s.job(queued).unwrap().state != JobState::Queued && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(s.cancel(queued), CancelOutcome::Canceled);
        assert_eq!(s.job(queued).unwrap().state, JobState::Canceled);
        // The running job stops at its next step boundary.
        while s.job(running).unwrap().state == JobState::Queued && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(s.cancel(running), CancelOutcome::CancelRequested);
        assert!(s.wait_idle(Duration::from_secs(30)));
        let rec = s.job(running).unwrap();
        assert_eq!(rec.state, JobState::Canceled);
        assert!(rec.steps_done < 200);
        assert_eq!(s.cancel(running), CancelOutcome::AlreadyTerminal);
        assert_eq!(s.cancel(999), CancelOutcome::NotFound);
    }

    #[test]
    fn high_priority_preempts_and_victim_resumes() {
        let s = sched(2, 16, 5);
        // Victim fills the pool and runs long enough to be caught.
        let victim = s.submit(spec(2, 0, 100)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while s.job(victim).unwrap().state != JobState::Running && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Urgent job needs the whole pool: the victim must yield.
        let urgent = s.submit(JobSpec { min_ranks: 2, ..spec(2, 9, 3) }).unwrap();
        assert!(s.wait_idle(Duration::from_secs(60)));
        let v = s.job(victim).unwrap();
        let u = s.job(urgent).unwrap();
        assert_eq!(u.state, JobState::Completed);
        assert_eq!(v.state, JobState::Completed);
        assert!(v.preemptions >= 1, "victim was never preempted: {v:?}");
        assert!(v.ranks_history.len() >= 2, "victim never resumed: {v:?}");
        assert_eq!(v.result.unwrap().steps, 100);
        // The urgent job must have started before the victim's final
        // epoch finished (it did not just wait for the victim to end).
        assert!(s.metrics().preemptions.get() >= 1);
    }

    #[test]
    fn shutdown_cancels_queued_and_preempts_running() {
        let s = sched(1, 16, 20);
        let running = s.submit(spec(1, 4, 500)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while s.job(running).unwrap().state != JobState::Running && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let queued = s.submit(spec(1, 4, 500)).unwrap();
        s.shutdown(Duration::from_secs(30));
        assert_eq!(s.job(queued).unwrap().state, JobState::Canceled);
        let r = s.job(running).unwrap();
        assert_eq!(r.state, JobState::Preempted, "{r:?}");
        assert!(matches!(
            s.submit(spec(1, 4, 1)),
            Err(SubmitError::Invalid(_))
        ));
    }
}

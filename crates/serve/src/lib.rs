//! # beatnik-serve — a multi-tenant simulation service
//!
//! Turns the Beatnik-RS stack from a one-shot CLI into a long-running
//! server: tenants submit simulation jobs (problem size, solver order,
//! transport backend, fault plan, checkpoint cadence, priority,
//! deadline) over a hand-rolled HTTP/1.1 API, and a scheduler
//! gang-schedules each job's ranks onto one shared [`RankPool`].
//!
//! The moving parts, bottom-up:
//!
//! * [`job`] — the [`job::JobSpec`] wire format, admission validation,
//!   and the [`job::JobRecord`] state machine
//!   (queued → running → {completed, failed, canceled}, with a
//!   preempted ↔ running loop in the middle).
//! * [`scheduler`] — admission control (reject invalid, 429 when
//!   saturated), priority + deadline ordering, **elastic gang
//!   dispatch** (a job can start or resume with fewer ranks than it
//!   asked for, down to its `min_ranks`), and **preemption**: when a
//!   high-priority job cannot be seated, lower-priority victims are
//!   flagged, checkpoint themselves at a step boundary using the PR 4
//!   checkpoint/restart machinery, and requeue; a reservation keeps
//!   backfill from stealing the freed slots.
//! * [`events`] — per-job live diagnostics streams: the runner
//!   publishes one NDJSON line per step, chunked
//!   `GET /jobs/{id}/events` tails them while the job runs, and the
//!   scheduler closes the stream with a final deadline-margin record.
//! * [`http`] — request/response parsing over `std::net` plus a
//!   one-shot client used by loadgen, the benches, and `verify.sh`
//!   (no curl anywhere), and the chunked transfer-encoding writer the
//!   event stream rides on.
//! * [`server`] — the accept loop and routes (`/jobs`, `/jobs/{id}`,
//!   `/jobs/{id}/events`, `/metrics`, `/healthz`).
//! * [`metrics`] — service-level counters/gauges/histograms published
//!   through the shared `beatnik-telemetry` registry, so `GET /metrics`
//!   is the same OpenMetrics exposition the rest of the workspace uses.
//!
//! The physics itself stays out of this crate: execution is abstracted
//! behind [`scheduler::JobRunner`], implemented by
//! `beatnik-rocketrig`'s serve driver. That keeps the dependency
//! arrow pointing `rocketrig → serve`, not the reverse.
//!
//! [`RankPool`]: beatnik_comm::RankPool

pub mod events;
pub mod http;
pub mod job;
pub mod metrics;
pub mod scheduler;
pub mod server;

pub use events::JobEvents;
pub use job::{JobLimits, JobRecord, JobResult, JobSpec, JobState, FT_RECV_TIMEOUT, MAX_PRIORITY};
pub use metrics::ServeMetrics;
pub use scheduler::{
    CancelOutcome, JobContext, JobOutcome, JobRunner, Scheduler, SchedulerConfig, SubmitError,
};
pub use server::{serve, ServerHandle, METRICS_CONTENT_TYPE};

//! The `beatnik-serve` job runner: executes one dispatch epoch of a
//! submitted job as a real rocket-rig simulation on a
//! [`World`]-constructed gang of ranks.
//!
//! ## Control agreement
//!
//! Preempt/cancel flags are plain atomics set by scheduler threads, so
//! different ranks could observe a flip at different steps and diverge
//! (some checkpointing, others stepping on — a deadlock in the next
//! collective). To keep the gang in lockstep, rank 0 alone reads the
//! flags at each step boundary and **broadcasts a one-byte verdict**
//! (`GO`/`YIELD`/`STOP`); every rank acts on the broadcast value, never
//! on the atomics directly. The broadcast rides the job's own world,
//! so it is counted in the job's communication totals like any other
//! collective.
//!
//! ## Preemption and elastic resume
//!
//! On `YIELD` the gang writes a collective checkpoint
//! ([`beatnik_io::checkpoint::save`] — rank 0 gathers and atomically
//! writes the full surface) and returns. The checkpoint records the
//! global surface, not a per-rank decomposition, so the next epoch can
//! rebuild the solver at **any** gang size — this is what lets the
//! scheduler resume a preempted 8-rank job on the 2 slots that happen
//! to be free.
//!
//! ## Fault plans
//!
//! A job with a fault plan runs the same epoch with the plan attached.
//! A failure ends the whole gang ([`World`]'s `run_ft`), and the epoch
//! reports [`JobOutcome::GangDied`]: the scheduler requeues the job, and
//! the next dispatch resumes from the checkpoint like any preempted
//! job. Every outcome that requeues carries the plan's actions that
//! have not fired, so a kill fires once, not once per dispatch.

use crate::{Deck, RigConfig, FT_RECV_TIMEOUT};
use beatnik_comm::{Communicator, FaultPlan, TransportKind, World, WorldTimeline};
use beatnik_core::{Diagnostics, Order, Solver};
use beatnik_serve::scheduler::{JobContext, JobOutcome, JobRunner};
use beatnik_comm::telemetry::StragglerDetector;
use beatnik_serve::JobSpec;
use std::time::Instant;

/// Per-step verdict codes broadcast by rank 0.
const GO: u8 = 0;
const YIELD: u8 = 1;
const STOP: u8 = 2;

/// Translate a validated [`JobSpec`] into a solver configuration.
/// Medium/high-order jobs get the paper's cutoff-solver parameters for
/// their deck (the same values [`crate::BenchCase`] uses).
pub fn rig_config(spec: &JobSpec) -> Result<RigConfig, String> {
    let order: Order = spec.order.parse()?;
    let deck = match spec.deck.as_str() {
        "multimode" => Deck::MultiModePeriodic,
        "singlemode" => Deck::SingleModeOpen,
        other => return Err(format!("unknown deck '{other}' (multimode|singlemode)")),
    };
    let mut cfg = RigConfig {
        deck,
        order,
        mesh_n: spec.mesh_n,
        steps: spec.steps,
        // The service reports final diagnostics itself; per-step
        // logging is the CLI driver's concern.
        diag_every: 0,
        ..RigConfig::default()
    };
    if order.needs_br_solver() {
        cfg.cutoff_solver = true;
        cfg.params.epsilon = 0.1;
        cfg.params.cutoff = match deck {
            Deck::MultiModePeriodic => 0.2,
            Deck::SingleModeOpen => 0.5,
        };
    }
    if let Some(dt) = spec.dt {
        cfg.params.dt = dt;
    }
    cfg.validate()?;
    Ok(cfg)
}

/// How one epoch ended, per rank (identical on every rank — all
/// branching follows the rank-0 broadcast).
#[derive(Debug, Clone, Copy, PartialEq)]
enum EpochEnd {
    Done { amplitude: f64, enstrophy: f64 },
    Yielded { at_step: usize },
    Stopped { at_step: usize },
}

/// Rank 0's per-step diagnostics state: wall clock, an online
/// straggler detector over step latencies, and the last comm-byte
/// watermark for per-step deltas.
struct StepDiag {
    started: Instant,
    straggler: StragglerDetector,
    last_bytes: u64,
}

/// One dispatch epoch of `ctx`'s job: build the solver, restore the
/// checkpoint when resuming, and step to completion or to a broadcast
/// verdict. Rank 0 publishes one NDJSON line per step onto the job's
/// events (step wall time, its comm-byte delta, the online straggler
/// verdict, and the live deadline margin) — the payload behind
/// `GET /jobs/{id}/events`.
fn epoch(comm: &Communicator, cfg: &RigConfig, ctx: &JobContext) -> EpochEnd {
    let (ckpt, checkpoint_every) = (&ctx.ckpt_path, ctx.spec.checkpoint_every);
    let mut solver = Solver::new(cfg.build_mesh(comm), cfg.boundary_condition(), cfg.solver_config());
    if ctx.resume && ckpt.exists() {
        let (step, time) = beatnik_io::checkpoint::load(solver.problem_mut(), ckpt)
            .expect("checkpoint restore failed");
        solver.restore_clock(step, time);
    }
    let mut diag = (comm.rank() == 0).then(|| StepDiag {
        started: Instant::now(),
        straggler: StragglerDetector::default(),
        last_bytes: 0,
    });
    while solver.step_count() < cfg.steps {
        let verdict = if comm.rank() == 0 {
            let code = if ctx.cancel_requested() {
                STOP
            } else if ctx.preempt_requested() {
                YIELD
            } else {
                GO
            };
            comm.broadcast(0, Some(vec![code]))[0]
        } else {
            comm.broadcast::<u8>(0, None)[0]
        };
        let at_step = solver.step_count();
        match verdict {
            YIELD => {
                beatnik_io::checkpoint::save(solver.problem(), at_step, solver.time(), ckpt)
                    .expect("preemption checkpoint write failed");
                return EpochEnd::Yielded { at_step };
            }
            STOP => return EpochEnd::Stopped { at_step },
            _ => {}
        }
        comm.fault_step(at_step as u64 + 1);
        let step_t0 = Instant::now();
        solver.step();
        let s = solver.step_count();
        if let Some(d) = diag.as_mut() {
            let step_ns = step_t0.elapsed().as_nanos() as u64;
            let flagged_before = d.straggler.events.len();
            d.straggler.observe("step", -1, 0, step_ns);
            let straggler = d.straggler.events.len() > flagged_before;
            let total = comm.trace().total_bytes();
            let comm_bytes = total.saturating_sub(d.last_bytes);
            d.last_bytes = total;
            let margin = match ctx.deadline_remaining_ms {
                Some(r) => (r - d.started.elapsed().as_millis() as i64).to_string(),
                None => "null".to_string(),
            };
            ctx.events.publish(format!(
                "{{\"event\":\"step\",\"step\":{s},\"step_ms\":{:.3},\"comm_bytes\":{comm_bytes},\
                 \"straggler\":{straggler},\"deadline_margin_ms\":{margin}}}",
                step_ns as f64 / 1e6,
            ));
        }
        if checkpoint_every > 0 && s.is_multiple_of(checkpoint_every) && s < cfg.steps {
            beatnik_io::checkpoint::save(solver.problem(), s, solver.time(), ckpt)
                .expect("checkpoint write failed");
        }
    }
    let d = Diagnostics::compute(solver.problem());
    EpochEnd::Done {
        amplitude: d.amplitude,
        enstrophy: d.enstrophy,
    }
}

/// Condense a profiled epoch's step-phase critical path into one line
/// for the job record.
fn critical_path_summary(timeline: &WorldTimeline) -> String {
    let cp = timeline.critical_path("step");
    let mut s = format!(
        "{} steps, {:.3} ms critical path",
        cp.steps.len(),
        cp.total_s * 1e3
    );
    let top: Vec<String> = cp
        .bound_by
        .iter()
        .take(3)
        .map(|(name, secs)| format!("{name} {:.3} ms", secs * 1e3))
        .collect();
    if !top.is_empty() {
        s.push_str(&format!("; bound by {}", top.join(", ")));
    }
    s
}

/// The production [`JobRunner`]: each scheduler dispatch builds a
/// fresh [`World`] of `ctx.ranks` thread-ranks on the job's requested
/// transport and runs the physics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RigRunner;

impl RigRunner {
    /// A runner (stateless; one instance serves every job).
    pub fn new() -> Self {
        RigRunner
    }
}

impl JobRunner for RigRunner {
    fn admit(&self, spec: &JobSpec) -> Result<(), String> {
        rig_config(spec).map(|_| ())
    }

    fn run(&self, ctx: &JobContext) -> Result<JobOutcome, String> {
        let spec = &ctx.spec;
        let cfg = rig_config(spec)?;
        let transport: TransportKind = spec.transport.parse()?;

        let plan = spec
            .faults
            .as_deref()
            .map(|f| FaultPlan::parse(f, beatnik_comm::CommConfig::from_env().fault_seed))
            .transpose()?;
        let mut world = World::builder(ctx.ranks).transport(transport);
        if spec.profile {
            world = world.profiled();
        }
        if let Some(plan) = &plan {
            world = world.recv_timeout(FT_RECV_TIMEOUT).fault_plan(plan);
        }
        let report = world.run_ft(|comm| epoch(&comm, &cfg, ctx));

        // Per-job communication volume, labelled into the service
        // registry so `GET /metrics` exposes it next to the job state.
        ctx.registry
            .counter(
                "beatnik_serve_job_comm_bytes_total",
                "payload bytes moved by the job's world",
                &[("job", &ctx.id.to_string())],
            )
            .add(report.trace.total_bytes());

        let faults_left = plan
            .map(|p| p.unfired(&report.fault_events, &report.killed))
            .filter(|p| !p.actions.is_empty())
            .map(|p| p.to_spec());
        let Some(ends) = report.results.into_iter().collect::<Option<Vec<_>>>() else {
            return Ok(JobOutcome::GangDied {
                at_step: ctx.steps_done,
                faults_left,
            });
        };
        let end = ends[0];
        Ok(match end {
            EpochEnd::Done {
                amplitude,
                enstrophy,
            } => JobOutcome::Completed {
                steps: spec.steps,
                amplitude,
                enstrophy,
                critical_path: report.timeline.as_ref().map(critical_path_summary),
            },
            EpochEnd::Yielded { at_step } => JobOutcome::Preempted {
                at_step,
                faults_left,
            },
            EpochEnd::Stopped { at_step } => JobOutcome::Canceled { at_step },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beatnik_serve::scheduler::JobContext;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("beatnik-serve-driver-{}-{name}", std::process::id()))
    }

    #[test]
    fn spec_maps_to_solver_config() {
        let spec = JobSpec {
            order: "high".into(),
            deck: "singlemode".into(),
            dt: Some(5e-4),
            ..JobSpec::default()
        };
        let cfg = rig_config(&spec).unwrap();
        assert_eq!(cfg.order, Order::High);
        assert_eq!(cfg.deck, Deck::SingleModeOpen);
        assert!(cfg.cutoff_solver);
        assert_eq!(cfg.params.cutoff, 0.5);
        assert_eq!(cfg.params.dt, 5e-4);
        assert!(rig_config(&JobSpec { order: "ultra".into(), ..JobSpec::default() }).is_err());
        assert!(rig_config(&JobSpec { deck: "cube".into(), ..JobSpec::default() }).is_err());
        assert!(rig_config(&JobSpec { dt: Some(-1.0), ..JobSpec::default() }).is_err());
    }

    /// An FFT order on the open deck would panic on every rank of the
    /// gang; the runner refuses it at admission instead, which the
    /// scheduler answers with a 400.
    #[test]
    fn fft_orders_on_the_open_deck_are_refused_at_admission() {
        for order in ["low", "medium"] {
            let spec = JobSpec {
                order: order.into(),
                deck: "singlemode".into(),
                ..JobSpec::default()
            };
            let err = RigRunner.admit(&spec).unwrap_err();
            assert!(err.contains("needs periodic boundaries"), "{order}: {err}");
            assert_eq!(rig_config(&spec).unwrap_err(), err);
        }
        let high = JobSpec {
            order: "high".into(),
            deck: "singlemode".into(),
            ..JobSpec::default()
        };
        assert!(RigRunner.admit(&high).is_ok());
    }

    #[test]
    fn runner_completes_a_small_job() {
        let ctx = JobContext::standalone(
            JobSpec {
                mesh_n: 12,
                steps: 2,
                ranks: 2,
                ..JobSpec::default()
            },
            2,
            tmp("complete.ckpt.json"),
        );
        match RigRunner::new().run(&ctx).unwrap() {
            JobOutcome::Completed {
                steps, amplitude, ..
            } => {
                assert_eq!(steps, 2);
                assert!(amplitude.is_finite());
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn runner_honors_cancel_before_first_step() {
        let ctx = JobContext::standalone(
            JobSpec {
                mesh_n: 12,
                steps: 50,
                ranks: 2,
                ..JobSpec::default()
            },
            2,
            tmp("cancel.ckpt.json"),
        );
        ctx.cancel.store(true, std::sync::atomic::Ordering::Relaxed);
        match RigRunner::new().run(&ctx).unwrap() {
            JobOutcome::Canceled { at_step } => assert_eq!(at_step, 0),
            other => panic!("expected cancel, got {other:?}"),
        }
    }

    #[test]
    fn profiled_job_reports_a_critical_path() {
        let ctx = JobContext::standalone(
            JobSpec {
                mesh_n: 12,
                steps: 2,
                profile: true,
                ..JobSpec::default()
            },
            1,
            tmp("profile.ckpt.json"),
        );
        match RigRunner::new().run(&ctx).unwrap() {
            JobOutcome::Completed { critical_path, .. } => {
                let cp = critical_path.expect("profiled job records a critical path");
                assert!(cp.contains("critical path"), "{cp}");
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }
}

//! World launch: ranks as scoped threads over a pluggable transport.
//!
//! [`World::builder`] is the one entry point. It collapses what used to
//! be eight `run*` variants into a single fluent configuration —
//! transport backend, receive timeout, profiling, fault plan — with
//! four terminal runners:
//!
//! ```
//! use beatnik_comm::World;
//!
//! let sums = World::builder(4).run(|c| c.allreduce_sum(c.rank() as f64));
//! assert!(sums.iter().all(|&s| s == 6.0));
//! ```
//!
//! `run_traced` adds the aggregated [`WorldTrace`], `run_profiled` adds
//! the span [`WorldTimeline`], and `run_ft` returns an [`FtReport`]
//! where a world that failure ends — an injected death, a peer's death
//! seen in a wait, a receive deadline — is data instead of a propagated
//! panic.

use crate::affinity::CpuMask;
use crate::communicator::Communicator;
use crate::config::CommConfig;
use crate::fault::{is_abort, is_failure, panic_message};
use crate::fault::{FaultEvent, FaultInjector, FaultPlan, RankKilled};
use crate::metrics::MetricsPlane;
use crate::registry::{Registry, WORLD_COMM_ID};
use crate::sync::Mutex;
use crate::trace::{RankTrace, WorldTrace};
use crate::transport::{Progress, TransportKind};
use beatnik_telemetry::metrics::MetricsRegistry;
use beatnik_telemetry::{RankTimeline, SpanRecorder, WorldTimeline, TRACED_SPAN_CAPACITY};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default stall limit for blocking receives: long enough for heavyweight
/// kernels between messages, short enough that a genuine deadlock fails a
/// CI run loudly instead of hanging it.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// Entry point for running an SPMD program over `P` thread-ranks.
///
/// Mirrors `mpirun -np P`: the closure is the program `main`, executed once
/// per rank with that rank's [`Communicator`] for the world group.
pub struct World;

/// Outcome of a fault-tolerant run ([`WorldBuilder::run_ft`]): unlike the
/// plain runners, a world that failure ends is *data*, not a propagated
/// panic.
pub struct FtReport<R> {
    /// Per-rank results; `None` for ranks that died by injection or
    /// unwound on the failure path before producing one.
    pub results: Vec<Option<R>>,
    /// World ranks killed by fault injection, in rank order.
    pub killed: Vec<usize>,
    /// Aggregated communication counters for the whole run.
    pub trace: WorldTrace,
    /// Span timeline when profiling was enabled.
    pub timeline: Option<WorldTimeline>,
    /// Every fault the plan actually fired, sorted by `(rank, op_index)`.
    /// Byte-identical across runs with the same plan, seed, and program.
    pub fault_events: Vec<FaultEvent>,
}

/// Fluent configuration for a world launch; see the module docs.
///
/// Starts from [`CommConfig::from_env`], so `BEATNIK_*` environment
/// overrides apply unless a setter pins the knob explicitly.
pub struct WorldBuilder {
    num_ranks: usize,
    config: CommConfig,
    span_capacity: Option<usize>,
    fault_plan: Option<FaultPlan>,
}

impl World {
    /// Start configuring a world of `num_ranks` ranks.
    pub fn builder(num_ranks: usize) -> WorldBuilder {
        WorldBuilder {
            num_ranks,
            config: CommConfig::from_env(),
            span_capacity: None,
            fault_plan: None,
        }
    }
}

impl WorldBuilder {
    /// Select the transport backend carrying envelopes between ranks.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.config.transport = kind;
        self
    }

    /// Replace the whole configuration (all `BEATNIK_*` knobs at once).
    pub fn config(mut self, config: CommConfig) -> Self {
        self.config = config;
        self
    }

    /// Stall limit for blocking receives; doubles as the
    /// failure-detection deadline for fault-tolerant drivers (which
    /// typically pass seconds, not minutes).
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.config.recv_timeout = timeout;
        self
    }

    /// Enable span profiling at [`TRACED_SPAN_CAPACITY`] spans per rank
    /// (drop-oldest on overflow). Profiled runs also carry causal trace
    /// contexts, whose flow edges break silently when the ring wraps —
    /// hence the larger default than the bare
    /// [`beatnik_telemetry::DEFAULT_SPAN_CAPACITY`];
    /// use [`WorldBuilder::span_capacity`] to override.
    pub fn profiled(self) -> Self {
        self.span_capacity(TRACED_SPAN_CAPACITY)
    }

    /// Enable span profiling with an explicit per-rank ring capacity.
    pub fn span_capacity(mut self, capacity: usize) -> Self {
        self.span_capacity = Some(capacity);
        self
    }

    /// Inject faults from `plan` (deterministic; see [`FaultPlan`]).
    /// Meaningful with [`WorldBuilder::run_ft`], which reports the
    /// failures they cause instead of propagating them.
    pub fn fault_plan(mut self, plan: &FaultPlan) -> Self {
        self.fault_plan = Some(plan.clone());
        self
    }

    /// Run `f` on every rank; returns each rank's result, indexed by rank.
    ///
    /// # Panics
    /// Propagates the first rank panic after all ranks have stopped
    /// (peers of a panicked rank fail their receive timeouts, so the
    /// whole world terminates rather than hanging).
    pub fn run<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Communicator) -> R + Send + Sync,
    {
        self.run_traced(f).0
    }

    /// Like [`WorldBuilder::run`], additionally returning the aggregated
    /// communication trace.
    pub fn run_traced<R, F>(self, f: F) -> (Vec<R>, WorldTrace)
    where
        R: Send,
        F: Fn(Communicator) -> R + Send + Sync,
    {
        let report = self.launch(f, false);
        (Self::unwrap_results(report.results), report.trace)
    }

    /// Like [`WorldBuilder::run_traced`], with span profiling enabled
    /// (implicitly at [`TRACED_SPAN_CAPACITY`] unless
    /// [`WorldBuilder::span_capacity`] set one).
    pub fn run_profiled<R, F>(mut self, f: F) -> (Vec<R>, WorldTrace, WorldTimeline)
    where
        R: Send,
        F: Fn(Communicator) -> R + Send + Sync,
    {
        if self.span_capacity.is_none() {
            self.span_capacity = Some(TRACED_SPAN_CAPACITY);
        }
        let report = self.launch(f, false);
        (
            Self::unwrap_results(report.results),
            report.trace,
            report.timeline.expect("profiled run yields a timeline"),
        )
    }

    /// Fault-tolerant runner, with MPI's default error handler: ranks
    /// killed by the fault plan terminate quietly (recorded in
    /// [`FtReport::killed`]), and survivors observe the death as
    /// `CommError::RankFailed` / `Timeout` on their next blocking op.
    /// The first rank that unwinds on it aborts the world, so every
    /// blocked rank unwinds promptly; the report then holds `None` for
    /// each rank that did not finish. Recovery is a relaunch from a
    /// checkpoint, by the caller. Panics that are bugs, not failures,
    /// propagate exactly as in [`WorldBuilder::run`].
    pub fn run_ft<R, F>(self, f: F) -> FtReport<R>
    where
        R: Send,
        F: Fn(Communicator) -> R + Send + Sync,
    {
        self.launch(f, true)
    }

    fn unwrap_results<R>(results: Vec<Option<R>>) -> Vec<R> {
        results
            .into_iter()
            .map(|r| r.expect("rank produced no result"))
            .collect()
    }

    /// The one launch path every terminal runner shares: build the
    /// transport, the metrics plane, and one communicator per rank; run
    /// the ranks as scoped threads; tear the transport down after every
    /// rank has joined. With `ft`, rank panics that are all failures
    /// end the world without propagating.
    fn launch<R, F>(self, f: F, ft: bool) -> FtReport<R>
    where
        R: Send,
        F: Fn(Communicator) -> R + Send + Sync,
    {
        let WorldBuilder {
            num_ranks,
            config,
            span_capacity,
            fault_plan,
        } = self;
        assert!(num_ranks > 0, "world needs at least one rank");
        if fault_plan.is_some() {
            Self::silence_injected_kills();
        }

        let registry = Arc::new(Registry::new());
        // One mask read per launch: whether the ranks outnumber their
        // CPUs, and if so where each starts.
        let mask = CpuMask::of_this_thread();
        registry.set_yield_turns(crate::communicator::yield_turns(
            num_ranks,
            mask.map(|m| m.len()),
        ));
        let starts = start_cpus(num_ranks, mask.as_ref());
        let transport = crate::transport::build_loopback(config.transport, num_ranks, &config);
        registry.install_transport(Arc::clone(&transport));
        transport.attach(&registry);

        // One shared metrics registry per world: every rank trace
        // publishes its counters into it, and the metrics plane
        // (installed below) snapshots it live.
        let metrics = Arc::new(MetricsRegistry::new());
        metrics
            .gauge(
                "beatnik_world_info",
                "World configuration carried as labels (value is always 1)",
                &[("transport", config.transport.name())],
            )
            .set(1);
        let traces: Vec<Arc<RankTrace>> = (0..num_ranks)
            .map(|rank| Arc::new(RankTrace::with_registry(&metrics, rank)))
            .collect();
        // All ranks stamp spans against one epoch so cross-rank skew is
        // meaningful; `None` capacity yields inert recorders.
        let epoch = Instant::now();
        let recorders: Vec<Arc<SpanRecorder>> = (0..num_ranks)
            .map(|_| {
                Arc::new(match span_capacity {
                    Some(cap) => SpanRecorder::new(cap, epoch),
                    None => SpanRecorder::disabled(),
                })
            })
            .collect();
        let identity: Arc<Vec<usize>> = Arc::new((0..num_ranks).collect());
        registry.install_metrics(Arc::new(MetricsPlane::new(
            metrics,
            traces.clone(),
            recorders.clone(),
        )));
        let injectors: Vec<Option<Arc<FaultInjector>>> = (0..num_ranks)
            .map(|rank| fault_plan.as_ref().and_then(|p| p.injector_for(rank)))
            .collect();

        let mut results: Vec<Option<R>> = (0..num_ranks).map(|_| None).collect();
        let killed: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let returned = AtomicUsize::new(0);
        let progress = transport.progress();
        let f = &f;
        let killed_ref = &killed;
        let (returned, progress) = (&returned, progress.as_deref());
        std::thread::scope(|scope| {
            let handles: Vec<_> = results
                .iter_mut()
                .enumerate()
                .map(|(rank, slot)| {
                    let comm = Communicator::new(
                        Arc::clone(&registry),
                        WORLD_COMM_ID,
                        rank,
                        num_ranks,
                        Arc::clone(&identity),
                        Arc::clone(&traces[rank]),
                        Arc::clone(&recorders[rank]),
                        config.recv_timeout,
                    )
                    .with_fault(injectors[rank].clone());
                    let reg = Arc::clone(&registry);
                    let start = mask.zip(starts[rank]);
                    scope.spawn(move || {
                        if let Some((mask, cpu)) = start {
                            mask.start_on(cpu);
                        }
                        // On panic, flag the world so peers blocked in
                        // receives fail fast rather than timing out.
                        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm)));
                        let last = returned.fetch_add(1, Ordering::SeqCst) + 1 == num_ranks;
                        match (progress, &out) {
                            (Some(p), _) if last => p.ring_all(),
                            (Some(p), Ok(_)) => finalize(p, &reg, rank, returned, num_ranks),
                            _ => {}
                        }
                        match out {
                            Ok(r) => *slot = Some(r),
                            Err(p) => {
                                // An injected kill is part of the
                                // experiment: the ledger already holds it,
                                // and survivors see it there.
                                if let Some(k) = p.downcast_ref::<RankKilled>() {
                                    killed_ref.lock().push(k.world_rank);
                                } else {
                                    reg.signal_abort();
                                    std::panic::resume_unwind(p);
                                }
                            }
                        }
                    })
                })
                .collect();
            // Prefer a bug over the failures it set off, and the root
            // cause over secondary "peer failed" abort panics from ranks
            // that were merely blocked on it.
            let mut panics: Vec<Box<dyn std::any::Any + Send>> = Vec::new();
            for h in handles {
                if let Err(p) = h.join() {
                    panics.push(p);
                }
            }
            // A fault-tolerant world that only failures ended reports
            // them instead.
            let failures_only = ft && panics.iter().all(|p| is_failure(&**p));
            if !panics.is_empty() && !failures_only {
                let bug = panics.iter().position(|p| !is_failure(&**p));
                let idx = bug
                    .or_else(|| panics.iter().position(|p| !is_abort(panic_message(&**p))))
                    .unwrap_or(0);
                // The transport must not outlive the world even when a
                // rank panic propagates out of the launch.
                transport.shutdown();
                std::panic::resume_unwind(panics.swap_remove(idx));
            }
        });

        // All rank threads have joined; drain and stop the transport
        // before snapshotting so in-flight wire frames land first.
        transport.shutdown();

        // All rank threads have joined: snapshotting the recorders is
        // race-free (single-writer protocol).
        let timeline = span_capacity.map(|_| {
            WorldTimeline::new(
                recorders
                    .iter()
                    .enumerate()
                    .map(|(rank, rec)| {
                        let (spans, dropped) = rec.snapshot();
                        RankTimeline {
                            rank,
                            spans,
                            dropped,
                        }
                    })
                    .collect(),
            )
        });
        let mut killed = std::mem::take(&mut *killed.lock());
        killed.sort_unstable();
        let mut fault_events: Vec<FaultEvent> = injectors
            .iter()
            .flatten()
            .flat_map(|inj| inj.events())
            .collect();
        fault_events.sort_by_key(FaultEvent::ledger_key);
        FtReport {
            results,
            killed,
            trace: WorldTrace::new(traces),
            timeline,
            fault_events,
        }
    }

    /// Install (once, process-wide) a panic hook that swallows the
    /// three panics a failure sets off: the [`RankKilled`] payload
    /// injection takes a rank down with, the
    /// [`crate::fault::CollectiveFailed`] payload a peer's death raises
    /// in the ranks that wait on it, and the abort that unwinds the
    /// ranks left blocked. All are the *experiment*, not a bug — the
    /// default hook's "thread panicked" banner and backtrace for each
    /// would bury real failures in noise. Every other panic (a receive
    /// deadline included) reaches the previous hook untouched, and the
    /// payloads themselves still propagate to whoever catches (or fails
    /// to catch) them.
    fn silence_injected_kills() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let p = info.payload();
                let aborted = info.payload_as_str().is_some_and(is_abort);
                if !p.is::<RankKilled>() && !p.is::<crate::fault::CollectiveFailed>() && !aborted {
                    previous(info);
                }
            }));
        });
    }
}

/// A rank whose closure has returned keeps draining its own inbound
/// until every rank of the world has returned or the world aborts — the
/// `MPI_Finalize` analogue — so a peer still writing to it is never left
/// blocked on a full wire. The last rank to return rings every doorbell.
fn finalize(
    progress: &dyn Progress,
    registry: &Registry,
    rank: usize,
    returned: &AtomicUsize,
    num_ranks: usize,
) {
    loop {
        let seen = progress.epoch(rank);
        if returned.load(Ordering::SeqCst) == num_ranks || registry.aborted() {
            return;
        }
        progress.progress(registry, rank, seen, Duration::from_millis(100));
    }
}

/// Where each rank thread starts: when the ranks outnumber the `n` CPUs
/// of the launching thread's mask (and there is more than one), rank `r`
/// starts on the `r mod n`-th CPU, so each CPU hosts ⌊ranks/n⌋ or
/// ⌈ranks/n⌉ of them; otherwise the kernel places them.
///
/// The kernel places a new thread by the load its CPUs carried a moment
/// before, and that load is whatever the previous world left. Under
/// [`crate::communicator::YIELD_TURNS`] the placement then holds for the
/// run: a rank that hands its CPU over instead of sleeping gives the
/// kernel no wake-up at which to move it. Three ranks on one CPU of two
/// leave the fourth alone on the other with nothing to yield to, and it
/// sleeps on every exchange.
fn start_cpus(num_ranks: usize, mask: Option<&CpuMask>) -> Vec<Option<usize>> {
    let cpus: Vec<usize> = match mask {
        Some(mask) if mask.len() > 1 && num_ranks > mask.len() => mask.cpus().collect(),
        _ => return vec![None; num_ranks],
    };
    (0..num_ranks).map(|r| Some(cpus[r % cpus.len()])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversubscribed_ranks_start_round_robin_over_the_mask() {
        let two = CpuMask::from_cpus(&[3, 5]);
        assert_eq!(
            start_cpus(5, Some(&two)),
            [Some(3), Some(5), Some(3), Some(5), Some(3)]
        );
        // Ranks that fit, a single CPU, or no mask: the kernel places them.
        assert_eq!(start_cpus(2, Some(&two)), [None, None]);
        assert_eq!(start_cpus(3, Some(&CpuMask::from_cpus(&[3]))), [None; 3]);
        assert_eq!(start_cpus(3, None), [None; 3]);
    }

    #[test]
    fn results_are_indexed_by_rank() {
        let out = World::builder(6).run(|c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn single_rank_world_works() {
        let out = World::builder(1).run(|c| {
            c.barrier();
            let v = c.allgather(&[5u8]);
            (c.size(), v)
        });
        assert_eq!(out[0].0, 1);
        assert_eq!(out[0].1, vec![5]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_is_rejected() {
        let _ = World::builder(0).run(|_| ());
    }

    #[test]
    #[should_panic(expected = "rank 2 exploded")]
    fn rank_panic_propagates() {
        World::builder(4).run(|c| {
            if c.rank() == 2 {
                panic!("rank 2 exploded");
            }
        });
    }

    #[test]
    fn run_ft_reports_a_world_a_failure_ends() {
        let plan = FaultPlan::parse("kill:r2@step1", 0).expect("static plan");
        let report = World::builder(4).fault_plan(&plan).run_ft(|c| {
            c.fault_step(1);
            // Ranks 0, 1 and 3 see the death here, and the first of them
            // to unwind aborts the others.
            c.barrier();
            c.allreduce_sum(1.0)
        });
        assert_eq!(report.killed, [2]);
        assert!(report.results.iter().all(Option::is_none));
        assert_eq!(report.fault_events.len(), 1);
    }

    #[test]
    #[should_panic(expected = "rank 1 exploded")]
    fn run_ft_propagates_a_bug() {
        let plan = FaultPlan::parse("kill:r2@step1", 0).expect("static plan");
        World::builder(3).fault_plan(&plan).run_ft(|c| {
            c.fault_step(1);
            if c.rank() == 1 {
                panic!("rank 1 exploded");
            }
            c.barrier();
        });
    }

    #[test]
    fn deadlock_is_converted_into_panic() {
        let res = std::panic::catch_unwind(|| {
            World::builder(2)
                .recv_timeout(Duration::from_millis(50))
                .run(|c| {
                    if c.rank() == 0 {
                        // Rank 1 never sends: this receive must time out.
                        let _ = c.recv::<u8>(1, 0);
                    }
                })
        });
        assert!(res.is_err());
    }

    #[test]
    fn worlds_are_isolated() {
        // Two sequential worlds must not share mailboxes or traces.
        let (_, t1) = World::builder(2).run_traced(|c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![1u8]);
            } else {
                let _ = c.recv::<u8>(0, 0);
            }
        });
        let (_, t2) = World::builder(2).run_traced(|c| {
            c.barrier();
        });
        assert_eq!(t1.total(crate::trace::OpKind::Send).messages, 1);
        assert_eq!(t2.total(crate::trace::OpKind::Send).messages, 0);
    }

    #[test]
    fn builder_covers_the_old_entry_points() {
        let out = World::builder(2).run(|c| c.rank());
        assert_eq!(out, vec![0, 1]);
        let (_, t) = World::builder(2).run_traced(|c| c.barrier());
        assert!(t.total(crate::trace::OpKind::Barrier).messages > 0);
    }

    #[test]
    fn builder_pins_config_knobs() {
        let cfg = CommConfig {
            transport: TransportKind::Shmem,
            recv_timeout: Duration::from_secs(5),
            ..CommConfig::default()
        };
        World::builder(2).config(cfg).run(|c| {
            assert_eq!(c.recv_timeout(), Duration::from_secs(5));
            let snap = c.metrics_snapshot().expect("world runners install a plane");
            assert_eq!(
                snap.value("beatnik_world_info", &[("transport", "shmem")]),
                Some(1)
            );
        });
    }
}

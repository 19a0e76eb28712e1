//! # beatnik-rocketrig — the driver program (paper §4)
//!
//! The rocket-rig problem: two fluids of different densities accelerated
//! along z, Rayleigh–Taylor instabilities developing on their interface.
//! This crate provides the paper's two input decks, a config/CLI layer,
//! and the run loop wiring solvers to I/O — the ~700-line driver the
//! paper describes, in library form so the examples and benchmarks can
//! reuse it.
//!
//! The paper's four benchmark test cases map to deck + order + solver
//! combinations (see [`BenchCase`]):
//!
//! 1. multi-mode low-order **weak** scaling — FFT all-to-all bandwidth;
//! 2. multi-mode low-order **strong** scaling — all-to-all latency;
//! 3. multi-mode high-order (cutoff) **weak** scaling — general comm
//!    scalability;
//! 4. single-mode high-order (cutoff) **strong** scaling — load
//!    imbalance, dynamic irregular communication.

use beatnik_comm::{Communicator, FaultEvent, FaultPlan, WorldBuilder, WorldTimeline, WorldTrace};
use beatnik_core::solver::BrChoice;
use beatnik_core::{Diagnostics, InitialCondition, Order, Params, Solver, SolverConfig};
use beatnik_dfft::FftConfig;
use beatnik_io::stats::{RunLog, StepRecord};
use beatnik_json::{impl_json_struct, impl_json_unit_enum};
use beatnik_mesh::{BoundaryCondition, SpatialMesh, SurfaceMesh};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

pub mod cli;
pub mod serve_driver;

pub use cli::{parse_args, parse_serve_args, CliOptions, ServeOptions, SERVE_USAGE};
pub use serve_driver::RigRunner;

/// The two paper input decks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deck {
    /// Multi-mode periodic rocket rig (paper Fig. 1): even point
    /// distribution, FFT-friendly.
    MultiModePeriodic,
    /// Single-mode non-periodic rocket rig (paper Fig. 2): develops
    /// rollup and load imbalance; requires a high-order solver.
    SingleModeOpen,
}

impl_json_unit_enum!(Deck { MultiModePeriodic, SingleModeOpen });

impl Deck {
    /// The x/y/z domain box the paper uses for this deck family:
    /// `(-19…19)³` for low-order decks, `(-3…3)³` for high-order decks.
    pub fn domain(&self, order: Order) -> ([f64; 3], [f64; 3]) {
        match order {
            Order::Low => ([-19.0, -19.0, -19.0], [19.0, 19.0, 19.0]),
            Order::Medium | Order::High => ([-3.0, -3.0, -3.0], [3.0, 3.0, 3.0]),
        }
    }

    /// The initial condition for this deck.
    pub fn initial_condition(&self) -> InitialCondition {
        match self {
            Deck::MultiModePeriodic => InitialCondition::MultiMode {
                amplitude: 0.05,
                modes: 4,
                seed: 1984,
            },
            Deck::SingleModeOpen => InitialCondition::SingleMode {
                amplitude: 0.20,
                modes: [1.0, 1.0],
            },
        }
    }

    /// Whether the deck is periodic.
    pub fn periodic(&self) -> bool {
        matches!(self, Deck::MultiModePeriodic)
    }
}

/// Full run configuration.
#[derive(Debug, Clone)]
pub struct RigConfig {
    /// Which input deck.
    pub deck: Deck,
    /// Model order.
    pub order: Order,
    /// Surface mesh nodes per axis.
    pub mesh_n: usize,
    /// Timesteps to run.
    pub steps: usize,
    /// Use the cutoff solver (vs. exact) for medium/high order.
    pub cutoff_solver: bool,
    /// Physical and numerical parameters.
    pub params: Params,
    /// Distributed-FFT tuning.
    pub fft: FftConfig,
    /// Record diagnostics every this many steps (0 = never).
    pub diag_every: usize,
    /// Also record ownership distributions when recording diagnostics.
    pub record_ownership: bool,
    /// Number of *virtual* spatial ranks to bin ownership into (the paper
    /// measures against 256 regions regardless of where the job runs).
    /// `None` bins into the actual rank count.
    pub ownership_ranks: Option<usize>,
    /// Write a VTK dump every this many steps (0 = never).
    pub vtk_every: usize,
    /// Output directory for VTK/JSON artifacts.
    pub out_dir: PathBuf,
    /// Flush live metrics (OpenMetrics text plus a JSON twin) here.
    pub metrics_path: Option<PathBuf>,
    /// Rewrite the metrics files every this many steps (0 = only at the
    /// final step). Applies when `metrics_path` is set.
    pub metrics_every: usize,
}

impl_json_struct!(RigConfig {
    deck,
    order,
    mesh_n,
    steps,
    cutoff_solver,
    params,
    fft,
    diag_every,
    record_ownership,
    ownership_ranks,
    vtk_every,
    out_dir,
    metrics_path,
    metrics_every,
});

impl Default for RigConfig {
    fn default() -> Self {
        RigConfig {
            deck: Deck::MultiModePeriodic,
            order: Order::Low,
            mesh_n: 64,
            steps: 20,
            cutoff_solver: true,
            params: Params::default(),
            fft: FftConfig::default(),
            diag_every: 1,
            record_ownership: false,
            ownership_ranks: None,
            vtk_every: 0,
            out_dir: PathBuf::from("rocketrig-out"),
            metrics_path: None,
            metrics_every: 0,
        }
    }
}

impl RigConfig {
    /// Refuse a configuration no rank could run, before any rank starts:
    /// parameters out of range, and an FFT order on the open deck (its
    /// spectral derivatives need periodic boundaries).
    pub fn validate(&self) -> Result<(), String> {
        self.params.validate()?;
        if self.order.needs_fft() && !self.deck.periodic() {
            return Err(format!(
                "order {} needs periodic boundaries; the singlemode deck is open \
                 (run it at order high)",
                self.order
            ));
        }
        Ok(())
    }

    /// The spatial mesh matching this config's domain and rank count
    /// (used by the cutoff solver and the ownership diagnostics).
    pub fn spatial_mesh(&self, ranks: usize) -> SpatialMesh {
        let (lo, hi) = self.deck.domain(self.order);
        SpatialMesh::new(lo, hi, beatnik_comm::dims_create(ranks))
    }

    /// Build the [`SolverConfig`] equivalent of this run.
    pub fn solver_config(&self) -> SolverConfig {
        let br = if !self.order.needs_br_solver() {
            BrChoice::None
        } else if self.cutoff_solver {
            BrChoice::Cutoff {
                bounds: self.deck.domain(self.order),
            }
        } else {
            BrChoice::Exact
        };
        SolverConfig {
            order: self.order,
            br,
            params: self.params,
            fft: self.fft,
            ic: self.deck.initial_condition(),
        }
    }

    /// The run log's label: deck, order, mesh and steps.
    fn label(&self) -> String {
        let (deck, order, n, steps) = (self.deck, self.order, self.mesh_n, self.steps);
        format!("{deck:?}/{order}/{n}^2/{steps} steps")
    }

    /// Construct the surface mesh for one rank. Collective.
    pub fn build_mesh(&self, comm: &Communicator) -> SurfaceMesh {
        let (lo, hi) = self.deck.domain(self.order);
        let periodic = self.deck.periodic();
        SurfaceMesh::new(
            comm,
            [self.mesh_n, self.mesh_n],
            [periodic, periodic],
            2,
            [lo[1], lo[0]],
            [hi[1], hi[0]],
        )
    }

    /// The boundary condition for this deck.
    pub fn boundary_condition(&self) -> BoundaryCondition {
        let (lo, hi) = self.deck.domain(self.order);
        if self.deck.periodic() {
            BoundaryCondition::Periodic {
                periods: [hi[1] - lo[1], hi[0] - lo[0]],
            }
        } else {
            BoundaryCondition::Free
        }
    }
}

/// Run a configured rocket-rig simulation on this rank. Returns the run
/// log (identical on every rank). Collective.
pub fn run_rig(comm: &Communicator, cfg: &RigConfig) -> RunLog {
    let mut solver = Solver::new(cfg.build_mesh(comm), cfg.boundary_condition(), cfg.solver_config());
    let mut log = RunLog::new(cfg.label());
    drive(comm, cfg, &mut solver, 0, Path::new(""), |rec| log.push(rec));
    log
}

/// Step `solver` to `cfg.steps`, handing each diagnostics record to
/// `record` and writing VTK dumps, metrics and (every `checkpoint_every`
/// steps, 0 = never) checkpoints to `ckpt` on their cadences. Each step
/// starts at the fault engine, where step-triggered kills fire.
/// Collective.
fn drive(
    comm: &Communicator,
    cfg: &RigConfig,
    solver: &mut Solver,
    checkpoint_every: usize,
    ckpt: &Path,
    mut record: impl FnMut(StepRecord),
) {
    let smesh = cfg.spatial_mesh(cfg.ownership_ranks.unwrap_or_else(|| comm.size()));
    if cfg.vtk_every > 0 && comm.rank() == 0 {
        std::fs::create_dir_all(&cfg.out_dir).expect("cannot create output dir");
    }
    while solver.step_count() < cfg.steps {
        // Step-triggered kills fire at the start of the step (1-based).
        comm.fault_step(solver.step_count() as u64 + 1);
        solver.step();
        let s = solver.step_count();
        if cfg.diag_every > 0 && s.is_multiple_of(cfg.diag_every) {
            let ownership = cfg
                .record_ownership
                .then(|| beatnik_core::diagnostics::ownership_fractions(solver.problem(), &smesh));
            record(StepRecord {
                step: s,
                time: solver.time(),
                diagnostics: Diagnostics::compute(solver.problem()),
                ownership,
            });
        }
        if cfg.vtk_every > 0 && s.is_multiple_of(cfg.vtk_every) {
            let path = cfg.out_dir.join(format!("surface_{s:05}.vtk"));
            beatnik_io::vtk::write_vtk(solver.problem(), path).expect("vtk write failed");
        }
        if checkpoint_every > 0 && s.is_multiple_of(checkpoint_every) {
            beatnik_io::checkpoint::save(solver.problem(), s, solver.time(), ckpt)
                .expect("checkpoint write failed");
            // Rank 0 writes after the others have sent their blocks: no
            // rank starts step s + 1, where a failure could end the
            // world, before step s is on disk.
            comm.barrier();
        }
        maybe_flush_metrics(comm, cfg, s);
    }
}

/// Flush the live metrics files when the step cadence (or the final
/// step) asks for it. Rank 0 only; a no-op outside a `World` runner.
fn maybe_flush_metrics(comm: &Communicator, cfg: &RigConfig, step: usize) {
    let Some(path) = &cfg.metrics_path else {
        return;
    };
    let due = step == cfg.steps
        || (cfg.metrics_every > 0 && step.is_multiple_of(cfg.metrics_every));
    if comm.rank() != 0 || !due {
        return;
    }
    flush_metrics(comm, path);
}

/// Write a live snapshot of the world's metrics plane: OpenMetrics text
/// exposition at `path` and a JSON twin at `<path>.json`. Scrapers tail
/// the text file; scripts read the JSON. No-op when the communicator
/// has no metrics plane (built outside a `World` runner).
pub fn flush_metrics(comm: &Communicator, path: &std::path::Path) {
    let Some(snap) = comm.metrics_snapshot() else {
        return;
    };
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    beatnik_io::write_openmetrics(&snap, path).expect("metrics write failed");
    let name = path
        .file_name()
        .and_then(|s| s.to_str())
        .unwrap_or("metrics");
    let json = path.with_file_name(format!("{name}.json"));
    beatnik_io::write_metrics_json(&snap, &json).expect("metrics JSON write failed");
}

/// Receive deadline used by the fault-tolerant driver (defined with the
/// serve admission check that bounds fault delays by it).
pub use beatnik_serve::FT_RECV_TIMEOUT;

/// Launch cap for the fault-tolerant driver: each rank death or dropped
/// message costs one relaunch, so a bounded plan converges well under
/// this; an unbounded retry loop would mask a genuine solver bug.
const MAX_FT_ATTEMPTS: usize = 8;

/// One relaunch of a fault-tolerant run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Relaunch {
    /// Ranks the relaunched world ran on.
    pub ranks: usize,
    /// Step of the checkpoint it resumed from (0: none had been written).
    pub from_step: usize,
}

/// What [`run_rig_ft`] hands back.
pub struct FtRun {
    /// The run log. Steps a relaunch replayed replace the records lost
    /// with the world that died.
    pub log: RunLog,
    /// Ranks killed by fault injection, numbered as in the first world,
    /// in rank order.
    pub killed: Vec<usize>,
    /// Every fault that fired, ranks numbered as in the first world,
    /// sorted by `(rank, op_index)`.
    pub fault_events: Vec<FaultEvent>,
    /// Each relaunch, in order.
    pub relaunches: Vec<Relaunch>,
    /// Communication trace of the world that finished the run.
    pub trace: WorldTrace,
    /// Span timeline of that world, when `world` builds profiled worlds.
    pub timeline: Option<WorldTimeline>,
}

/// Fault-tolerant run: recovery is restart, as under MPI's default
/// `MPI_ERRORS_ARE_FATAL` with checkpoint/restart. Launch a world of
/// `ranks` ranks from `world(ranks)` with `plan` attached, checkpointing
/// every `checkpoint_every` steps to `ckpt_path`. A failure ends that
/// whole world ([`beatnik_comm::WorldBuilder::run_ft`]); the driver then
/// relaunches a world of the survivors' size from the newest
/// checkpoint, carrying only the plan's actions that have not fired,
/// renumbered to the survivors' ranks. Each relaunched rank stamps its
/// rebuild and restore as a `recovery` telemetry phase span.
///
/// # Panics
/// Propagates panics that are bugs rather than failures, and gives up
/// after [`MAX_FT_ATTEMPTS`] launches or once every rank has died.
pub fn run_rig_ft(
    world: impl Fn(usize) -> WorldBuilder,
    ranks: usize,
    plan: Option<FaultPlan>,
    cfg: &RigConfig,
    checkpoint_every: usize,
    ckpt_path: &Path,
) -> FtRun {
    let shared = Mutex::new((RunLog::new(cfg.label()), Vec::new()));
    // The first world's rank behind each rank of the current one.
    let mut first: Vec<usize> = (0..ranks).collect();
    let (mut plan, mut killed, mut fault_events) = (plan, Vec::new(), Vec::new());
    for launch in 0..MAX_FT_ATTEMPTS {
        assert!(!first.is_empty(), "every rank died");
        let mut builder = world(first.len());
        if let Some(p) = &plan {
            builder = builder.fault_plan(p);
        }
        let report = builder.run_ft(|comm| {
            ft_attempt(&comm, cfg, checkpoint_every, ckpt_path, launch > 0, &shared)
        });
        killed.extend(report.killed.iter().map(|&r| first[r]));
        fault_events.extend(report.fault_events.iter().map(|e| FaultEvent {
            rank: first[e.rank],
            peer: e.peer.map(|p| first[p]),
            ..e.clone()
        }));
        if report.results.iter().all(Option::is_some) {
            killed.sort_unstable();
            fault_events.sort_by_key(|e| (e.rank, e.op_index));
            let (log, relaunches) = shared.into_inner().expect("no rank panics holding the log");
            return FtRun {
                log,
                killed,
                fault_events,
                relaunches,
                trace: report.trace,
                timeline: report.timeline,
            };
        }
        plan = plan.map(|p| p.unfired(&report.fault_events, &report.killed));
        first = (0..first.len())
            .filter(|r| !report.killed.contains(r))
            .map(|r| first[r])
            .collect();
    }
    panic!("giving up after {MAX_FT_ATTEMPTS} launches");
}

/// One launch of [`run_rig_ft`] on this rank: (re)build the solver,
/// restore the newest checkpoint if one exists, and step to completion.
/// Rank 0 keeps the shared log and notes the relaunch.
fn ft_attempt(
    comm: &Communicator,
    cfg: &RigConfig,
    checkpoint_every: usize,
    ckpt_path: &Path,
    relaunch: bool,
    shared: &Mutex<(RunLog, Vec<Relaunch>)>,
) {
    let mut solver = {
        let _recovery = relaunch.then(|| comm.telemetry().phase(beatnik_comm::RECOVERY_PHASE));
        let mut solver =
            Solver::new(cfg.build_mesh(comm), cfg.boundary_condition(), cfg.solver_config());
        if ckpt_path.exists() {
            let (step, time) = beatnik_io::checkpoint::load(solver.problem_mut(), ckpt_path)
                .expect("checkpoint restore failed");
            solver.restore_clock(step, time);
        }
        solver
    };
    let from_step = solver.step_count();
    let lead = comm.rank() == 0;
    if lead {
        let (log, relaunches) = &mut *shared.lock().expect("no rank panics holding the log");
        log.steps.retain(|r| r.step <= from_step);
        if relaunch {
            relaunches.push(Relaunch {
                ranks: comm.size(),
                from_step,
            });
        }
    }
    drive(comm, cfg, &mut solver, checkpoint_every, ckpt_path, |rec| {
        if lead {
            shared.lock().expect("no rank panics holding the log").0.push(rec);
        }
    });
}

/// The paper's four benchmark test cases (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchCase {
    /// Multi-mode low-order weak scaling (network bandwidth).
    LowOrderWeak,
    /// Multi-mode low-order strong scaling (network latency).
    LowOrderStrong,
    /// Multi-mode high-order (cutoff) weak scaling (general scalability).
    CutoffWeak,
    /// Single-mode high-order (cutoff) strong scaling (load imbalance).
    CutoffStrong,
}

impl_json_unit_enum!(BenchCase {
    LowOrderWeak,
    LowOrderStrong,
    CutoffWeak,
    CutoffStrong,
});

impl BenchCase {
    /// A laptop-scale configuration for the case (the figure harnesses
    /// combine these with the analytic machine model for paper-scale
    /// numbers).
    pub fn config(&self, mesh_n: usize, steps: usize) -> RigConfig {
        let mut cfg = RigConfig {
            mesh_n,
            steps,
            ..RigConfig::default()
        };
        match self {
            BenchCase::LowOrderWeak | BenchCase::LowOrderStrong => {
                cfg.deck = Deck::MultiModePeriodic;
                cfg.order = Order::Low;
            }
            BenchCase::CutoffWeak => {
                cfg.deck = Deck::MultiModePeriodic;
                cfg.order = Order::High;
                cfg.cutoff_solver = true;
                cfg.params.cutoff = 0.2; // the paper's value for this case
                cfg.params.epsilon = 0.1;
            }
            BenchCase::CutoffStrong => {
                cfg.deck = Deck::SingleModeOpen;
                cfg.order = Order::High;
                cfg.cutoff_solver = true;
                cfg.params.cutoff = 0.5; // the paper's value
                cfg.params.epsilon = 0.1;
            }
        }
        cfg
    }

    /// All four cases.
    pub fn all() -> [BenchCase; 4] {
        [
            BenchCase::LowOrderWeak,
            BenchCase::LowOrderStrong,
            BenchCase::CutoffWeak,
            BenchCase::CutoffStrong,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beatnik_comm::World;

    #[test]
    fn decks_have_paper_domains() {
        let d = Deck::MultiModePeriodic;
        assert_eq!(d.domain(Order::Low).0, [-19.0; 3]);
        assert_eq!(d.domain(Order::High).1, [3.0; 3]);
        assert!(d.periodic());
        assert!(!Deck::SingleModeOpen.periodic());
    }

    #[test]
    fn multimode_low_order_runs_end_to_end() {
        World::builder(4).run(|comm| {
            let mut cfg = BenchCase::LowOrderWeak.config(16, 3);
            cfg.params.dt = 1e-3;
            let log = run_rig(&comm, &cfg);
            assert_eq!(log.steps.len(), 3);
            assert!(log.steps[2].diagnostics.amplitude.is_finite());
            assert!(log.steps[2].diagnostics.points == 256);
        });
    }

    #[test]
    fn singlemode_cutoff_runs_end_to_end_with_ownership() {
        World::builder(2).run(|comm| {
            let mut cfg = BenchCase::CutoffStrong.config(12, 2);
            cfg.params.dt = 1e-3;
            cfg.record_ownership = true;
            let log = run_rig(&comm, &cfg);
            assert_eq!(log.steps.len(), 2);
            let own = log.steps[1].ownership.as_ref().unwrap();
            assert_eq!(own.len(), 2);
            assert!((own.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        });
    }

    #[test]
    fn all_bench_cases_produce_valid_configs() {
        for case in BenchCase::all() {
            let cfg = case.config(16, 2);
            assert!(cfg.params.validate().is_ok(), "{case:?}");
            match case {
                BenchCase::LowOrderWeak | BenchCase::LowOrderStrong => {
                    assert_eq!(cfg.order, Order::Low)
                }
                _ => assert_eq!(cfg.order, Order::High),
            }
        }
    }

    #[test]
    fn vtk_output_is_written_when_requested() {
        World::builder(1).run(|comm| {
            let dir = std::env::temp_dir().join("beatnik_rig_vtk");
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = BenchCase::LowOrderWeak.config(12, 2);
            cfg.params.dt = 1e-3;
            cfg.vtk_every = 2;
            cfg.out_dir = dir.clone();
            let _ = run_rig(&comm, &cfg);
            assert!(dir.join("surface_00002.vtk").exists());
        });
    }
}

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

use beatnik_comm::Communicator;
use beatnik_core::solver::BrChoice;
use beatnik_core::{Diagnostics, InitialCondition, Order, Params, Solver, SolverConfig};
use beatnik_dfft::FftConfig;
use beatnik_io::stats::{RunLog, StepRecord};
use beatnik_json::{impl_json_struct, impl_json_unit_enum};
use beatnik_mesh::{BoundaryCondition, SpatialMesh, SurfaceMesh};
use std::path::PathBuf;

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
    let mesh = cfg.build_mesh(comm);
    let bc = cfg.boundary_condition();
    let mut solver = Solver::new(mesh, bc, cfg.solver_config());
    let smesh = cfg.spatial_mesh(cfg.ownership_ranks.unwrap_or_else(|| comm.size()));
    let mut log = RunLog::new(format!(
        "{:?}/{}/{}^2/{} steps",
        cfg.deck, cfg.order, cfg.mesh_n, cfg.steps
    ));

    if cfg.vtk_every > 0 && comm.rank() == 0 {
        std::fs::create_dir_all(&cfg.out_dir).expect("cannot create output dir");
    }

    for _ in 0..cfg.steps {
        solver.step();
        let s = solver.step_count();
        if cfg.diag_every > 0 && s.is_multiple_of(cfg.diag_every) {
            let ownership = cfg
                .record_ownership
                .then(|| beatnik_core::diagnostics::ownership_fractions(solver.problem(), &smesh));
            log.push(StepRecord {
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
        maybe_flush_metrics(comm, cfg, s);
    }
    log
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

/// Receive deadline used by the fault-tolerant driver: long enough for
/// any smoke-scale solver step, short enough that a dropped message is
/// detected and recovered from in CI time rather than the plain runner's
/// two-minute deadlock window.
pub const FT_RECV_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(15);

/// Attempt cap for the fault-tolerant driver: each rank death or dropped
/// message costs one restart, so a bounded plan converges well under
/// this; an unbounded retry loop would mask a genuine solver bug.
const MAX_FT_ATTEMPTS: usize = 8;

/// Fault-tolerant driver loop (the ULFM recovery pattern): run the rig,
/// checkpointing every `checkpoint_every` steps to `ckpt_path`, and when
/// a peer rank dies mid-step, revoke the communicator, shrink to the
/// agreed survivor group, rebuild the solver at the smaller world size,
/// and restart from the last complete checkpoint. Message-loss timeouts
/// recover the same way (the "shrunk" group is simply everyone, on a
/// fresh communicator with clean mailboxes).
///
/// Survivors return the run log for the completed simulation; a rank
/// killed by fault injection never returns (its `RankKilled` panic
/// propagates to [`beatnik_comm::WorldBuilder::run_ft`], which records it).
/// Each recovery epoch is stamped as a `recovery` telemetry phase span.
///
/// # Panics
/// Propagates non-failure panics (genuine bugs), and gives up with a
/// panic after [`MAX_FT_ATTEMPTS`] restarts.
pub fn run_rig_ft(
    comm: Communicator,
    cfg: &RigConfig,
    checkpoint_every: usize,
    ckpt_path: &std::path::Path,
) -> RunLog {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    let mut comm = comm;
    let mut log = RunLog::new(format!(
        "{:?}/{}/{}^2/{} steps (fault-tolerant)",
        cfg.deck, cfg.order, cfg.mesh_n, cfg.steps
    ));
    for _attempt in 0..MAX_FT_ATTEMPTS {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_ft_attempt(&comm, cfg, checkpoint_every, ckpt_path, &mut log)
        }));
        match outcome {
            Ok(()) => return log,
            Err(p) => {
                if p.downcast_ref::<beatnik_comm::RankKilled>().is_some() {
                    // This rank is the casualty: die for real so the world
                    // runner records it.
                    resume_unwind(p);
                }
                let failure = p.downcast_ref::<beatnik_comm::CollectiveFailed>().is_some();
                let deadlock = p
                    .downcast_ref::<String>()
                    .is_some_and(|m| m.contains(" deadlock on rank "));
                if !failure && !deadlock {
                    resume_unwind(p); // a genuine bug, not a peer failure
                }
                comm = recover(&comm);
            }
        }
    }
    panic!(
        "rank {} giving up after {MAX_FT_ATTEMPTS} recovery attempts",
        comm.rank()
    );
}

/// One run attempt on the current communicator: (re)build the solver,
/// restore the newest checkpoint if one exists, and step to completion,
/// checkpointing on the configured cadence. Log records for recomputed
/// steps replace the ones lost to the failure.
fn run_ft_attempt(
    comm: &Communicator,
    cfg: &RigConfig,
    checkpoint_every: usize,
    ckpt_path: &std::path::Path,
    log: &mut RunLog,
) {
    let mesh = cfg.build_mesh(comm);
    let bc = cfg.boundary_condition();
    let mut solver = Solver::new(mesh, bc, cfg.solver_config());
    if ckpt_path.exists() {
        let (step, time) = beatnik_io::checkpoint::load(solver.problem_mut(), ckpt_path)
            .expect("checkpoint restore failed");
        solver.restore_clock(step, time);
    }
    let start_step = solver.step_count();
    log.steps.retain(|r| r.step <= start_step);
    let smesh = cfg.spatial_mesh(cfg.ownership_ranks.unwrap_or_else(|| comm.size()));

    while solver.step_count() < cfg.steps {
        // Step-triggered kills fire at the start of the step (1-based).
        comm.fault_step(solver.step_count() as u64 + 1);
        solver.step();
        let s = solver.step_count();
        if cfg.diag_every > 0 && s.is_multiple_of(cfg.diag_every) {
            let ownership = cfg
                .record_ownership
                .then(|| beatnik_core::diagnostics::ownership_fractions(solver.problem(), &smesh));
            log.push(StepRecord {
                step: s,
                time: solver.time(),
                diagnostics: Diagnostics::compute(solver.problem()),
                ownership,
            });
        }
        if checkpoint_every > 0 && s.is_multiple_of(checkpoint_every) {
            beatnik_io::checkpoint::save(solver.problem(), s, solver.time(), ckpt_path)
                .expect("checkpoint write failed");
        }
        maybe_flush_metrics(comm, cfg, s);
    }
}

/// Recovery epoch: revoke the damaged communicator (so stragglers blocked
/// in its collectives fail fast instead of timing out), then shrink to
/// the agreed survivor group, retrying while agreement itself is racing a
/// new failure. Spanned as a `recovery` telemetry phase.
fn recover(comm: &Communicator) -> Communicator {
    let telemetry = std::sync::Arc::clone(comm.telemetry());
    let _span = telemetry.phase(beatnik_comm::RECOVERY_PHASE);
    comm.revoke();
    for _ in 0..MAX_FT_ATTEMPTS {
        match comm.shrink() {
            Ok(next) => return next,
            Err(beatnik_comm::CommError::Timeout { .. }) => continue,
            Err(e) => panic!("recovery failed on rank {}: {e}", comm.rank()),
        }
    }
    panic!("rank {} could not agree on a survivor group", comm.rank());
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

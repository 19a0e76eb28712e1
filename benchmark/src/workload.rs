//! The five workloads: one `rocketrig` configuration each, chosen so that
//! a different layer dominates the step (see README.md).

use beatnik_comm::TransportKind;
use beatnik_core::{InitialCondition, Order, SolverConfig};
use beatnik_prng::Rng;
use beatnik_rocketrig::{Deck, RigConfig};

/// Ranks in every timed world. Two is the least that communicates; the
/// process is pinned to one CPU (see `pin.rs`), so more ranks would only
/// add switches. The 4-rank pass reports counts, never times.
pub const RANKS: usize = 2;

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    deck: Deck,
    order: Order,
    mesh_n: usize,
    /// Cutoff (true) or exact (false) Birkhoff–Rott solver, high order only.
    cutoff_solver: bool,
    pub transport: TransportKind,
    /// Untimed steps at the start of each repetition.
    pub warmup_steps: usize,
    /// Timed steps per repetition. Fixed, not time-boxed: the cutoff
    /// solver's step cost drifts as the interface deforms, so every
    /// repetition must cover the same steps.
    pub timed_steps: usize,
    /// Probe calls one step makes: `(per-layer metric, calls per step)`.
    /// Three Runge–Kutta stages per step; a low-order stage is 2 halo
    /// exchanges + 5 forward + 5 inverse FFTs, a high-order stage is
    /// 3 halo exchanges + 1 Birkhoff–Rott evaluation.
    pub layer_calls: &'static [(&'static str, f64)],
    /// The probe of one `ZModel::derivatives` call on this workload, and
    /// the derived metric for what that call spends outside `layer_calls`.
    pub derivatives: &'static str,
    pub zmodel_local: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "low_bw",
        why: "Paper case 1, low order 256^2: 256 KiB reshape blocks, so fft kernels, dfft pack/unpack and large-message comm set the step",
        deck: Deck::MultiModePeriodic,
        order: Order::Low,
        mesh_n: 256,
        cutoff_solver: false,
        transport: TransportKind::Thread,
        warmup_steps: 2,
        timed_steps: 12,
        layer_calls: &[
            ("mesh.halo_exchange_256_us", 6.0),
            ("dfft.forward_256_ms", 15.0),
            ("dfft.inverse_256_ms", 15.0),
        ],
        derivatives: "core.derivatives_256_ms",
        zmodel_local: "core.zmodel_local_256_ms",
    },
    Workload {
        name: "low_lat",
        why: "Paper case 2, low order 32^2: same code path with 4 KiB blocks, so per-message and per-call overhead set the step",
        deck: Deck::MultiModePeriodic,
        order: Order::Low,
        mesh_n: 32,
        cutoff_solver: false,
        transport: TransportKind::Thread,
        warmup_steps: 30,
        timed_steps: 250,
        layer_calls: &[
            ("mesh.halo_exchange_32_us", 6.0),
            ("dfft.forward_32_us", 15.0),
            ("dfft.inverse_32_us", 15.0),
        ],
        derivatives: "core.derivatives_32_us",
        zmodel_local: "core.zmodel_local_32_us",
    },
    Workload {
        name: "low_tcp",
        why: "Low order 64^2 over TCP loopback: wire framing, pollers and acks carry the same solver, so transport progress sets the step",
        deck: Deck::MultiModePeriodic,
        order: Order::Low,
        mesh_n: 64,
        cutoff_solver: false,
        transport: TransportKind::Tcp,
        warmup_steps: 5,
        timed_steps: 40,
        layer_calls: &[
            ("mesh.halo_exchange_64_tcp_us", 6.0),
            ("dfft.forward_64_tcp_ms", 15.0),
            ("dfft.inverse_64_tcp_ms", 15.0),
        ],
        derivatives: "core.derivatives_64_tcp_ms",
        zmodel_local: "core.zmodel_local_64_tcp_ms",
    },
    Workload {
        name: "cutoff_imb",
        why: "Paper case 4, single-mode high order cutoff 96^2: alltoallv migration, point halos, neighbour search and pair kernel, no FFT at all",
        deck: Deck::SingleModeOpen,
        order: Order::High,
        mesh_n: 96,
        cutoff_solver: true,
        transport: TransportKind::Thread,
        warmup_steps: 2,
        timed_steps: 10,
        layer_calls: &[
            ("mesh.halo_exchange_96_open_us", 9.0),
            ("core.br_cutoff_ms", 3.0),
        ],
        derivatives: "core.derivatives_cutoff_ms",
        zmodel_local: "core.zmodel_local_cutoff_ms",
    },
    Workload {
        name: "exact_ring",
        why: "High order exact Birkhoff-Rott 48^2: ring-pass all-pairs, over 90% pair kernel, so comm changes must leave it flat",
        deck: Deck::MultiModePeriodic,
        order: Order::High,
        mesh_n: 48,
        cutoff_solver: false,
        transport: TransportKind::Thread,
        warmup_steps: 2,
        timed_steps: 14,
        layer_calls: &[
            ("mesh.halo_exchange_48_us", 9.0),
            ("core.br_exact_ms", 3.0),
        ],
        derivatives: "core.derivatives_exact_ms",
        zmodel_local: "core.zmodel_local_exact_ms",
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The driver configuration; everything not set here is the
    /// `rocketrig` default (`FftConfig` cfg7, `Params::default()`).
    pub fn rig(&self) -> RigConfig {
        RigConfig {
            deck: self.deck,
            order: self.order,
            mesh_n: self.mesh_n,
            cutoff_solver: self.cutoff_solver,
            ..RigConfig::default()
        }
    }

    /// The solver configuration for `seed`. The seed picks the multi-mode
    /// mode table, or moves the single-mode amplitude by up to 5 %; the
    /// program sees only the generated configuration.
    pub fn solver_config(&self, seed: u64) -> SolverConfig {
        let mut cfg = self.rig().solver_config();
        cfg.ic = match cfg.ic {
            InitialCondition::MultiMode {
                amplitude, modes, ..
            } => InitialCondition::MultiMode {
                amplitude,
                modes,
                seed,
            },
            InitialCondition::SingleMode { amplitude, modes } => {
                let jitter = Rng::seed_from_u64(seed).gen_range(-0.05..0.05);
                InitialCondition::SingleMode {
                    amplitude: amplitude * (1.0 + jitter),
                    modes,
                }
            }
            InitialCondition::Flat => InitialCondition::Flat,
        };
        cfg
    }
}

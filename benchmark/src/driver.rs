//! The end-to-end measurement: closed-loop `rocketrig` steps in a world
//! of thread-ranks, one fresh world per repetition.

use crate::spans::Spans;
use crate::workload::Workload;
use beatnik_comm::{Communicator, TransportKind, World};
use beatnik_core::{Diagnostics, ProblemManager, Solver, SolverConfig};
use std::time::Instant;

/// What one world launch is asked to do.
pub struct RepSpec<'a> {
    pub workload: &'a Workload,
    pub config: SolverConfig,
    pub ranks: usize,
    pub transport: TransportKind,
    pub warmup_steps: usize,
    pub timed_steps: usize,
    /// Launch with `WorldBuilder::profiled()` (span rings + flow contexts).
    pub profiled: bool,
    /// Record `setup` and `step` spans (traced run only).
    pub spans: Option<&'a Spans>,
}

impl<'a> RepSpec<'a> {
    /// The workload as the end-to-end metric runs it.
    pub fn of(workload: &'a Workload, seed: u64) -> Self {
        RepSpec {
            workload,
            config: workload.solver_config(seed),
            ranks: crate::workload::RANKS,
            transport: workload.transport,
            warmup_steps: workload.warmup_steps,
            timed_steps: workload.timed_steps,
            profiled: false,
            spans: None,
        }
    }
}

/// Traffic one rank put on the wire, from its `RankTrace`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    pub messages: u64,
    pub bytes: u64,
    pub copied_bytes: u64,
}

impl Traffic {
    pub fn of(comm: &Communicator) -> Self {
        let t = comm.trace();
        Traffic {
            messages: t.total_messages(),
            bytes: t.total_bytes(),
            copied_bytes: t.copied_bytes(),
        }
    }

    pub fn since(self, earlier: Traffic) -> Traffic {
        Traffic {
            messages: self.messages - earlier.messages,
            bytes: self.bytes - earlier.bytes,
            copied_bytes: self.copied_bytes - earlier.copied_bytes,
        }
    }

    pub fn plus(self, other: Traffic) -> Traffic {
        Traffic {
            messages: self.messages + other.messages,
            bytes: self.bytes + other.bytes,
            copied_bytes: self.copied_bytes + other.copied_bytes,
        }
    }
}

/// What one repetition measured.
pub struct Rep {
    /// World launch → first `step()` call, on rank 0.
    pub setup_s: f64,
    /// Duration of each timed `step()` call on rank 0.
    pub step_ms: Vec<f64>,
    /// Timed steps after which some rank held a non-finite state.
    pub bad_steps: usize,
    /// Diagnostics of the final state.
    pub diagnostics: Diagnostics,
    /// Traffic of the timed steps, summed over ranks.
    pub traffic: Traffic,
}

struct RankOut {
    setup_s: f64,
    step_ms: Vec<f64>,
    bad_steps: usize,
    diagnostics: Diagnostics,
    traffic: Traffic,
}

/// Whether every owned state value on this rank is finite. Local: no
/// message is added between the timed steps.
fn state_is_finite(pm: &ProblemManager) -> bool {
    let finite = |f: &beatnik_mesh::Field| f.as_slice().iter().all(|v| v.is_finite());
    finite(pm.z()) && finite(pm.w())
}

/// Launch one world and run the repetition in it.
pub fn run_rep(spec: &RepSpec) -> Rep {
    let rig = spec.workload.rig();
    let mut builder = World::builder(spec.ranks).transport(spec.transport);
    if spec.profiled {
        builder = builder.profiled();
    }
    let setup_span = spec.spans.map(|s| s.enter("setup"));
    let launch = Instant::now();
    let ranks = builder.run(|comm| {
        let recorder = spec.spans.filter(|_| comm.rank() == 0);
        let mesh = rig.build_mesh(&comm);
        let mut solver = Solver::new(mesh, rig.boundary_condition(), spec.config);
        let setup_s = launch.elapsed().as_secs_f64();
        if let (Some(s), Some(id)) = (recorder, setup_span) {
            s.exit(id);
        }
        for _ in 0..spec.warmup_steps {
            solver.step();
        }
        let before = Traffic::of(&comm);
        let mut step_ms = Vec::with_capacity(spec.timed_steps);
        let mut bad_steps = 0;
        for _ in 0..spec.timed_steps {
            let ns = match recorder {
                Some(s) => s.time("step", || solver.step()).1,
                None => {
                    let t = Instant::now();
                    solver.step();
                    t.elapsed().as_nanos() as u64
                }
            };
            step_ms.push(ns as f64 / 1e6);
            if !state_is_finite(solver.problem()) {
                bad_steps += 1;
            }
        }
        let traffic = Traffic::of(&comm).since(before);
        RankOut {
            setup_s,
            step_ms,
            bad_steps,
            diagnostics: Diagnostics::compute(solver.problem()),
            traffic,
        }
    });
    let traffic = ranks
        .iter()
        .fold(Traffic::default(), |acc, r| acc.plus(r.traffic));
    let bad_steps = ranks.iter().map(|r| r.bad_steps).max().unwrap_or(0);
    let rank0 = ranks.into_iter().next().expect("world has a rank 0");
    Rep {
        setup_s: rank0.setup_s,
        step_ms: rank0.step_ms,
        bad_steps,
        diagnostics: rank0.diagnostics,
        traffic,
    }
}

/// Largest relative difference between two diagnostics records.
pub fn diagnostics_rel_err(a: &Diagnostics, b: &Diagnostics) -> f64 {
    let rel = |x: f64, y: f64| (x - y).abs() / x.abs().max(y.abs()).max(1e-300);
    let points = if a.points == b.points { 0.0 } else { 1.0 };
    [
        rel(a.amplitude, b.amplitude),
        rel(a.z_min, b.z_min),
        rel(a.z_max, b.z_max),
        rel(a.enstrophy, b.enstrophy),
        // The mean height sits near zero, so compare it on the scale of
        // the interface amplitude instead of on its own.
        (a.mean_height - b.mean_height).abs() / a.amplitude.abs().max(1e-300),
        points,
    ]
    .into_iter()
    .fold(0.0, f64::max)
}

/// Whether two diagnostics records are the same bit for bit.
pub fn diagnostics_identical(a: &Diagnostics, b: &Diagnostics) -> bool {
    let bits = |d: &Diagnostics| {
        [
            d.amplitude.to_bits(),
            d.z_min.to_bits(),
            d.z_max.to_bits(),
            d.enstrophy.to_bits(),
            d.mean_height.to_bits(),
            d.points as u64,
        ]
    };
    bits(a) == bits(b)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

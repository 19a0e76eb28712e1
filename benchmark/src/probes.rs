//! Per-layer probes: the calls a step makes into each crate, timed one
//! layer at a time from outside, at the sizes the workloads use.
//!
//! Every probe runs in a 2-rank world (or on the main thread for purely
//! local kernels). Rank 0 wraps each call in a span; the metric is the
//! 10th-percentile span duration, the statistic step time is quoted at.
//! Each call's output is checked, and each call is one attempt in the
//! run's tally.

use crate::driver::Traffic;
use crate::run::{Metric, Tally};
use crate::spans::Spans;
use crate::stats::{percentile, QUIET_PCT};
use crate::workload::{Workload, RANKS};
use beatnik_comm::{AllToAllAlgo, Communicator, TransportKind, World};
use beatnik_core::br::{BrPoint, BrSolver, CutoffBrSolver, ExactBrSolver};
use beatnik_core::solver::BrChoice;
use beatnik_core::{geometry, ProblemManager, Solver, TimeIntegrator, ZModel};
use beatnik_dfft::redistribute::redistribute;
use beatnik_dfft::{Dist, DistributedFft2d, FftConfig, Rect};
use beatnik_fft::{Complex, Fft2d};
use beatnik_mesh::migrate::{halo_exchange_points, migrate_results_home, migrate_to_spatial};
use beatnik_mesh::{Field, PointResult, SurfaceMesh, SurfacePoint};
use beatnik_prng::Rng;
use beatnik_spatial::neighbors::{brute_force_neighbors, Backend, NeighborList};
use std::cell::Cell;

/// Calls per probe at `RUN_SECONDS`, by the time scale of one call.
const CALLS_US: usize = 300;
const CALLS_MS: usize = 30;
/// Round trips at or under this error pass (inputs are O(1)).
const ROUND_TRIP_TOLERANCE: f64 = 1e-10;
/// Targets the neighbour list is checked against brute force on.
const BRUTE_FORCE_SAMPLE: usize = 512;

/// `derivatives` calls per step: the Runge–Kutta stages.
pub const STAGES_PER_STEP: f64 = 3.0;

#[derive(Clone, Copy)]
enum Unit {
    Us,
    Ms,
}

impl Unit {
    fn of_ns(self, ns: f64) -> (f64, &'static str) {
        match self {
            Unit::Us => (ns / 1e3, "us"),
            Unit::Ms => (ns / 1e6, "ms"),
        }
    }
}

/// What one rank's probes produced.
#[derive(Default)]
struct RankOut {
    /// Quiet-percentile call time per probe (recording rank only).
    timings: Vec<(&'static str, Unit, f64)>,
    /// Non-time metrics (recording rank only).
    values: Vec<(&'static str, f64, &'static str)>,
    /// Messages this rank sent per probe call.
    msgs: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
}

/// Marks the timed region of one probe call.
struct Timer<'a> {
    comm: Option<&'a Communicator>,
    spans: Option<&'a Spans>,
    name: &'static str,
    last_ns: Cell<u64>,
    /// Messages this rank sent inside the timed regions so far.
    messages: Cell<u64>,
}

impl Timer<'_> {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        // Counters are read outside the span, so only `f` is timed.
        let before = self.comm.map(Traffic::of);
        let out = match self.spans {
            Some(s) => {
                let (out, ns) = s.time(self.name, f);
                self.last_ns.set(ns);
                out
            }
            None => f(),
        };
        if let (Some(c), Some(before)) = (self.comm, before) {
            let sent = Traffic::of(c).since(before).messages;
            self.messages.set(self.messages.get() + sent);
        }
        out
    }
}

/// One rank's probe harness.
struct Bench<'a> {
    /// The world the probes run in; `None` on the main thread.
    comm: Option<&'a Communicator>,
    /// Set on the one thread that records (rank 0, or the main thread).
    spans: Option<&'a Spans>,
    scale: f64,
    out: RankOut,
}

impl<'a> Bench<'a> {
    fn in_world(comm: &'a Communicator, spans: &'a Spans, scale: f64) -> Self {
        Bench {
            comm: Some(comm),
            spans: (comm.rank() == 0).then_some(spans),
            scale,
            out: RankOut::default(),
        }
    }

    fn on_main(spans: &'a Spans, scale: f64) -> Self {
        Bench {
            comm: None,
            spans: Some(spans),
            scale,
            out: RankOut::default(),
        }
    }

    /// Call `body` a tenth of `base_calls` times to warm up, then
    /// `base_calls` times (scaled) for the record. `body` wraps the call
    /// under test in `Timer::time` and returns whether its output checked
    /// out. Collective when the body is.
    fn probe(
        &mut self,
        name: &'static str,
        unit: Unit,
        base_calls: usize,
        mut body: impl FnMut(&Timer) -> bool,
    ) {
        let calls = ((base_calls as f64 * self.scale).ceil() as usize).max(3);
        let timer = |spans| Timer {
            comm: self.comm,
            spans,
            name,
            last_ns: Cell::new(0),
            messages: Cell::new(0),
        };
        let warm = timer(None);
        for _ in 0..(calls / 10).max(2) {
            body(&warm);
        }
        if let Some(c) = self.comm {
            c.barrier();
        }
        let timer = timer(self.spans);
        let mut samples = Vec::with_capacity(calls);
        for _ in 0..calls {
            let ok = body(&timer);
            samples.push(timer.last_ns.get() as f64);
            self.out.attempted += 1;
            self.out.failed += u64::from(!ok);
        }
        self.out
            .msgs
            .push((name, timer.messages.get() as f64 / calls as f64));
        if self.spans.is_some() {
            self.out
                .timings
                .push((name, unit, percentile(&samples, QUIET_PCT)));
        }
    }

    fn value(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if self.spans.is_some() {
            self.out.values.push((name, value, unit));
        }
    }

    /// One-off output check, counted like a probe call.
    fn check(&mut self, ok: bool, what: &str) {
        self.out.attempted += 1;
        if !ok {
            self.out.failed += 1;
            eprintln!("benchmark: CHECK FAILED: {what}");
        }
    }
}

/// Everything the probes measured.
pub struct Layers {
    pub metrics: Vec<Metric>,
    msgs: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Messages one call of probe `name` sends, summed over ranks.
    pub fn msgs_per_call(&self, name: &str) -> f64 {
        self.msgs
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, m)| m)
            .sum()
    }

    /// A timing metric in milliseconds, with its reporting unit.
    pub fn time_ms(&self, name: &str) -> (f64, &'static str) {
        let (_, value, unit) = self
            .metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("no probe reports {name}"));
        match *unit {
            "ms" => (*value, unit),
            "us" => (value / 1e3, unit),
            other => panic!("{name} is not a time but {other}"),
        }
    }

    /// What a `derivatives` call spends outside the layers below it: its
    /// time minus the halo, FFT and Birkhoff–Rott calls it makes (a
    /// third of the step's). Self time, taken between probes because the
    /// children run inside the program, out of the span recorder's sight.
    fn derive_zmodel_local(&mut self) {
        for w in &crate::workload::WORKLOADS {
            let (stage_ms, unit) = self.time_ms(w.derivatives);
            let children_ms: f64 = w
                .layer_calls
                .iter()
                .map(|(name, calls)| self.time_ms(name).0 * calls / STAGES_PER_STEP)
                .sum();
            let local_ms = stage_ms - children_ms;
            let value = if unit == "us" {
                local_ms * 1e3
            } else {
                local_ms
            };
            self.metrics.push((w.zmodel_local, value, unit));
        }
    }

    fn absorb(&mut self, ranks: Vec<RankOut>, tally: &mut Tally) {
        for r in ranks {
            tally.attempted += r.attempted;
            tally.failed += r.failed;
            self.msgs.extend(r.msgs);
            for (name, unit, ns) in r.timings {
                let (value, unit) = unit.of_ns(ns);
                self.metrics.push((name, value, unit));
            }
            for (name, value, unit) in r.values {
                self.metrics.push((name, value, unit));
            }
        }
    }
}

fn byte_sum(bytes: &[u8]) -> u64 {
    bytes.iter().map(|&b| u64::from(b)).sum()
}

fn random_bytes(rng: &mut Rng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

fn random_f64s(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn random_complex(rng: &mut Rng, n: usize) -> Vec<Complex> {
    (0..n)
        .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// Order-independent checksum of a float payload: the sum of the bit
/// patterns, so a flipped bit or a misplaced block shows.
fn bits_sum(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .fold(0u64, |acc, v| acc.wrapping_add(v.to_bits()))
}

fn complex_sum(values: &[Complex]) -> u64 {
    bits_sum(values.iter().flat_map(|z| [z.re, z.im]))
}

fn max_abs_diff(a: &[Complex], b: &[Complex]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x.re - y.re).abs().max((x.im - y.im).abs()))
        .fold(0.0, f64::max)
}

/// Ping-pong of a 64-byte message: the p2p floor under every collective.
fn p2p_rtt(b: &mut Bench, name: &'static str, seed: u64) {
    let comm = b.comm.expect("p2p probe needs a world");
    let payload = random_bytes(&mut Rng::seed_from_u64(seed), 64);
    let want = byte_sum(&payload);
    const TAG: u64 = 1;
    b.probe(name, Unit::Us, CALLS_US, |t| {
        if comm.rank() == 0 {
            let msg = payload.clone();
            let back = t.time(|| {
                comm.send(1, TAG, msg);
                comm.recv::<u8>(1, TAG)
            });
            byte_sum(&back) == want
        } else {
            let got = comm.recv::<u8>(0, TAG);
            let ok = byte_sum(&got) == want;
            comm.send(0, TAG, got);
            ok
        }
    });
}

/// `alltoallv_with(.., Adaptive)` — the cfg7 reshape path — with
/// `block` complex values per destination.
fn alltoallv(b: &mut Bench, name: &'static str, block: usize, seed: u64) {
    let comm = b.comm.expect("alltoallv probe needs a world");
    let buffers: Vec<Vec<Complex>> = (0..RANKS as u64)
        .map(|r| random_complex(&mut Rng::seed_from_u64(seed ^ (r + 1)), RANKS * block))
        .collect();
    let me = comm.rank();
    let want = buffers
        .iter()
        .map(|buf| complex_sum(&buf[me * block..(me + 1) * block]))
        .fold(0u64, u64::wrapping_add);
    let counts = [block; RANKS];
    b.probe(name, Unit::Us, CALLS_US, |t| {
        let (got, got_counts) =
            t.time(|| comm.alltoallv_with(&buffers[me], &counts, AllToAllAlgo::Adaptive));
        got_counts == counts && complex_sum(&got) == want
    });
}

/// The comm-layer probes on one transport.
fn comm_probes(b: &mut Bench, kind: TransportKind, seed: u64) {
    let comm = b.comm.expect("comm probes need a world");
    let other = 1 - comm.rank();
    match kind {
        TransportKind::Shmem => p2p_rtt(b, "comm.p2p_rtt_64B_shmem_us", seed),
        TransportKind::Tcp => {
            p2p_rtt(b, "comm.p2p_rtt_64B_tcp_us", seed);
            alltoallv(b, "comm.alltoallv_16KiB_tcp_us", 1024, seed);
        }
        TransportKind::Thread => {
            p2p_rtt(b, "comm.p2p_rtt_64B_us", seed);
            b.probe("comm.barrier_us", Unit::Us, CALLS_US, |t| {
                t.time(|| comm.barrier());
                true
            });

            // The owned-buffer handoff dfft's Direct reshape uses: the
            // same 256 KiB allocation bounces between the ranks.
            let mut buf = random_bytes(&mut Rng::seed_from_u64(seed), 256 * 1024);
            let want = byte_sum(&buf);
            const TAG: u64 = 2;
            b.probe("comm.isend_owned_256KiB_us", Unit::Us, CALLS_US, |t| {
                let held = std::mem::take(&mut buf);
                buf = if comm.rank() == 0 {
                    t.time(|| {
                        comm.isend_owned(1, TAG, held).wait();
                        comm.irecv::<u8>(1, TAG).wait()
                    })
                } else {
                    // Bounce it straight back: anything done here sits
                    // inside rank 0's timed round trip.
                    let got = comm.irecv::<u8>(0, TAG).wait();
                    comm.isend_owned(0, TAG, got).wait();
                    held
                };
                byte_sum(&buf) == want
            });

            // The halo send path at the 32^2 and 256^2 message sizes.
            for (name, len) in [
                ("comm.sendrecv_2KiB_us", 256),
                ("comm.sendrecv_12KiB_us", 1536),
            ] {
                let payload = random_f64s(&mut Rng::seed_from_u64(seed), len);
                let want = bits_sum(payload.iter().copied());
                const TAG: u64 = 3;
                b.probe(name, Unit::Us, CALLS_US, |t| {
                    let msg = payload.clone();
                    let got = t.time(|| comm.sendrecv(other, msg, other, TAG));
                    bits_sum(got) == want
                });
            }

            alltoallv(b, "comm.alltoallv_256KiB_us", 16 * 1024, seed);
            alltoallv(b, "comm.alltoallv_4KiB_us", 256, seed);
        }
    }
}

/// Names of the probes on one periodic or open `n × n` surface mesh.
struct GridNames {
    halo: &'static str,
    /// `(forward, inverse, unit)`; only the FFT workloads' meshes.
    dfft: Option<(&'static str, &'static str, Unit)>,
    redistribute: Option<(&'static str, Unit)>,
}

/// Mesh- and dfft-layer probes on an `n × n` mesh over `b`'s world.
fn grid_probes(b: &mut Bench, n: usize, periodic: bool, names: GridNames, seed: u64) {
    let comm = b.comm.expect("grid probes need a world");
    let mut rng = Rng::seed_from_u64(seed ^ comm.rank() as u64);
    let mesh = SurfaceMesh::new(comm, [n, n], [periodic; 2], 2, [0.0; 2], [1.0; 2]);

    // Halo exchange of a position-like (3-component) field.
    let mut field = mesh.make_field(3);
    for v in field.as_mut_slice() {
        *v = rng.gen_range(-1.0..1.0);
    }
    let calls = if n >= 96 { CALLS_US / 2 } else { CALLS_US };
    b.probe(names.halo, Unit::Us, calls, |t| {
        t.time(|| mesh.halo_exchange(&mut field));
        field.as_slice().iter().all(|v| v.is_finite())
    });

    let Some((forward, inverse, unit)) = names.dfft else {
        return;
    };
    let plan = DistributedFft2d::new(comm, mesh.partition().dims, n, n, FftConfig::default());
    let block = random_complex(&mut rng, plan.local_rect().area());
    let calls = match unit {
        Unit::Ms => CALLS_MS,
        _ => CALLS_US,
    };
    // The solver stays in the transposed layout between the two, so
    // these are the calls a step makes.
    b.probe(forward, unit, calls, |t| {
        let input = block.clone();
        let (_, spectrum) = t.time(|| plan.forward_transposed(input));
        max_abs_diff(&plan.inverse_transposed(spectrum), &block) <= ROUND_TRIP_TOLERANCE
    });
    b.probe(inverse, unit, calls, |t| {
        let (_, spectrum) = plan.forward_transposed(block.clone());
        let back = t.time(|| plan.inverse_transposed(spectrum));
        max_abs_diff(&back, &block) <= ROUND_TRIP_TOLERANCE
    });

    // One reshape with no FFT in it: row slabs to column slabs, the
    // exchange that moves half of every rank's data.
    let Some((name, unit)) = names.redistribute else {
        return;
    };
    let p = comm.size();
    let rows = move |r: usize| Rect::new(Dist::new(n, p).range(r), 0..n);
    let cols = move |r: usize| Rect::new(0..n, Dist::new(n, p).range(r));
    let slab = random_complex(&mut rng, rows(comm.rank()).area());
    b.probe(name, unit, calls, |t| {
        let (_, moved) = t.time(|| redistribute(comm, &slab, &rows, &cols, AllToAllAlgo::Adaptive));
        let (_, back) = redistribute(comm, &moved, &cols, &rows, AllToAllAlgo::Adaptive);
        back == slab
    });
}

/// Serial 2D FFT of the full mesh on one thread: the kernel under dfft.
fn fft_probe(b: &mut Bench, name: &'static str, unit: Unit, n: usize, calls: usize, seed: u64) {
    let plan = Fft2d::new(n, n);
    let data = random_complex(&mut Rng::seed_from_u64(seed), n * n);
    b.probe(name, unit, calls, |t| {
        let mut work = data.clone();
        t.time(|| plan.forward(&mut work));
        plan.inverse(&mut work);
        max_abs_diff(&work, &data) <= ROUND_TRIP_TOLERANCE
    });
}

/// `workload`'s state and Z-Model after its warm-up steps, assembled from
/// the parts `Solver::new` assembles so that one `derivatives` call can
/// be timed on its own.
fn build_model(comm: &Communicator, workload: &Workload, seed: u64) -> (ProblemManager, ZModel) {
    let rig = workload.rig();
    let cfg = workload.solver_config(seed);
    let mut pm = ProblemManager::new(rig.build_mesh(comm), rig.boundary_condition());
    cfg.ic.apply(&mut pm);
    let br: Option<Box<dyn BrSolver>> = match cfg.br {
        BrChoice::None => None,
        BrChoice::Exact => Some(Box::new(ExactBrSolver)),
        BrChoice::Cutoff { .. } => Some(Box::new(CutoffBrSolver::new(
            rig.spatial_mesh(comm.size()),
            cfg.params.cutoff,
            Backend::Grid,
        ))),
        other => panic!("no workload uses {other:?}"),
    };
    let zmodel = ZModel::new(&pm, cfg.order, cfg.params, br, cfg.fft);
    let mut integrator = TimeIntegrator::new(&pm);
    for _ in 0..workload.warmup_steps {
        integrator.step(&zmodel, &mut pm, cfg.params.dt);
    }
    (pm, zmodel)
}

/// One `ZModel::derivatives` call — a Runge–Kutta stage, a third of a
/// step — on `workload`'s warmed-up state. Returns that state, halos
/// valid, for the probes of the layers below.
fn derivatives_probe(b: &mut Bench, workload: &Workload, unit: Unit, seed: u64) -> ProblemManager {
    let comm = b.comm.expect("derivatives probe needs a world");
    let (mut pm, zmodel) = build_model(comm, workload, seed);
    let mut zdot = pm.mesh().make_field(3);
    let mut wdot = pm.mesh().make_field(2);
    let calls = match unit {
        Unit::Ms => CALLS_MS,
        _ => CALLS_US,
    };
    b.probe(workload.derivatives, unit, calls, |t| {
        t.time(|| zmodel.derivatives(&mut pm, &mut zdot, &mut wdot));
        let finite = |f: &Field| f.as_slice().iter().all(|v| v.is_finite());
        finite(&zdot) && finite(&wdot)
    });
    pm
}

/// The Birkhoff–Rott input for state `pm` (halos valid), built the way
/// `ZModel::derivatives` builds it.
fn br_points(pm: &ProblemManager) -> Vec<BrPoint> {
    let [dy, dx] = pm.mesh().spacing();
    pm.mesh()
        .owned_indices()
        .map(|(lr, lc, _, _)| {
            let p = pm.z().node(lr, lc);
            let s = geometry::sheet_strength(pm.z(), pm.w(), lr, lc, dy, dx);
            BrPoint {
                pos: [p[0], p[1], p[2]],
                strength: s.map(|c| c * dy * dx),
            }
        })
        .collect()
}

fn all_finite(v: &[[f64; 3]]) -> bool {
    v.iter().flatten().all(|x| x.is_finite())
}

/// The cutoff solver and its five stages on the `cutoff_imb` point set.
fn cutoff_probes(b: &mut Bench, seed: u64) {
    let comm = b.comm.expect("cutoff probes need a world");
    let workload = Workload::by_name("cutoff_imb").expect("cutoff_imb workload");
    let rig = workload.rig();
    let (cutoff, epsilon) = (rig.params.cutoff, rig.params.epsilon);
    let smesh = rig.spatial_mesh(comm.size());
    let points = br_points(&derivatives_probe(b, workload, Unit::Ms, seed));

    let solver = CutoffBrSolver::new(rig.spatial_mesh(comm.size()), cutoff, Backend::Grid);
    b.probe("core.br_cutoff_ms", Unit::Ms, CALLS_MS, |t| {
        all_finite(&t.time(|| solver.velocities(comm, &points, epsilon)))
    });

    let outgoing: Vec<SurfacePoint> = points
        .iter()
        .enumerate()
        .map(|(i, p)| SurfacePoint {
            pos: p.pos,
            payload: p.strength,
            home_rank: comm.rank() as u32,
            home_idx: i as u32,
        })
        .collect();
    let total = comm.allreduce_sum(points.len() as f64);
    let mut owned = Vec::new();
    b.probe("mesh.migrate_to_spatial_us", Unit::Us, CALLS_US / 2, |t| {
        let moving = outgoing.clone();
        owned = t.time(|| migrate_to_spatial(comm, &smesh, moving));
        comm.allreduce_sum(owned.len() as f64) == total
    });
    let counts = comm.allgather(&[owned.len() as f64]);
    let mean = counts.iter().sum::<f64>() / counts.len() as f64;
    b.value(
        "mesh.owned_imbalance",
        counts.iter().copied().fold(0.0, f64::max) / mean,
        "ratio",
    );

    let mut ghosts = Vec::new();
    b.probe("mesh.halo_points_us", Unit::Us, CALLS_US / 2, |t| {
        ghosts = t.time(|| halo_exchange_points(comm, &smesh, &owned, cutoff));
        // A ghost is a copy of a point some other rank owns.
        ghosts
            .iter()
            .all(|g| smesh.rank_of_point(g.pos) != comm.rank())
    });

    let targets: Vec<[f64; 3]> = owned.iter().map(|p| p.pos).collect();
    let sources: Vec<[f64; 3]> = targets
        .iter()
        .copied()
        .chain(ghosts.iter().map(|p| p.pos))
        .collect();
    let mut pairs = 0;
    b.probe("spatial.neighbor_build_ms", Unit::Ms, CALLS_MS, |t| {
        let list = t.time(|| NeighborList::build(&targets, &sources, cutoff, Backend::Grid));
        pairs = list.total_pairs();
        list.num_targets() == targets.len()
    });
    b.value(
        "spatial.pairs_per_target",
        pairs as f64 / targets.len() as f64,
        "count",
    );
    // The grid search against brute force, on an even subsample.
    let stride = (targets.len() / BRUTE_FORCE_SAMPLE).max(1);
    let sample: Vec<[f64; 3]> = targets.iter().copied().step_by(stride).collect();
    let fast = NeighborList::build(&sample, &sources, cutoff, Backend::Grid).total_pairs();
    let slow = brute_force_neighbors(&sample, &sources, cutoff).total_pairs();
    b.check(
        fast == slow,
        "neighbour list pair count differs from brute force",
    );

    let results: Vec<(usize, PointResult)> = owned
        .iter()
        .map(|p| {
            let r = PointResult {
                home_idx: p.home_idx,
                value: p.payload,
            };
            (p.home_rank as usize, r)
        })
        .collect();
    b.probe("mesh.migrate_home_us", Unit::Us, CALLS_US / 2, |t| {
        let returning = results.clone();
        let home = t.time(|| migrate_results_home(comm, returning, points.len()));
        // Each point's payload went out and must come home to its slot.
        home.iter().zip(&points).all(|(h, p)| *h == p.strength)
    });
}

/// The exact ring-pass solver on the `exact_ring` point set.
fn exact_probes(b: &mut Bench, seed: u64) {
    let comm = b.comm.expect("exact probes need a world");
    let workload = Workload::by_name("exact_ring").expect("exact_ring workload");
    let epsilon = workload.rig().params.epsilon;
    let points = br_points(&derivatives_probe(b, workload, Unit::Ms, seed));
    b.probe("core.br_exact_ms", Unit::Ms, CALLS_MS, |t| {
        all_finite(&t.time(|| ExactBrSolver.velocities(comm, &points, epsilon)))
    });
    let total = comm.allreduce_sum(points.len() as f64);
    if let Some(&(_, _, ns)) = b.out.timings.last() {
        b.value("core.br_pair_ns", ns / (points.len() as f64 * total), "ns");
    }
}

/// Checkpoint save and load of the 256^2 state. No workload checkpoints
/// today; recorded so that work moved into I/O shows.
fn io_probes(b: &mut Bench, seed: u64) {
    let comm = b.comm.expect("io probes need a world");
    let workload = Workload::by_name("low_bw").expect("low_bw workload");
    let rig = workload.rig();
    let mut solver = Solver::new(
        rig.build_mesh(comm),
        rig.boundary_condition(),
        workload.solver_config(seed),
    );
    let path = std::env::temp_dir().join(format!("probe-checkpoint-{}.json", std::process::id()));
    b.probe("io.checkpoint_save_ms", Unit::Ms, CALLS_MS / 5, |t| {
        t.time(|| beatnik_io::checkpoint::save(solver.problem(), 7, 0.25, &path))
            .is_ok()
    });
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    b.value("io.checkpoint_bytes", bytes as f64, "B");
    b.probe("io.checkpoint_load_ms", Unit::Ms, CALLS_MS / 5, |t| {
        let loaded = t.time(|| beatnik_io::checkpoint::load(solver.problem_mut(), &path));
        matches!(loaded, Ok((7, time)) if time == 0.25)
    });
    comm.barrier();
    if comm.rank() == 0 {
        let _ = std::fs::remove_file(&path);
    }
}

/// Run every probe. `seed` fills the payloads; `scale` stretches the call
/// counts with the run length.
pub fn run_all(spans: &Spans, scale: f64, seed: u64, tally: &mut Tally) -> Layers {
    let mut layers = Layers {
        metrics: Vec::new(),
        msgs: Vec::new(),
    };
    let world = |kind: TransportKind, body: &(dyn Fn(&mut Bench) + Sync)| {
        let id = spans.enter("probe-world");
        let ranks = World::builder(RANKS).transport(kind).run(|comm| {
            let mut b = Bench::in_world(&comm, spans, scale);
            body(&mut b);
            b.out
        });
        spans.exit(id);
        ranks
    };

    // Local kernels and world launch, from the main thread.
    let mut main = Bench::on_main(spans, scale);
    fft_probe(&mut main, "fft.fft2d_256_ms", Unit::Ms, 256, CALLS_MS, seed);
    fft_probe(&mut main, "fft.fft2d_32_us", Unit::Us, 32, CALLS_US, seed);
    for (name, kind, calls) in [
        ("comm.world_launch_ms", TransportKind::Thread, CALLS_MS),
        ("comm.world_launch_tcp_ms", TransportKind::Tcp, CALLS_MS / 3),
    ] {
        main.probe(name, Unit::Ms, calls, |t| {
            t.time(|| World::builder(RANKS).transport(kind).run(|c| c.rank())) == [0, 1]
        });
    }
    layers.absorb(vec![main.out], tally);

    layers.absorb(
        world(TransportKind::Thread, &|b| {
            comm_probes(b, TransportKind::Thread, seed);
            grid_probes(
                b,
                256,
                true,
                GridNames {
                    halo: "mesh.halo_exchange_256_us",
                    dfft: Some(("dfft.forward_256_ms", "dfft.inverse_256_ms", Unit::Ms)),
                    redistribute: Some(("dfft.redistribute_256_ms", Unit::Ms)),
                },
                seed,
            );
            grid_probes(
                b,
                32,
                true,
                GridNames {
                    halo: "mesh.halo_exchange_32_us",
                    dfft: Some(("dfft.forward_32_us", "dfft.inverse_32_us", Unit::Us)),
                    redistribute: Some(("dfft.redistribute_32_us", Unit::Us)),
                },
                seed,
            );
            let by_name = |name| Workload::by_name(name).expect("workload table");
            derivatives_probe(b, by_name("low_bw"), Unit::Ms, seed);
            derivatives_probe(b, by_name("low_lat"), Unit::Us, seed);
            let halo_only = |halo| GridNames {
                halo,
                dfft: None,
                redistribute: None,
            };
            grid_probes(
                b,
                96,
                false,
                halo_only("mesh.halo_exchange_96_open_us"),
                seed,
            );
            grid_probes(b, 48, true, halo_only("mesh.halo_exchange_48_us"), seed);
            cutoff_probes(b, seed);
            exact_probes(b, seed);
            io_probes(b, seed);
        }),
        tally,
    );
    layers.absorb(
        world(TransportKind::Shmem, &|b| {
            comm_probes(b, TransportKind::Shmem, seed)
        }),
        tally,
    );
    layers.absorb(
        world(TransportKind::Tcp, &|b| {
            comm_probes(b, TransportKind::Tcp, seed);
            grid_probes(
                b,
                64,
                true,
                GridNames {
                    halo: "mesh.halo_exchange_64_tcp_us",
                    dfft: Some(("dfft.forward_64_tcp_ms", "dfft.inverse_64_tcp_ms", Unit::Ms)),
                    redistribute: None,
                },
                seed,
            );
            let low_tcp = Workload::by_name("low_tcp").expect("workload table");
            derivatives_probe(b, low_tcp, Unit::Ms, seed);
        }),
        tally,
    );
    layers.derive_zmodel_local();
    layers
}

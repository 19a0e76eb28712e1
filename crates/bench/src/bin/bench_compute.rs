//! Node-local compute-kernel microbenchmark emitting
//! `BENCH_compute.json`.
//!
//! Times the two kernel families the raw-speed pass rewrote, each in
//! its fast and reference form so the gate pins the speedup's
//! *existence* (the fast variant's time) and the reference's sanity:
//!
//! * **FFT butterflies** — a planned power-of-two forward transform
//!   through the dispatched SIMD kernels (`fft_forward/simd`) and the
//!   forced lane-serial path (`fft_forward/scalar`). Reported as
//!   ns per element per transform; the two paths are bit-for-bit
//!   identical in output, so the delta is pure kernel speed.
//! * **Column transforms** — every column of a row-major block through
//!   the batched transform (`fft_columns/batched`: butterflies between
//!   whole rows, nothing copied) against the shape it replaced
//!   (`fft_columns/per_line`: gather a 16-column tile into contiguous
//!   scratch, per-line transforms, scatter back), on the column-layout
//!   blocks of the benchmark's 256² and 32² meshes on 2 ranks. ns per
//!   element per transform over a forward + inverse pair, copies
//!   included.
//!
//! * **Real row transforms** — forward + inverse of a rank's rows of `n`
//!   reals (`RealFft::forward_into` / `inverse_scaled_into`), by the
//!   fused path (`rfft_rows/fused`: bit-reversed packed loads and stages
//!   1–3 in one register pass, later stages two per pass, vector
//!   recombination) and by the unfused route it replaced
//!   (`rfft_rows/reference`: packing copy, swap pass, one pass per
//!   stage, scalar recombination), at the benchmark's 256² and 32² row
//!   lengths. ns per row, the two forms' trials interleaved; bitwise
//!   identical outputs.
//! * **Distributed transform roundtrip** — forward + inverse in the
//!   transposed layout on 2 thread ranks, complex (`dfft_roundtrip/c2c`)
//!   against the real-field pair the Z-Model calls
//!   (`dfft_roundtrip/r2c`), at the benchmark's bandwidth-bound (256²)
//!   and latency-bound (32²) meshes. ns per grid point per roundtrip.
//! * **Reshape** — one row-slab → column-slab `redistribute` on 2 ranks
//!   (`redistribute/owned`: pack, move, unpack) against the flat-buffer
//!   shape it replaced (`redistribute/flat`: pack, concat, split,
//!   flatten, split, unpack — four extra payload copies). ns per grid
//!   point.
//!
//! * **Birkhoff–Rott pair kernels** — the lane-parallel all-pairs block
//!   kernel under the exact solver's circulated blocks (`br_pairs/exact`,
//!   2304 targets × 2304 sources, ns per pair) beside the symmetric
//!   kernel it runs on its own block (`br_pairs/symmetric`, the same 2304
//!   points as their own targets, each unordered pair once; ns per
//!   ordered interaction, the two forms' trials interleaved), the fused
//!   cell-sorted cutoff
//!   evaluation (`br_cutoff/fused`: one 1-rank `CutoffBrSolver` call on
//!   the 96² single-mode point set at cutoff 0.5, ns per target —
//!   binning, distance filter and pair kernel together), then that
//!   pass's two loops on the same half-cover runs and hit lists, each in
//!   its dispatched vector form and its scalar body: the distance filter
//!   (`br_select/{simd, scalar}`, ns per candidate) and the symmetric hit
//!   kernel (`br_hits_half/{simd, scalar}`, ns per evaluated pair, the
//!   reactions scattered).
//!
//! * **Z-Model stage remainder** — what one `ZModel::derivatives` call
//!   spends outside the phases it invokes (halo exchanges, distributed
//!   transforms, the Birkhoff–Rott solve): unit normals or sheet
//!   strengths, gathers, spectral multipliers, the `S` and `∂t w`
//!   passes. `zmodel_stage/low` on the 256² periodic deck and
//!   `zmodel_stage/high` on the 96² open deck with the cutoff solver,
//!   1 rank, ns per owned node per stage, read off the span timeline as
//!   the self time of a phase wrapped around the call.
//!
//! Best-of-N trials: noise on a shared host only ever slows a trial
//! down, so the minimum is the honest kernel time.
//!
//! Usage: `bench_compute [output.json]` (default `BENCH_compute.json`).

use beatnik_comm::{AllToAllAlgo, Communicator, World};
use beatnik_core::br::kernel::{
    accumulate_block, accumulate_hits_symmetric, accumulate_symmetric, hits_symmetric_body,
    select_body, select_within, Reaction, Sources,
};
use beatnik_core::br::{BrPoint, BrSolver, CutoffBrSolver};
use beatnik_core::{geometry, Order, ProblemManager, ZModel};
use beatnik_dfft::layout::{pack, unpack};
use beatnik_dfft::redistribute::redistribute;
use beatnik_dfft::{Dist, DistributedFft2d, FftConfig, Rect};
use beatnik_fft::{Complex, Fft, RealFft, Transform};
use beatnik_json::Value;
use beatnik_rocketrig::{Deck, RigConfig};
use beatnik_spatial::neighbors::Backend;
use beatnik_spatial::CellBins;
use std::ops::Range;
use std::time::Instant;

const TRIALS: usize = 7;

struct Row {
    kernel: &'static str,
    variant: &'static str,
    n: usize,
    ns_per_elem: f64,
    gbps: f64,
}

impl Row {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kernel".into(), Value::Str(self.kernel.into())),
            ("variant".into(), Value::Str(self.variant.into())),
            ("n".into(), Value::UInt(self.n as u64)),
            ("ns_per_elem".into(), Value::Float(self.ns_per_elem)),
            ("gbps".into(), Value::Float(self.gbps)),
        ])
    }
}

/// Best-of-TRIALS wall time of `reps` runs of `f`, in ns per rep.
fn best_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / reps as f64);
    }
    best
}

/// Best single-pass wall time of forms 0 and 1 of one loop, in ns. A
/// pass here is milliseconds long, and the trials of the two forms
/// alternate, so a slow spell of a shared host falls on both: the rows
/// are gated on their ratio.
fn best_interleaved_ns(mut pass: impl FnMut(usize)) -> [f64; 2] {
    let mut best = [f64::INFINITY; 2];
    for _ in 0..3 * TRIALS {
        for (form, best) in best.iter_mut().enumerate() {
            let start = Instant::now();
            pass(form);
            *best = best.min(start.elapsed().as_nanos() as f64);
        }
    }
    best
}

fn noise(n: usize) -> Vec<Complex> {
    let mut s = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    (0..n).map(|_| Complex::new(next(), next())).collect()
}

/// FFT forward transforms: SIMD-dispatched vs forced-scalar, ns/elem.
fn bench_fft(rows: &mut Vec<Row>, n: usize, reps: usize) {
    let plan = Fft::new(n);
    let mut buf = noise(n);
    // Warmup (twiddle tables are already built; touch the caches).
    plan.forward(&mut buf);
    plan.forward_scalar(&mut buf);
    let data = noise(n);

    let mut scratch = data.clone();
    let simd_ns = best_ns(reps, || {
        scratch.copy_from_slice(&data);
        plan.forward(&mut scratch);
    });
    let scalar_ns = best_ns(reps, || {
        scratch.copy_from_slice(&data);
        plan.forward_scalar(&mut scratch);
    });
    // 16 payload bytes per element per transform pass is a nominal
    // traffic figure; the honest gated metric is time per element.
    let gbps = |ns: f64| (n * 16) as f64 / ns;
    rows.push(Row {
        kernel: "fft_forward",
        variant: "simd",
        n,
        ns_per_elem: simd_ns / n as f64,
        gbps: gbps(simd_ns),
    });
    rows.push(Row {
        kernel: "fft_forward",
        variant: "scalar",
        n,
        ns_per_elem: scalar_ns / n as f64,
        gbps: gbps(scalar_ns),
    });
    eprintln!(
        "fft_forward      n={n:<6} simd {:>7.3} ns/elem  scalar {:>7.3} ns/elem  speedup {:.2}x",
        simd_ns / n as f64,
        scalar_ns / n as f64,
        scalar_ns / simd_ns
    );
}

/// Columns per tile of [`fft_cols_per_line`].
const TILE_COLS: usize = 16;

/// The column transform as it ran before `Fft::batched`: gather a tile
/// of columns into contiguous scratch (`nrows x TILE_COLS`), transform
/// each contiguous column, scatter back. Kept here as the measured
/// reference.
fn fft_cols_per_line(
    plan: &Fft,
    transform: Transform,
    buf: &mut [Complex],
    ncols: usize,
    scratch: &mut [Complex],
) {
    let nrows = plan.len();
    for c0 in (0..ncols).step_by(TILE_COLS) {
        let tc = TILE_COLS.min(ncols - c0);
        let tile = &mut scratch[..nrows * tc];
        for r in 0..nrows {
            for j in 0..tc {
                tile[j * nrows + r] = buf[r * ncols + c0 + j];
            }
        }
        for col in tile.chunks_exact_mut(nrows) {
            plan.apply(transform, col);
        }
        for r in 0..nrows {
            for j in 0..tc {
                buf[r * ncols + c0 + j] = tile[j * nrows + r];
            }
        }
    }
}

/// Every column of an `nrows x ncols` block, forward then inverse (so
/// the values stay bounded with no reset copy in the timed loop):
/// batched vs gather / per-line / scatter, ns per element per transform.
fn bench_fft_columns(rows: &mut Vec<Row>, nrows: usize, ncols: usize, reps: usize) {
    let n = nrows * ncols;
    let plan = Fft::new(nrows);
    let mut buf = noise(n);
    let mut scratch = vec![Complex::default(); nrows * TILE_COLS];
    let mut pair = |f: &mut dyn FnMut(Transform, &mut [Complex])| {
        f(Transform::Forward, &mut buf); // warmup
        f(Transform::Inverse, &mut buf);
        best_ns(reps, || {
            f(Transform::Forward, &mut buf);
            f(Transform::Inverse, &mut buf);
        }) / 2.0
    };
    let batched_ns = pair(&mut |t, buf| plan.batched(t, buf, ncols, ncols));
    let per_line_ns = pair(&mut |t, buf| fft_cols_per_line(&plan, t, buf, ncols, &mut scratch));
    for (variant, ns) in [("batched", batched_ns), ("per_line", per_line_ns)] {
        rows.push(Row {
            kernel: "fft_columns",
            variant,
            n,
            ns_per_elem: ns / n as f64,
            gbps: (n * 16) as f64 / ns,
        });
    }
    eprintln!(
        "fft_columns      {nrows}x{ncols:<5} batched {:>6.3} ns/elem  per_line {:>6.3} ns/elem  speedup {:.2}x",
        batched_ns / n as f64,
        per_line_ns / n as f64,
        per_line_ns / batched_ns
    );
}

/// Forward + inverse of `rows` real rows of length `n`, `reps` times per
/// trial, by the fused path and by the unfused reference route, trials
/// interleaved: ns per row.
fn bench_rfft_rows(out: &mut Vec<Row>, n: usize, rows: usize, reps: usize) {
    let plan = RealFft::new(n);
    let bins = plan.bins();
    let input: Vec<f64> = noise(rows * n / 2)
        .iter()
        .flat_map(|z| [z.re, z.im])
        .collect();
    let mut spectrum = vec![Complex::default(); rows * bins];
    let mut back = vec![0.0; rows * n];
    let scale = 1.0 / n as f64;
    let ns = best_interleaved_ns(|form| {
        for _ in 0..reps {
            let lines = input.chunks_exact(n).zip(spectrum.chunks_exact_mut(bins));
            for ((x, z), y) in lines.zip(back.chunks_exact_mut(n)) {
                if form == 0 {
                    plan.forward_into(x, z);
                    plan.inverse_scaled_into(z, y, scale);
                } else {
                    plan.forward_reference_into(x, z);
                    plan.inverse_reference_scaled_into(z, y, scale);
                }
            }
        }
        std::hint::black_box(&back);
    })
    .map(|ns| ns / (reps * rows) as f64);
    for (variant, ns) in [("fused", ns[0]), ("reference", ns[1])] {
        out.push(Row {
            kernel: "rfft_rows",
            variant,
            n,
            ns_per_elem: ns,
            // Nominal: the row's reals read and written once each way.
            gbps: (n * 32) as f64 / ns,
        });
    }
    eprintln!(
        "rfft_rows        n={n:<6} fused {:>7.1} ns/row  reference {:>7.1} ns/row  speedup {:.2}x",
        ns[0],
        ns[1],
        ns[1] / ns[0]
    );
}

/// Ranks of the distributed rows.
const RANKS: usize = 2;

/// Time `f` on every rank of a 2-rank thread world (the ranks run the
/// same trial and rep counts, so collectives inside `f` line up) and
/// return rank 0's best-of-TRIALS ns per call.
fn best_ns_2rank(reps: usize, f: impl Fn(&Communicator) -> Box<dyn FnMut() + '_> + Sync) -> f64 {
    World::builder(RANKS).run(|comm| {
        let mut call = f(&comm);
        call(); // warmup
        best_ns(reps, &mut call)
    })[0]
}

/// Transposed forward + inverse on an `n x n` grid over 2 ranks:
/// complex transforms vs the real-field pair, ns per grid point.
fn bench_dfft_roundtrip(rows: &mut Vec<Row>, n: usize, reps: usize) {
    let c2c_ns = best_ns_2rank(reps, |comm| {
        let plan = DistributedFft2d::new(comm, [RANKS, 1], n, n, FftConfig::default());
        let block = noise(plan.local_rect().area());
        Box::new(move || {
            let (_, spec) = plan.forward_transposed(block.clone());
            std::hint::black_box(plan.inverse_transposed(spec));
        })
    });
    let r2c_ns = best_ns_2rank(reps, |comm| {
        let plan = DistributedFft2d::new(comm, [RANKS, 1], n, n, FftConfig::default());
        let block: Vec<f64> = noise(plan.local_rect().area())
            .iter()
            .map(|z| z.re)
            .collect();
        Box::new(move || {
            let (_, spec) = plan.forward_real_transposed(&block);
            std::hint::black_box(plan.inverse_real_transposed(spec));
        })
    });
    let points = n * n;
    for (variant, ns) in [("c2c", c2c_ns), ("r2c", r2c_ns)] {
        rows.push(Row {
            kernel: "dfft_roundtrip",
            variant,
            n: points,
            ns_per_elem: ns / points as f64,
            gbps: (points * 16) as f64 / ns,
        });
    }
    eprintln!(
        "dfft_roundtrip   {n}x{n:<5} c2c {:>7.2} ns/pt  r2c {:>7.2} ns/pt  speedup {:.2}x",
        c2c_ns / points as f64,
        r2c_ns / points as f64,
        c2c_ns / r2c_ns
    );
}

/// The reshape as it ran before blocks moved by ownership: packed blocks
/// concatenated into one send buffer, split again inside the flat
/// `alltoallv_with`, its flattened result split once more, then
/// unpacked. Kept here as the measured reference.
fn redistribute_flat(
    comm: &Communicator,
    data: &[Complex],
    src: &dyn Fn(usize) -> Rect,
    dst: &dyn Fn(usize) -> Rect,
) -> Vec<Complex> {
    let (my_src, my_dst) = (src(comm.rank()), dst(comm.rank()));
    let blocks: Vec<Vec<Complex>> = (0..comm.size())
        .map(|d| pack(data, &my_src, &my_src.intersect(&dst(d))))
        .collect();
    let counts: Vec<usize> = blocks.iter().map(Vec::len).collect();
    let (flat, rcounts) = comm.alltoallv_with(&blocks.concat(), &counts, AllToAllAlgo::Adaptive);
    let mut out = vec![Complex::default(); my_dst.area()];
    let mut rest = flat.as_slice();
    for (s, &len) in rcounts.iter().enumerate() {
        let (head, tail) = rest.split_at(len);
        rest = tail;
        let block = head.to_vec();
        unpack(&mut out, &my_dst, &src(s).intersect(&my_dst), &block);
    }
    out
}

/// One row-slab -> column-slab reshape of an `n x n` complex grid over
/// 2 ranks: ownership-passing `redistribute` vs the flat-buffer shape,
/// ns per grid point.
fn bench_redistribute(rows: &mut Vec<Row>, n: usize, reps: usize) {
    let row_slab = move |r: usize| Rect::new(Dist::new(n, RANKS).range(r), 0..n);
    let col_slab = move |r: usize| Rect::new(0..n, Dist::new(n, RANKS).range(r));
    let flat_ns = best_ns_2rank(reps, |comm| {
        let slab = noise(row_slab(comm.rank()).area());
        Box::new(move || {
            std::hint::black_box(redistribute_flat(comm, &slab, &row_slab, &col_slab));
        })
    });
    let owned_ns = best_ns_2rank(reps, |comm| {
        let slab = noise(row_slab(comm.rank()).area());
        Box::new(move || {
            let algo = AllToAllAlgo::Adaptive;
            std::hint::black_box(redistribute(comm, &slab, &row_slab, &col_slab, algo));
        })
    });
    let points = n * n;
    for (variant, ns) in [("flat", flat_ns), ("owned", owned_ns)] {
        rows.push(Row {
            kernel: "redistribute",
            variant,
            n: points,
            ns_per_elem: ns / points as f64,
            gbps: (points * 16) as f64 / ns,
        });
    }
    eprintln!(
        "redistribute     {n}x{n:<5} flat {:>7.3} ns/pt  owned {:>7.3} ns/pt  speedup {:.2}x",
        flat_ns / points as f64,
        owned_ns / points as f64,
        flat_ns / owned_ns
    );
}

/// The all-pairs block kernel on `n` targets × `n` sources (`exact`) and
/// the symmetric kernel on the same `n` points as their own targets
/// (`symmetric`, each unordered pair once), ns per ordered interaction —
/// `n²` of them in both rows — the two forms' trials interleaved.
fn bench_br_pairs(rows: &mut Vec<Row>, n: usize) {
    let noise = noise(3 * n);
    let sources: Vec<([f64; 3], [f64; 3])> = noise
        .chunks(3)
        .map(|c| ([c[0].re, c[1].re, c[2].re], [c[0].im, c[1].im, c[2].im]))
        .collect();
    let targets: Vec<[f64; 3]> = sources.iter().map(|s| s.0).collect();
    let mut vel = vec![[0.0f64; 3]; n];
    let ns = best_interleaved_ns(|form| {
        let sources = std::hint::black_box(&sources);
        if form == 0 {
            accumulate_block(&mut vel, &targets, sources, 0.01);
        } else {
            accumulate_symmetric(&mut vel, sources, 0.01);
        }
    });
    std::hint::black_box(&vel);
    let pairs = (n * n) as f64;
    for (variant, ns) in [("exact", ns[0]), ("symmetric", ns[1])] {
        rows.push(Row {
            kernel: "br_pairs",
            variant,
            n,
            ns_per_elem: ns / pairs,
            // Nominal: one 48-byte source record per pair; the gated
            // metric is the time per pair.
            gbps: pairs * 48.0 / ns,
        });
    }
    eprintln!(
        "br_pairs         {n}x{n:<5} exact {:>7.3} ns/pair  symmetric {:>7.3} ns/pair  speedup {:.2}x",
        ns[0] / pairs,
        ns[1] / pairs,
        ns[0] / ns[1]
    );
}

/// The Birkhoff–Rott input of `rig`'s deck at its initial condition,
/// built the way `ZModel::derivatives` builds it.
fn br_points(comm: &Communicator, rig: &RigConfig) -> Vec<BrPoint> {
    let mut pm = ProblemManager::new(rig.build_mesh(comm), rig.boundary_condition());
    rig.solver_config().ic.apply(&mut pm);
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

/// One whole cutoff evaluation of the `n`² single-mode open deck on a
/// 1-rank world (the two migrations are self-copies), ns per target.
fn bench_br_cutoff(rows: &mut Vec<Row>, n: usize, reps: usize) {
    let rig = RigConfig {
        deck: Deck::SingleModeOpen,
        order: Order::High,
        mesh_n: n,
        ..RigConfig::default()
    };
    let ns = World::builder(1).run(|comm| {
        let points = br_points(&comm, &rig);
        let solver = CutoffBrSolver::new(rig.spatial_mesh(1), rig.params.cutoff, Backend::Grid);
        let eps = rig.params.epsilon;
        std::hint::black_box(solver.velocities(&comm, &points, eps)); // warmup
        best_ns(reps, || {
            std::hint::black_box(solver.velocities(&comm, &points, eps));
        })
    })[0];
    let targets = (n * n) as f64;
    rows.push(Row {
        kernel: "br_cutoff",
        variant: "fused",
        n: n * n,
        ns_per_elem: ns / targets,
        gbps: targets * 48.0 / ns,
    });
    eprintln!(
        "br_cutoff        {n}x{n:<5} fused {:>7.1} ns/target",
        ns / targets
    );
}

/// The two loops of the cutoff pair pass on the `n`² single-mode open
/// deck, each in its dispatched and its scalar form over the same
/// half-cover runs and hit lists a 1-rank evaluation visits: the
/// distance filter in ns per candidate, the symmetric hit kernel in ns
/// per evaluated pair.
fn bench_br_pair_pass(rows: &mut Vec<Row>, n: usize) {
    let rig = RigConfig {
        deck: Deck::SingleModeOpen,
        order: Order::High,
        mesh_n: n,
        ..RigConfig::default()
    };
    let points = World::builder(1)
        .run(|comm| br_points(&comm, &rig))
        .remove(0);
    let (cutoff, eps2) = (rig.params.cutoff, rig.params.epsilon * rig.params.epsilon);
    let rc2 = cutoff * cutoff;
    let bins = CellBins::build(points.iter().map(|p| p.pos), cutoff);
    let sources = Sources::from_slots(bins.order().iter().map(|&i| {
        let p = &points[i as usize];
        (p.pos, p.strength)
    }));
    let targets: Vec<[f64; 3]> = (0..bins.order().len()).map(|slot| sources.pos(slot)).collect();
    // Row `s` reads the part of its runs after `s`.
    let runs: Vec<Vec<Range<usize>>> = targets
        .iter()
        .enumerate()
        .map(|(slot, &t)| {
            bins.runs(t, cutoff)
                .map(|run| run.start.max(slot + 1)..run.end)
                .filter(|run| !run.is_empty())
                .collect()
        })
        .collect();
    let candidates: usize = runs.iter().flatten().map(Range::len).sum();

    // The filter as the pass runs it: one scratch list, cleared per target.
    let selects = [select_within, select_body];
    let mut scratch = Vec::new();
    let select_ns = best_interleaved_ns(|form| {
        for (&t, runs) in targets.iter().zip(&runs) {
            scratch.clear();
            for run in runs {
                selects[form](t, &sources, run.clone(), rc2, &mut scratch);
            }
            std::hint::black_box(&scratch);
        }
    });

    // Every row's hit list, end to end, for the kernel to read.
    let (mut hits, mut ends) = (Vec::new(), Vec::new());
    for (&t, runs) in targets.iter().zip(&runs) {
        for run in runs {
            select_body(t, &sources, run.clone(), rc2, &mut hits);
        }
        ends.push(hits.len());
    }
    let kernels = [accumulate_hits_symmetric, hits_symmetric_body];
    let mut vel = vec![[0.0f64; 3]; targets.len()];
    let mut reactions = vec![Reaction::default(); targets.len()];
    let hits_ns = best_interleaved_ns(|form| {
        reactions.fill(Reaction::default());
        let mut start = 0;
        for (slot, ((v, &t), &end)) in vel.iter_mut().zip(&targets).zip(&ends).enumerate() {
            let (tw, row) = (sources.strength(slot), &hits[start..end]);
            *v = kernels[form](t, tw, &sources, row, eps2, &mut reactions);
            start = end;
        }
        std::hint::black_box((&vel, &reactions));
    });

    // Nominal bytes: three coordinates per candidate, a 48-byte source
    // record and a 32-byte reaction row read and written per pair.
    for (kernel, unit, work, bytes, ns) in [
        ("br_select", "candidate", candidates, 24.0, select_ns),
        ("br_hits_half", "pair", hits.len(), 112.0, hits_ns),
    ] {
        for (variant, ns) in [("simd", ns[0]), ("scalar", ns[1])] {
            rows.push(Row {
                kernel,
                variant,
                n: n * n,
                ns_per_elem: ns / work as f64,
                gbps: work as f64 * bytes / ns,
            });
            eprintln!(
                "{kernel:<16} {n}x{n:<5} {variant:<6} {:>6.3} ns/{unit} ({:.1} {unit}s/target)",
                ns / work as f64,
                work as f64 / targets.len() as f64
            );
        }
    }
}

/// What a `ZModel::derivatives` call on `rig`'s initial state spends
/// outside the phases it invokes, on a 1-rank world: the self time of a
/// phase around the call, ns per owned node per stage.
fn bench_zmodel_stage(rows: &mut Vec<Row>, variant: &'static str, rig: &RigConfig, reps: usize) {
    const PHASE: &str = "zmodel-stage";
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let (_, _, timeline) = World::builder(1).run_profiled(|comm| {
            let mut pm = ProblemManager::new(rig.build_mesh(&comm), rig.boundary_condition());
            let cfg = rig.solver_config();
            cfg.ic.apply(&mut pm);
            let br: Option<Box<dyn BrSolver>> = cfg.order.needs_br_solver().then(|| {
                let mesh = rig.spatial_mesh(1);
                Box::new(CutoffBrSolver::new(mesh, cfg.params.cutoff, Backend::Grid)) as _
            });
            let zmodel = ZModel::new(&pm, cfg.order, cfg.params, br, cfg.fft);
            let mut zdot = pm.mesh().make_field(3);
            let mut wdot = pm.mesh().make_field(2);
            zmodel.derivatives(&mut pm, &mut zdot, &mut wdot); // warmup
            for _ in 0..reps {
                let _stage = comm.telemetry().phase(PHASE);
                zmodel.derivatives(&mut pm, &mut zdot, &mut wdot);
            }
            std::hint::black_box((&zdot, &wdot));
        });
        assert_eq!(timeline.total_dropped(), 0, "span ring wrapped: lower reps");
        let phases = timeline.phase_attribution();
        let stage = phases.iter().find(|r| r.name == PHASE).expect("stage phase recorded");
        assert_eq!(stage.calls, reps as u64);
        best = best.min(stage.self_s * 1e9 / reps as f64);
    }
    let nodes = (rig.mesh_n * rig.mesh_n) as f64;
    rows.push(Row {
        kernel: "zmodel_stage",
        variant,
        n: rig.mesh_n * rig.mesh_n,
        ns_per_elem: best / nodes,
        // Nominal: the 40 state bytes of a node read once per stage.
        gbps: nodes * 40.0 / best,
    });
    eprintln!(
        "zmodel_stage     {n}x{n:<5} {variant} {:>7.2} ns/node-stage",
        best / nodes,
        n = rig.mesh_n
    );
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_compute.json".into());
    let mut rows: Vec<Row> = Vec::new();

    // glibc serves a request above its mmap threshold with fresh zero
    // pages, unmaps them on free, and raises the threshold to the size
    // of the largest such block freed so far. A solver frees a field
    // larger than any reshape block before its first transform, so its
    // blocks come from the heap; free one large block here too, or the
    // 2-rank rows time page faults (256² c2c reads 23–28 ns/pt instead
    // of 12–17).
    drop(std::hint::black_box(vec![0u8; 8 << 20]));

    // Butterfly kernels: an L1-resident size and an L2-resident size.
    bench_fft(&mut rows, 1024, 2000);
    bench_fft(&mut rows, 16384, 200);

    // Column transforms on the widest column-layout block a rank of the
    // repo benchmark's `low_bw` (256 rows x 65 half-spectrum columns)
    // and `low_lat` (32 x 9) workloads holds.
    bench_fft_columns(&mut rows, 256, 65, 200);
    bench_fft_columns(&mut rows, 32, 9, 20000);

    // Real row transforms: a rank's rows at the `low_bw` (128 rows of
    // 256) and `low_lat` (16 rows of 32) meshes.
    bench_rfft_rows(&mut rows, 256, 128, 8);
    bench_rfft_rows(&mut rows, 32, 16, 400);

    // Distributed rows at the repo benchmark's two low-order meshes:
    // 256 KiB reshape blocks (bandwidth) and 4 KiB blocks (latency).
    bench_dfft_roundtrip(&mut rows, 256, 40);
    bench_dfft_roundtrip(&mut rows, 32, 1000);
    bench_redistribute(&mut rows, 256, 200);
    bench_redistribute(&mut rows, 32, 2000);

    // Birkhoff-Rott kernels at the repo benchmark's sizes: one ring
    // stage of `exact_ring` at 1 rank, one `cutoff_imb` evaluation.
    bench_br_pairs(&mut rows, 2304);
    bench_br_cutoff(&mut rows, 96, 3);
    bench_br_pair_pass(&mut rows, 96);

    // The Z-Model's own share of a stage on the `low_bw` and
    // `cutoff_imb` problems.
    let low = RigConfig {
        mesh_n: 256,
        ..RigConfig::default()
    };
    bench_zmodel_stage(&mut rows, "low", &low, 10);
    let high = RigConfig {
        deck: Deck::SingleModeOpen,
        order: Order::High,
        mesh_n: 96,
        ..RigConfig::default()
    };
    bench_zmodel_stage(&mut rows, "high", &high, 6);

    let doc = Value::Object(vec![(
        "benches".into(),
        Value::Array(rows.iter().map(Row::to_value).collect()),
    )]);
    std::fs::write(&path, beatnik_json::to_string_pretty(&doc))
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path}");
}

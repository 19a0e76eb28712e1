//! Cross-crate physics validation: the assembled solver reproduces
//! linear Rayleigh–Taylor theory, and all solver orders agree with each
//! other and across rank counts.

use beatnik_comm::World;
use beatnik_core::solver::BrChoice;
use beatnik_core::{
    Diagnostics, InitialCondition, Order, Params, ProblemManager, Solver, SolverConfig,
};
use beatnik_dfft::FftConfig;
use beatnik_mesh::{BoundaryCondition, SurfaceMesh};
use std::f64::consts::PI;

const L: f64 = 2.0 * PI;

fn params() -> Params {
    Params {
        atwood: 0.5,
        gravity: 2.0,
        mu: 0.0,
        epsilon: 0.13,
        cutoff: 10.0,
        dt: 5e-3,
        ..Params::default()
    }
}

fn config(order: Order, br: BrChoice, amplitude: f64) -> SolverConfig {
    SolverConfig {
        order,
        br,
        params: params(),
        fft: FftConfig::default(),
        ic: InitialCondition::SingleMode {
            amplitude,
            modes: [1.0, 1.0],
        },
    }
}

/// Fit the exponential growth rate of the (1,1) mode from a run:
/// amplitude(t) = a0·cosh(σt) → late-time slope of ln(a) approaches σ.
fn measure_growth(order: Order, br: BrChoice, n: usize, steps: usize) -> f64 {
    let out = World::builder(4).run(move |comm| {
        let mesh = SurfaceMesh::new(&comm, [n, n], [true, true], 2, [0.0, 0.0], [L, L]);
        let bc = BoundaryCondition::Periodic { periods: [L, L] };
        let mut solver = Solver::new(mesh, bc, config(order, br, 1e-5));
        let mut series = Vec::new();
        solver.run(steps, |step, pm| {
            series.push((step as f64 * 5e-3, Diagnostics::compute(pm).amplitude));
        });
        series
    });
    let series = &out[0];
    // Least-squares slope of ln(a) over the second half (where cosh ≈
    // exp/2 and transients from the zero-vorticity start have decayed).
    let half = &series[series.len() / 2..];
    let n = half.len() as f64;
    let sx: f64 = half.iter().map(|p| p.0).sum();
    let sy: f64 = half.iter().map(|p| p.1.ln()).sum();
    let sxx: f64 = half.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = half.iter().map(|p| p.0 * p.1.ln()).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// σ = √(A·g·|k|) for the (1,1) mode on a 2π-periodic domain: |k| = √2.
fn sigma_theory() -> f64 {
    (0.5 * 2.0 * (2.0f64).sqrt()).sqrt()
}

#[test]
fn low_order_growth_matches_linear_theory() {
    let sigma = measure_growth(Order::Low, BrChoice::None, 32, 500);
    let theory = sigma_theory();
    let rel = (sigma - theory).abs() / theory;
    assert!(
        rel < 0.05,
        "low-order growth {sigma:.4} vs theory {theory:.4} (rel {rel:.3})"
    );
}

#[test]
fn high_order_growth_is_rt_unstable_at_the_right_scale() {
    // The desingularized discrete Birkhoff–Rott operator grows slower
    // than the ideal σ (Krasny smoothing); it must still be within a
    // factor-two band of theory and clearly unstable.
    let sigma = measure_growth(Order::High, BrChoice::Exact, 24, 300);
    let theory = sigma_theory();
    assert!(
        sigma > 0.4 * theory && sigma < 1.3 * theory,
        "high-order growth {sigma:.4} vs theory {theory:.4}"
    );
}

#[test]
fn medium_order_growth_is_rt_unstable_at_the_right_scale() {
    let sigma = measure_growth(Order::Medium, BrChoice::Exact, 24, 300);
    let theory = sigma_theory();
    assert!(
        sigma > 0.4 * theory && sigma < 1.3 * theory,
        "medium-order growth {sigma:.4} vs theory {theory:.4}"
    );
}

#[test]
fn stable_stratification_does_not_grow() {
    // Negative Atwood number (light over heavy): the interface
    // oscillates instead of growing.
    let out = World::builder(2).run(|comm| {
        let mesh = SurfaceMesh::new(&comm, [24, 24], [true, true], 2, [0.0, 0.0], [L, L]);
        let bc = BoundaryCondition::Periodic { periods: [L, L] };
        let mut cfg = config(Order::Low, BrChoice::None, 1e-4);
        cfg.params.atwood = -0.5;
        let mut solver = Solver::new(mesh, bc, cfg);
        let a0 = Diagnostics::compute(solver.problem()).amplitude;
        solver.run(200, |_, _| {});
        let a1 = Diagnostics::compute(solver.problem()).amplitude;
        (a0, a1)
    });
    let (a0, a1) = out[0];
    assert!(
        a1 < 2.0 * a0,
        "stable configuration must not grow: {a0:.3e} -> {a1:.3e}"
    );
}

#[test]
fn solver_is_deterministic_across_rank_counts_high_order() {
    // The exact-BR stencil path is order-independent in its reductions:
    // P=1 and P=4 runs agree to tight FP tolerance.
    let run = |p: usize| -> (f64, f64) {
        let out = World::builder(p).run(|comm| {
            let mesh =
                SurfaceMesh::new(&comm, [16, 16], [true, true], 2, [0.0, 0.0], [L, L]);
            let bc = BoundaryCondition::Periodic { periods: [L, L] };
            let mut solver = Solver::new(mesh, bc, config(Order::High, BrChoice::Exact, 1e-3));
            solver.run(5, |_, _| {});
            let d = Diagnostics::compute(solver.problem());
            (d.amplitude, d.enstrophy)
        });
        out[0]
    };
    let (a1, e1) = run(1);
    let (a4, e4) = run(4);
    assert!((a1 - a4).abs() < 1e-9 * a1.max(1e-30), "{a1} vs {a4}");
    assert!((e1 - e4).abs() < 1e-9 * e1.max(1e-30), "{e1} vs {e4}");
}

#[test]
fn cutoff_solver_agrees_across_rank_counts_high_order() {
    // The cutoff solver sums each point's pairs in an order set by its
    // rank's cell-sorted slots, which the decomposition changes: P = 2,
    // 3, 4 and 6 must reproduce the P = 1 run to rounding. Each node's
    // final position and its displacement, in global order.
    let (lo, hi, n) = (-3.0, 3.0, 24);
    let run = |p: usize| -> Vec<([f64; 3], [f64; 3])> {
        let out = World::builder(p).run(move |comm| {
            let mesh = SurfaceMesh::new(&comm, [n, n], [false, false], 2, [lo, lo], [hi, hi]);
            let mut cfg = config(
                Order::High,
                BrChoice::Cutoff {
                    bounds: ([lo; 3], [hi; 3]),
                },
                0.2,
            );
            cfg.params.cutoff = 1.2;
            let mut solver = Solver::new(mesh, BoundaryCondition::Free, cfg);
            let nodes = |pm: &ProblemManager| -> Vec<(usize, [f64; 3])> {
                pm.mesh()
                    .owned_indices()
                    .map(|(lr, lc, gr, gc)| {
                        let z = pm.z().node(lr, lc);
                        (gr * n + gc, [z[0], z[1], z[2]])
                    })
                    .collect()
            };
            let start = nodes(solver.problem());
            solver.run(100, |_, _| {});
            nodes(solver.problem())
                .into_iter()
                .zip(start)
                .map(|((i, z), (_, z0))| (i, (z, [0, 1, 2].map(|k| z[k] - z0[k]))))
                .collect::<Vec<_>>()
        });
        let mut all: Vec<_> = out.into_iter().flatten().collect();
        all.sort_by_key(|&(i, _)| i);
        assert!(all.iter().enumerate().all(|(k, &(i, _))| i == k), "P={p}: every node once");
        all.into_iter().map(|(_, z)| z).collect()
    };
    let one = run(1);
    let moved = one.iter().flat_map(|(_, d)| *d).fold(0.0f64, |m, c| m.max(c.abs()));
    assert!(moved > 1e-3, "the sheet must move: {moved:e}");
    for p in [2, 3, 4, 6] {
        let got = run(p);
        let worst = got
            .iter()
            .zip(&one)
            .flat_map(|((g, _), (w, _))| (0..3).map(move |k| (g[k] - w[k]).abs()))
            .fold(0.0f64, f64::max);
        assert!(
            worst <= 1e-12 * moved,
            "P={p}: positions differ from P=1 by {worst:e}, displacements reach {moved:e}"
        );
    }
}

#[test]
fn exact_and_large_cutoff_runs_agree() {
    let run = |br: BrChoice| -> f64 {
        let out = World::builder(2).run(move |comm| {
            let mesh =
                SurfaceMesh::new(&comm, [16, 16], [true, true], 2, [0.0, 0.0], [L, L]);
            let bc = BoundaryCondition::Periodic { periods: [L, L] };
            let mut solver = Solver::new(mesh, bc, config(Order::High, br, 1e-3));
            solver.run(5, |_, _| {});
            Diagnostics::compute(solver.problem()).amplitude
        });
        out[0]
    };
    let exact = run(BrChoice::Exact);
    let cutoff = run(BrChoice::Cutoff {
        bounds: ([-1.0, -1.0, -2.0], [L + 1.0, L + 1.0, 2.0]),
    });
    assert!(
        (exact - cutoff).abs() < 1e-9 * exact,
        "{exact} vs {cutoff}"
    );
}

#[test]
fn mean_interface_height_is_conserved() {
    // Incompressibility: the volume below the interface — hence the mean
    // height on a periodic problem — must stay constant as the
    // instability grows. This catches sign/consistency errors in the
    // velocity field that pointwise tests miss.
    let out = World::builder(4).run(|comm| {
        let mesh = SurfaceMesh::new(&comm, [24, 24], [true, true], 2, [0.0, 0.0], [L, L]);
        let bc = BoundaryCondition::Periodic { periods: [L, L] };
        let mut solver = Solver::new(mesh, bc, config(Order::Low, BrChoice::None, 1e-3));
        let before = Diagnostics::compute(solver.problem()).mean_height;
        solver.run(100, |_, _| {});
        let after = Diagnostics::compute(solver.problem());
        (before, after.mean_height, after.amplitude)
    });
    let (before, after, amplitude) = out[0];
    assert!(
        (after - before).abs() < 1e-6 * amplitude,
        "mean height drifted: {before:.3e} -> {after:.3e} (amplitude {amplitude:.3e})"
    );
}

//! Criterion microbenchmarks of the Birkhoff–Rott solvers: exact
//! ring-pass vs cutoff (migrate/halo/bin/pairs/return), at matched
//! point counts — the compute-vs-communication tradeoff at the heart of
//! the benchmark.

use beatnik_comm::{dims_create, World};
use beatnik_core::br::{BrPoint, BrSolver, CutoffBrSolver, ExactBrSolver};
use beatnik_mesh::SpatialMesh;
use beatnik_spatial::neighbors::Backend;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn points(n: usize) -> Vec<BrPoint> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            BrPoint {
                pos: [
                    (t * 0.37).fract() * 5.0 - 2.5,
                    (t * 0.71).fract() * 5.0 - 2.5,
                    (t * 0.13).fract() - 0.5,
                ],
                strength: [(t * 0.29).fract() - 0.5, (t * 0.53).fract() - 0.5, 0.0],
            }
        })
        .collect()
}

fn bench_br(c: &mut Criterion) {
    let mut g = c.benchmark_group("br_solvers");
    g.measurement_time(Duration::from_secs(3)).sample_size(10);
    let ranks = 4;
    for n in [1024usize, 4096] {
        let all = points(n);
        let chunk = n / ranks;
        let all_e = all.clone();
        g.bench_with_input(BenchmarkId::new("exact_ring", n), &n, |b, _| {
            b.iter(|| {
                let all = all_e.clone();
                World::builder(ranks).run(move |comm| {
                    let lo = comm.rank() * chunk;
                    ExactBrSolver
                        .velocities(&comm, &all[lo..lo + chunk], 0.05)
                        .len()
                })
            })
        });
        for cutoff in [0.5f64, 1.0] {
            let all_c = all.clone();
            g.bench_with_input(
                BenchmarkId::new(format!("cutoff_{cutoff}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let all = all_c.clone();
                        World::builder(ranks).run(move |comm| {
                            let smesh = SpatialMesh::new(
                                [-3.0, -3.0, -3.0],
                                [3.0, 3.0, 3.0],
                                dims_create(comm.size()),
                            );
                            let solver = CutoffBrSolver::new(smesh, cutoff, Backend::Grid);
                            let lo = comm.rank() * chunk;
                            solver.velocities(&comm, &all[lo..lo + chunk], 0.05).len()
                        })
                    })
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_br);
criterion_main!(benches);

//! Load-balanced cutoff solver: the paper's §6 "load balancing
//! communication steps" future-work item, implemented.
//!
//! Identical to [`crate::br::CutoffBrSolver`] except that the spatial
//! decomposition is rebuilt every evaluation by recursive coordinate
//! bisection over the *current* point positions, so per-rank point counts
//! stay flat even as the interface rolls up. The rebuild itself is a new
//! communication step (an allgather of positions) — exactly the extra
//! pattern the paper wants a benchmark to expose.

use super::cutoff::cutoff_cycle;
use super::{BrPoint, BrSolver};
use beatnik_comm::Communicator;
use beatnik_mesh::RcbDecomposition;
use beatnik_spatial::neighbors::Backend;

/// Cutoff solver over a per-evaluation RCB decomposition.
pub struct BalancedCutoffBrSolver {
    /// x/y domain corners the decomposition tiles.
    pub lo: [f64; 2],
    /// Upper domain corner.
    pub hi: [f64; 2],
    cutoff: f64,
    backend: Backend,
}

impl BalancedCutoffBrSolver {
    /// Create a solver over the x/y domain `[lo, hi]` with a cutoff
    /// radius.
    pub fn new(lo: [f64; 2], hi: [f64; 2], cutoff: f64, backend: Backend) -> Self {
        assert!(cutoff > 0.0, "cutoff must be positive");
        BalancedCutoffBrSolver {
            lo,
            hi,
            cutoff,
            backend,
        }
    }

    /// The cutoff radius.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Build the decomposition for the current global point set
    /// (collective; exposed so diagnostics can measure balance).
    pub fn decompose(&self, comm: &Communicator, points: &[BrPoint]) -> RcbDecomposition {
        let positions: Vec<[f64; 3]> = points.iter().map(|p| p.pos).collect();
        RcbDecomposition::build_distributed(comm, &positions, comm.size(), self.lo, self.hi)
    }
}

impl BrSolver for BalancedCutoffBrSolver {
    fn velocities(
        &self,
        comm: &Communicator,
        points: &[BrPoint],
        epsilon: f64,
    ) -> Vec<[f64; 3]> {
        // Load-balancing step: rebuild the decomposition from current
        // positions (allgather), then run the cutoff cycle over the
        // balanced regions.
        let decomp = self.decompose(comm, points);
        cutoff_cycle(comm, &decomp, points, self.cutoff, self.backend, epsilon)
    }

    fn name(&self) -> &'static str {
        "balanced-cutoff"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::br::cutoff::CutoffBrSolver;
    use crate::br::exact::ExactBrSolver;
    use beatnik_comm::{dims_create, World};
    use beatnik_mesh::{PointDecomposition, SpatialMesh};

    /// Rollup-like cloud: most points in a tight cluster.
    fn clustered_points(n: usize) -> Vec<BrPoint> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                let pos = if i % 4 != 0 {
                    [
                        0.4 + (t * 0.173).fract() * 0.5,
                        -0.6 + (t * 0.311).fract() * 0.5,
                        (t * 0.07).fract() * 0.2,
                    ]
                } else {
                    [
                        -2.9 + (t * 0.737).fract() * 5.8,
                        -2.9 + (t * 0.419).fract() * 5.8,
                        0.0,
                    ]
                };
                BrPoint {
                    pos,
                    strength: [(t * 0.29).fract() - 0.5, (t * 0.53).fract() - 0.5, 0.1],
                }
            })
            .collect()
    }

    #[test]
    fn huge_cutoff_matches_exact_solver() {
        let n = 48;
        for p in [1usize, 4] {
            World::builder(p).run(move |comm| {
                let all = clustered_points(n);
                let chunk = n / comm.size();
                let lo = comm.rank() * chunk;
                let mine = &all[lo..lo + chunk];
                let exact = ExactBrSolver.velocities(&comm, mine, 0.1);
                let solver = BalancedCutoffBrSolver::new(
                    [-3.0, -3.0],
                    [3.0, 3.0],
                    20.0,
                    Backend::Grid,
                );
                let got = solver.velocities(&comm, mine, 0.1);
                for (e, g) in exact.iter().zip(&got) {
                    for k in 0..3 {
                        assert!((e[k] - g[k]).abs() < 1e-11, "p={p}");
                    }
                }
            });
        }
    }

    #[test]
    fn matches_uniform_cutoff_solver_at_same_cutoff() {
        // Same pairs (cutoff criterion is geometric), different owners:
        // results must agree to FP noise despite different decompositions.
        World::builder(4).run(|comm| {
            let all = clustered_points(80);
            let mine = &all[comm.rank() * 20..comm.rank() * 20 + 20];
            let uniform = CutoffBrSolver::new(
                SpatialMesh::new([-3.0, -3.0, -1.0], [3.0, 3.0, 1.0], dims_create(4)),
                1.2,
                Backend::Grid,
            )
            .velocities(&comm, mine, 0.1);
            let balanced =
                BalancedCutoffBrSolver::new([-3.0, -3.0], [3.0, 3.0], 1.2, Backend::Grid)
                    .velocities(&comm, mine, 0.1);
            for (u, b) in uniform.iter().zip(&balanced) {
                for k in 0..3 {
                    assert!((u[k] - b[k]).abs() < 1e-12, "{u:?} vs {b:?}");
                }
            }
        });
    }

    #[test]
    fn balances_clustered_load_where_uniform_grid_does_not() {
        World::builder(4).run(|comm| {
            let all = clustered_points(400);
            let mine = &all[comm.rank() * 100..comm.rank() * 100 + 100];
            let solver =
                BalancedCutoffBrSolver::new([-3.0, -3.0], [3.0, 3.0], 0.5, Backend::Grid);
            let decomp = solver.decompose(&comm, mine);
            // Count global ownership per region.
            let mut counts = vec![0.0f64; 4];
            for p in mine {
                counts[decomp.rank_of_point(p.pos)] += 1.0;
            }
            let counts = comm.allreduce_vec(counts, &beatnik_comm::SumOp);
            let max = counts.iter().cloned().fold(0.0f64, f64::max);
            assert!(max / 100.0 < 1.3, "rcb counts {counts:?}");

            // The uniform grid concentrates the cluster on one rank.
            let uniform =
                SpatialMesh::new([-3.0, -3.0, -1.0], [3.0, 3.0, 1.0], dims_create(4));
            let mut ucounts = vec![0.0f64; 4];
            for p in mine {
                ucounts[PointDecomposition::rank_of_point(&uniform, p.pos)] += 1.0;
            }
            let ucounts = comm.allreduce_vec(ucounts, &beatnik_comm::SumOp);
            let umax = ucounts.iter().cloned().fold(0.0f64, f64::max);
            assert!(umax / 100.0 > 2.0, "uniform counts {ucounts:?}");
        });
    }
}

//! Cutoff-based approximate Birkhoff–Rott solver (paper §3.2,
//! `CutoffBRSolver`) — the scalable far-field solver whose dynamic,
//! irregular communication the benchmark exists to exercise.
//!
//! Per evaluation, the paper's five steps, with the two local ones fused:
//! 1. migrate surface points into the 3D spatial mesh (x/y decomposition);
//! 2. halo points within the cutoff distance between spatial blocks;
//! 3. counting-sort owned + ghost points into cutoff-sized cells
//!    (`beatnik-spatial`, the ArborX stand-in), and
//! 4. for each owned point, filter the ≤ 9 contiguous runs of its 3×3×3
//!    cell block down to the points within the cutoff and accumulate the
//!    pair kernel over those hits — the neighbour list the paper builds
//!    here would be read once and dropped, so none is materialised;
//! 5. migrate results back to the surface decomposition.

use super::kernel::{accumulate_hits, select_within, Sources};
use super::{BrPoint, BrSolver};
use beatnik_comm::Communicator;
use beatnik_mesh::migrate::{halo_exchange_points, migrate_results_home, migrate_to_spatial};
use beatnik_mesh::{PointResult, SpatialMesh, SurfacePoint};
use beatnik_spatial::neighbors::Backend;
use beatnik_spatial::CellBins;
use std::ops::Range;

/// The scalable cutoff solver.
pub struct CutoffBrSolver {
    smesh: SpatialMesh,
    cutoff: f64,
}

impl CutoffBrSolver {
    /// Create a solver over the given spatial mesh with a cutoff radius.
    /// The spatial mesh's rank count must equal the communicator size the
    /// solver will be used with. Cell binning is the only neighbour
    /// search; `_backend` names it for callers that still pass one.
    pub fn new(smesh: SpatialMesh, cutoff: f64, _backend: Backend) -> Self {
        assert!(cutoff > 0.0, "cutoff must be positive");
        CutoffBrSolver { smesh, cutoff }
    }

    /// The cutoff radius.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// The spatial mesh used for migration.
    pub fn spatial_mesh(&self) -> &SpatialMesh {
        &self.smesh
    }
}

impl BrSolver for CutoffBrSolver {
    /// The five-step cutoff cycle. Collective over `comm`.
    fn velocities(&self, comm: &Communicator, points: &[BrPoint], epsilon: f64) -> Vec<[f64; 3]> {
        let _phase = comm.telemetry().phase("br-cutoff");
        let (smesh, cutoff) = (&self.smesh, self.cutoff);
        let me = comm.rank() as u32;

        // Step 1: migrate into the spatial decomposition.
        let outgoing: Vec<SurfacePoint> = points
            .iter()
            .enumerate()
            .map(|(i, b)| SurfacePoint {
                pos: b.pos,
                payload: b.strength,
                home_rank: me,
                home_idx: i as u32,
            })
            .collect();
        let owned = migrate_to_spatial(comm, smesh, outgoing);

        // Step 2: halo ghosts within the cutoff.
        let ghosts = halo_exchange_points(comm, smesh, &owned, cutoff);

        // Steps 3 + 4: sort owned + ghost sources, then filter and
        // accumulate per owned target.
        let sources = {
            let _phase = comm.telemetry().phase("br-cutoff-bin");
            SortedSources::new(&owned, &ghosts, cutoff)
        };
        let velocities = {
            let _phase = comm.telemetry().phase("br-cutoff-pairs");
            sources.velocities(owned.len(), cutoff, epsilon * epsilon)
        };

        // Step 5: return results to home ranks.
        let results: Vec<(usize, PointResult)> = owned
            .iter()
            .zip(&velocities)
            .map(|(pt, v)| {
                (
                    pt.home_rank as usize,
                    PointResult {
                        home_idx: pt.home_idx,
                        value: *v,
                    },
                )
            })
            .collect();
        migrate_results_home(comm, results, points.len())
    }

    fn name(&self) -> &'static str {
        "cutoff"
    }
}

/// One rank's owned + ghost points laid out cell by cell for the pair
/// pass.
struct SortedSources {
    /// Positions and strengths by sorted slot.
    sources: Sources,
    bins: CellBins,
}

impl SortedSources {
    fn new(owned: &[SurfacePoint], ghosts: &[SurfacePoint], cutoff: f64) -> Self {
        let bins = CellBins::build(owned.iter().chain(ghosts).map(|p| p.pos), cutoff);
        let point = |&i: &u32| {
            let i = i as usize;
            let p = if i < owned.len() {
                &owned[i]
            } else {
                &ghosts[i - owned.len()]
            };
            (p.pos, p.payload)
        };
        SortedSources {
            sources: Sources::from_slots(bins.order().iter().map(point)),
            bins,
        }
    }

    /// Velocity at each of the first `n_owned` input points from every
    /// source within `cutoff` (inclusive), visiting targets in slot order
    /// so consecutive targets read the same runs.
    fn velocities(&self, n_owned: usize, cutoff: f64, eps2: f64) -> Vec<[f64; 3]> {
        self.pair_pass(n_owned, cutoff, eps2, select_within, accumulate_hits)
    }

    /// [`SortedSources::velocities`] through a given filter and kernel.
    fn pair_pass(
        &self,
        n_owned: usize,
        cutoff: f64,
        eps2: f64,
        select: impl Fn([f64; 3], &Sources, Range<usize>, f64, &mut Vec<u32>),
        accumulate: impl Fn([f64; 3], &Sources, &[u32], f64) -> [f64; 3],
    ) -> Vec<[f64; 3]> {
        let rc2 = cutoff * cutoff;
        let mut vel = vec![[0.0f64; 3]; n_owned];
        let mut hits: Vec<u32> = Vec::new();
        for (slot, &i) in self.bins.order().iter().enumerate() {
            let Some(v) = vel.get_mut(i as usize) else {
                continue; // a ghost: a source only
            };
            let target = self.sources.pos(slot);
            hits.clear();
            for run in self.bins.runs(target, cutoff) {
                select(target, &self.sources, run, rc2, &mut hits);
            }
            *v = accumulate(target, &self.sources, &hits, eps2);
        }
        vel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::br::exact::ExactBrSolver;
    use crate::br::kernel::{br_pair_velocity, hits_body, select_body};
    use beatnik_comm::{dims_create, OpKind, World};

    fn global_points(n: usize) -> Vec<BrPoint> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                BrPoint {
                    pos: [
                        (t * 0.37).fract() * 4.0 - 2.0,
                        (t * 0.71).fract() * 4.0 - 2.0,
                        (t * 0.13).fract() - 0.5,
                    ],
                    strength: [(t * 0.29).fract() - 0.5, (t * 0.53).fract() - 0.5, 0.1],
                }
            })
            .collect()
    }

    fn smesh(ranks: usize) -> SpatialMesh {
        SpatialMesh::new([-3.0, -3.0, -3.0], [3.0, 3.0, 3.0], dims_create(ranks))
    }

    #[test]
    fn huge_cutoff_matches_exact_solver() {
        // With a cutoff covering the whole domain the approximation is
        // exact: same pairs, same kernel.
        let n = 48;
        let eps = 0.1;
        for p in [1usize, 2, 4] {
            World::builder(p).run(move |comm| {
                let all = global_points(n);
                let chunk = n / comm.size();
                let lo = comm.rank() * chunk;
                let hi = if comm.rank() + 1 == comm.size() {
                    n
                } else {
                    lo + chunk
                };
                let mine = &all[lo..hi];
                let exact = ExactBrSolver.velocities(&comm, mine, eps);
                let solver = CutoffBrSolver::new(smesh(p), 20.0, Backend::Grid);
                let cut = solver.velocities(&comm, mine, eps);
                for (e, c) in exact.iter().zip(&cut) {
                    for k in 0..3 {
                        assert!((e[k] - c[k]).abs() < 1e-11, "p={p}: {e:?} vs {c:?}");
                    }
                }
            });
        }
    }

    #[test]
    fn cutoff_error_decreases_with_radius() {
        World::builder(2).run(|comm| {
            let all = global_points(60);
            let chunk = 30;
            let lo = comm.rank() * chunk;
            let mine = &all[lo..lo + chunk];
            let eps = 0.1;
            let exact = ExactBrSolver.velocities(&comm, mine, eps);
            let err = |cutoff: f64| {
                let s = CutoffBrSolver::new(smesh(2), cutoff, Backend::Grid);
                let got = s.velocities(&comm, mine, eps);
                got.iter()
                    .zip(&exact)
                    .map(|(g, e)| (0..3).map(|k| (g[k] - e[k]).powi(2)).sum::<f64>().sqrt())
                    .fold(0.0f64, f64::max)
            };
            let e1 = err(1.0);
            let e3 = err(3.0);
            let e8 = err(8.0);
            assert!(e3 < e1, "larger cutoff must reduce error: {e1} vs {e3}");
            assert!(e8 < e3 * 0.5, "{e3} vs {e8}");
        });
    }

    fn surface_points(pos: &[[f64; 3]]) -> Vec<SurfacePoint> {
        pos.iter()
            .enumerate()
            .map(|(i, &pos)| {
                let t = i as f64;
                SurfacePoint {
                    pos,
                    payload: [(t * 0.29).fract() - 0.5, (t * 0.53).fract() - 0.5, 0.1],
                    home_rank: 0,
                    home_idx: i as u32,
                }
            })
            .collect()
    }

    /// Steps 3 + 4 on one rank, no communicator.
    fn fused(
        owned: &[SurfacePoint],
        ghosts: &[SurfacePoint],
        cutoff: f64,
        eps: f64,
    ) -> Vec<[f64; 3]> {
        SortedSources::new(owned, ghosts, cutoff).velocities(
            owned.len(),
            cutoff,
            eps * eps,
        )
    }

    /// O(n²) oracle: the scalar kernel over every source within the
    /// cutoff, inclusive like `brute_force_neighbors`.
    fn oracle(
        targets: &[SurfacePoint],
        sources: &[SurfacePoint],
        cutoff: f64,
        eps: f64,
    ) -> Vec<[f64; 3]> {
        targets
            .iter()
            .map(|t| {
                let mut acc = [0.0f64; 3];
                for s in sources {
                    if beatnik_spatial::dist2(t.pos, s.pos) <= cutoff * cutoff {
                        let u = br_pair_velocity(t.pos, s.pos, s.payload, eps * eps);
                        for k in 0..3 {
                            acc[k] += u[k];
                        }
                    }
                }
                acc
            })
            .collect()
    }

    fn assert_close(got: &[[f64; 3]], want: &[[f64; 3]], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            for k in 0..3 {
                assert!(
                    (g[k] - w[k]).abs() <= 1e-12,
                    "{what}: point {i}: {g:?} vs {w:?}"
                );
            }
        }
    }

    /// What a case stresses, owned positions, ghost positions, cutoff, ε.
    type AwkwardSet = (&'static str, Vec<[f64; 3]>, Vec<[f64; 3]>, f64, f64);

    /// Owned and ghost positions that corner the binning and the lanes.
    fn awkward_sets() -> Vec<AwkwardSet> {
        let cloud = |n: usize, scale: f64| -> Vec<[f64; 3]> {
            global_points(n)
                .iter()
                .map(|p| p.pos.map(|c| c * scale))
                .collect()
        };
        let lattice: Vec<[f64; 3]> = (0..27)
            .map(|i| {
                [
                    (i % 3) as f64 * 0.75,
                    (i / 3 % 3) as f64 * 0.75,
                    (i / 9) as f64 * 0.75,
                ]
            })
            .collect();
        let mut sets = vec![
            (
                "pair exactly at the cutoff",
                vec![[0.0; 3], [0.5, 0.0, 0.0]],
                vec![[0.0, 0.0, -0.5]],
                0.5,
                0.1,
            ),
            (
                "coincident points, eps = 0",
                vec![[0.1, 0.2, 0.3]; 5],
                vec![[0.1, 0.2, 0.3], [0.2, 0.2, 0.3]],
                0.5,
                0.0,
            ),
            (
                "every point in one cell",
                cloud(40, 0.05),
                cloud(9, 0.04),
                0.5,
                0.1,
            ),
            (
                "cells of one point",
                lattice,
                vec![[-0.75, 0.0, 0.0]],
                0.5,
                0.1,
            ),
            ("empty owned set", vec![], cloud(12, 1.0), 0.5, 0.1),
            ("no ghosts", cloud(30, 1.0), vec![], 0.9, 0.1),
            ("nothing at all", vec![], vec![], 0.5, 0.1),
        ];
        for n in [1, 3, 5, 7] {
            sets.push((
                "lane remainders",
                cloud(n, 0.2),
                cloud(n + 2, 0.25),
                0.5,
                0.05,
            ));
        }
        sets
    }

    #[test]
    fn fused_evaluation_matches_the_all_pairs_oracle() {
        for (what, owned, ghosts, cutoff, eps) in awkward_sets() {
            let (owned, ghosts) = (surface_points(&owned), surface_points(&ghosts));
            let sources: Vec<SurfacePoint> = owned.iter().chain(&ghosts).copied().collect();
            let want = oracle(&owned, &sources, cutoff, eps);
            let got = fused(&owned, &ghosts, cutoff, eps);
            assert_close(&got, &want, &format!("{what} ({} owned)", owned.len()));
        }
        // The pair at exactly the cutoff does interact.
        let pair = surface_points(&[[0.0; 3], [0.5, 0.0, 0.0]]);
        let v = fused(&pair, &[], 0.5, 0.1);
        assert!(v[0].iter().any(|&c| c != 0.0), "{v:?}");
    }

    #[test]
    fn dispatched_pair_pass_matches_the_scalar_bodies_bitwise() {
        for (what, owned, ghosts, cutoff, eps) in awkward_sets() {
            let (owned, ghosts) = (surface_points(&owned), surface_points(&ghosts));
            let sources = SortedSources::new(&owned, &ghosts, cutoff);
            assert_eq!(
                sources.velocities(owned.len(), cutoff, eps * eps),
                sources.pair_pass(owned.len(), cutoff, eps * eps, select_body, hits_body),
                "{what} ({} owned)",
                owned.len()
            );
        }
    }

    #[test]
    fn open_mesh_agrees_with_the_oracle_on_any_rank_count() {
        // A 12 x 10 open sheet, split contiguously over 1, 2, 3, 4 and 6
        // ranks: every decomposition must reproduce the one global
        // oracle, and therefore each other.
        let sheet: Vec<[f64; 3]> = (0..120)
            .map(|i| {
                let (x, y) = ((i % 12) as f64 * 0.4 - 2.2, (i / 12) as f64 * 0.45 - 2.0);
                [x, y, 0.3 * (x + 0.5 * y).sin()]
            })
            .collect();
        let all = surface_points(&sheet);
        let want = oracle(&all, &all, 0.9, 0.1);
        for p in [1usize, 2, 3, 4, 6] {
            let (all, want) = (all.clone(), want.clone());
            World::builder(p).run(move |comm| {
                let chunk = 120 / comm.size();
                let lo = comm.rank() * chunk;
                let mine: Vec<BrPoint> = all[lo..lo + chunk]
                    .iter()
                    .map(|s| BrPoint {
                        pos: s.pos,
                        strength: s.payload,
                    })
                    .collect();
                let got =
                    CutoffBrSolver::new(smesh(p), 0.9, Backend::Grid).velocities(&comm, &mine, 0.1);
                assert_close(&got, &want[lo..lo + chunk], &format!("{p} ranks"));
            });
        }
    }

    #[test]
    fn far_apart_points_cost_memory_by_count_not_by_volume() {
        // Two points 1e5 apart at cutoff 1e-2 are 1e21 cutoff-sized cells;
        // sizing the cell table by volume overflowed its capacity.
        World::builder(1).run(|comm| {
            let far = [
                BrPoint {
                    pos: [0.0; 3],
                    strength: [0.0, 1.0, 0.0],
                },
                BrPoint {
                    pos: [1e5, 1e5, 1e5],
                    strength: [1.0, 0.0, 0.0],
                },
                BrPoint {
                    pos: [1e5, 1e5, 1e5 + 5e-3],
                    strength: [1.0, 0.0, 0.0],
                },
            ];
            let v =
                CutoffBrSolver::new(smesh(1), 1e-2, Backend::Grid).velocities(&comm, &far, 1e-3);
            assert_eq!(v[0], [0.0; 3], "alone within its cutoff");
            assert!(v[1].iter().any(|&c| c != 0.0) && v[2].iter().any(|&c| c != 0.0));
        });
    }

    #[test]
    fn non_finite_points_neither_feel_nor_exert() {
        for p in [1usize, 2] {
            World::builder(p).run(move |comm| {
                let all = global_points(24);
                let chunk = 24 / comm.size();
                let clean = &all[comm.rank() * chunk..(comm.rank() + 1) * chunk];
                let mut dirty = clean.to_vec();
                for (i, bad) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
                    .into_iter()
                    .enumerate()
                {
                    let mut pos = clean[i].pos;
                    pos[i] = bad;
                    dirty.push(BrPoint {
                        pos,
                        strength: [1.0; 3],
                    });
                }
                let solver = CutoffBrSolver::new(smesh(p), 1.5, Backend::Grid);
                let want = solver.velocities(&comm, clean, 0.1);
                let got = solver.velocities(&comm, &dirty, 0.1);
                assert_close(&got[..chunk], &want, "finite points unmoved");
                assert_eq!(&got[chunk..], &[[0.0; 3]; 3], "non-finite points see nothing");
            });
        }
    }

    #[test]
    fn bin_and_pairs_phases_nest_inside_br_cutoff_and_cost_nothing_when_off() {
        let evaluate = |comm: &beatnik_comm::Communicator| {
            let all = global_points(40);
            let mine = &all[comm.rank() * 20..comm.rank() * 20 + 20];
            let _ = CutoffBrSolver::new(smesh(2), 0.8, Backend::Grid).velocities(comm, mine, 0.1);
        };
        let (_, _, timeline) = World::builder(2).run_profiled(|comm| evaluate(&comm));
        let rows = timeline.phase_attribution();
        let row = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("no {name} row"))
        };
        for name in ["br-cutoff", "br-cutoff-bin", "br-cutoff-pairs"] {
            assert_eq!(row(name).calls, 2, "{name}: once per rank");
        }
        // Nested: the parent's total covers both children, its self time
        // does not.
        let (parent, bin, pairs) = (
            row("br-cutoff"),
            row("br-cutoff-bin"),
            row("br-cutoff-pairs"),
        );
        assert!(parent.total_s >= bin.total_s + pairs.total_s);
        assert!(parent.self_s <= parent.total_s - bin.total_s - pairs.total_s + 1e-9);

        // With profiling off the same call records no span at all.
        World::builder(2).run(move |comm| {
            assert!(!comm.telemetry().is_enabled());
            evaluate(&comm);
            assert_eq!(comm.telemetry().total_pushed(), 0);
        });
    }

    #[test]
    fn communication_is_migration_shaped() {
        let (_, trace) = World::builder(4).run_traced(|comm| {
            let all = global_points(80);
            let mine = &all[comm.rank() * 20..comm.rank() * 20 + 20];
            let s = CutoffBrSolver::new(smesh(4), 0.8, Backend::Grid);
            let _ = s.velocities(&comm, mine, 0.1);
        });
        // 3 alltoallv rounds (migrate, halo, return) x 4 ranks.
        assert_eq!(trace.total(OpKind::Alltoallv).calls, 12);
    }

    #[test]
    #[should_panic(expected = "cutoff must be positive")]
    fn zero_cutoff_rejected() {
        let _ = CutoffBrSolver::new(smesh(1), 0.0, Backend::Grid);
    }
}

//! Particle migration between the surface and spatial decompositions —
//! the `HaloComm` analogue (paper §3.2, derived from CabanaPD).
//!
//! The cutoff solver's communication cycle per derivative evaluation:
//!
//! 1. [`migrate_to_spatial`] — move each surface point to the rank owning
//!    its x/y spatial region (irregular `alltoallv`, volume driven by how
//!    far the interface has deformed);
//! 2. [`halo_exchange_points`] — send copies of owned points to every
//!    rank whose region lies within the cutoff distance (irregular,
//!    duplicating points near region boundaries);
//! 3. compute forces locally (see `beatnik-spatial` / `beatnik-core`);
//! 4. [`migrate_results_home`] — return one result vector per point to
//!    its home (surface-decomposition) rank and slot.
//!
//! Every point carries its home rank and home index so step 4 needs no
//! lookup tables.

use crate::spatial_mesh::SpatialMesh;
use beatnik_comm::message::CommData;
use beatnik_comm::{AllToAllAlgo, Communicator};

/// A surface-mesh point traveling through the spatial decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfacePoint {
    /// Physical position (x, y, z).
    pub pos: [f64; 3],
    /// Per-point payload carried through migration (the cutoff solver
    /// sends the desingularized sheet-strength vector `ω·ΔA`).
    pub payload: [f64; 3],
    /// Rank that owns this point in the surface decomposition.
    pub home_rank: u32,
    /// Index within the home rank's local point ordering.
    pub home_idx: u32,
}

/// A computed value traveling back to a point's home rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointResult {
    /// Index within the home rank's local point ordering.
    pub home_idx: u32,
    /// Computed vector (the Birkhoff–Rott velocity).
    pub value: [f64; 3],
}

/// One irregular all-to-all: `blocks[d]` moves to rank `d` as it is, and
/// what arrives comes back flat, in source-rank order.
fn exchange<T: CommData + Clone>(comm: &Communicator, blocks: Vec<Vec<T>>) -> Vec<T> {
    comm.alltoallv_owned(blocks, AllToAllAlgo::Adaptive).concat()
}

/// Step 1: move points to their spatial owners. Returns the points this
/// rank now owns in the spatial decomposition (in arrival order).
pub fn migrate_to_spatial(
    comm: &Communicator,
    smesh: &SpatialMesh,
    points: Vec<SurfacePoint>,
) -> Vec<SurfacePoint> {
    assert_eq!(
        smesh.ranks(),
        comm.size(),
        "spatial mesh decomposition must match communicator size"
    );
    let _phase = comm.telemetry().phase("migrate-to-spatial");
    let p = comm.size();
    let mut blocks: Vec<Vec<SurfacePoint>> = (0..p).map(|_| Vec::new()).collect();
    for pt in points {
        blocks[smesh.rank_of_point(pt.pos)].push(pt);
    }
    exchange(comm, blocks)
}

/// Step 2: halo points within `cutoff` of neighboring regions. Returns
/// the *ghost* points received from other ranks (owned points are not
/// duplicated into the result).
pub fn halo_exchange_points(
    comm: &Communicator,
    smesh: &SpatialMesh,
    owned: &[SurfacePoint],
    cutoff: f64,
) -> Vec<SurfacePoint> {
    let _phase = comm.telemetry().phase("halo-points");
    let p = comm.size();
    let me = comm.rank();
    let mut blocks: Vec<Vec<SurfacePoint>> = (0..p).map(|_| Vec::new()).collect();
    for pt in owned {
        smesh.for_each_rank_within(pt.pos, cutoff, |dest| {
            if dest != me {
                blocks[dest].push(*pt);
            }
        });
    }
    exchange(comm, blocks)
}

/// Step 4: return per-point results to home ranks. `results` pairs each
/// computed value with its destination (the point's `home_rank`);
/// `n_local` is the number of points this rank owns in the *surface*
/// decomposition. Returns the dense result array indexed by home index.
///
/// # Panics
/// Panics if any incoming result's `home_idx` is out of range or
/// duplicated — either indicates a corrupted migration cycle.
pub fn migrate_results_home(
    comm: &Communicator,
    results: Vec<(usize, PointResult)>,
    n_local: usize,
) -> Vec<[f64; 3]> {
    let _phase = comm.telemetry().phase("migrate-home");
    let p = comm.size();
    let mut blocks: Vec<Vec<PointResult>> = (0..p).map(|_| Vec::new()).collect();
    for (dest, r) in results {
        blocks[dest].push(r);
    }
    let incoming = exchange(comm, blocks);
    let mut out = vec![[f64::NAN; 3]; n_local];
    let mut seen = vec![false; n_local];
    for r in incoming {
        let i = r.home_idx as usize;
        assert!(i < n_local, "migrate_results_home: index {i} out of range");
        assert!(!seen[i], "migrate_results_home: duplicate result for {i}");
        seen[i] = true;
        out[i] = r.value;
    }
    assert!(
        seen.iter().all(|&s| s),
        "migrate_results_home: missing results for some points"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial_mesh::SpatialMesh;
    use beatnik_comm::{OpKind, World};

    fn smesh(ranks: usize) -> SpatialMesh {
        let dims = beatnik_comm::dims_create(ranks);
        SpatialMesh::new([-3.0, -3.0, -3.0], [3.0, 3.0, 3.0], dims)
    }

    /// Deterministic cloud of points spread over the domain, tagged with
    /// their producing rank.
    fn cloud(rank: usize, n: usize) -> Vec<SurfacePoint> {
        (0..n)
            .map(|i| {
                let t = (rank * n + i) as f64;
                SurfacePoint {
                    pos: [
                        -2.9 + (t * 0.761).fract() * 5.8,
                        -2.9 + (t * 0.377).fract() * 5.8,
                        (t * 0.211).fract() - 0.5,
                    ],
                    payload: [t, -t, 0.0],
                    home_rank: rank as u32,
                    home_idx: i as u32,
                }
            })
            .collect()
    }

    #[test]
    fn migration_conserves_points_and_routes_correctly() {
        for p in [1usize, 2, 4] {
            World::builder(p).run(move |comm| {
                let sm = smesh(p);
                let mine = cloud(comm.rank(), 40);
                let owned = migrate_to_spatial(&comm, &sm, mine);
                // Every point I received belongs in my region.
                for pt in &owned {
                    assert_eq!(sm.rank_of_point(pt.pos), comm.rank());
                }
                // Point count is conserved globally.
                let total = comm.allreduce_sum(owned.len() as f64) as usize;
                assert_eq!(total, 40 * p);
            });
        }
    }

    #[test]
    fn halo_contains_every_foreign_point_within_cutoff() {
        let p = 4;
        let cutoff = 0.8;
        World::builder(p).run(move |comm| {
            let sm = smesh(p);
            let owned = migrate_to_spatial(&comm, &sm, cloud(comm.rank(), 30));
            let ghosts = halo_exchange_points(&comm, &sm, &owned, cutoff);
            // Gather all points everywhere for a brute-force check.
            let all: Vec<SurfacePoint> = comm.allgather(&owned);
            for a in &all {
                if sm.rank_of_point(a.pos) == comm.rank() {
                    continue; // my own point, not a ghost
                }
                // If a foreign point is within `cutoff` (3D) of any of my
                // owned points, the x/y-box halo must have delivered it.
                let needed = owned.iter().any(|m| {
                    let d2: f64 = m
                        .pos
                        .iter()
                        .zip(&a.pos)
                        .map(|(u, v)| (u - v) * (u - v))
                        .sum();
                    d2.sqrt() <= cutoff
                });
                if needed {
                    assert!(
                        ghosts
                            .iter()
                            .any(|g| g.home_rank == a.home_rank && g.home_idx == a.home_idx),
                        "missing ghost for {a:?}"
                    );
                }
            }
        });
    }

    #[test]
    fn results_return_to_correct_home_slots() {
        let p = 4;
        World::builder(p).run(move |comm| {
            let sm = smesh(p);
            let n = 25;
            let mine = cloud(comm.rank(), n);
            let owned = migrate_to_spatial(&comm, &sm, mine);
            // "Compute" a recognizable value per point.
            let results: Vec<(usize, PointResult)> = owned
                .iter()
                .map(|pt| {
                    let v = (pt.home_rank * 1000 + pt.home_idx) as f64;
                    (
                        pt.home_rank as usize,
                        PointResult {
                            home_idx: pt.home_idx,
                            value: [v, -v, 0.5 * v],
                        },
                    )
                })
                .collect();
            let back = migrate_results_home(&comm, results, n);
            assert_eq!(back.len(), n);
            for (i, v) in back.iter().enumerate() {
                let want = (comm.rank() * 1000 + i) as f64;
                assert_eq!(v[0], want);
                assert_eq!(v[1], -want);
            }
        });
    }

    #[test]
    fn migration_uses_irregular_alltoallv() {
        let (_, trace) = World::builder(4).run_traced(|comm| {
            let sm = smesh(4);
            let owned = migrate_to_spatial(&comm, &sm, cloud(comm.rank(), 10));
            let _ = halo_exchange_points(&comm, &sm, &owned, 0.5);
        });
        let s = trace.total(OpKind::Alltoallv);
        assert_eq!(s.calls, 8); // 2 collective calls x 4 ranks
        assert!(s.bytes > 0);
    }

    #[test]
    #[should_panic(expected = "missing results")]
    fn lost_results_are_detected() {
        World::builder(1).run(|comm| {
            // Claim 3 local points but return results for only 1.
            let results = vec![(
                0usize,
                PointResult {
                    home_idx: 0,
                    value: [0.0; 3],
                },
            )];
            let _ = migrate_results_home(&comm, results, 3);
        });
    }
}

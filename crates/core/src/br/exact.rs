//! Exact O(n²) Birkhoff–Rott solver with ring-pass communication
//! (paper §3.2, `ExactBRSolver`).
//!
//! Every rank's point block circulates around the rank ring; after P−1
//! shifts every rank has accumulated forces from every block. The
//! communication is regular (fixed-size messages to a fixed neighbor)
//! and the computation dominates, exactly the compute-bound profile the
//! paper describes. With m points on a rank, it evaluates per image
//! shift:
//!
//! * its own block, at ring step 0 and zero shift: m(m−1)/2 unordered
//!   pairs through the symmetric kernel, one reciprocal for both ends;
//! * each of the P−1 circulated blocks, and every shifted image: m × m'
//!   one-sided pairs. A circulated pair's reaction belongs to another
//!   rank, and sending it back would change the wire pattern the paper
//!   studies; a shifted pair's reaction belongs to the opposite shift.
//!
//! Each ring step is pipelined: the receive for the next block and the
//! send of the current block are posted *before* the pair kernel runs,
//! so the neighbor exchange overlaps the computation (P−1-stage
//! pipeline). [`super::PeriodicExactBrSolver`] runs the same ring over
//! its lattice of image shifts.

use super::kernel::{accumulate_block, accumulate_symmetric};
use super::{BrPoint, BrSolver};
use beatnik_comm::Communicator;
use crate::par::prelude::*;

/// The brute-force all-pairs solver.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExactBrSolver;

/// Message tag for ring traffic (distinct from halo traffic).
const RING_TAG: u64 = 0x5249_4e47; // "RING"

impl BrSolver for ExactBrSolver {
    fn velocities(
        &self,
        comm: &Communicator,
        points: &[BrPoint],
        epsilon: f64,
    ) -> Vec<[f64; 3]> {
        let _phase = comm.telemetry().phase("br-exact");
        ring_velocities(comm, points, epsilon * epsilon, &[[0.0; 3]])
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

/// The ring pass of the exact solvers: the velocity at each of `points`
/// induced by every rank's points translated by each of `shifts` (the
/// plain solver's one zero shift, or a periodic image lattice), the
/// shifts taken in order at every ring step.
pub(super) fn ring_velocities(
    comm: &Communicator,
    points: &[BrPoint],
    eps2: f64,
    shifts: &[[f64; 3]],
) -> Vec<[f64; 3]> {
    let p = comm.size();
    let me = comm.rank();
    let targets: Vec<[f64; 3]> = points.iter().map(|b| b.pos).collect();
    let mut vel = vec![[0.0f64; 3]; points.len()];
    // Every target against a whole source block, parallel over targets
    // (the Kokkos-equivalent on-node parallelism).
    let one_sided = |vel: &mut [[f64; 3]], sources: &[([f64; 3], [f64; 3])]| {
        vel.par_chunks_mut(256)
            .zip(targets.par_chunks(256))
            .for_each(|(v, t)| accumulate_block(v, t, sources, eps2))
    };

    // The circulating block: (position, strength) pairs.
    let mut circ: Vec<([f64; 3], [f64; 3])> =
        points.iter().map(|b| (b.pos, b.strength)).collect();
    let mut image = Vec::new();

    for step in 0..p {
        let _stage = comm.telemetry().phase("br-ring-stage");
        // Post the next ring exchange before computing on the current
        // block, so the transfer overlaps the pair kernel.
        let pending = if step + 1 < p {
            let right = (me + 1) % p;
            let left = (me + p - 1) % p;
            let tag = RING_TAG + step as u64;
            let recv = comm.irecv::<([f64; 3], [f64; 3])>(left, tag);
            let send = comm.isend(right, tag, &circ);
            Some((recv, send))
        } else {
            None
        };

        for s in shifts {
            if *s != [0.0; 3] {
                image.clear();
                image.extend(circ.iter().map(|&(pos, strength)| {
                    ([pos[0] + s[0], pos[1] + s[1], pos[2] + s[2]], strength)
                }));
                one_sided(&mut vel, &image);
            } else if step == 0 {
                // The rank's own block: each pair once, both ends.
                accumulate_symmetric(&mut vel, &circ, eps2);
            } else {
                one_sided(&mut vel, &circ);
            }
        }

        if let Some((recv, send)) = pending {
            circ = recv.wait();
            send.wait();
        }
    }
    vel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::br::kernel::br_pair_velocity;
    use beatnik_comm::{OpKind, World};

    /// Deterministic global point set, split contiguously over ranks.
    fn global_points(n: usize) -> Vec<BrPoint> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                BrPoint {
                    pos: [
                        (t * 0.37).fract() * 2.0 - 1.0,
                        (t * 0.71).fract() * 2.0 - 1.0,
                        (t * 0.13).fract() * 0.5,
                    ],
                    strength: [(t * 0.29).fract() - 0.5, (t * 0.53).fract() - 0.5, 0.1],
                }
            })
            .collect()
    }

    /// Serial reference: all-pairs sum.
    fn serial_velocities(pts: &[BrPoint], eps: f64) -> Vec<[f64; 3]> {
        let eps2 = eps * eps;
        pts.iter()
            .map(|t| {
                let mut acc = [0.0f64; 3];
                for s in pts {
                    let u = br_pair_velocity(t.pos, s.pos, s.strength, eps2);
                    acc[0] += u[0];
                    acc[1] += u[1];
                    acc[2] += u[2];
                }
                acc
            })
            .collect()
    }

    /// `got` is the serial sum `want` to rounding, point for point.
    fn assert_serial(got: &[[f64; 3]], want: &[[f64; 3]], label: &str) {
        assert_eq!(got.len(), want.len(), "{label}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            for k in 0..3 {
                assert!((g[k] - w[k]).abs() < 1e-12, "{label} point {i} comp {k}");
            }
        }
    }

    #[test]
    fn ring_pass_matches_serial_all_pairs() {
        let eps = 0.05;
        // 61 splits unevenly at every rank count but 1.
        for n in [60, 61] {
            let all = global_points(n);
            let want = serial_velocities(&all, eps);
            for p in [1usize, 2, 3, 4, 9] {
                let all2 = all.clone();
                let want2 = want.clone();
                World::builder(p).run(move |comm| {
                    let chunk = n / comm.size();
                    let lo = comm.rank() * chunk;
                    let hi = if comm.rank() + 1 == comm.size() { n } else { lo + chunk };
                    let got = ExactBrSolver.velocities(&comm, &all2[lo..hi], eps);
                    assert_serial(&got, &want2[lo..hi], &format!("n={n} p={p}"));
                });
            }
        }
    }

    #[test]
    fn ring_message_pattern() {
        let (_, trace) = World::builder(4).run_traced(|comm| {
            let pts = global_points(40);
            let chunk = 10;
            let lo = comm.rank() * chunk;
            let _ = ExactBrSolver.velocities(&comm, &pts[lo..lo + chunk], 0.1);
        });
        // P-1 = 3 ring sends per rank, each 10 points x 48 bytes.
        for r in 0..4 {
            let s = trace.rank(r).get(OpKind::Send);
            assert_eq!(s.messages, 3);
            assert_eq!(s.bytes, 3 * 10 * 48);
            // Every isend copied its block once, and at each pipelined
            // step the send and the receive were in flight together.
            let t = trace.rank(r);
            assert_eq!(t.copied_bytes(), 3 * 480);
            assert!(t.peak_outstanding() >= 2, "rank {r}");
            assert_eq!(t.outstanding_requests(), 0, "rank {r}");
        }
    }

    #[test]
    fn empty_rank_participates_without_deadlock() {
        // Rank sizes 0 and n must still circulate blocks, and the empty
        // block must add nothing to the others.
        World::builder(3).run(|comm| {
            let all = global_points(20);
            let want = serial_velocities(&all, 0.05);
            let range = match comm.rank() {
                0 => 0..0,
                1 => 0..12,
                _ => 12..20,
            };
            let got = ExactBrSolver.velocities(&comm, &all[range.clone()], 0.05);
            assert_serial(&got, &want[range], &format!("rank {}", comm.rank()));
        });
    }

    #[test]
    fn two_vortex_points_induce_antisymmetric_velocities() {
        World::builder(1).run(|comm| {
            let pts = [
                BrPoint {
                    pos: [0.0, 0.0, 0.0],
                    strength: [0.0, 1.0, 0.0],
                },
                BrPoint {
                    pos: [1.0, 0.0, 0.0],
                    strength: [0.0, 1.0, 0.0],
                },
            ];
            let v = ExactBrSolver.velocities(&comm, &pts, 0.0);
            // Equal parallel strengths: each induces on the other equal
            // and opposite vertical velocities.
            assert!((v[0][2] + v[1][2]).abs() < 1e-15);
            assert!(v[0][2].abs() > 0.0);
        });
    }
}

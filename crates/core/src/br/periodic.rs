//! Periodic-image exact Birkhoff–Rott solver — the paper's §6
//! "periodic boundary conditions for … high-order solves" future work.
//!
//! The plain exact solver treats the surface as an isolated patch; on a
//! periodic problem that truncates the far field at the domain edge and
//! breaks translation symmetry. This solver sums the desingularized
//! kernel over a `(2m+1)²` lattice of x/y image copies of every source,
//! through the same pipelined ring pass as [`super::ExactBrSolver`]
//! (each circulated block is evaluated against all images locally — the
//! communication pattern is unchanged, the compute grows by the image
//! count, exactly how production periodic summation behaves short of an
//! Ewald decomposition). The own block's zero-shift copy takes the
//! symmetric kernel there; every other image is one-sided.

use super::exact::ring_velocities;
use super::{BrPoint, BrSolver};
use beatnik_comm::Communicator;

/// Ring-pass exact solver with x/y periodic images.
pub struct PeriodicExactBrSolver {
    /// Physical periods `[Lx, Ly]`.
    pub periods: [f64; 2],
    /// Image shells per direction (`m = 1` sums the 3×3 image lattice).
    pub images: usize,
}

impl PeriodicExactBrSolver {
    /// Create with periods and one image shell (the standard choice: the
    /// kernel decays as 1/r², so shell `m` contributes O(1/m²) and the
    /// first shell captures the dominant wrap-around interactions).
    pub fn new(periods: [f64; 2]) -> Self {
        assert!(periods[0] > 0.0 && periods[1] > 0.0, "periods must be positive");
        PeriodicExactBrSolver { periods, images: 1 }
    }

    /// Override the image shell count.
    pub fn with_images(mut self, images: usize) -> Self {
        self.images = images;
        self
    }

    fn shifts(&self) -> Vec<[f64; 3]> {
        let m = self.images as i64;
        let mut out = Vec::with_capacity(((2 * m + 1) * (2 * m + 1)) as usize);
        for iy in -m..=m {
            for ix in -m..=m {
                out.push([
                    ix as f64 * self.periods[0],
                    iy as f64 * self.periods[1],
                    0.0,
                ]);
            }
        }
        out
    }
}

impl BrSolver for PeriodicExactBrSolver {
    fn velocities(
        &self,
        comm: &Communicator,
        points: &[BrPoint],
        epsilon: f64,
    ) -> Vec<[f64; 3]> {
        ring_velocities(comm, points, epsilon * epsilon, &self.shifts())
    }

    fn name(&self) -> &'static str {
        "periodic-exact"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::br::exact::ExactBrSolver;
    use beatnik_comm::World;

    const L: f64 = 4.0;

    #[test]
    fn zero_images_matches_plain_exact() {
        World::builder(2).run(|comm| {
            let pts: Vec<BrPoint> = (0..20)
                .map(|i| {
                    let t = i as f64;
                    BrPoint {
                        pos: [(t * 0.37).fract() * L, (t * 0.71).fract() * L, 0.1 * t.sin()],
                        strength: [(t * 0.29).fract() - 0.5, 0.3, 0.0],
                    }
                })
                .collect();
            let mine = &pts[comm.rank() * 10..comm.rank() * 10 + 10];
            let plain = ExactBrSolver.velocities(&comm, mine, 0.1);
            let periodic = PeriodicExactBrSolver::new([L, L])
                .with_images(0)
                .velocities(&comm, mine, 0.1);
            assert_eq!(plain, periodic);
        });
    }

    #[test]
    fn wraparound_pairs_interact_strongly() {
        World::builder(1).run(|comm| {
            // Two points separated by 0.2 *through the boundary* (3.9 apart
            // in-box). The periodic solver must see a near-field
            // interaction an order of magnitude stronger.
            let pts = [
                BrPoint {
                    pos: [0.05, 1.0, 0.0],
                    strength: [0.0, 1.0, 0.0],
                },
                BrPoint {
                    pos: [L - 0.15, 1.0, 0.0],
                    strength: [0.0, 1.0, 0.0],
                },
            ];
            let plain = ExactBrSolver.velocities(&comm, &pts, 0.01);
            let periodic = PeriodicExactBrSolver::new([L, L]).velocities(&comm, &pts, 0.01);
            let mag = |v: [f64; 3]| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
            assert!(
                mag(periodic[0]) > 10.0 * mag(plain[0]),
                "periodic {periodic:?} vs plain {plain:?}"
            );
        });
    }

    #[test]
    fn translation_by_one_period_is_invariant() {
        World::builder(2).run(|comm| {
            let pts: Vec<BrPoint> = (0..16)
                .map(|i| {
                    let t = i as f64;
                    BrPoint {
                        pos: [(t * 0.43).fract() * L, (t * 0.67).fract() * L, 0.2 * t.cos()],
                        strength: [0.1, (t * 0.19).fract() - 0.5, 0.05],
                    }
                })
                .collect();
            // Shift *one* target by a full period in x: its velocity from
            // the periodic sum must be (nearly) unchanged — each source's
            // image lattice looks identical from x and x+L up to the
            // outermost truncated shell, so the defect falls as the
            // shell count grows.
            let mine = &pts[comm.rank() * 8..comm.rank() * 8 + 8];
            let defect = |m: usize| -> f64 {
                let solver = PeriodicExactBrSolver::new([L, L]).with_images(m);
                let base = solver.velocities(&comm, mine, 0.1);
                let mut shifted = mine.to_vec();
                shifted[0].pos[0] += L;
                let moved = solver.velocities(&comm, &shifted, 0.1);
                (0..3)
                    .map(|k| (base[0][k] - moved[0][k]).powi(2))
                    .sum::<f64>()
                    .sqrt()
            };
            let d1 = defect(1);
            let d4 = defect(4);
            assert!(d4 < 0.35 * d1, "defect must fall with shells: {d1} vs {d4}");
        });
    }

    #[test]
    fn image_sum_converges_with_shell_count() {
        World::builder(1).run(|comm| {
            let pts: Vec<BrPoint> = (0..12)
                .map(|i| {
                    let t = i as f64;
                    BrPoint {
                        pos: [(t * 0.37).fract() * L, (t * 0.71).fract() * L, 0.0],
                        strength: [0.2, -0.1, 0.0],
                    }
                })
                .collect();
            let run = |m: usize| {
                PeriodicExactBrSolver::new([L, L])
                    .with_images(m)
                    .velocities(&comm, &pts, 0.1)
            };
            let v1 = run(1);
            let v2 = run(2);
            let v3 = run(3);
            let diff = |a: &Vec<[f64; 3]>, b: &Vec<[f64; 3]>| -> f64 {
                a.iter()
                    .zip(b)
                    .map(|(x, y)| (0..3).map(|k| (x[k] - y[k]).powi(2)).sum::<f64>())
                    .sum::<f64>()
                    .sqrt()
            };
            let d12 = diff(&v1, &v2);
            let d23 = diff(&v2, &v3);
            assert!(d23 < d12, "image sum must converge: {d12} vs {d23}");
        });
    }

    #[test]
    #[should_panic(expected = "periods must be positive")]
    fn bad_periods_rejected() {
        let _ = PeriodicExactBrSolver::new([0.0, 1.0]);
    }
}

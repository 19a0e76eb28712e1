//! A fixed piece of arithmetic the benchmark owns, timed between
//! repetitions to tell how much of a CPU the host is handing out.
//!
//! The box is a shared VM whose host, for minutes at a time, runs every
//! instruction of the guest 1.3–2.5× slower without reporting steal
//! time: on one evening the same commit's `exact_ring` step read 54 ms,
//! 67 ms and 87 ms within ten minutes. No statistic over one run's steps
//! removes a slowdown that outlasts the run. The end-to-end times are
//! therefore divided by [`slowdown`]: they read as they would with the
//! reference kernel running at its nominal speed. A change to the
//! program moves them exactly as it moves raw time; a change in what the
//! host gives us moves kernel and program together and cancels.

use crate::stats::{percentile, QUIET_PCT};
use std::time::Instant;

/// What one kernel run takes on the reference box when the host is
/// quiet. Only fixes the scale of the reported times.
pub const NOMINAL_NS: f64 = 202_000.0;

const POINTS: usize = 256;

/// The kernel's input: a fixed cloud of points.
pub struct Reference {
    points: Vec<[f64; 3]>,
}

impl Default for Reference {
    fn default() -> Self {
        let coord = |i: usize, k: usize| ((i * 7919 + k * 104_729) % 1000) as f64 * 1e-3;
        Reference {
            points: (0..POINTS)
                .map(|i| [coord(i, 0), coord(i, 1), coord(i, 2)])
                .collect(),
        }
    }
}

impl Reference {
    /// All-pairs inverse-cube sums over the cloud: divide- and
    /// square-root-bound, cache-resident, the character of the solver's
    /// own pair kernel, so it slows when the solver slows.
    fn kernel(&self) -> f64 {
        let mut total = 0.0;
        for a in &self.points {
            let mut acc = [0.0f64; 3];
            for b in &self.points {
                let d = [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + 0.01;
                let inv = 1.0 / (r2 * r2.sqrt());
                acc[0] += d[1] * inv;
                acc[1] += d[2] * inv;
                acc[2] += d[0] * inv;
            }
            total += acc[0] + acc[1] + acc[2];
        }
        total
    }

    /// Time `runs` kernel runs on the calling thread, in nanoseconds.
    /// Call it while no world is running: nothing then competes for the
    /// CPU the process is pinned to.
    pub fn sample(&self, runs: usize) -> Vec<f64> {
        (0..runs)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(std::hint::black_box(self).kernel());
                start.elapsed().as_nanos() as f64
            })
            .collect()
    }
}

/// How much slower than nominal the host ran the kernel, judged by the
/// same quiet percentile every time is quoted at. 1.0 on a quiet
/// reference box.
pub fn slowdown(samples_ns: &[f64]) -> f64 {
    percentile(samples_ns, QUIET_PCT) / NOMINAL_NS
}

//! Planned 1D FFTs.
//!
//! [`Fft::new`] builds a reusable plan: for power-of-two sizes an
//! iterative radix-2 Cooley–Tukey transform with a precomputed
//! bit-reversal permutation and a **stage-contiguous** twiddle table;
//! for all other sizes Bluestein's chirp-z algorithm (see
//! [`crate::bluestein`]), which itself reuses a radix-2 plan of the
//! padded size.
//!
//! The butterfly stages of a contiguous line execute through the
//! lane-parallel kernels in `crate::kernel` (AVX/SSE2 on x86_64, with a
//! scalar path that every SIMD kernel matches bit-for-bit).
//! [`Fft::forward_scalar`] / [`Fft::inverse_scalar`] force the scalar
//! kernels, as the reference for equivalence tests and speedup
//! benchmarks.
//!
//! Stage-contiguous twiddles: stage `s` (butterfly half-width
//! `h = 2^s`) reads its `h` twiddles `e^{-2πik/2h}` from the flat table
//! at `[h-1, 2h-1)` — unit-stride loads in the hot loop, where the old
//! single-table layout strided by `n/width` and defeated vector loads.
//! Total table size is `n - 1` instead of `n/2`, a negligible cost.
//!
//! [`Fft::batched`] transforms many interleaved lines (the columns of a
//! row-major block) in place with the same plan. Power-of-two lengths
//! run their butterflies across the lines (`crate::batched`); Bluestein
//! lengths copy one line at a time through a plan-held scratch line.
//! Either way each line's output is bitwise what the per-line
//! transform gives.

use crate::batched::{self, Lines};
use crate::bluestein::Bluestein;
use crate::complex::Complex;
use crate::kernel;
use std::cell::RefCell;

/// A reusable plan for forward/inverse transforms of one length.
pub struct Fft {
    n: usize,
    kind: Kind,
}

enum Kind {
    /// Degenerate lengths 0 and 1 (transform is the identity).
    Identity,
    Radix2(Radix2),
    Bluestein {
        plan: Box<Bluestein>,
        /// The contiguous line [`Fft::batched`] copies each lane through.
        line: RefCell<Vec<Complex>>,
    },
}

/// Which of a plan's transforms a call applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform {
    /// [`Fft::forward`].
    Forward,
    /// [`Fft::inverse`].
    Inverse,
    /// [`Fft::inverse_unnormalized`].
    InverseUnnormalized,
}

impl Fft {
    /// Plan a transform of length `n` (any `n`, including 0 and 1).
    pub fn new(n: usize) -> Self {
        let kind = if n <= 1 {
            Kind::Identity
        } else if n.is_power_of_two() {
            Kind::Radix2(Radix2::new(n))
        } else {
            Kind::Bluestein {
                plan: Box::new(Bluestein::new(n)),
                line: RefCell::new(vec![Complex::default(); n]),
            }
        };
        Fft { n, kind }
    }

    /// Transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the planned length is zero.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward transform (negative exponent, unnormalized).
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "fft: buffer length mismatch");
        match &self.kind {
            Kind::Identity => {}
            Kind::Radix2(r) => r.transform(data, Direction::Forward),
            Kind::Bluestein { plan: b, .. } => b.forward(data),
        }
    }

    /// In-place inverse transform (positive exponent, scaled by `1/n`).
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "fft: buffer length mismatch");
        match &self.kind {
            Kind::Identity => {}
            Kind::Radix2(r) => {
                r.transform(data, Direction::Inverse);
                let s = 1.0 / self.n as f64;
                for v in data.iter_mut() {
                    *v = v.scale(s);
                }
            }
            Kind::Bluestein { plan: b, .. } => b.inverse(data),
        }
    }

    /// In-place inverse without the `1/n` normalization (used by
    /// distributed transforms that normalize once at the end).
    pub fn inverse_unnormalized(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "fft: buffer length mismatch");
        match &self.kind {
            Kind::Identity => {}
            Kind::Radix2(r) => r.transform(data, Direction::Inverse),
            Kind::Bluestein { plan: b, .. } => {
                b.inverse(data);
                let s = self.n as f64;
                for v in data.iter_mut() {
                    *v = v.scale(s);
                }
            }
        }
    }

    /// `transform` applied in place to one contiguous line.
    pub fn apply(&self, transform: Transform, line: &mut [Complex]) {
        match transform {
            Transform::Forward => self.forward(line),
            Transform::Inverse => self.inverse(line),
            Transform::InverseUnnormalized => self.inverse_unnormalized(line),
        }
    }

    /// `transform` applied in place to `lanes` interleaved lines: element
    /// `r` of line `c` is `buf[r * stride + c]`, i.e. the lines are the
    /// first `lanes` columns of a row-major block with `len()` rows of
    /// `stride` elements. Elements of a row past `lanes` are not touched.
    /// Each line comes out bitwise as [`Fft::apply`] would leave it.
    ///
    /// # Panics
    /// Panics if `lanes > stride` or if `buf` is shorter than
    /// `(len() − 1)·stride + lanes`.
    pub fn batched(&self, transform: Transform, buf: &mut [Complex], lanes: usize, stride: usize) {
        let mut lines = Lines::new(buf, self.n, lanes, stride);
        match &self.kind {
            Kind::Identity => {}
            Kind::Radix2(r) => {
                batched::radix2(
                    &mut lines,
                    &r.rev,
                    &r.twiddles,
                    transform != Transform::Forward,
                );
                if transform == Transform::Inverse {
                    lines.scale(1.0 / self.n as f64);
                }
            }
            Kind::Bluestein { line, .. } => {
                let mut line = line.borrow_mut();
                for lane in 0..lanes {
                    lines.read_lane(lane, &mut line);
                    self.apply(transform, &mut line);
                    lines.write_lane(lane, &line);
                }
            }
        }
    }

    /// The radix-2 tables `(rev, twiddles)` of a power-of-two plan, for
    /// the tests that drive `crate::batched` directly.
    #[cfg(test)]
    pub(crate) fn radix2_tables(&self) -> Option<(&[u32], &[Complex])> {
        match &self.kind {
            Kind::Radix2(r) => Some((&r.rev, &r.twiddles)),
            _ => None,
        }
    }

    /// [`Fft::forward`] through the lane-serial reference kernels.
    ///
    /// The dispatched SIMD butterflies are bit-for-bit identical to
    /// this path by construction; it exists so tests can assert that
    /// and benchmarks can measure the speedup. Non-power-of-two
    /// (Bluestein) plans take their regular path — their internal
    /// radix-2 transforms dispatch normally.
    pub fn forward_scalar(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "fft: buffer length mismatch");
        match &self.kind {
            Kind::Identity => {}
            Kind::Radix2(r) => r.transform_scalar(data, Direction::Forward),
            Kind::Bluestein { plan: b, .. } => b.forward(data),
        }
    }

    /// [`Fft::inverse`] through the lane-serial reference kernels (see
    /// [`Fft::forward_scalar`]).
    pub fn inverse_scalar(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "fft: buffer length mismatch");
        match &self.kind {
            Kind::Identity => {}
            Kind::Radix2(r) => {
                r.transform_scalar(data, Direction::Inverse);
                let s = 1.0 / self.n as f64;
                for v in data.iter_mut() {
                    *v = v.scale(s);
                }
            }
            Kind::Bluestein { plan: b, .. } => b.inverse(data),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Direction {
    Forward,
    Inverse,
}

/// Iterative radix-2 Cooley–Tukey with cached twiddles.
struct Radix2 {
    n: usize,
    /// Bit-reversal permutation targets: `rev[i]` is `i` with log2(n) bits
    /// reversed.
    rev: Vec<u32>,
    /// Forward twiddles, stage-contiguous: the stage with butterfly
    /// half-width `h` owns `[h-1, 2h-1)`, holding `e^{-2πik/2h}` for
    /// `k < h`. `n - 1` entries total, unit stride within a stage.
    twiddles: Vec<Complex>,
}

impl Radix2 {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two() && n >= 2);
        let bits = n.trailing_zeros();
        let mut rev = vec![0u32; n];
        for (i, r) in rev.iter_mut().enumerate() {
            *r = (i as u32).reverse_bits() >> (32 - bits);
        }
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut half = 1usize;
        while half < n {
            let width = 2 * half;
            // Same angle expression the strided table used, so planned
            // twiddle values are unchanged by the layout switch.
            twiddles.extend(
                (0..half)
                    .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / width as f64)),
            );
            half *= 2;
        }
        Radix2 { n, rev, twiddles }
    }

    /// Swap elements into bit-reversed order (once per pair).
    fn bit_reverse(&self, data: &mut [Complex]) {
        for i in 0..self.n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    fn transform(&self, data: &mut [Complex], dir: Direction) {
        self.bit_reverse(data);
        let conj = dir == Direction::Inverse;
        // Butterfly stages: half-width doubles each stage, each reading
        // its stage-contiguous twiddle block at unit stride.
        let mut half = 1usize;
        while half < self.n {
            kernel::stage(data, half, &self.twiddles[half - 1..2 * half - 1], conj);
            half *= 2;
        }
    }

    /// [`Radix2::transform`] forced through the scalar reference
    /// kernels (bit-identical to the dispatched path by construction).
    fn transform_scalar(&self, data: &mut [Complex], dir: Direction) {
        self.bit_reverse(data);
        let conj = dir == Direction::Inverse;
        let mut half = 1usize;
        while half < self.n {
            kernel::stage_scalar(data, half, &self.twiddles[half - 1..2 * half - 1], conj);
            half *= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft_naive, idft_naive};

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64).sin() + 0.3, (i as f64 * 0.7).cos()))
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn radix2_matches_naive_dft() {
        for n in [2usize, 4, 8, 16, 64, 256] {
            let x = ramp(n);
            let mut fast = x.clone();
            Fft::new(n).forward(&mut fast);
            let slow = dft_naive(&x);
            assert_close(&fast, &slow, 1e-9 * n as f64);
        }
    }

    #[test]
    fn bluestein_sizes_match_naive_dft() {
        for n in [3usize, 5, 6, 7, 12, 15, 100] {
            let x = ramp(n);
            let mut fast = x.clone();
            Fft::new(n).forward(&mut fast);
            let slow = dft_naive(&x);
            assert_close(&fast, &slow, 1e-8 * n as f64);
        }
    }

    #[test]
    fn forward_inverse_roundtrip_all_sizes() {
        for n in [1usize, 2, 3, 4, 5, 8, 12, 17, 32, 100, 128] {
            let x = ramp(n);
            let mut buf = x.clone();
            let plan = Fft::new(n);
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            assert_close(&buf, &x, 1e-10 * (n.max(1)) as f64);
        }
    }

    #[test]
    fn inverse_matches_naive_idft() {
        for n in [8usize, 12] {
            let x = ramp(n);
            let mut fast = x.clone();
            Fft::new(n).inverse(&mut fast);
            let slow = idft_naive(&x);
            assert_close(&fast, &slow, 1e-10 * n as f64);
        }
    }

    #[test]
    fn unnormalized_inverse_differs_by_n() {
        let n = 16;
        let x = ramp(n);
        let plan = Fft::new(n);
        let mut a = x.clone();
        plan.inverse(&mut a);
        let mut b = x;
        plan.inverse_unnormalized(&mut b);
        for (u, v) in a.iter().zip(&b) {
            assert!((u.scale(n as f64) - *v).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 64;
        let x = ramp(n);
        let mut spec = x.clone();
        Fft::new(n).forward(&mut spec);
        let e_time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let e_freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() < 1e-9 * e_time);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a = ramp(n);
        let b: Vec<Complex> = ramp(n).iter().map(|z| z.conj()).collect();
        let plan = Fft::new(n);
        let mut fa = a.clone();
        plan.forward(&mut fa);
        let mut fb = b.clone();
        plan.forward(&mut fb);
        let mut fab: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(2.0)).collect();
        plan.forward(&mut fab);
        for i in 0..n {
            assert!((fab[i] - (fa[i] + fb[i].scale(2.0))).abs() < 1e-9);
        }
    }

    #[test]
    fn length_zero_and_one_are_identity() {
        let plan0 = Fft::new(0);
        let mut empty: Vec<Complex> = vec![];
        plan0.forward(&mut empty);
        assert!(plan0.is_empty());
        let plan1 = Fft::new(1);
        let mut one = vec![Complex::new(3.0, -2.0)];
        plan1.forward(&mut one);
        plan1.inverse(&mut one);
        assert_eq!(one[0], Complex::new(3.0, -2.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_buffer_length_panics() {
        let plan = Fft::new(8);
        let mut buf = vec![Complex::default(); 7];
        plan.forward(&mut buf);
    }

    #[test]
    fn dispatched_transforms_match_scalar_bit_for_bit() {
        // The SIMD butterflies must reproduce the scalar reference
        // exactly — not within tolerance — at every planned size, both
        // directions, including the bit-reversal and normalization
        // around the kernels.
        for n in [2usize, 4, 8, 16, 32, 128, 1024, 4096] {
            let x = ramp(n);
            let plan = Fft::new(n);
            let mut fast = x.clone();
            let mut slow = x.clone();
            plan.forward(&mut fast);
            plan.forward_scalar(&mut slow);
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(
                    (f.re.to_bits(), f.im.to_bits()),
                    (s.re.to_bits(), s.im.to_bits()),
                    "forward n={n} elem {i}: {f} vs {s}"
                );
            }
            plan.inverse(&mut fast);
            plan.inverse_scalar(&mut slow);
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(
                    (f.re.to_bits(), f.im.to_bits()),
                    (s.re.to_bits(), s.im.to_bits()),
                    "inverse n={n} elem {i}: {f} vs {s}"
                );
            }
        }
    }

    #[test]
    fn scalar_reference_matches_naive_dft() {
        // Anchors the reference path itself, so the bit-equality test
        // above transitively anchors the SIMD path to the mathematics.
        for n in [8usize, 64, 256] {
            let x = ramp(n);
            let mut fast = x.clone();
            Fft::new(n).forward_scalar(&mut fast);
            let slow = dft_naive(&x);
            assert_close(&fast, &slow, 1e-9 * n as f64);
        }
    }

    #[test]
    fn time_shift_theorem() {
        // Shifting input rotates phases: X_shifted[k] = X[k] e^{-2πik s/n}.
        let n = 32;
        let s = 5usize;
        let x = ramp(n);
        let shifted: Vec<Complex> = (0..n).map(|i| x[(i + s) % n]).collect();
        let plan = Fft::new(n);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut fs = shifted;
        plan.forward(&mut fs);
        for k in 0..n {
            let rot = Complex::cis(2.0 * std::f64::consts::PI * (k * s) as f64 / n as f64);
            assert!((fs[k] - fx[k] * rot).abs() < 1e-8);
        }
    }
}

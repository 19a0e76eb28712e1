//! Planned 1D FFTs.
//!
//! [`Fft::new`] builds a reusable plan: for power-of-two sizes an
//! iterative radix-2 Cooley–Tukey transform with a precomputed
//! bit-reversal permutation and a **stage-contiguous** twiddle table;
//! for all other sizes Bluestein's chirp-z algorithm (see
//! [`crate::bluestein`]), which itself reuses a radix-2 plan of the
//! padded size.
//!
//! A power-of-two line of `n ≥ 8` runs its bit-reversal swaps, then
//! butterfly stages 1–3 in one register pass over groups of eight, then
//! the later stages two per pass (`crate::kernel`). Every kernel runs
//! the body the plan chose when it was built: AVX where the CPU reports
//! it, or scalar code that the AVX kernels match bit-for-bit.
//! [`Fft::forward_scalar`] / [`Fft::inverse_scalar`] run the scalar
//! kernels one stage per pass, as the reference for equivalence tests
//! and speedup benchmarks. `crate::real` drives the same plan out of
//! place: its register pass reads the input in bit-reversed order
//! straight from another buffer.
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
use crate::kernel::{self, Body};
use std::cell::RefCell;
use std::mem::MaybeUninit;

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
        Fft::with_body(n, Body::detect())
    }

    /// [`Fft::new`] with the register pass's body given.
    pub(crate) fn with_body(n: usize, body: Body) -> Self {
        let kind = if n <= 1 {
            Kind::Identity
        } else if n.is_power_of_two() {
            Kind::Radix2(Radix2::new(n, body))
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
                    r.rev.as_slice(),
                    &r.twiddles,
                    transform != Transform::Forward,
                    r.body,
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
            Kind::Radix2(r) => Some((r.rev.as_slice(), &r.twiddles)),
            _ => None,
        }
    }

    /// [`Fft::forward`] through the lane-serial reference kernels, one
    /// stage per pass (no register pass).
    ///
    /// The SIMD butterflies and the register pass are bit-for-bit
    /// identical to this path by construction; it exists so tests can
    /// assert that and benchmarks can measure the speedup.
    /// Non-power-of-two (Bluestein) plans take their regular path —
    /// their internal radix-2 transforms run the plan's kernels.
    pub fn forward_scalar(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "fft: buffer length mismatch");
        match &self.kind {
            Kind::Identity => {}
            Kind::Radix2(r) => r.transform_staged(data, Direction::Forward, Body::Portable),
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
                r.transform_staged(data, Direction::Inverse, Body::Portable);
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
pub(crate) enum Direction {
    Forward,
    Inverse,
}

/// The bit-reversal permutation of a power-of-two length `n`: entry `i`
/// is `i` with its log2(n) bits reversed. Built only by [`Radix2::new`],
/// which asserts that it is an involution within `0..n` — the invariant
/// the unchecked bit-reversed loads of `kernel::first_pass_from` rest on.
pub(crate) struct BitReversal(Vec<u32>);

impl BitReversal {
    pub(crate) fn as_slice(&self) -> &[u32] {
        &self.0
    }

    /// Swap the elements of `data` into bit-reversed order (once per
    /// pair).
    fn permute(&self, data: &mut [Complex]) {
        for (i, &j) in self.0.iter().enumerate() {
            let j = j as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }
}

/// Iterative radix-2 Cooley–Tukey with cached twiddles.
pub(crate) struct Radix2 {
    n: usize,
    rev: BitReversal,
    /// Forward twiddles, stage-contiguous: the stage with butterfly
    /// half-width `h` owns `[h-1, 2h-1)`, holding `e^{-2πik/2h}` for
    /// `k < h`. `n - 1` entries total, unit stride within a stage.
    twiddles: Vec<Complex>,
    /// Body of every kernel the plan runs, chosen at plan time.
    body: Body,
}

impl Radix2 {
    pub(crate) fn new(n: usize, body: Body) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "radix-2 plan of length {n}");
        let bits = n.trailing_zeros();
        let rev: Vec<u32> = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        assert!(
            rev.iter()
                .enumerate()
                .all(|(i, &j)| (j as usize) < n && rev[j as usize] as usize == i),
            "fft: bit-reversal table of length {n} is not an involution within 0..{n}"
        );
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
        Radix2 {
            n,
            rev: BitReversal(rev),
            twiddles,
            body,
        }
    }

    /// The stages after the register pass (half-width 8 on), two per
    /// pass while two remain; each pair reads its two stage-contiguous
    /// twiddle blocks as one run `[h−1, 4h−1)`.
    fn later_stages(&self, data: &mut [Complex], dir: Direction) {
        let conj = dir == Direction::Inverse;
        let mut half = 8;
        while 4 * half <= self.n {
            let tw = &self.twiddles[half - 1..4 * half - 1];
            kernel::stage_pair(data, half, tw, conj, self.body);
            half *= 4;
        }
        if half < self.n {
            let tw = &self.twiddles[half - 1..2 * half - 1];
            kernel::stage(data, half, tw, conj, self.body);
        }
    }

    /// In place: bit-reversal swaps, then (`n ≥ 8`) stages 1–3 in one
    /// register pass and the rest two per pass.
    fn transform(&self, data: &mut [Complex], dir: Direction) {
        if self.n < 8 {
            return self.transform_staged(data, dir, self.body);
        }
        self.rev.permute(data);
        kernel::first_pass(data, &self.twiddles, dir == Direction::Inverse, self.body);
        self.later_stages(data, dir);
    }

    /// Out of place, `n ≥ 8`: `dst` receives the transform of `src`,
    /// whose elements the register pass reads in bit-reversed order —
    /// no copy, no swap pass. Returns `dst`, every element written.
    pub(crate) fn transform_from<'a>(
        &self,
        src: &[Complex],
        dst: &'a mut [MaybeUninit<Complex>],
        dir: Direction,
    ) -> &'a mut [Complex] {
        let conj = dir == Direction::Inverse;
        let dst = kernel::first_pass_from(src, dst, &self.rev, &self.twiddles, conj, self.body);
        self.later_stages(dst, dir);
        dst
    }

    /// The transform as it ran before the register pass: bit-reversal
    /// swaps, then every stage a pass of its own through `body` (the
    /// plan's, or `Portable` for the scalar reference). Bitwise
    /// [`Radix2::transform`].
    pub(crate) fn transform_staged(&self, data: &mut [Complex], dir: Direction, body: Body) {
        self.rev.permute(data);
        let conj = dir == Direction::Inverse;
        let mut half = 1usize;
        while half < self.n {
            let tw = &self.twiddles[half - 1..2 * half - 1];
            kernel::stage(data, half, tw, conj, body);
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
        // around the kernels — with the register pass in either body.
        let bodies = [Body::detect(), Body::Portable];
        for (n, body) in (1..=12).flat_map(|e| bodies.map(|b| (1usize << e, b))) {
            let x = ramp(n);
            let plan = Fft::with_body(n, body);
            let mut fast = x.clone();
            let mut slow = x.clone();
            plan.forward(&mut fast);
            plan.forward_scalar(&mut slow);
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(
                    (f.re.to_bits(), f.im.to_bits()),
                    (s.re.to_bits(), s.im.to_bits()),
                    "forward n={n} {body:?} elem {i}: {f} vs {s}"
                );
            }
            plan.inverse(&mut fast);
            plan.inverse_scalar(&mut slow);
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(
                    (f.re.to_bits(), f.im.to_bits()),
                    (s.re.to_bits(), s.im.to_bits()),
                    "inverse n={n} {body:?} elem {i}: {f} vs {s}"
                );
            }
        }
    }

    #[test]
    fn unnormalized_inverse_matches_the_staged_transform_bit_for_bit() {
        for n in (1..=12).map(|e| 1usize << e) {
            let Kind::Radix2(r) = Fft::new(n).kind else {
                unreachable!("power-of-two plan")
            };
            let mut fast = ramp(n);
            let mut slow = fast.clone();
            r.transform(&mut fast, Direction::Inverse);
            r.transform_staged(&mut slow, Direction::Inverse, Body::Portable);
            let bits = |v: &[Complex]| -> Vec<[u64; 2]> {
                v.iter().map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
            };
            assert_eq!(bits(&fast), bits(&slow), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "do not match")]
    fn out_of_place_pass_rejects_mismatched_lengths() {
        let r = Radix2::new(16, Body::detect());
        let src = vec![Complex::default(); 8];
        let mut dst = vec![MaybeUninit::new(Complex::default()); 16];
        r.transform_from(&src, &mut dst, Direction::Forward);
    }

    #[test]
    #[should_panic(expected = "radix-2 plan of length 12")]
    fn radix2_plan_rejects_other_lengths() {
        let _ = Radix2::new(12, Body::detect());
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

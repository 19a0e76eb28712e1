//! Lane-parallel radix-2 butterfly kernels for **one contiguous line**.
//!
//! "Lane" here means a SIMD lane *within* the line: a vector holds one
//! or two neighbouring elements of the same transform, each with its
//! own twiddle. The other axis — one vector holding the same element of
//! several neighbouring transforms, one twiddle for all of them — is the
//! *batched* transform in `crate::batched`, which serves every column
//! transform; this module serves rows and everything else contiguous.
//!
//! One stage of the iterative Cooley–Tukey transform applies, to every
//! block of `width = 2 * half` elements, the `half` butterflies
//! `(a, b) → (a + w·b, a − w·b)` with the stage's twiddles `w` read at
//! unit stride (the plan stores them stage-contiguously; see
//! [`crate::Fft`]). This module owns how those butterflies are executed:
//!
//! * [`stage_scalar`] — the lane-serial reference. Every other kernel is
//!   required to be **bit-for-bit identical** to it, which pins the
//!   whole FFT's output regardless of dispatch.
//! * `stage_sse2` — one complex per `__m128d`. Always available on
//!   x86_64 (SSE2 is baseline).
//! * `stage_avx` — two complexes per `__m256d`, used when the CPU
//!   reports AVX at runtime and the stage has at least two butterflies
//!   per block.
//!
//! Bit-exactness holds because each vector lane performs literally the
//! same IEEE-754 operations as the scalar butterfly, in the same order:
//! the complex product is `(br·wr − bi·wi, br·wi + bi·wr)`, where the
//! vector form computes the subtraction as `br·wr + (−(bi·wi))` — and
//! `a + (−b) ≡ a − b` exactly in IEEE arithmetic. The inverse
//! transform's conjugation is a sign flip of `wi` before the product in
//! both forms. The first stage (`half == 1`, `w = 1`) skips the product
//! entirely in *all* paths, so it too is shared bit-for-bit.
//!
//! Non-x86_64 targets compile only the scalar path; the dispatcher
//! degrades to it with no behavioural difference.

use crate::complex::Complex;

/// Apply one butterfly stage with automatic kernel selection.
///
/// `tw` must hold exactly `half` forward twiddles for this stage
/// (`w_k = e^{−2πik/width}`); `conj` selects the inverse transform's
/// conjugated twiddles. `data.len()` must be a multiple of `2 * half`.
#[inline]
pub(crate) fn stage(data: &mut [Complex], half: usize, tw: &[Complex], conj: bool) {
    debug_assert_eq!(tw.len(), half);
    debug_assert_eq!(data.len() % (2 * half), 0);
    if half == 1 {
        stage_half1(data);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if half >= 2 && std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX support was just verified at runtime.
            unsafe { x86::stage_avx(data, half, tw, conj) };
            return;
        }
        // SSE2 is part of the x86_64 baseline.
        unsafe { x86::stage_sse2(data, half, tw, conj) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    stage_scalar(data, half, tw, conj);
}

/// Lane-serial reference stage: the arithmetic every SIMD kernel must
/// reproduce bit-for-bit. Public to the crate so plans can offer a
/// forced-scalar transform for equivalence tests and benchmarks.
pub(crate) fn stage_scalar(data: &mut [Complex], half: usize, tw: &[Complex], conj: bool) {
    if half == 1 {
        stage_half1(data);
        return;
    }
    let width = 2 * half;
    for block in data.chunks_exact_mut(width) {
        let (lo, hi) = block.split_at_mut(half);
        for k in 0..half {
            let w = if conj { tw[k].conj() } else { tw[k] };
            let a = lo[k];
            let b = hi[k] * w;
            lo[k] = a + b;
            hi[k] = a - b;
        }
    }
}

/// First stage: `w = 1`, so the butterfly is a plain sum/difference of
/// adjacent elements. Shared by every dispatch path (multiplying by the
/// exact constant `1 − 0i` could still flip signed zeros, so skipping
/// the product *uniformly* is what keeps all paths bit-identical).
fn stage_half1(data: &mut [Complex]) {
    for pair in data.chunks_exact_mut(2) {
        let a = pair[0];
        let b = pair[1];
        pair[0] = a + b;
        pair[1] = a - b;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Complex;
    use core::arch::x86_64::*;

    /// One complex per 128-bit vector: lane 0 = re, lane 1 = im.
    ///
    /// # Safety
    /// Caller guarantees SSE2 (x86_64 baseline) and the slice-shape
    /// invariants of [`super::stage`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn stage_sse2(data: &mut [Complex], half: usize, tw: &[Complex], conj: bool) {
        let width = 2 * half;
        // Sign masks: negate the low (real) lane of the cross product,
        // or the high (imaginary) lane of the twiddle for conjugation.
        let neg_lo = _mm_set_pd(0.0, -0.0);
        let neg_hi = _mm_set_pd(-0.0, 0.0);
        for block in data.chunks_exact_mut(width) {
            let (lo, hi) = block.split_at_mut(half);
            for k in 0..half {
                let mut w = _mm_loadu_pd(&tw[k].re); // [wr, wi]
                if conj {
                    w = _mm_xor_pd(w, neg_hi); // [wr, −wi]
                }
                let a = _mm_loadu_pd(&lo[k].re);
                let b = _mm_loadu_pd(&hi[k].re); // [br, bi]
                // b·w = (br·wr − bi·wi, br·wi + bi·wr), the subtraction
                // realised as an add of the sign-flipped product — IEEE
                // identical to the scalar butterfly.
                let br = _mm_unpacklo_pd(b, b); // [br, br]
                let bi = _mm_unpackhi_pd(b, b); // [bi, bi]
                let wsw = _mm_shuffle_pd(w, w, 0b01); // [wi, wr]
                let t = _mm_add_pd(
                    _mm_mul_pd(br, w),
                    _mm_xor_pd(_mm_mul_pd(bi, wsw), neg_lo),
                );
                _mm_storeu_pd(&mut lo[k].re, _mm_add_pd(a, t));
                _mm_storeu_pd(&mut hi[k].re, _mm_sub_pd(a, t));
            }
        }
    }

    /// Two complexes per 256-bit vector; the unpack/shuffle recipe of
    /// the SSE2 kernel applied per 128-bit sublane.
    ///
    /// # Safety
    /// Caller guarantees AVX support (runtime-detected), `half >= 2`,
    /// and the slice-shape invariants of [`super::stage`].
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn stage_avx(data: &mut [Complex], half: usize, tw: &[Complex], conj: bool) {
        debug_assert!(half >= 2 && half.is_multiple_of(2));
        let width = 2 * half;
        let neg_re = _mm256_set_pd(0.0, -0.0, 0.0, -0.0); // flip both real lanes
        let neg_im = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0); // flip both imag lanes
        for block in data.chunks_exact_mut(width) {
            let (lo, hi) = block.split_at_mut(half);
            for k in (0..half).step_by(2) {
                let mut w = _mm256_loadu_pd(&tw[k].re); // [wr0, wi0, wr1, wi1]
                if conj {
                    w = _mm256_xor_pd(w, neg_im);
                }
                let a = _mm256_loadu_pd(&lo[k].re);
                let b = _mm256_loadu_pd(&hi[k].re);
                // In-lane unpacks broadcast each complex's re/im within
                // its own 128-bit sublane.
                let br = _mm256_unpacklo_pd(b, b); // [br0, br0, br1, br1]
                let bi = _mm256_unpackhi_pd(b, b); // [bi0, bi0, bi1, bi1]
                let wsw = _mm256_shuffle_pd(w, w, 0b0101); // [wi0, wr0, wi1, wr1]
                let t = _mm256_add_pd(
                    _mm256_mul_pd(br, w),
                    _mm256_xor_pd(_mm256_mul_pd(bi, wsw), neg_re),
                );
                _mm256_storeu_pd(&mut lo[k].re, _mm256_add_pd(a, t));
                _mm256_storeu_pd(&mut hi[k].re, _mm256_sub_pd(a, t));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(n: usize, seed: u64) -> Vec<Complex> {
        // Small xorshift so the kernels see full-entropy mantissas, not
        // just smooth ramps.
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        (0..n).map(|_| Complex::new(next(), next())).collect()
    }

    fn twiddles_for(half: usize) -> Vec<Complex> {
        let width = 2 * half;
        (0..half)
            .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / width as f64))
            .collect()
    }

    #[test]
    fn dispatched_stages_match_scalar_bit_for_bit() {
        for half in [1usize, 2, 4, 8, 16, 64, 256] {
            let tw = twiddles_for(half);
            for blocks in [1usize, 2, 3] {
                for conj in [false, true] {
                    let input = noise(2 * half * blocks, 0x9E37_79B9 + half as u64);
                    let mut fast = input.clone();
                    let mut slow = input;
                    stage(&mut fast, half, &tw, conj);
                    stage_scalar(&mut slow, half, &tw, conj);
                    for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                        assert_eq!(
                            (f.re.to_bits(), f.im.to_bits()),
                            (s.re.to_bits(), s.im.to_bits()),
                            "half {half} blocks {blocks} conj {conj} elem {i}: {f} vs {s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn first_stage_is_sum_difference() {
        let mut data = vec![
            Complex::new(1.0, 2.0),
            Complex::new(3.0, -4.0),
            Complex::new(-0.5, 0.0),
            Complex::new(0.25, 1.0),
        ];
        stage(&mut data, 1, &[Complex::new(1.0, 0.0)], false);
        assert_eq!(data[0], Complex::new(4.0, -2.0));
        assert_eq!(data[1], Complex::new(-2.0, 6.0));
        assert_eq!(data[2], Complex::new(-0.25, 1.0));
        assert_eq!(data[3], Complex::new(-0.75, -1.0));
    }
}

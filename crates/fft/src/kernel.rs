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
//! * [`stage`] — one stage through the plan's [`Body`]: `stage_avx`, two
//!   complexes per `__m256d`, or the scalar reference.
//! * [`stage_pair`] — stages `h` and `2h` in one pass over each quartet
//!   of elements `k, k + h, k + 2h, k + 3h`: the stages after the
//!   register pass, two at a time.
//! * [`first_pass`] / [`first_pass_from`] — the register pass below.
//!
//! Bit-exactness holds because each vector lane performs literally the
//! same IEEE-754 operations as the scalar butterfly, in the same order:
//! the complex product is `(br·wr − bi·wi, br·wi + bi·wr)`, where the
//! vector form computes the subtraction as `br·wr + (−(bi·wi))` or with
//! `addsub` — and `a + (−b) ≡ a − b` exactly in IEEE arithmetic — and
//! may form the imaginary sum as `bi·wr + br·wi` (`p + q ≡ q + p` is
//! exact too). The inverse transform's conjugation is a sign flip of
//! `wi` before the product in every form. The first stage (`half == 1`,
//! `w = 1`) skips the product entirely in *all* paths, so it too is
//! shared bit-for-bit. Rust never contracts `a·b + c` into an FMA.
//!
//! The body is chosen once, when a plan is built ([`Body::detect`]):
//! AVX where the CPU reports it at runtime, the scalar code elsewhere
//! (and on every non-x86_64 target), with no behavioural difference.
//!
//! **The register pass.** A stage reads and writes the whole line once,
//! and the first three (half-widths 1, 2, 4) do the least work per pass:
//! one, two or four butterflies per block. [`first_pass`] and
//! [`first_pass_from`] run those three stages as one pass over groups of
//! eight elements (the 8-point blocks of stage 3), holding each group in
//! registers from load to store. `first_pass` works in place on a line
//! already in bit-reversed order; `first_pass_from` reads its input in
//! bit-reversed order from another buffer (`src[rev[i]]`), so the
//! permutation costs no swap pass, and writes every element of its
//! output before the later stages read any. The AVX body puts *two
//! groups* side by side in each `__m256d` — register `j` holds element
//! `j` of both — so all three stages are vertical operations with
//! broadcast twiddles, and no data crosses between registers; the
//! portable body (`first_pass_body`, `first_pass_from_body`) runs the
//! butterflies of [`stage_scalar`] for `half = 1, 2, 4`, group by group,
//! and is the oracle the AVX body is tested against.

use crate::complex::Complex;
use crate::plan::BitReversal;
use std::mem::MaybeUninit;

/// Which body runs a plan's kernels, chosen once when the plan is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Body {
    /// AVX intrinsics; only ever chosen after runtime detection.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx,
    /// Safe scalar code with the same operations in the same order.
    Portable,
}

impl Body {
    /// AVX where the CPU reports it, the portable body elsewhere.
    pub(crate) fn detect() -> Body {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            return Body::Avx;
        }
        Body::Portable
    }
}

/// The twiddles of stages 2 and 3 (`tw[1..7]` of a stage-contiguous
/// table), conjugated for the inverse.
fn radix8_twiddles(tw: &[Complex], conj: bool) -> [Complex; 6] {
    std::array::from_fn(|k| if conj { tw[1 + k].conj() } else { tw[1 + k] })
}

/// Stages 1–3 on one group of eight, the butterflies of [`stage_scalar`]
/// in its order; `w` from [`radix8_twiddles`].
#[inline]
fn radix8(z: &mut [Complex; 8], w: &[Complex; 6]) {
    for pair in z.chunks_exact_mut(2) {
        let (a, b) = (pair[0], pair[1]);
        pair[0] = a + b;
        pair[1] = a - b;
    }
    for half in [2, 4] {
        for block in (0..8).step_by(2 * half) {
            for k in 0..half {
                let a = z[block + k];
                let b = z[block + k + half] * w[half - 2 + k];
                z[block + k] = a + b;
                z[block + k + half] = a - b;
            }
        }
    }
}

/// The portable body of [`first_pass`]: safe code, every index checked.
fn first_pass_body(data: &mut [Complex], w: &[Complex; 6]) {
    for group in data.chunks_exact_mut(8) {
        radix8(group.try_into().expect("groups of eight"), w);
    }
}

/// The portable body of [`first_pass_from`]: safe code, every index
/// checked.
fn first_pass_from_body(
    src: &[Complex],
    rev: &[u32],
    dst: &mut [MaybeUninit<Complex>],
    w: &[Complex; 6],
) {
    for (g, group) in dst.chunks_exact_mut(8).enumerate() {
        let mut z: [Complex; 8] = std::array::from_fn(|j| src[rev[8 * g + j] as usize]);
        radix8(&mut z, w);
        for (out, v) in group.iter_mut().zip(z) {
            out.write(v);
        }
    }
}

/// Stages 1–3 in place on a line of power-of-two length `n ≥ 8` whose
/// elements are already in bit-reversed order. Bitwise the three
/// [`stage`] calls it replaces.
pub(crate) fn first_pass(data: &mut [Complex], tw: &[Complex], conj: bool, body: Body) {
    let n = data.len();
    assert!(
        n >= 8 && n.is_power_of_two() && tw.len() >= 7,
        "fft first pass: bad line length {n}"
    );
    let w = radix8_twiddles(tw, conj);
    match body {
        #[cfg(target_arch = "x86_64")]
        Body::Avx => {
            let p = data.as_mut_ptr().cast::<f64>();
            // SAFETY: AVX was detected when `body` was chosen; the pass
            // reads and writes elements `0..n` of `data` only (identity
            // index), each group's loads before its stores.
            unsafe { x86::first_pass(p, p, n, |i| i, &w) };
        }
        _ => first_pass_body(data, &w),
    }
}

/// Stages 1–3 out of place: `dst` receives the line whose element `i` is
/// `src[rev[i]]` after three butterfly stages — every element of `dst`
/// written, none read. Returns `dst`, initialized.
///
/// # Panics
/// Panics unless `src`, `dst` and `rev` share one power-of-two length
/// `≥ 8` (checked before any unchecked load).
pub(crate) fn first_pass_from<'a>(
    src: &[Complex],
    dst: &'a mut [MaybeUninit<Complex>],
    rev: &BitReversal,
    tw: &[Complex],
    conj: bool,
    body: Body,
) -> &'a mut [Complex] {
    let (n, rev) = (dst.len(), rev.as_slice());
    assert!(
        n >= 8 && n.is_power_of_two() && src.len() == n && rev.len() == n && tw.len() >= 7,
        "fft first pass: lengths src {} dst {n} rev {} do not match",
        src.len(),
        rev.len()
    );
    let w = radix8_twiddles(tw, conj);
    match body {
        #[cfg(target_arch = "x86_64")]
        Body::Avx => {
            let (s, d) = (src.as_ptr().cast::<f64>(), dst.as_mut_ptr().cast::<f64>());
            // SAFETY: AVX was detected when `body` was chosen. Loads read
            // `src[rev[i]]`, `i < n` (the table read itself is checked):
            // `BitReversal` is built only by `Radix2::new`, which asserts
            // every entry `< n` = `src.len()`; stores write `dst[0..n]`.
            unsafe { x86::first_pass(s, d, n, |i| rev[i] as usize, &w) };
        }
        _ => first_pass_from_body(src, rev, dst, &w),
    }
    // SAFETY: both bodies wrote every element of `dst` above.
    unsafe { &mut *(dst as *mut [MaybeUninit<Complex>] as *mut [Complex]) }
}

/// Apply one butterfly stage through `body`.
///
/// `tw` must hold exactly `half` forward twiddles for this stage
/// (`w_k = e^{−2πik/width}`); `conj` selects the inverse transform's
/// conjugated twiddles.
///
/// # Panics
/// Panics unless `tw.len() == half` and `data.len()` is a multiple of
/// `2 * half`.
#[inline]
pub(crate) fn stage(data: &mut [Complex], half: usize, tw: &[Complex], conj: bool, body: Body) {
    assert!(
        tw.len() == half && data.len().is_multiple_of(2 * half),
        "fft stage: half-width {half} does not fit {} elements",
        data.len()
    );
    match body {
        #[cfg(target_arch = "x86_64")]
        Body::Avx if half >= 2 && half.is_multiple_of(2) => {
            // SAFETY: AVX was detected when `body` was chosen; `half` is
            // even (the guard) and the shape is checked above, which is
            // `stage_avx`'s contract.
            unsafe { x86::stage_avx(data, half, tw, conj) }
        }
        _ => stage_scalar(data, half, tw, conj),
    }
}

/// Stages `half` and `2·half` in one pass (`half ≥ 2`, even): each
/// quartet `k, k + half, k + 2·half, k + 3·half` of a `4·half` block is
/// loaded once, put through both stages and stored once. `tw` holds the
/// two stages' twiddles back to back, `3·half` entries, as the plan
/// stores them. Bitwise the two [`stage`] calls: every element sees the
/// same operations in the same order, only work *between* elements is
/// reordered. The portable body is those two calls.
pub(crate) fn stage_pair(
    data: &mut [Complex],
    half: usize,
    tw: &[Complex],
    conj: bool,
    body: Body,
) {
    assert!(
        half >= 2
            && half.is_multiple_of(2)
            && tw.len() == 3 * half
            && data.len().is_multiple_of(4 * half),
        "fft stage pair: half-width {half} does not fit {} elements",
        data.len()
    );
    let (tw1, tw2) = tw.split_at(half);
    match body {
        #[cfg(target_arch = "x86_64")]
        Body::Avx => {
            // SAFETY: AVX was detected when `body` was chosen; the shape
            // checked above keeps every quartet inside `data` and every
            // twiddle pair inside `tw`.
            unsafe { x86::stage_pair_avx(data, half, tw1, tw2, conj) }
        }
        _ => {
            stage(data, half, tw1, conj, body);
            stage(data, 2 * half, tw2, conj, body);
        }
    }
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

    /// Two complexes per 256-bit vector, each with its own twiddle.
    ///
    /// # Safety
    /// The CPU must support AVX; `half` must be even, `tw.len() ==
    /// half` and `data.len()` a multiple of `2·half`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn stage_avx(data: &mut [Complex], half: usize, tw: &[Complex], conj: bool) {
        debug_assert!(half >= 2 && half.is_multiple_of(2));
        let width = 2 * half;
        let neg_re = _mm256_set_pd(0.0, -0.0, 0.0, -0.0); // flip both real lanes
        let neg_im = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0); // flip both imag lanes
        let tp = tw.as_ptr().cast::<f64>();
        for block in data.chunks_exact_mut(width) {
            let (lo, hi) = block.split_at_mut(half);
            let (lo, hi) = (lo.as_mut_ptr().cast::<f64>(), hi.as_mut_ptr().cast::<f64>());
            for k in (0..half).step_by(2) {
                // SAFETY: `k` is even and `half` even, so `k + 1 < half`:
                // each 4-`f64` access covers complexes `k, k + 1` of
                // `tw`, `lo` or `hi`, all of length `half`, through
                // pointers taken from those whole slices.
                let mut w = _mm256_loadu_pd(tp.add(2 * k)); // [wr0, wi0, wr1, wi1]
                if conj {
                    w = _mm256_xor_pd(w, neg_im);
                }
                let a = _mm256_loadu_pd(lo.add(2 * k));
                let t = mul_lanes(_mm256_loadu_pd(hi.add(2 * k)), w, neg_re);
                _mm256_storeu_pd(lo.add(2 * k), _mm256_add_pd(a, t));
                _mm256_storeu_pd(hi.add(2 * k), _mm256_sub_pd(a, t));
            }
        }
    }

    /// `b·w` for two complexes, each with its own twiddle (`w =
    /// [wr0, wi0, wr1, wi1]`): in-lane unpacks broadcast each complex's
    /// re/im within its own 128-bit sublane; `neg_re` flips both real
    /// lanes.
    ///
    /// # Safety
    /// The CPU must support AVX (every caller is an `avx` target-feature
    /// function).
    #[inline(always)]
    unsafe fn mul_lanes(b: __m256d, w: __m256d, neg_re: __m256d) -> __m256d {
        let br = _mm256_unpacklo_pd(b, b); // [br0, br0, br1, br1]
        let bi = _mm256_unpackhi_pd(b, b); // [bi0, bi0, bi1, bi1]
        let wsw = _mm256_shuffle_pd(w, w, 0b0101); // [wi0, wr0, wi1, wr1]
        _mm256_add_pd(
            _mm256_mul_pd(br, w),
            _mm256_xor_pd(_mm256_mul_pd(bi, wsw), neg_re),
        )
    }

    /// Stages `half` and `2·half` on every quartet of every `4·half`
    /// block, two complexes per vector: stage `half` pairs `(p0, p1)` and
    /// `(p2, p3)` with `tw1[k..]`, stage `2·half` pairs `(p0, p2)` with
    /// `tw2[k..]` and `(p1, p3)` with `tw2[k + half..]`.
    ///
    /// # Safety
    /// The CPU must support AVX; `half ≥ 2` must be even, `tw1.len() ==
    /// tw2.len() / 2 == half` and `data.len()` a multiple of `4·half`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn stage_pair_avx(
        data: &mut [Complex],
        half: usize,
        tw1: &[Complex],
        tw2: &[Complex],
        conj: bool,
    ) {
        let neg_re = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
        let sign = if conj {
            _mm256_set_pd(-0.0, 0.0, -0.0, 0.0) // flip both imag lanes
        } else {
            _mm256_setzero_pd()
        };
        let p = data.as_mut_ptr().cast::<f64>();
        let (t1, t2) = (tw1.as_ptr().cast::<f64>(), tw2.as_ptr().cast::<f64>());
        for block in (0..data.len()).step_by(4 * half) {
            for k in (0..half).step_by(2) {
                // SAFETY: `k` and `half` are even, so `k + 1 < half`. Each
                // 4-`f64` access covers two complexes: `block + k + j·half`
                // and the next, `j ≤ 3`, both below `block + 4·half ≤
                // data.len()`; `tw1[k..k + 2]`, `tw2[k..k + 2]` and
                // `tw2[k + half..k + half + 2]`, inside `half` and
                // `2·half` entries.
                let q0 = p.add(2 * (block + k));
                let (q1, q2, q3) = (q0.add(2 * half), q0.add(4 * half), q0.add(6 * half));
                let (a, b) = (_mm256_loadu_pd(q0), _mm256_loadu_pd(q1));
                let (c, d) = (_mm256_loadu_pd(q2), _mm256_loadu_pd(q3));
                let w1 = _mm256_xor_pd(_mm256_loadu_pd(t1.add(2 * k)), sign);
                let (b, d) = (mul_lanes(b, w1, neg_re), mul_lanes(d, w1, neg_re));
                let (a, b, c, d) = (
                    _mm256_add_pd(a, b),
                    _mm256_sub_pd(a, b),
                    _mm256_add_pd(c, d),
                    _mm256_sub_pd(c, d),
                );
                let w2 = _mm256_xor_pd(_mm256_loadu_pd(t2.add(2 * k)), sign);
                let w3 = _mm256_xor_pd(_mm256_loadu_pd(t2.add(2 * (k + half))), sign);
                let (c, d) = (mul_lanes(c, w2, neg_re), mul_lanes(d, w3, neg_re));
                _mm256_storeu_pd(q0, _mm256_add_pd(a, c));
                _mm256_storeu_pd(q2, _mm256_sub_pd(a, c));
                _mm256_storeu_pd(q1, _mm256_add_pd(b, d));
                _mm256_storeu_pd(q3, _mm256_sub_pd(b, d));
            }
        }
    }

    /// `b·w` in both complexes of `b` for one broadcast twiddle
    /// `[wr; 4]`, `[wi; 4]`: `[br·wr − bi·wi, bi·wr + br·wi]`, the scalar
    /// product's operations (its imaginary sum commuted, which is exact).
    ///
    /// # Safety
    /// The CPU must support AVX.
    #[inline(always)]
    unsafe fn mul_broadcast(b: __m256d, wr: __m256d, wi: __m256d) -> __m256d {
        let swapped = _mm256_permute_pd(b, 0b0101); // [bi, br, bi', br']
        _mm256_addsub_pd(_mm256_mul_pd(b, wr), _mm256_mul_pd(swapped, wi))
    }

    /// `super::radix8` on two groups at once: register `j` holds element
    /// `j` of both, so every butterfly is a vertical operation.
    ///
    /// # Safety
    /// The CPU must support AVX.
    #[inline(always)]
    unsafe fn radix8(z: &mut [__m256d; 8], wr: &[__m256d; 6], wi: &[__m256d; 6]) {
        for j in (0..8).step_by(2) {
            let (a, b) = (z[j], z[j + 1]);
            z[j] = _mm256_add_pd(a, b);
            z[j + 1] = _mm256_sub_pd(a, b);
        }
        for half in [2, 4] {
            for block in (0..8).step_by(2 * half) {
                for k in 0..half {
                    let w = half - 2 + k;
                    let a = z[block + k];
                    let t = mul_broadcast(z[block + k + half], wr[w], wi[w]);
                    z[block + k] = _mm256_add_pd(a, t);
                    z[block + k + half] = _mm256_sub_pd(a, t);
                }
            }
        }
    }

    /// Stages 1–3 over the `n` complexes at `dst` (as `f64` pairs),
    /// element `i` loaded from complex `index(i)` of `src`; `src` may be
    /// `dst` with the identity index. Groups go through in pairs, the
    /// pair's loads all before its stores; a lone group (`n == 8`) runs
    /// in the low halves of the registers.
    ///
    /// # Safety
    /// The CPU must support AVX; `n` must be a multiple of 8; for every
    /// `i < n`, complex `index(i)` of `src` must be readable and complex
    /// `i` of `dst` writable.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn first_pass(
        src: *const f64,
        dst: *mut f64,
        n: usize,
        index: impl Fn(usize) -> usize,
        w: &[Complex; 6],
    ) {
        let (mut wr, mut wi) = ([_mm256_setzero_pd(); 6], [_mm256_setzero_pd(); 6]);
        for k in 0..6 {
            wr[k] = _mm256_set1_pd(w[k].re);
            wi[k] = _mm256_set1_pd(w[k].im);
        }
        let mut z = [_mm256_setzero_pd(); 8];
        let mut g = 0;
        // SAFETY (every load and store below): each moves one complex
        // (two `f64`s) — complex `index(i)` of `src` or complex `i` of
        // `dst` for some `i = g + j` or `g + 8 + j < n`, `j < 8`, which
        // the contract makes readable or writable. A pair's loads all
        // precede its stores, so `src == dst` under the identity index
        // reads every element before it is overwritten.
        while g + 16 <= n {
            for (j, v) in z.iter_mut().enumerate() {
                let lo = _mm_loadu_pd(src.add(2 * index(g + j)));
                let hi = _mm_loadu_pd(src.add(2 * index(g + 8 + j)));
                *v = _mm256_insertf128_pd(_mm256_castpd128_pd256(lo), hi, 1);
            }
            radix8(&mut z, &wr, &wi);
            for (j, &v) in z.iter().enumerate() {
                _mm_storeu_pd(dst.add(2 * (g + j)), _mm256_castpd256_pd128(v));
                _mm_storeu_pd(dst.add(2 * (g + 8 + j)), _mm256_extractf128_pd(v, 1));
            }
            g += 16;
        }
        if g < n {
            for (j, v) in z.iter_mut().enumerate() {
                *v = _mm256_zextpd128_pd256(_mm_loadu_pd(src.add(2 * index(g + j))));
            }
            radix8(&mut z, &wr, &wi);
            for (j, &v) in z.iter().enumerate() {
                _mm_storeu_pd(dst.add(2 * (g + j)), _mm256_castpd256_pd128(v));
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
                    stage(&mut fast, half, &tw, conj, Body::detect());
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

    /// The stage-contiguous table of a length-`n` plan.
    fn table(n: usize) -> Vec<Complex> {
        (0..n.trailing_zeros())
            .flat_map(|s| twiddles_for(1 << s))
            .collect()
    }

    #[test]
    fn register_pass_is_bitwise_the_three_scalar_stages() {
        for n in (3..=12).map(|e| 1usize << e) {
            let tw = table(n);
            for conj in [false, true] {
                // Noise, then the same with exact values that cancel to
                // signed zeros in every third slot.
                let mut input = noise(n, 0x5EED + n as u64);
                for (i, z) in input.iter_mut().enumerate().step_by(3) {
                    *z = [Complex::new(1.0, -0.0), Complex::new(-0.0, 1.0)][i % 2];
                }
                for input in [noise(n, 0xF00D + n as u64), input] {
                    let mut slow = input.clone();
                    for half in [1, 2, 4] {
                        stage_scalar(&mut slow, half, &tw[half - 1..2 * half - 1], conj);
                    }
                    for body in [Body::detect(), Body::Portable] {
                        let mut fast = input.clone();
                        first_pass(&mut fast, &tw, conj, body);
                        let bits = |v: &[Complex]| -> Vec<[u64; 2]> {
                            v.iter().map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
                        };
                        assert_eq!(bits(&fast), bits(&slow), "n {n} conj {conj} {body:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn stage_pairs_are_bitwise_two_scalar_stages() {
        for half in [2usize, 4, 8, 16, 64, 256] {
            let tw: Vec<Complex> = [twiddles_for(half), twiddles_for(2 * half)].concat();
            for blocks in [1usize, 2, 3] {
                for conj in [false, true] {
                    let input = noise(4 * half * blocks, 0xABCD + half as u64);
                    let mut slow = input.clone();
                    stage_scalar(&mut slow, half, &tw[..half], conj);
                    stage_scalar(&mut slow, 2 * half, &tw[half..], conj);
                    for body in [Body::detect(), Body::Portable] {
                        let mut fast = input.clone();
                        stage_pair(&mut fast, half, &tw, conj, body);
                        let bits = |v: &[Complex]| -> Vec<[u64; 2]> {
                            v.iter().map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
                        };
                        assert_eq!(
                            bits(&fast),
                            bits(&slow),
                            "half {half} blocks {blocks} {body:?}"
                        );
                    }
                }
            }
        }
    }

    /// The two-complex vector stage needs an even half-width; an odd one
    /// must take the scalar stage and match it bit for bit.
    #[test]
    fn an_odd_half_width_matches_the_scalar_stage() {
        for half in [3usize, 5] {
            let tw = twiddles_for(half);
            for blocks in [1usize, 2] {
                for conj in [false, true] {
                    let input = noise(2 * half * blocks, 0x0DD + half as u64);
                    let mut fast = input.clone();
                    let mut slow = input;
                    stage(&mut fast, half, &tw, conj, Body::detect());
                    stage_scalar(&mut slow, half, &tw, conj);
                    let bits = |v: &[Complex]| -> Vec<[u64; 2]> {
                        v.iter().map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
                    };
                    assert_eq!(
                        bits(&fast),
                        bits(&slow),
                        "half {half} blocks {blocks} conj {conj}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit 24 elements")]
    fn stage_pair_rejects_a_partial_block() {
        let tw: Vec<Complex> = [twiddles_for(4), twiddles_for(8)].concat();
        stage_pair(&mut [Complex::default(); 24], 4, &tw, false, Body::detect());
    }

    #[test]
    #[should_panic(expected = "bad line length 4")]
    fn register_pass_rejects_a_line_shorter_than_a_group() {
        first_pass(
            &mut [Complex::default(); 4],
            &table(8),
            false,
            Body::detect(),
        );
    }

    #[test]
    fn first_stage_is_sum_difference() {
        let mut data = vec![
            Complex::new(1.0, 2.0),
            Complex::new(3.0, -4.0),
            Complex::new(-0.5, 0.0),
            Complex::new(0.25, 1.0),
        ];
        stage(
            &mut data,
            1,
            &[Complex::new(1.0, 0.0)],
            false,
            Body::detect(),
        );
        assert_eq!(data[0], Complex::new(4.0, -2.0));
        assert_eq!(data[1], Complex::new(-2.0, 6.0));
        assert_eq!(data[2], Complex::new(-0.25, 1.0));
        assert_eq!(data[3], Complex::new(-0.75, -1.0));
    }
}

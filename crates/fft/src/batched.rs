//! Batched radix-2 transforms: many interleaved lines at once, the
//! butterflies running **across lines** on the contiguous axis.
//!
//! A *line* is one length-`n` sequence to transform. [`Lines`] views
//! `lanes` of them interleaved in one buffer: element `r` of line `c` is
//! `buf[r * stride + c]` — the columns of a row-major block, whose rows
//! are `stride` apart and contiguous. (`crate::kernel` vectorises
//! *within* one contiguous line and calls that "lane-parallel"; here a
//! lane is a whole line, and the vector runs over neighbouring lines.)
//!
//! The per-line transform would have to gather each column into a
//! contiguous scratch line and scatter it back. Here nothing moves: a
//! radix-2 butterfly `(a, b) → (a + w·b, a − w·b)` between elements `i`
//! and `j` of every line is one operation between *rows* `i` and `j`
//! over all lanes, with one twiddle `w` for the whole row pair:
//!
//! * the twiddle is broadcast once per row pair as `[wr, wr, …]` and
//!   `[−wi, wi, …]`, and `w·b = b·[wr, wr] + swap(b)·[−wi, wi]` needs one
//!   in-register swap of `re`/`im` per vector — against the per-line
//!   kernel's three shuffles and a twiddle load, because there the
//!   twiddle differs from element to element;
//! * bit reversal swaps whole row segments;
//! * two stages run per pass over a row quartet (stages `h` and `2h`
//!   touch rows `k, k+h, k+2h, k+3h` only), halving the passes over a
//!   block that does not fit in L1.
//!
//! **Bit-exactness.** Every lane performs the per-line transform's
//! IEEE-754 operations on the same operands: `b·wr + swap(b)·(∓wi)` is,
//! lane for lane, `br·wr − bi·wi` and `bi·wr + br·wi` (`x + (−y) ≡ x − y`
//! and `p + q ≡ q + p` exactly), the `half == 1` stage is the same bare
//! sum/difference, the stages of one element run in the same order
//! (fusing two stages reorders work *between* elements only), and the
//! inverse's `1/n` scaling is a separate pass. So the batched output is
//! bitwise the per-line output on either path: [`stages_scalar`] is the
//! reference (and what runs without AVX or off x86_64), and the AVX
//! kernel is required to match it bit for bit.

use crate::complex::Complex;
use crate::kernel::Body;

/// `lanes` interleaved length-`n` lines at row stride `stride` in one
/// buffer, bounds-checked once at construction: every row segment
/// `r·stride .. r·stride + lanes` with `r < n` lies inside `buf`, and
/// segments of different rows do not overlap. The unchecked kernels
/// below rely on exactly that.
pub(crate) struct Lines<'a> {
    buf: &'a mut [Complex],
    n: usize,
    lanes: usize,
    stride: usize,
}

impl<'a> Lines<'a> {
    /// # Panics
    /// Panics if `lanes > stride` or if the last row segment
    /// `(n − 1)·stride + lanes` ends past `buf`.
    pub(crate) fn new(buf: &'a mut [Complex], n: usize, lanes: usize, stride: usize) -> Self {
        assert!(
            lanes <= stride,
            "fft batched: {lanes} lanes do not fit in row stride {stride}"
        );
        if n > 0 && lanes > 0 {
            let end = (n - 1)
                .checked_mul(stride)
                .and_then(|last_row| last_row.checked_add(lanes));
            assert!(
                end.is_some_and(|end| end <= buf.len()),
                "fft batched: buffer of {} too short for {n} rows of {lanes} lanes at stride {stride}",
                buf.len()
            );
        }
        Lines {
            buf,
            n,
            lanes,
            stride,
        }
    }

    /// Copy line `lane` into the contiguous `line` (length `n`).
    pub(crate) fn read_lane(&self, lane: usize, line: &mut [Complex]) {
        debug_assert!(lane < self.lanes && line.len() == self.n);
        for (r, v) in line.iter_mut().enumerate() {
            *v = self.buf[r * self.stride + lane];
        }
    }

    /// Copy the contiguous `line` (length `n`) back over line `lane`.
    pub(crate) fn write_lane(&mut self, lane: usize, line: &[Complex]) {
        debug_assert!(lane < self.lanes && line.len() == self.n);
        for (r, v) in line.iter().enumerate() {
            self.buf[r * self.stride + lane] = *v;
        }
    }

    /// Multiply every element of every line by the real `s`.
    pub(crate) fn scale(&mut self, s: f64) {
        for r in 0..self.n {
            for v in &mut self.buf[r * self.stride..r * self.stride + self.lanes] {
                *v = v.scale(s);
            }
        }
    }

    /// Permute the rows by `rev` (an involution): whole row segments swap.
    fn bit_reverse(&mut self, rev: &[u32]) {
        for (i, &j) in rev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                let (lo, hi) = self.buf.split_at_mut(j * self.stride);
                lo[i * self.stride..i * self.stride + self.lanes]
                    .swap_with_slice(&mut hi[..self.lanes]);
            }
        }
    }
}

/// In-place radix-2 transform of every line of `lines` through the
/// plan's `body`: AVX butterflies, or the scalar reference. `rev` and
/// `tw` are the plan's bit-reversal permutation and stage-contiguous
/// forward twiddles (see [`crate::Fft`]); `conj` selects the inverse's
/// conjugated twiddles.
///
/// # Panics
/// Panics if `rev` / `tw` are not the tables of a power-of-two length
/// `n ≥ 2`.
pub(crate) fn radix2(lines: &mut Lines<'_>, rev: &[u32], tw: &[Complex], conj: bool, body: Body) {
    let n = lines.n;
    assert!(n.is_power_of_two() && n >= 2 && rev.len() == n && tw.len() == n - 1);
    if lines.lanes == 0 {
        return;
    }
    lines.bit_reverse(rev);
    #[cfg(target_arch = "x86_64")]
    if body == Body::Avx {
        let base = lines.buf.as_mut_ptr().cast::<f64>();
        // SAFETY: `Lines::new` checked `lanes ≤ stride` and
        // `(n − 1)·stride + lanes ≤ buf.len()`, so every row segment the
        // kernel touches lies inside `buf`; `n` is a power of two with
        // `tw.len() == n − 1` (asserted above); AVX was detected when
        // `body` was chosen.
        unsafe { avx::stages(base, n, lines.lanes, lines.stride, tw, conj) };
        return;
    }
    let _ = body;
    stages_scalar(lines, tw, conj);
}

/// The reference: `kernel::stage_scalar`'s butterflies, one stage per
/// pass, applied between rows for every lane in turn. Rows must already
/// be bit-reversed.
fn stages_scalar(lines: &mut Lines<'_>, tw: &[Complex], conj: bool) {
    let (n, lanes, stride) = (lines.n, lines.lanes, lines.stride);
    let buf = &mut *lines.buf;
    let mut half = 1usize;
    while half < n {
        let stage = &tw[half - 1..2 * half - 1];
        for block in (0..n).step_by(2 * half) {
            for (k, &w) in stage.iter().enumerate() {
                let w = if conj { w.conj() } else { w };
                let (lo, hi) = ((block + k) * stride, (block + k + half) * stride);
                for c in 0..lanes {
                    let a = buf[lo + c];
                    // The first stage (`w = 1`) skips the product, as in
                    // every per-line kernel.
                    let b = if half == 1 {
                        buf[hi + c]
                    } else {
                        buf[hi + c] * w
                    };
                    buf[lo + c] = a + b;
                    buf[hi + c] = a - b;
                }
            }
        }
        half *= 2;
    }
}

/// Two complexes (two lanes) per 256-bit register `[re, im, re', im']`;
/// an odd last lane goes through the same arithmetic in the low half of
/// a zero-extended register.
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::Complex;
    use core::arch::x86_64::*;

    /// A broadcast twiddle: `[wr, wr, …]` and `[−wi, wi, …]`.
    type Twiddle = (__m256d, __m256d);

    /// Load the two complexes at `p`, or only the first (upper half
    /// zero) when `TAIL`.
    ///
    /// # Safety
    /// The CPU must support AVX, and `p` must be valid for reads of four
    /// `f64`s — two when `TAIL`.
    #[inline(always)]
    unsafe fn load<const TAIL: bool>(p: *const f64) -> __m256d {
        if TAIL {
            _mm256_zextpd128_pd256(_mm_loadu_pd(p))
        } else {
            _mm256_loadu_pd(p)
        }
    }

    /// Store both complexes of `v` at `p`, or only the first when `TAIL`.
    ///
    /// # Safety
    /// The CPU must support AVX, and `p` must be valid for writes of four
    /// `f64`s — two when `TAIL`.
    #[inline(always)]
    unsafe fn store<const TAIL: bool>(p: *mut f64, v: __m256d) {
        if TAIL {
            _mm_storeu_pd(p, _mm256_castpd256_pd128(v))
        } else {
            _mm256_storeu_pd(p, v)
        }
    }

    /// One twiddle for a whole row pair (`wi` negated first for the
    /// inverse).
    ///
    /// # Safety
    /// The CPU must support AVX.
    #[inline(always)]
    unsafe fn broadcast(w: Complex, conj: bool) -> Twiddle {
        let wi = if conj { -w.im } else { w.im };
        (_mm256_set1_pd(w.re), _mm256_set_pd(wi, -wi, wi, -wi))
    }

    /// `(a + w·b, a − w·b)` in every lane: re `br·wr + bi·(−wi)`, im
    /// `bi·wr + br·wi` — the scalar butterfly's operations.
    ///
    /// # Safety
    /// The CPU must support AVX.
    #[inline(always)]
    unsafe fn butterfly(a: __m256d, b: __m256d, (wr, wi): Twiddle) -> (__m256d, __m256d) {
        let swapped = _mm256_permute_pd(b, 0b0101); // [bi, br, bi', br']
        let t = _mm256_add_pd(_mm256_mul_pd(b, wr), _mm256_mul_pd(swapped, wi));
        (_mm256_add_pd(a, t), _mm256_sub_pd(a, t))
    }

    /// The `half == 1` butterfly: `w = 1`, no product.
    ///
    /// # Safety
    /// The CPU must support AVX.
    #[inline(always)]
    unsafe fn sum_difference(a: __m256d, b: __m256d) -> (__m256d, __m256d) {
        (_mm256_add_pd(a, b), _mm256_sub_pd(a, b))
    }

    /// The first stage alone on `f64`s `i..` of the row pair `p`.
    ///
    /// # Safety
    /// The CPU must support AVX, and both rows must be valid for reads
    /// and writes of `f64`s `i..i + 4` — `i..i + 2` when `TAIL`.
    #[inline(always)]
    unsafe fn pair_at<const TAIL: bool>(p: [*mut f64; 2], i: usize) {
        let (a, b) = sum_difference(load::<TAIL>(p[0].add(i)), load::<TAIL>(p[1].add(i)));
        store::<TAIL>(p[0].add(i), a);
        store::<TAIL>(p[1].add(i), b);
    }

    /// Stages `h` and `2h` fused on `f64`s `i..` of the row quartet
    /// `p = [k, k+h, k+2h, k+3h]`: stage `h` pairs `(p0, p1)` and
    /// `(p2, p3)` with `w[0]`, stage `2h` pairs `(p0, p2)` with `w[1]`
    /// and `(p1, p3)` with `w[2]`. `first` marks `h == 1`, whose stage
    /// is the bare sum/difference.
    ///
    /// # Safety
    /// The CPU must support AVX, and all four rows must be valid for
    /// reads and writes of `f64`s `i..i + 4` — `i..i + 2` when `TAIL`.
    #[inline(always)]
    unsafe fn quartet_at<const TAIL: bool>(
        p: [*mut f64; 4],
        i: usize,
        first: bool,
        w: &[Twiddle; 3],
    ) {
        let (a, b) = (load::<TAIL>(p[0].add(i)), load::<TAIL>(p[1].add(i)));
        let (c, d) = (load::<TAIL>(p[2].add(i)), load::<TAIL>(p[3].add(i)));
        let ((a, b), (c, d)) = if first {
            (sum_difference(a, b), sum_difference(c, d))
        } else {
            (butterfly(a, b, w[0]), butterfly(c, d, w[0]))
        };
        let (a, c) = butterfly(a, c, w[1]);
        let (b, d) = butterfly(b, d, w[2]);
        store::<TAIL>(p[0].add(i), a);
        store::<TAIL>(p[1].add(i), b);
        store::<TAIL>(p[2].add(i), c);
        store::<TAIL>(p[3].add(i), d);
    }

    /// Every butterfly stage over bit-reversed rows: the first stage
    /// alone when the stage count is odd, then two stages per pass.
    ///
    /// # Safety
    /// `base` must be valid for reads and writes of the `f64`s of every
    /// row segment `r·stride .. r·stride + lanes` (in complexes), `r < n`,
    /// with `lanes ≤ stride`; `n` must be a power of two `≥ 2` and
    /// `tw.len() == n − 1`; the CPU must support AVX.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn stages(
        base: *mut f64,
        n: usize,
        lanes: usize,
        stride: usize,
        tw: &[Complex],
        conj: bool,
    ) {
        // A row holds whole complexes: `paired` `f64`s fill whole
        // registers, and an odd last lane is the two-`f64` tail.
        let (len, paired) = (2 * lanes, 4 * (lanes / 2));
        // SAFETY (every row pointer and access below): `row(r)` is taken
        // only for `r < n`, so it starts a row segment the contract makes
        // valid for its `len` `f64`s. Full registers move `f64`s
        // `i..i + 4` with `i + 4 ≤ paired ≤ len`; the tail moves
        // `paired..paired + 2 = len`, so nothing reaches past the segment
        // (the last row may end the buffer) or into the row's padding
        // beyond `lanes`.
        let row = |r: usize| base.add(2 * r * stride);
        let mut half = 1usize;
        if n.trailing_zeros() % 2 == 1 {
            for r in (0..n).step_by(2) {
                let p = [row(r), row(r + 1)];
                for i in (0..paired).step_by(4) {
                    pair_at::<false>(p, i);
                }
                if paired < len {
                    pair_at::<true>(p, paired);
                }
            }
            half = 2;
        }
        while half < n {
            debug_assert!(4 * half <= n);
            let (tw1, tw2) = (&tw[half - 1..2 * half - 1], &tw[2 * half - 1..4 * half - 1]);
            for block in (0..n).step_by(4 * half) {
                for k in 0..half {
                    let r = block + k;
                    let p = [row(r), row(r + half), row(r + 2 * half), row(r + 3 * half)];
                    let w = [tw1[k], tw2[k], tw2[k + half]].map(|w| broadcast(w, conj));
                    for i in (0..paired).step_by(4) {
                        quartet_at::<false>(p, i, half == 1, &w);
                    }
                    if paired < len {
                        quartet_at::<true>(p, paired, half == 1, &w);
                    }
                }
            }
            half *= 4;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Fft, Transform};

    /// Full-entropy mantissas, as in `kernel.rs`' tests.
    fn noise(n: usize, seed: u64) -> Vec<Complex> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        (0..n).map(|_| Complex::new(next(), next())).collect()
    }

    fn bits(v: &[Complex]) -> Vec<[u64; 2]> {
        v.iter().map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
    }

    const TRANSFORMS: [Transform; 3] = [
        Transform::Forward,
        Transform::Inverse,
        Transform::InverseUnnormalized,
    ];
    const LANES: [usize; 11] = [1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65];
    /// Filler of the row elements past `lanes`, which no transform may
    /// touch.
    const SENTINEL: Complex = Complex::new(-7.25, 1234.5);

    /// A block of `n` rows at `stride` whose first `lanes` columns are
    /// noise and whose other elements are the sentinel.
    fn block(n: usize, lanes: usize, stride: usize) -> Vec<Complex> {
        let mut buf = vec![SENTINEL; n * stride];
        let data = noise(n * lanes, 0x9E37_79B9 + (n * 131 + lanes) as u64);
        for (row, src) in buf.chunks_exact_mut(stride).zip(data.chunks_exact(lanes)) {
            row[..lanes].copy_from_slice(src);
        }
        buf
    }

    #[test]
    fn batched_is_bitwise_the_per_line_transform_and_leaves_the_padding_alone() {
        let pow2 = (0..=12).map(|e| 1usize << e);
        for n in pow2.chain([3, 6, 12, 100]) {
            let plan = Fft::new(n);
            for lanes in LANES {
                for stride in [lanes, lanes + 3] {
                    for transform in TRANSFORMS {
                        let input = block(n, lanes, stride);
                        let mut fast = input.clone();
                        plan.batched(transform, &mut fast, lanes, stride);
                        for c in 0..stride {
                            let mut line: Vec<Complex> =
                                (0..n).map(|r| input[r * stride + c]).collect();
                            if c < lanes {
                                plan.apply(transform, &mut line);
                            }
                            let got: Vec<Complex> = (0..n).map(|r| fast[r * stride + c]).collect();
                            assert_eq!(
                                bits(&got),
                                bits(&line),
                                "{transform:?} n={n} lanes={lanes} stride={stride} column {c}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dispatched_kernel_is_bitwise_the_scalar_reference() {
        // The plan's body is AVX where the host has it; the portable
        // body is the reference on every host.
        for n in (1..=10).map(|e| 1usize << e) {
            let plan = Fft::new(n);
            let (rev, tw) = plan.radix2_tables().expect("power-of-two plan");
            for lanes in LANES {
                for stride in [lanes, lanes + 3] {
                    for conj in [false, true] {
                        let input = block(n, lanes, stride);
                        let run = |body: Body| {
                            let mut buf = input.clone();
                            let mut lines = Lines::new(&mut buf, n, lanes, stride);
                            radix2(&mut lines, rev, tw, conj, body);
                            bits(&buf)
                        };
                        assert_eq!(
                            run(Body::detect()),
                            run(Body::Portable),
                            "n={n} lanes={lanes} stride={stride} conj={conj}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_shapes_are_no_ops() {
        let mut empty: Vec<Complex> = Vec::new();
        Fft::new(8).batched(Transform::Forward, &mut empty, 0, 0);
        Fft::new(0).batched(Transform::Forward, &mut empty, 0, 0);
        Fft::new(12).batched(Transform::Inverse, &mut empty, 0, 5);
        let mut one = vec![Complex::new(3.0, -2.0); 4];
        Fft::new(1).batched(Transform::Inverse, &mut one, 4, 4);
        assert_eq!(one, vec![Complex::new(3.0, -2.0); 4]);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_buffer_panics() {
        // One element short of the last row segment: (8 − 1)·5 + 4 = 39.
        let mut buf = vec![Complex::default(); 38];
        Fft::new(8).batched(Transform::Forward, &mut buf, 4, 5);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_buffer_panics_on_the_bluestein_path() {
        let mut buf = vec![Complex::default(); 5 * 4 + 3];
        Fft::new(6).batched(Transform::Forward, &mut buf, 4, 4);
    }

    #[test]
    #[should_panic(expected = "do not fit in row stride")]
    fn more_lanes_than_stride_panics() {
        let mut buf = vec![Complex::default(); 64];
        Fft::new(8).batched(Transform::Forward, &mut buf, 5, 4);
    }

    /// An odd lane count puts the last lane of every row in the
    /// two-`f64` tail, and a buffer that ends with the last row's last
    /// lane leaves no slack behind that tail: every lane still matches
    /// the per-line transform bit for bit.
    #[test]
    fn odd_lanes_in_an_exactly_long_buffer_match_the_per_line_transform() {
        for n in [2usize, 4, 8, 32, 64] {
            let plan = Fft::new(n);
            for lanes in [1usize, 3, 5, 17] {
                for stride in [lanes, lanes + 3] {
                    for transform in TRANSFORMS {
                        let input = noise((n - 1) * stride + lanes, (n * 7 + lanes) as u64);
                        let mut fast = input.clone();
                        plan.batched(transform, &mut fast, lanes, stride);
                        for c in 0..lanes {
                            let mut line: Vec<Complex> =
                                (0..n).map(|r| input[r * stride + c]).collect();
                            plan.apply(transform, &mut line);
                            let got: Vec<Complex> = (0..n).map(|r| fast[r * stride + c]).collect();
                            assert_eq!(
                                bits(&got),
                                bits(&line),
                                "{transform:?} n={n} lanes={lanes} stride={stride} column {c}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn exactly_long_enough_buffer_is_accepted() {
        // The last row may stop at `lanes`, short of a full stride.
        let (n, lanes, stride) = (8, 4, 7);
        let mut buf = noise((n - 1) * stride + lanes, 99);
        let mut padded = buf.clone();
        padded.resize(n * stride, SENTINEL);
        let plan = Fft::new(n);
        plan.batched(Transform::Forward, &mut buf, lanes, stride);
        plan.batched(Transform::Forward, &mut padded, lanes, stride);
        assert_eq!(bits(&buf), bits(&padded[..buf.len()]));
    }
}

//! The desingularized Biot–Savart / Birkhoff–Rott pair kernel.
//!
//! One arithmetic, four shapes:
//!
//! * [`br_pair_velocity`] — one pair, scalar: the documented oracle;
//! * [`accumulate_block`] — every target against a block of sources,
//!   lanes = *targets*, so each target still sums its sources in block
//!   order and the result is the scalar sum bit for bit (the exact
//!   solvers' circulated and image blocks: n² ordered pairs per block);
//! * [`accumulate_symmetric`] — a block that is its own target set, each
//!   unordered pair evaluated once and added to both ends, lanes =
//!   *sources* with a fixed four-accumulator association (the exact
//!   solvers' own block: n(n−1)/2 pairs, one reciprocal each);
//! * [`accumulate_hits`] — one target against a list of source slots,
//!   lanes = *hits* with a fixed four-accumulator association, fed by
//!   [`select_within`] (the cutoff solver).
//!
//! The block body is safe array code written once and instantiated
//! twice, for the build's baseline features and, on x86-64, for AVX2.
//! The filter, the hit kernel and the symmetric kernel each have a
//! scalar body ([`select_body`], [`hits_body`], `symmetric_body`: the
//! fallback and the test oracle) and an AVX2 form in intrinsics that
//! performs the scalar body's IEEE operations in the scalar body's
//! order, four at a time — never FMA, so no multiply–add is fused, and
//! compaction keeps slot order — so every CPU produces the same bits
//! (the `beatnik_fft::kernel` rule). Which form runs decides only the
//! speed, which the `br_pairs`, `br_cutoff`, `br_select` and `br_hits`
//! rows of `BENCH_compute.json` gate.

use crate::geometry::cross;
use std::ops::Range;

/// `1 / 4π`.
const INV_4PI: f64 = 1.0 / (4.0 * std::f64::consts::PI);

/// Targets per lane group of the block form. The lanes are independent,
/// so the width changes no bit; sixteen is a loop the compiler vectorizes
/// (shorter ones it unrolls into worse code) at little padding.
const TARGET_LANES: usize = 16;

/// Hits per lane group of the hit form: hit `i` accumulates in lane
/// `i mod 4`, so this width is part of the result.
const HIT_LANES: usize = 4;

/// Slots per group of the symmetric form: a row's pairs with slot `j`
/// accumulate in lane `j mod 4`, so this width is part of the result.
const PAIR_LANES: usize = 4;

/// Velocity contribution of a source point with pre-integrated strength
/// `ω·ΔA` on a target point, with Krasny desingularization `ε`:
///
/// ```text
/// u += (1/4π) · (x_src − x_tgt) × (ω·ΔA) / (|x_src − x_tgt|² + ε²)^{3/2}
/// ```
///
/// The self-interaction (coincident points) contributes exactly zero
/// (zero numerator), so callers need not special-case it.
#[inline]
pub fn br_pair_velocity(
    target: [f64; 3],
    source: [f64; 3],
    strength: [f64; 3],
    eps2: f64,
) -> [f64; 3] {
    let d = [
        source[0] - target[0],
        source[1] - target[1],
        source[2] - target[2],
    ];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + eps2;
    if r2 == 0.0 {
        // Coincident points with ε = 0: the limit is zero (the numerator
        // vanishes first), but naively it computes 0·∞ = NaN.
        return [0.0; 3];
    }
    let inv = INV_4PI / (r2 * r2.sqrt());
    let c = cross(d, strength);
    [c[0] * inv, c[1] * inv, c[2] * inv]
}

/// [`br_pair_velocity`] on a separation `d = x_src − x_tgt` already
/// formed, for use inside a lane loop: the coincident case picks a zero
/// factor instead of returning early, which adds the same ±0 to an
/// accumulator and lets the lanes share one instruction stream.
#[inline(always)]
fn lane_velocity(d: [f64; 3], w: [f64; 3], eps2: f64) -> [f64; 3] {
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + eps2;
    let inv = if r2 == 0.0 {
        0.0
    } else {
        INV_4PI / (r2 * r2.sqrt())
    };
    [
        (d[1] * w[2] - d[2] * w[1]) * inv,
        (d[2] * w[0] - d[0] * w[2]) * inv,
        (d[0] * w[1] - d[1] * w[0]) * inv,
    ]
}

/// One rank's sources laid out for the pair pass, slot by slot; the
/// cutoff solver fills the slots in cell-sorted order so that a run of
/// neighbouring cells is one contiguous slot range. Two copies, one per
/// loop: the positions as three arrays, which the distance filter reads
/// a vector of consecutive slots at a time, and one interleaved record
/// `[x, y, z, ωx, ωy, ωz]` per slot, so that the kernel finds a hit in
/// one cache line instead of six.
///
/// All four arrays have one length: the fields are private and
/// [`Sources::from_slots`] derives the three from the fourth.
#[derive(Debug)]
pub struct Sources {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    rec: Vec<[f64; 6]>,
}

impl Sources {
    /// The sources `(position, strength)` in slot order.
    pub fn from_slots(slots: impl Iterator<Item = ([f64; 3], [f64; 3])>) -> Self {
        let rec: Vec<[f64; 6]> = slots
            .map(|(p, w)| [p[0], p[1], p[2], w[0], w[1], w[2]])
            .collect();
        let axis = |k: usize| rec.iter().map(|r| r[k]).collect();
        Sources {
            x: axis(0),
            y: axis(1),
            z: axis(2),
            rec,
        }
    }

    /// Position of slot `j`.
    pub fn pos(&self, j: usize) -> [f64; 3] {
        [self.x[j], self.y[j], self.z[j]]
    }
}

/// Four slots of a symmetric block, slot `4g + l` in lane `l` of group
/// `g`: positions, strengths, and the slots' velocity accumulators. The
/// accumulators live in the same record, so a pair's reaction is stored
/// to the cache lines its source was just read from (a separate array
/// made the timings bimodal, as 4K aliasing does). Each row is 32 bytes
/// and 32-byte aligned: one vector, never split across cache lines.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
struct PairGroup {
    p: [[f64; PAIR_LANES]; 3],
    w: [[f64; PAIR_LANES]; 3],
    r: [[f64; PAIR_LANES]; 3],
}

/// A block laid out for the symmetric kernel: `n` slots in `⌈n/4⌉`
/// groups, the spare lanes of the last group zero. The fields are
/// private and [`PairBlock::new`] sizes one from the other.
#[derive(Debug)]
struct PairBlock {
    groups: Vec<PairGroup>,
    n: usize,
}

impl PairBlock {
    /// The block's `(position, strength)` in slot order, accumulators
    /// zero.
    fn new(block: &[([f64; 3], [f64; 3])]) -> Self {
        let mut groups = vec![PairGroup::default(); block.len().div_ceil(PAIR_LANES)];
        for (j, &(p, w)) in block.iter().enumerate() {
            let (g, l) = (&mut groups[j / PAIR_LANES], j % PAIR_LANES);
            for k in 0..3 {
                g.p[k][l] = p[k];
                g.w[k][l] = w[k];
            }
        }
        PairBlock {
            groups,
            n: block.len(),
        }
    }

    /// Slot `i`'s position and strength: row `i`'s target.
    fn slot(&self, i: usize) -> ([f64; 3], [f64; 3]) {
        let (g, l) = (&self.groups[i / PAIR_LANES], i % PAIR_LANES);
        (g.p.map(|c| c[l]), g.w.map(|c| c[l]))
    }

    /// Close row `i`: its own four lanes, summed `(0 + 1) + (2 + 3)`,
    /// join the reactions slot `i` gathered from the rows before it.
    fn close_row(&mut self, i: usize, acc: [[f64; PAIR_LANES]; 3]) {
        let (g, l) = (&mut self.groups[i / PAIR_LANES], i % PAIR_LANES);
        for (r, a) in g.r.iter_mut().zip(acc) {
            r[l] += (a[0] + a[1]) + (a[2] + a[3]);
        }
    }

    /// Slot `i`'s accumulated velocity.
    fn velocity(&self, i: usize) -> [f64; 3] {
        let (g, l) = (&self.groups[i / PAIR_LANES], i % PAIR_LANES);
        g.r.map(|c| c[l])
    }
}

#[inline(always)]
fn block_body(
    vel: &mut [[f64; 3]],
    targets: &[[f64; 3]],
    sources: &[([f64; 3], [f64; 3])],
    eps2: f64,
) {
    for (v, t) in vel
        .chunks_mut(TARGET_LANES)
        .zip(targets.chunks(TARGET_LANES))
    {
        // Transpose the tile into lanes; a short last tile repeats its
        // first target in the spare lanes, which are computed and dropped.
        let mut tl = [[0.0f64; TARGET_LANES]; 3];
        for l in 0..TARGET_LANES {
            let p = t[if l < t.len() { l } else { 0 }];
            for k in 0..3 {
                tl[k][l] = p[k];
            }
        }
        let mut acc = [[0.0f64; TARGET_LANES]; 3];
        for &(p, w) in sources {
            // Lanes are independent here, so the compiler may take them
            // any number at a time without changing a bit.
            for l in 0..TARGET_LANES {
                let u = lane_velocity([p[0] - tl[0][l], p[1] - tl[1][l], p[2] - tl[2][l]], w, eps2);
                for k in 0..3 {
                    acc[k][l] += u[k];
                }
            }
        }
        for (l, v) in v.iter_mut().enumerate() {
            for k in 0..3 {
                v[k] += acc[k][l];
            }
        }
    }
}

/// `acc[·][l] += u(target, slot j[l])` for the first `live` lanes:
/// collect the group into lanes (scalar loads behind one bounds check),
/// then run the arithmetic over whole lanes. Lanes past `live` get zero
/// strength and add ±0.
#[inline(always)]
fn add_hit_group(
    acc: &mut [[f64; HIT_LANES]; 3],
    target: [f64; 3],
    src: &Sources,
    j: [usize; HIT_LANES],
    live: usize,
    eps2: f64,
) {
    let rec = &src.rec[..];
    assert!(
        j[0].max(j[1]).max(j[2]).max(j[3]) < rec.len(),
        "hit beyond the last slot"
    );
    let (mut d, mut w) = ([[0.0f64; HIT_LANES]; 3], [[0.0f64; HIT_LANES]; 3]);
    for l in 0..HIT_LANES {
        let r = rec[j[l]];
        for k in 0..3 {
            d[k][l] = r[k] - target[k];
            w[k][l] = if l < live { r[3 + k] } else { 0.0 };
        }
    }
    for l in 0..HIT_LANES {
        let u = lane_velocity(
            [d[0][l], d[1][l], d[2][l]],
            [w[0][l], w[1][l], w[2][l]],
            eps2,
        );
        for k in 0..3 {
            acc[k][l] += u[k];
        }
    }
}

/// [`accumulate_hits`] in portable scalar code: the fallback where AVX2
/// is missing and the oracle the vector form is tested against.
pub fn hits_body(target: [f64; 3], src: &Sources, hits: &[u32], eps2: f64) -> [f64; 3] {
    let mut acc = [[0.0f64; HIT_LANES]; 3];
    let mut groups = hits.chunks_exact(HIT_LANES);
    for g in &mut groups {
        let j = [g[0], g[1], g[2], g[3]].map(|j| j as usize);
        add_hit_group(&mut acc, target, src, j, HIT_LANES, eps2);
    }
    let rest = groups.remainder();
    if let Some(&first) = rest.first() {
        let mut j = [first as usize; HIT_LANES];
        for (j, &r) in j.iter_mut().zip(rest) {
            *j = r as usize;
        }
        add_hit_group(&mut acc, target, src, j, rest.len(), eps2);
    }
    acc.map(|a| (a[0] + a[1]) + (a[2] + a[3]))
}

/// [`accumulate_symmetric`] in portable scalar code: the fallback where
/// AVX2 is missing and the oracle the vector form is tested against.
///
/// Row `i` runs slot `i` against its own group and every later group,
/// lane `l` of group `g` holding slot `j = 4g + l`. Each pair forms
/// `d = x_j − x_i` and one factor `inv`, zero where `j ≤ i`, where `j`
/// is a spare lane, and where `r² = 0`. It adds `(d × ω_j)·inv` to the
/// row's lane `l` and the reaction `(ω_i × d)·inv` to slot `j`'s
/// accumulator. Those are the terms [`br_pair_velocity`] gives for
/// `(i, j)` and for `(j, i)`, bit for bit, since `x_i − x_j = −d` and
/// `(−d)² = d²` exactly.
fn symmetric_body(b: &mut PairBlock, eps2: f64) {
    let n = b.n;
    for i in 0..n {
        let (t, tw) = b.slot(i);
        let mut acc = [[0.0f64; PAIR_LANES]; 3];
        for (g, grp) in b.groups.iter_mut().enumerate().skip(i / PAIR_LANES) {
            for l in 0..PAIR_LANES {
                let j = g * PAIR_LANES + l;
                let (p, w) = (grp.p.map(|c| c[l]), grp.w.map(|c| c[l]));
                let d = [p[0] - t[0], p[1] - t[1], p[2] - t[2]];
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + eps2;
                let inv = if j <= i || j >= n || r2 == 0.0 {
                    0.0
                } else {
                    INV_4PI / (r2 * r2.sqrt())
                };
                let (u, v) = (cross(d, w), cross(tw, d));
                for ((a, r), (u, v)) in acc.iter_mut().zip(&mut grp.r).zip(u.into_iter().zip(v)) {
                    a[l] += u * inv;
                    r[l] += v * inv;
                }
            }
        }
        b.close_row(i, acc);
    }
}

/// Whether the point `p` lies within the cutoff of `target`: the one
/// comparison of the filter, which its vector form repeats lane by lane.
#[inline(always)]
fn within(p: [f64; 3], target: [f64; 3], rc2: f64) -> bool {
    let d = [p[0] - target[0], p[1] - target[1], p[2] - target[2]];
    d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= rc2
}

/// [`select_within`] in portable scalar code: the fallback where the
/// vector form is missing and the oracle it is tested against.
pub fn select_body(
    target: [f64; 3],
    src: &Sources,
    run: Range<usize>,
    rc2: f64,
    hits: &mut Vec<u32>,
) {
    let (x, y, z) = (
        &src.x[run.clone()],
        &src.y[run.clone()],
        &src.z[run.clone()],
    );
    let base = hits.len();
    hits.resize(base + x.len(), 0);
    let out = &mut hits[base..];
    let mut n = 0;
    for (k, ((&x, &y), &z)) in x.iter().zip(y).zip(z).enumerate() {
        // Branch-free compaction: always store, advance only on a hit.
        out[n] = (run.start + k) as u32;
        n += usize::from(within([x, y, z], target, rc2));
    }
    hits.truncate(base + n);
}

/// The AVX2 forms (256-bit lanes, no FMA): the block body recompiled,
/// the filter and the hit kernel written in intrinsics — the scalar
/// bodies' operations in the scalar bodies' order, a vector at a time.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    pub(super) fn block(
        vel: &mut [[f64; 3]],
        targets: &[[f64; 3]],
        sources: &[([f64; 3], [f64; 3])],
        eps2: f64,
    ) {
        block_body(vel, targets, sources, eps2)
    }

    /// `lane_velocity` of four hits, one per lane, added to `acc`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn add_group(acc: &mut [__m256d; 3], d: [__m256d; 3], w: [__m256d; 3], eps2: __m256d) {
        let sq = d.map(|d| _mm256_mul_pd(d, d));
        let r2 = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(sq[0], sq[1]), sq[2]), eps2);
        let inv = _mm256_div_pd(
            _mm256_set1_pd(INV_4PI),
            _mm256_mul_pd(r2, _mm256_sqrt_pd(r2)),
        );
        // r² = 0 selects a zero factor, as the scalar `if` does.
        let coincident = _mm256_cmp_pd::<_CMP_EQ_OQ>(r2, _mm256_setzero_pd());
        let inv = _mm256_andnot_pd(coincident, inv);
        let cross = |a: usize, b: usize| {
            _mm256_sub_pd(_mm256_mul_pd(d[a], w[b]), _mm256_mul_pd(d[b], w[a]))
        };
        let u = [cross(1, 2), cross(2, 0), cross(0, 1)];
        for k in 0..3 {
            acc[k] = _mm256_add_pd(acc[k], _mm256_mul_pd(u[k], inv));
        }
    }

    /// Separations from `target` and strengths of the four slots `j`,
    /// slot `j[l]` in lane `l`: each record is read as three 16-byte
    /// pairs, and two unpacks per pair of components transpose them.
    ///
    /// # Safety
    /// Every `j[l]` must be below `src.rec.len()`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load_group(
        src: &Sources,
        target: [__m256d; 3],
        j: [u32; HIT_LANES],
    ) -> ([__m256d; 3], [__m256d; 3]) {
        // SAFETY: the caller vouches that each `j[l]` is a record of
        // `rec`; components `k` and `k + 1` of one lie inside it for
        // `k` = 0, 2, 4.
        let pair = |k: usize| unsafe {
            let at =
                |l: usize| _mm_loadu_pd(src.rec.as_ptr().add(j[l] as usize).cast::<f64>().add(k));
            let even = _mm256_insertf128_pd::<1>(_mm256_castpd128_pd256(at(0)), at(2));
            let odd = _mm256_insertf128_pd::<1>(_mm256_castpd128_pd256(at(1)), at(3));
            (_mm256_unpacklo_pd(even, odd), _mm256_unpackhi_pd(even, odd))
        };
        let ((x, y), (z, wx), (wy, wz)) = (pair(0), pair(2), pair(4));
        (
            [
                _mm256_sub_pd(x, target[0]),
                _mm256_sub_pd(y, target[1]),
                _mm256_sub_pd(z, target[2]),
            ],
            [wx, wy, wz],
        )
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn hits(target: [f64; 3], src: &Sources, hits: &[u32], eps2: f64) -> [f64; 3] {
        // The one bounds check every record load below relies on.
        let last = hits.iter().fold(0, |last, &j| last.max(j));
        assert!(
            hits.is_empty() || (last as usize) < src.rec.len(),
            "hit beyond the last slot"
        );
        let t = target.map(|c| _mm256_set1_pd(c));
        let e = _mm256_set1_pd(eps2);
        let mut acc = [_mm256_setzero_pd(); 3];
        let mut groups = hits.chunks_exact(HIT_LANES);
        for g in &mut groups {
            // SAFETY: each of the four is a hit, `< rec.len()` (asserted
            // above).
            let (d, w) = unsafe { load_group(src, t, [g[0], g[1], g[2], g[3]]) };
            add_group(&mut acc, d, w, e);
        }
        let rest = groups.remainder();
        if let Some(&first) = rest.first() {
            // As the scalar body: spare lanes repeat the first hit with
            // zero strength.
            let mut j = [first; HIT_LANES];
            j[..rest.len()].copy_from_slice(rest);
            let live: [i64; HIT_LANES] = std::array::from_fn(|l| -i64::from(l < rest.len()));
            // SAFETY: every lane of `j` is a hit, `< rec.len()` (asserted
            // above); `live` is 32 bytes.
            let ((d, w), live) = unsafe {
                (
                    load_group(src, t, j),
                    _mm256_castsi256_pd(_mm256_loadu_si256(live.as_ptr().cast())),
                )
            };
            add_group(&mut acc, d, w.map(|w| _mm256_and_pd(w, live)), e);
        }
        acc.map(|a| {
            let mut l = [0.0f64; HIT_LANES];
            // SAFETY: `l` is four `f64`s.
            unsafe { _mm256_storeu_pd(l.as_mut_ptr(), a) };
            (l[0] + l[1]) + (l[2] + l[3])
        })
    }

    /// One row of a symmetric group as a vector.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load(row: &[f64; PAIR_LANES]) -> __m256d {
        // SAFETY: `row` is four `f64`s, the 32 bytes read; its type is
        // the bound, whatever slot count the block holds.
        unsafe { _mm256_loadu_pd(row.as_ptr()) }
    }

    /// A vector into one row of a symmetric group.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn store(row: &mut [f64; PAIR_LANES], v: __m256d) {
        // SAFETY: `row` is four `f64`s, the 32 bytes written; its type
        // is the bound.
        unsafe { _mm256_storeu_pd(row.as_mut_ptr(), v) }
    }

    /// One group of a row of `symmetric_body`, its four lanes at once:
    /// `t`, `tw` are the row's target broadcast, and `live` keeps the
    /// factor of the lanes it sets (the mask for `j > i` and `j < n`).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn pair_group(
        acc: &mut [__m256d; 3],
        grp: &mut PairGroup,
        t: [__m256d; 3],
        tw: [__m256d; 3],
        eps2: __m256d,
        live: __m256d,
    ) {
        let d = [0, 1, 2].map(|k| _mm256_sub_pd(load(&grp.p[k]), t[k]));
        let sq = d.map(|d| _mm256_mul_pd(d, d));
        let r2 = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(sq[0], sq[1]), sq[2]), eps2);
        let inv = _mm256_div_pd(
            _mm256_set1_pd(INV_4PI),
            _mm256_mul_pd(r2, _mm256_sqrt_pd(r2)),
        );
        let coincident = _mm256_cmp_pd::<_CMP_EQ_OQ>(r2, _mm256_setzero_pd());
        let inv = _mm256_and_pd(_mm256_andnot_pd(coincident, inv), live);
        // `geometry::cross(a, b)`, component by component.
        let cross = |a: [__m256d; 3], b: [__m256d; 3], x: usize, y: usize| {
            _mm256_sub_pd(_mm256_mul_pd(a[x], b[y]), _mm256_mul_pd(a[y], b[x]))
        };
        let w = [0, 1, 2].map(|k| load(&grp.w[k]));
        let u = [cross(d, w, 1, 2), cross(d, w, 2, 0), cross(d, w, 0, 1)];
        let v = [cross(tw, d, 1, 2), cross(tw, d, 2, 0), cross(tw, d, 0, 1)];
        for k in 0..3 {
            acc[k] = _mm256_add_pd(acc[k], _mm256_mul_pd(u[k], inv));
            let r = _mm256_add_pd(load(&grp.r[k]), _mm256_mul_pd(v[k], inv));
            store(&mut grp.r[k], r);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn symmetric(b: &mut PairBlock, eps2: f64) {
        let e = _mm256_set1_pd(eps2);
        let lane = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
        let all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        // The last group's lanes that hold a slot.
        let last = b.groups.len().saturating_sub(1);
        let tail =
            _mm256_cmp_pd::<_CMP_LT_OQ>(lane, _mm256_set1_pd((b.n - last * PAIR_LANES) as f64));
        for i in 0..b.n {
            let (g, l) = (i / PAIR_LANES, i % PAIR_LANES);
            let (t, tw) = b.slot(i);
            let (t, tw) = (t.map(|c| _mm256_set1_pd(c)), tw.map(|c| _mm256_set1_pd(c)));
            let mut acc = [_mm256_setzero_pd(); 3];
            // The row's own group holds only the slots after `i` live.
            let after = _mm256_cmp_pd::<_CMP_GT_OQ>(lane, _mm256_set1_pd(l as f64));
            let (own, rest) = b.groups[g..]
                .split_first_mut()
                .expect("slot i is in a group");
            let own_live = if rest.is_empty() {
                _mm256_and_pd(after, tail)
            } else {
                after
            };
            pair_group(&mut acc, own, t, tw, e, own_live);
            if let Some((end, full)) = rest.split_last_mut() {
                for grp in full {
                    pair_group(&mut acc, grp, t, tw, e, all);
                }
                pair_group(&mut acc, end, t, tw, e, tail);
            }
            let mut lanes = [[0.0f64; PAIR_LANES]; 3];
            for k in 0..3 {
                store(&mut lanes[k], acc[k]);
            }
            b.close_row(i, lanes);
        }
    }

    /// Candidates per compare of the filter.
    const SELECT_LANES: usize = 4;

    /// `vpermilps` control that moves the lanes set in a 4-bit hit mask
    /// to the front, in lane order.
    const COMPACT: [[i32; SELECT_LANES]; 1 << SELECT_LANES] = {
        let mut table = [[0; SELECT_LANES]; 1 << SELECT_LANES];
        let mut mask = 0;
        while mask < table.len() {
            let (mut n, mut lane) = (0, 0);
            while lane < SELECT_LANES {
                if mask >> lane & 1 == 1 {
                    table[mask][n] = lane as i32;
                    n += 1;
                }
                lane += 1;
            }
            mask += 1;
        }
        table
    };

    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn select(
        target: [f64; 3],
        src: &Sources,
        run: Range<usize>,
        rc2: f64,
        hits: &mut Vec<u32>,
    ) {
        let (x, y, z) = (
            &src.x[run.clone()],
            &src.y[run.clone()],
            &src.z[run.clone()],
        );
        let len = x.len();
        // Survivors go straight into spare capacity, a whole vector per
        // store: nothing is zero-filled first, and the lanes a store
        // writes past the cursor are overwritten or cut off below.
        hits.reserve(len);
        let base = hits.len();
        // SAFETY: `base ≤ capacity`.
        let out = unsafe { hits.as_mut_ptr().add(base) };
        let t = target.map(|c| _mm256_set1_pd(c));
        let rc = _mm256_set1_pd(rc2);
        let mut slots = _mm_add_epi32(
            _mm_set1_epi32(run.start as u32 as i32),
            _mm_setr_epi32(0, 1, 2, 3),
        );
        let (mut n, mut k) = (0, 0);
        while k + SELECT_LANES <= len {
            // SAFETY: `k + 4 ≤ len`, the length of `x`, `y` and `z` alike
            // (one range sliced each).
            let p = unsafe {
                [
                    _mm256_loadu_pd(x.as_ptr().add(k)),
                    _mm256_loadu_pd(y.as_ptr().add(k)),
                    _mm256_loadu_pd(z.as_ptr().add(k)),
                ]
            };
            let d = [
                _mm256_sub_pd(p[0], t[0]),
                _mm256_sub_pd(p[1], t[1]),
                _mm256_sub_pd(p[2], t[2]),
            ];
            let d2 = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(d[0], d[0]), _mm256_mul_pd(d[1], d[1])),
                _mm256_mul_pd(d[2], d[2]),
            );
            // Ordered, quiet: a NaN distance sets no bit.
            let mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(d2, rc)) as usize;
            // SAFETY: `COMPACT[mask]` is four `i32`s; `n ≤ k` and
            // `k + 4 ≤ len`, so the four lanes stored lie within the `len`
            // slots reserved past `base`.
            unsafe {
                let front = _mm_loadu_si128(COMPACT[mask].as_ptr().cast());
                let packed = _mm_permutevar_ps(_mm_castsi128_ps(slots), front);
                _mm_storeu_si128(out.add(n).cast(), _mm_castps_si128(packed));
            }
            n += mask.count_ones() as usize;
            k += SELECT_LANES;
            slots = _mm_add_epi32(slots, _mm_set1_epi32(SELECT_LANES as i32));
        }
        // The last `len mod 4` candidates, as the scalar body takes them.
        while k < len {
            // SAFETY: `n ≤ k < len`, inside what was reserved.
            unsafe { out.add(n).write((run.start + k) as u32) };
            n += usize::from(within([x[k], y[k], z[k]], target, rc2));
            k += 1;
        }
        // SAFETY: the `n ≤ len` slots past `base` were written above, and
        // `base + len` is within the capacity reserved.
        unsafe { hits.set_len(base + n) };
    }
}

/// Accumulate the kernel over a block of sources into `vel[i]` for each
/// target `i`: `vel[i] += Σ_s u(target_i, s)`, the sum taken in block
/// order from zero exactly as a scalar loop over [`br_pair_velocity`]
/// would (the inner loop of the exact and periodic solvers).
pub fn accumulate_block(
    vel: &mut [[f64; 3]],
    targets: &[[f64; 3]],
    sources: &[([f64; 3], [f64; 3])],
    eps2: f64,
) {
    assert_eq!(vel.len(), targets.len(), "one velocity per target");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { avx2::block(vel, targets, sources, eps2) };
    }
    block_body(vel, targets, sources, eps2)
}

/// Accumulate the kernel over a block that is also the target set:
/// `vel[i] += Σ_j u(x_i; x_j, ω_j)` over the block, the sum
/// [`accumulate_block`] forms for the block's own positions, but with
/// each unordered pair evaluated once — one `r²`, one `sqrt`, one `div`
/// — and added to both ends (the exact solvers' own block). The
/// association is fixed: point `i` first gathers the reactions of the
/// points before it, in slot order, then adds its own row over the
/// points after it, pair `j` in lane `j mod 4` and the lanes summed
/// `(0 + 1) + (2 + 3)`. So the result depends on the block's order and
/// on nothing else, and differs from the one-sided sum by rounding only.
///
/// # Panics
/// Panics if `vel` and `block` differ in length.
pub fn accumulate_symmetric(vel: &mut [[f64; 3]], block: &[([f64; 3], [f64; 3])], eps2: f64) {
    assert_eq!(vel.len(), block.len(), "one velocity per point");
    let mut b = PairBlock::new(block);
    symmetric(&mut b, eps2);
    for (i, v) in vel.iter_mut().enumerate() {
        let r = b.velocity(i);
        for k in 0..3 {
            v[k] += r[k];
        }
    }
}

/// The symmetric pass over `b`, in the widest form this CPU runs.
fn symmetric(b: &mut PairBlock, eps2: f64) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { avx2::symmetric(b, eps2) };
    }
    symmetric_body(b, eps2)
}

/// Velocity at `target` induced by the sources in slots `hits` of `src`
/// (the inner loop of the cutoff solvers). Hit `i` accumulates in lane
/// `i mod 4` and the four lanes are summed `(0 + 1) + (2 + 3)`, so the
/// result depends on the hit order and on nothing else.
///
/// # Panics
/// Panics, before it reads a source, if a hit is not a slot of `src`.
pub fn accumulate_hits(target: [f64; 3], src: &Sources, hits: &[u32], eps2: f64) -> [f64; 3] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { avx2::hits(target, src, hits, eps2) };
    }
    hits_body(target, src, hits, eps2)
}

/// Append to `hits` the slots of `run` whose point lies within the
/// cutoff of `target` (`d² ≤ rc2`, inclusive; a NaN distance is no hit),
/// in slot order: the cheap pass that keeps `sqrt` and `div` off the
/// misses.
pub fn select_within(
    target: [f64; 3],
    src: &Sources,
    run: Range<usize>,
    rc2: f64,
    hits: &mut Vec<u32>,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    {
        // SAFETY: both features were just verified at runtime.
        return unsafe { avx2::select(target, src, run, rc2, hits) };
    }
    select_body(target, src, run, rc2, hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_interaction_is_zero() {
        let p = [1.0, 2.0, 3.0];
        let u = br_pair_velocity(p, p, [5.0, -1.0, 2.0], 0.01);
        assert_eq!(u, [0.0; 3]);
    }

    #[test]
    fn kernel_direction_matches_cross_product() {
        // Source at +x with strength ŷ induces +z velocity at the origin.
        let u = br_pair_velocity([0.0; 3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.0);
        assert!(u[2] > 0.0);
        assert!(u[0].abs() < 1e-15 && u[1].abs() < 1e-15);
        // Flipping the strength flips the velocity.
        let v = br_pair_velocity([0.0; 3], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], 0.0);
        assert_eq!(v[2], -u[2]);
    }

    #[test]
    fn kernel_decays_as_inverse_square() {
        let near = br_pair_velocity([0.0; 3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.0);
        let far = br_pair_velocity([0.0; 3], [10.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.0);
        // |u| ~ r/r³ = 1/r²: factor 100.
        assert!((near[2] / far[2] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn desingularization_caps_close_approach() {
        let tight = br_pair_velocity([0.0; 3], [1e-8, 0.0, 0.0], [0.0, 1.0, 0.0], 0.0);
        let capped = br_pair_velocity([0.0; 3], [1e-8, 0.0, 0.0], [0.0, 1.0, 0.0], 0.01);
        assert!(tight[2] > 1e10); // singular without ε
        assert!(capped[2] < 1.0); // bounded with ε
    }

    /// Deterministic sources: slot `i` of `n`, with slot 1 a copy of slot
    /// 0 so that ε = 0 meets a coincident pair.
    fn sources(n: usize) -> Vec<([f64; 3], [f64; 3])> {
        let point = |i: usize| {
            let t = i as f64;
            (
                [
                    (t * 0.37).fract() * 2.0 - 1.0,
                    (t * 0.71).fract() * 2.0 - 1.0,
                    (t * 0.13).fract(),
                ],
                [(t * 0.29).fract() - 0.5, (t * 0.53).fract() - 0.5, 0.1],
            )
        };
        (0..n).map(|i| point(if i == 1 { 0 } else { i })).collect()
    }

    fn soa(sources: &[([f64; 3], [f64; 3])]) -> Sources {
        Sources::from_slots(sources.iter().copied())
    }

    /// Lane remainders on every side of a group boundary, and a long one.
    const LENGTHS: [usize; 15] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 257];

    #[test]
    fn block_matches_per_pair_scalar_accumulation_bitwise() {
        for eps2 in [0.01, 0.0] {
            for nt in LENGTHS.into_iter().chain([15, 16, 17, 33]) {
                for ns in LENGTHS {
                    let srcs = sources(ns);
                    let targets: Vec<[f64; 3]> =
                        sources(nt + 3).iter().skip(3).map(|s| s.0).collect();
                    let start: Vec<[f64; 3]> = (0..nt).map(|i| [i as f64, -1.0, 0.5]).collect();
                    let mut vel = start.clone();
                    accumulate_block(&mut vel, &targets, &srcs, eps2);
                    for ((v, t), v0) in vel.iter().zip(&targets).zip(&start) {
                        let mut acc = [0.0f64; 3];
                        for &(p, w) in &srcs {
                            let u = br_pair_velocity(*t, p, w, eps2);
                            for k in 0..3 {
                                acc[k] += u[k];
                            }
                        }
                        let want = [v0[0] + acc[0], v0[1] + acc[1], v0[2] + acc[2]];
                        assert_eq!(*v, want, "{nt} targets, {ns} sources, eps2 {eps2}");
                    }
                }
            }
        }
    }

    #[test]
    fn hits_match_the_scalar_oracle_in_their_fixed_association() {
        let srcs = sources(300);
        let soa = soa(&srcs);
        let target = [0.1, -0.2, 0.3];
        for eps2 in [0.01, 0.0] {
            for n in LENGTHS {
                // Scattered and repeated slots, the coincident pair among
                // them; the target itself is slot 7's position when ε = 0.
                let hits: Vec<u32> = (0..n).map(|i| ((i * 37) % 300) as u32).collect();
                let target = if eps2 == 0.0 { srcs[7].0 } else { target };
                let got = accumulate_hits(target, &soa, &hits, eps2);
                // Hit i goes to lane i mod 4; lanes sum (0 + 1) + (2 + 3).
                let mut lanes = [[0.0f64; 3]; HIT_LANES];
                for (i, &j) in hits.iter().enumerate() {
                    let (p, w) = srcs[j as usize];
                    let u = br_pair_velocity(target, p, w, eps2);
                    for k in 0..3 {
                        lanes[i % HIT_LANES][k] += u[k];
                    }
                }
                let want =
                    [0, 1, 2].map(|k| (lanes[0][k] + lanes[1][k]) + (lanes[2][k] + lanes[3][k]));
                assert_eq!(got, want, "{n} hits, eps2 {eps2}");
            }
        }
    }

    #[test]
    fn select_is_inclusive_ordered_and_blind_to_nan() {
        let soa = Sources::from_slots(
            [0.0, 0.5, 0.5000001, f64::NAN, -0.5, f64::INFINITY, 0.25]
                .into_iter()
                .map(|x| ([x, 0.0, 0.0], [0.0; 3])),
        );
        let mut hits = vec![99];
        select_within([0.0; 3], &soa, 0..7, 0.25, &mut hits);
        assert_eq!(
            hits,
            [99, 0, 1, 4, 6],
            "appends, in slot order, d² ≤ rc² inclusive"
        );
        select_within([0.0; 3], &soa, 1..3, 0.25, &mut hits);
        assert_eq!(hits, [99, 0, 1, 4, 6, 1]);
        select_within([f64::NAN, 0.0, 0.0], &soa, 0..7, 0.25, &mut hits);
        assert_eq!(hits.len(), 6, "a NaN target is near nothing");
        select_within([0.0; 3], &soa, 3..3, 0.25, &mut hits);
        assert_eq!(hits.len(), 6);
    }

    #[test]
    fn vector_select_matches_the_scalar_select_bitwise() {
        // Sources around the origin with, every few slots, a point at
        // exactly the cutoff, a NaN and both infinities.
        let odd = [0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let srcs: Vec<([f64; 3], [f64; 3])> = sources(300)
            .into_iter()
            .enumerate()
            .map(|(i, (mut p, w))| {
                if i % 5 == 3 {
                    p = [0.0; 3];
                    p[i % 3] = odd[i / 5 % 4];
                }
                (p, w)
            })
            .collect();
        let soa = soa(&srcs);
        let rc2 = 0.25;
        let targets = [
            [0.0; 3],
            [0.1, -0.2, 0.3],
            [f64::NAN, 0.0, 0.0],
            [0.0, f64::INFINITY, 0.0],
            [0.0, 0.0, f64::NEG_INFINITY],
        ];
        for target in targets {
            for len in (0..=40).chain([257]) {
                // Unaligned starts, and the run that ends with the sources.
                for start in [0, 1, 2, 3, 5, 7, 300 - len] {
                    let run = start..start + len;
                    // Appends: what `hits` held on entry stays.
                    let (mut got, mut want) = (vec![7, 9], vec![7, 9]);
                    select_within(target, &soa, run.clone(), rc2, &mut got);
                    select_body(target, &soa, run.clone(), rc2, &mut want);
                    assert_eq!(got, want, "target {target:?}, run {run:?}");
                }
            }
        }
        // The cases above do meet a pair at exactly d² = rc², and keep it.
        let mut hits = Vec::new();
        select_within([0.0; 3], &soa, 0..300, rc2, &mut hits);
        assert!(hits.contains(&3) && !hits.contains(&8), "{hits:?}");
    }

    #[test]
    fn vector_hits_match_the_scalar_body_bitwise() {
        let srcs = sources(300);
        let soa = soa(&srcs);
        for eps2 in [0.01, 0.0] {
            for n in LENGTHS {
                // Scattered and repeated slots, the coincident pair among
                // them; the target itself is slot 7's position when ε = 0.
                let hits: Vec<u32> = (0..n).map(|i| ((i * 37) % 300) as u32).collect();
                let target = if eps2 == 0.0 {
                    srcs[7].0
                } else {
                    [0.1, -0.2, 0.3]
                };
                assert_eq!(
                    accumulate_hits(target, &soa, &hits, eps2),
                    hits_body(target, &soa, &hits, eps2),
                    "{n} hits, eps2 {eps2}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "hit beyond the last slot")]
    fn a_hit_outside_the_sources_is_refused() {
        let _ = accumulate_hits([0.0; 3], &soa(&sources(5)), &[0, 1, 2, 5], 0.01);
    }

    #[test]
    #[should_panic(expected = "hit beyond the last slot")]
    fn a_hit_outside_the_sources_is_refused_by_the_scalar_body() {
        let _ = hits_body([0.0; 3], &soa(&sources(5)), &[0, 1, 2, 5], 0.01);
    }

    #[test]
    #[should_panic(expected = "hit beyond the last slot")]
    fn a_late_hit_outside_the_sources_is_refused_before_any_read() {
        // The bad slot sits in the remainder group, far past the end.
        let _ = accumulate_hits(
            [0.0; 3],
            &soa(&sources(5)),
            &[0, 1, 2, 3, 4, u32::MAX],
            0.01,
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_bodies_match_the_portable_bodies_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for eps2 in [0.01, 0.0] {
            for n in LENGTHS {
                let srcs = sources(n.max(4));
                let targets: Vec<[f64; 3]> = srcs.iter().take(n).map(|s| s.0).collect();
                let (mut fast, mut portable) = (vec![[1.0; 3]; n], vec![[1.0; 3]; n]);
                // SAFETY: AVX2 support was just verified at runtime.
                unsafe { avx2::block(&mut fast, &targets, &srcs, eps2) };
                block_body(&mut portable, &targets, &srcs, eps2);
                assert_eq!(fast, portable, "block form, {n} targets");
            }
        }
    }

    #[test]
    fn symmetric_matches_the_all_pairs_oracle() {
        for eps2 in [0.01, 0.0] {
            for n in LENGTHS {
                // Slots 0 and 1 coincide: with ε = 0 that pair has r² = 0.
                let block = sources(n);
                let mut got = vec![[0.0; 3]; n];
                accumulate_symmetric(&mut got, &block, eps2);
                let want: Vec<[f64; 3]> = block
                    .iter()
                    .map(|&(t, _)| {
                        let mut acc = [0.0f64; 3];
                        for &(p, w) in &block {
                            let u = br_pair_velocity(t, p, w, eps2);
                            for k in 0..3 {
                                acc[k] += u[k];
                            }
                        }
                        acc
                    })
                    .collect();
                let scale = want.iter().flatten().fold(0.0f64, |m, c| m.max(c.abs()));
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    for k in 0..3 {
                        assert!(
                            (g[k] - w[k]).abs() <= 1e-12 * scale,
                            "{n} points, eps2 {eps2}, point {i}: {g:?} vs {w:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_coincident_pair_contributes_exactly_zero_both_ways() {
        let p = [0.3, -0.2, 0.1];
        let block = [(p, [1.0, 2.0, 3.0]), (p, [-0.5, 0.25, 4.0])];
        for eps2 in [0.01, 0.0] {
            let mut vel = [[1.5, -2.0, 0.25]; 2];
            accumulate_symmetric(&mut vel, &block, eps2);
            assert_eq!(vel, [[1.5, -2.0, 0.25]; 2], "eps2 {eps2}");
        }
    }

    #[test]
    #[should_panic(expected = "one velocity per point")]
    fn symmetric_refuses_a_velocity_slice_of_another_length() {
        accumulate_symmetric(&mut [[0.0; 3]; 3], &sources(4), 0.01);
    }

    /// Every accumulator lane of `b`, the spare ones too, as bits.
    fn accumulator_bits(b: &PairBlock) -> Vec<u64> {
        b.groups
            .iter()
            .flat_map(|g| g.r.iter().flatten().map(|c| c.to_bits()))
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_symmetric_matches_the_portable_body_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for eps2 in [0.01, 0.0] {
            for n in LENGTHS {
                // The tail lengths put the last live slot in every lane
                // of the last group, where the vector loads and stores
                // would first leave the block.
                let block = sources(n);
                let (mut fast, mut portable) = (PairBlock::new(&block), PairBlock::new(&block));
                // SAFETY: AVX2 support was just verified at runtime.
                unsafe { avx2::symmetric(&mut fast, eps2) };
                symmetric_body(&mut portable, eps2);
                assert_eq!(
                    accumulator_bits(&fast),
                    accumulator_bits(&portable),
                    "{n} points, eps2 {eps2}"
                );
            }
        }
    }

    #[test]
    fn accumulation_is_additive_across_blocks() {
        let targets = [[0.1, 0.2, 0.3]];
        let all = [
            ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
            ([0.0, 1.0, 0.0], [1.0, 0.0, 0.0]),
        ];
        let mut once = vec![[0.0; 3]; 1];
        accumulate_block(&mut once, &targets, &all, 0.01);
        let mut split = vec![[0.0; 3]; 1];
        accumulate_block(&mut split, &targets, &all[..1], 0.01);
        accumulate_block(&mut split, &targets, &all[1..], 0.01);
        for k in 0..3 {
            assert!((once[0][k] - split[0][k]).abs() < 1e-15);
        }
    }
}

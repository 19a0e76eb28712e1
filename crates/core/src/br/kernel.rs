//! The desingularized Biot–Savart / Birkhoff–Rott pair kernel.
//!
//! One arithmetic, three shapes:
//!
//! * [`br_pair_velocity`] — one pair, scalar: the documented oracle (and
//!   the per-node closure of the tree solver);
//! * [`accumulate_block`] — every target against a block of sources,
//!   lanes = *targets*, so each target still sums its sources in block
//!   order and the result is the scalar sum bit for bit (the exact and
//!   periodic solvers);
//! * [`accumulate_hits`] — one target against a list of source slots,
//!   lanes = *hits* with a fixed four-accumulator association, fed by
//!   [`select_within`] or any other candidate generator (the cutoff
//!   solvers).
//!
//! The two lane bodies are safe array code written once and instantiated
//! twice: for the build's baseline features and, on x86-64, for AVX2 —
//! never FMA, so no multiply–add is fused and every CPU produces the same
//! bits (the `beatnik_fft::kernel` rule). Nothing here depends on the
//! compiler vectorizing them: that only decides the speed, which the
//! `br_pairs` and `br_cutoff` rows of `BENCH_compute.json` gate.

use crate::geometry::cross;
use std::ops::Range;

/// `1 / 4π`.
const INV_4PI: f64 = 1.0 / (4.0 * std::f64::consts::PI);

/// Targets per lane group of the block form. The lanes are independent,
/// so the width changes no bit; sixteen is a loop the compiler vectorizes
/// (shorter ones it unrolls into worse code) at little padding.
const TARGET_LANES: usize = 16;

/// Hits per lane group of the gather form: hit `i` accumulates in lane
/// `i mod 4`, so this width is part of the result.
const HIT_LANES: usize = 4;

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

/// Sources in structure-of-arrays form: slot `j` is the point at
/// `(x[j], y[j], z[j])` with strength `(wx[j], wy[j], wz[j])`. The
/// cutoff solver fills it in cell-sorted order so that a run of
/// neighbouring cells is one contiguous slot range.
#[derive(Debug)]
pub struct SourceSoa {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    wx: Vec<f64>,
    wy: Vec<f64>,
    wz: Vec<f64>,
}

impl SourceSoa {
    /// Empty, with room for `n` sources.
    pub fn with_capacity(n: usize) -> Self {
        SourceSoa {
            x: Vec::with_capacity(n),
            y: Vec::with_capacity(n),
            z: Vec::with_capacity(n),
            wx: Vec::with_capacity(n),
            wy: Vec::with_capacity(n),
            wz: Vec::with_capacity(n),
        }
    }

    /// Append a source as the next slot.
    pub fn push(&mut self, pos: [f64; 3], strength: [f64; 3]) {
        self.x.push(pos[0]);
        self.y.push(pos[1]);
        self.z.push(pos[2]);
        self.wx.push(strength[0]);
        self.wy.push(strength[1]);
        self.wz.push(strength[2]);
    }

    /// Position of slot `j`.
    pub fn pos(&self, j: usize) -> [f64; 3] {
        [self.x[j], self.y[j], self.z[j]]
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
/// gather the group into lanes (scalar loads behind one bounds check),
/// then run the arithmetic over whole lanes. Lanes past `live` get zero
/// strength and add ±0.
#[inline(always)]
fn add_hit_group(
    acc: &mut [[f64; HIT_LANES]; 3],
    target: [f64; 3],
    src: &SourceSoa,
    j: [usize; HIT_LANES],
    live: usize,
    eps2: f64,
) {
    // One length for all six arrays, so one check covers a slot.
    let n = src.x.len();
    let pos = [&src.x[..n], &src.y[..n], &src.z[..n]];
    let str = [&src.wx[..n], &src.wy[..n], &src.wz[..n]];
    assert!(
        j[0].max(j[1]).max(j[2]).max(j[3]) < n,
        "hit beyond the last slot"
    );
    let (mut d, mut w) = ([[0.0f64; HIT_LANES]; 3], [[0.0f64; HIT_LANES]; 3]);
    for l in 0..HIT_LANES {
        for k in 0..3 {
            d[k][l] = pos[k][j[l]] - target[k];
            w[k][l] = if l < live { str[k][j[l]] } else { 0.0 };
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

#[inline(always)]
fn hits_body(target: [f64; 3], src: &SourceSoa, hits: &[u32], eps2: f64) -> [f64; 3] {
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

/// The lane bodies compiled with AVX2 enabled (256-bit lanes, no FMA).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;

    #[target_feature(enable = "avx2")]
    pub(super) fn block(
        vel: &mut [[f64; 3]],
        targets: &[[f64; 3]],
        sources: &[([f64; 3], [f64; 3])],
        eps2: f64,
    ) {
        block_body(vel, targets, sources, eps2)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn hits(target: [f64; 3], src: &SourceSoa, hits: &[u32], eps2: f64) -> [f64; 3] {
        hits_body(target, src, hits, eps2)
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

/// Velocity at `target` induced by the sources in slots `hits` of `src`
/// (the inner loop of the cutoff solvers). Hit `i` accumulates in lane
/// `i mod 4` and the four lanes are summed `(0 + 1) + (2 + 3)`, so the
/// result depends on the hit order and on nothing else.
pub fn accumulate_hits(target: [f64; 3], src: &SourceSoa, hits: &[u32], eps2: f64) -> [f64; 3] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { avx2::hits(target, src, hits, eps2) };
    }
    hits_body(target, src, hits, eps2)
}

/// Append to `hits` the slots of `run` whose point lies within the
/// cutoff of `target` (`d² ≤ rc2`, inclusive; a NaN distance is no hit):
/// the cheap pass that keeps `sqrt` and `div` off the misses.
pub fn select_within(
    target: [f64; 3],
    src: &SourceSoa,
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
        let d = [x - target[0], y - target[1], z - target[2]];
        // Branch-free compaction: always store, advance only on a hit.
        out[n] = (run.start + k) as u32;
        n += usize::from(d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= rc2);
    }
    hits.truncate(base + n);
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

    fn soa(sources: &[([f64; 3], [f64; 3])]) -> SourceSoa {
        let mut soa = SourceSoa::with_capacity(sources.len());
        for &(p, w) in sources {
            soa.push(p, w);
        }
        soa
    }

    /// Lane remainders on every side of a group boundary, and a long one.
    const LENGTHS: [usize; 11] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 257];

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
        let mut soa = SourceSoa::with_capacity(7);
        for x in [0.0, 0.5, 0.5000001, f64::NAN, -0.5, f64::INFINITY, 0.25] {
            soa.push([x, 0.0, 0.0], [0.0; 3]);
        }
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
    #[should_panic(expected = "hit beyond the last slot")]
    fn a_hit_outside_the_sources_is_refused() {
        let _ = accumulate_hits([0.0; 3], &soa(&sources(5)), &[0, 1, 2, 5], 0.01);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_bodies_match_the_portable_bodies_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let target = [0.1, -0.2, 0.3];
        for eps2 in [0.01, 0.0] {
            for n in LENGTHS {
                let srcs = sources(n.max(4));
                let soa = soa(&srcs);
                let targets: Vec<[f64; 3]> = srcs.iter().take(n).map(|s| s.0).collect();

                let (mut fast, mut portable) = (vec![[1.0; 3]; n], vec![[1.0; 3]; n]);
                // SAFETY: AVX2 support was just verified at runtime.
                unsafe { avx2::block(&mut fast, &targets, &srcs, eps2) };
                block_body(&mut portable, &targets, &srcs, eps2);
                assert_eq!(fast, portable, "block form, {n} targets");

                let hits: Vec<u32> = (0..n).map(|i| ((i * 37) % srcs.len()) as u32).collect();
                // SAFETY: AVX2 support was just verified at runtime.
                let fast = unsafe { avx2::hits(target, &soa, &hits, eps2) };
                assert_eq!(
                    fast,
                    hits_body(target, &soa, &hits, eps2),
                    "gather form, {n} hits"
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

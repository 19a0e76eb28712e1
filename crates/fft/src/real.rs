//! Real-input transforms via Hermitian symmetry.
//!
//! The Z-Model's fields (vorticity, heights, |V|²) are real, so their
//! spectra are Hermitian and half the complex work is redundant.
//! [`RealFft`] maps `n` reals to the `n/2 + 1` bins `0..=n/2` (the rest
//! follow from `X[n−k] = conj(X[k])`) and back. Even `n` uses the
//! pack-two-reals trick: the even/odd samples ride the real/imaginary
//! lanes of one length-`h = n/2` complex transform `Z`, and bins `k` and
//! `h − k` of the spectrum are recombined from `Z[k]` and `Z[h − k]` in
//! the same two slots. The plan picks one of three row paths, once:
//!
//! * **fused** — `h` a power of two `≥ 8`, every length the solver runs.
//!   Forward, the register pass (`kernel::first_pass_from`) reads the
//!   input reals as `h` packed complexes in bit-reversed order straight
//!   into the output row and runs butterfly stages 1–3 there; the later
//!   stages run in place; then bins `k, k + 1` recombine against their
//!   mirrors `h − k, h − k − 1` two per AVX vector. No packing copy, no
//!   swap pass. Inverse, the recombination runs first, in place on the
//!   spectrum, and the register pass reads the spectrum in bit-reversed
//!   order straight into the output reals viewed as `h` complexes, so
//!   there is no unpacking copy either;
//! * **packed** — other even `n` (`h < 8`, or `h` not a power of two and
//!   transformed by Bluestein): the reals are copied into the output
//!   row, transformed there by the half-length plan, and recombined in
//!   place, in scalar code;
//! * **plain** — odd `n`: a length-`n` complex transform through
//!   plan-held scratch, keeping bins `0..=n/2`.
//!
//! All three give what the packed route gives, bit for bit: the fused
//! path performs the same IEEE operations on the same operands in the
//! same order (see the recombination bodies below and `crate::kernel`).
//! [`RealFft::forward_reference_into`] / [`RealFft::inverse_reference_scaled_into`]
//! keep that unfused route — copy, swap pass, every stage on its own,
//! scalar recombination — as the reference for tests and the bench.
//!
//! Entry points: [`RealFft::forward_into`] / [`RealFft::inverse_scaled_into`]
//! transform one row into a caller's slice; [`RealFft::forward_rows`] /
//! [`RealFft::inverse_rows`] transform every row of a row-major buffer
//! onto the end of a caller's vector, writing each output element once
//! (on the fused path the register pass fills the vector's spare
//! capacity; it is never zero-filled first); [`RealFft::forward`] /
//! [`RealFft::inverse`] are allocating one-row wrappers.

use crate::complex::Complex;
use crate::kernel::Body;
use crate::plan::{Direction, Fft, Radix2};
use std::cell::RefCell;
use std::mem::MaybeUninit;

/// Planned real-input FFT of length `n ≥ 1` (half-spectrum output of
/// `n/2 + 1` bins).
pub struct RealFft {
    n: usize,
    kind: Kind,
}

enum Kind {
    /// Even `n` with `h = n/2` a power of two `≥ 8`: the length-`h`
    /// radix-2 plan, the recombination factors `e^{-2πik/n}` for
    /// `k < h`, and the recombination's body.
    Fused {
        half: Radix2,
        twiddles: Vec<Complex>,
        body: Body,
    },
    /// Other even `n`: a length-`h` complex plan plus the recombination
    /// factors.
    Packed {
        half_plan: Fft,
        twiddles: Vec<Complex>,
    },
    /// Odd `n`: the full complex plan and its length-`n` work row.
    Plain {
        plan: Fft,
        scratch: RefCell<Vec<Complex>>,
    },
}

impl RealFft {
    /// Plan for any `n ≥ 1`.
    pub fn new(n: usize) -> Self {
        RealFft::with_body(n, Body::detect())
    }

    /// [`RealFft::new`] with the body of the fused path's register pass
    /// and recombination given.
    pub(crate) fn with_body(n: usize, body: Body) -> Self {
        assert!(n >= 1, "real fft requires length >= 1");
        let h = n / 2;
        let twiddles = || {
            (0..h)
                .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
                .collect()
        };
        let kind = if !n.is_multiple_of(2) {
            Kind::Plain {
                plan: Fft::new(n),
                scratch: RefCell::new(vec![Complex::default(); n]),
            }
        } else if h >= 8 && h.is_power_of_two() {
            Kind::Fused {
                half: Radix2::new(h, body),
                twiddles: twiddles(),
                body,
            }
        } else {
            Kind::Packed {
                half_plan: Fft::new(h),
                twiddles: twiddles(),
            }
        };
        RealFft { n, kind }
    }

    /// Input length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the planned length is zero (never true; kept for API
    /// symmetry with `Fft`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of spectrum bins kept: `n/2 + 1`.
    pub fn bins(&self) -> usize {
        self.n / 2 + 1
    }

    /// Forward transform of `n` reals into the `n/2 + 1` bins of `out`
    /// (unnormalized). Allocation-free.
    pub fn forward_into(&self, input: &[f64], out: &mut [Complex]) {
        assert_eq!(input.len(), self.n, "real fft: length mismatch");
        assert_eq!(out.len(), self.bins(), "real fft: spectrum length mismatch");
        match &self.kind {
            Kind::Fused {
                half,
                twiddles,
                body,
            } => {
                let (z, nyquist) = out.split_at_mut(self.n / 2);
                // SAFETY: `transform_from` writes only transform results
                // into its output.
                let z = unsafe { as_uninit(z) };
                let z = half.transform_from(pairs(input), z, Direction::Forward);
                nyquist[0] = recombine_forward(z, twiddles, *body);
            }
            Kind::Packed {
                half_plan,
                twiddles,
            } => forward_packed(input, out, twiddles, |z| half_plan.forward(z)),
            Kind::Plain { plan, scratch } => {
                let mut z = scratch.borrow_mut();
                for (z, &x) in z.iter_mut().zip(input) {
                    *z = Complex::real(x);
                }
                plan.forward(&mut z);
                out.copy_from_slice(&z[..self.bins()]);
            }
        }
    }

    /// Inverse transform of the `n/2 + 1` bins in `spectrum` into the `n`
    /// reals of `out`: `scale` times the *unnormalized* inverse, so
    /// `scale = 1/n` is the normalized transform and a 2D caller folds
    /// both axes' factors into one pass. `spectrum` is used as work space
    /// and left clobbered; the imaginary parts of the self-conjugate bins
    /// (0 and, for even `n`, `n/2`) are ignored, exactly as taking the
    /// real part of a complex inverse would. Allocation-free.
    pub fn inverse_scaled_into(&self, spectrum: &mut [Complex], out: &mut [f64], scale: f64) {
        assert_eq!(spectrum.len(), self.bins(), "real ifft: length mismatch");
        assert_eq!(out.len(), self.n, "real ifft: output length mismatch");
        match &self.kind {
            Kind::Fused {
                half,
                twiddles,
                body,
            } => {
                recombine_inverse(spectrum, twiddles, scale, *body);
                let z = &spectrum[..self.n / 2];
                // SAFETY: as in `forward_into`.
                let out = unsafe { as_uninit(out) };
                half.transform_from(z, pairs_uninit(out), Direction::Inverse);
            }
            Kind::Packed {
                half_plan,
                twiddles,
            } => inverse_packed(spectrum, out, twiddles, scale, |z| {
                half_plan.inverse_unnormalized(z)
            }),
            Kind::Plain { plan, scratch } => {
                let mut z = scratch.borrow_mut();
                z[0] = Complex::real(spectrum[0].re);
                for k in 1..self.bins() {
                    z[k] = spectrum[k];
                    z[self.n - k] = spectrum[k].conj();
                }
                plan.inverse_unnormalized(&mut z);
                for (x, z) in out.iter_mut().zip(z.iter()) {
                    *x = z.re * scale;
                }
            }
        }
    }

    /// [`RealFft::forward_into`] on every length-`n` row of the row-major
    /// `input`, appended to `out` as row-major `bins()`-bin rows. Each
    /// output element is written once: on the fused path the transform
    /// fills `out`'s spare capacity row by row, with no zero fill first.
    ///
    /// # Panics
    /// Panics if `input` is not a whole number of rows.
    pub fn forward_rows(&self, input: &[f64], out: &mut Vec<Complex>) {
        assert!(
            input.len().is_multiple_of(self.n),
            "real fft: {} reals are not rows of {}",
            input.len(),
            self.n
        );
        let bins = self.bins();
        let len = input.len() / self.n * bins;
        let Kind::Fused {
            half,
            twiddles,
            body,
        } = &self.kind
        else {
            let start = out.len();
            out.resize(start + len, Complex::default());
            for (row, spectrum) in input.chunks_exact(self.n).zip(out[start..].chunks_exact_mut(bins)) {
                self.forward_into(row, spectrum);
            }
            return;
        };
        out.reserve(len);
        for row in input.chunks_exact(self.n) {
            let (z, nyquist) = out.spare_capacity_mut()[..bins].split_at_mut(bins - 1);
            let z = half.transform_from(pairs(row), z, Direction::Forward);
            nyquist[0].write(recombine_forward(z, twiddles, *body));
            // SAFETY: `transform_from` wrote the row's first `bins − 1`
            // slots (it writes every element of its output) and
            // `nyquist[0].write` its last; the capacity was reserved for
            // every row.
            unsafe { out.set_len(out.len() + bins) };
        }
    }

    /// [`RealFft::inverse_scaled_into`] on every `bins()`-bin row of the
    /// row-major `spectrum` (used as work space and left clobbered),
    /// appended to `out` as row-major `n`-real rows, each element written
    /// once as in [`RealFft::forward_rows`].
    ///
    /// # Panics
    /// Panics if `spectrum` is not a whole number of rows.
    pub fn inverse_rows(&self, spectrum: &mut [Complex], scale: f64, out: &mut Vec<f64>) {
        let bins = self.bins();
        assert!(
            spectrum.len().is_multiple_of(bins),
            "real ifft: {} bins are not rows of {bins}",
            spectrum.len()
        );
        let len = spectrum.len() / bins * self.n;
        let Kind::Fused {
            half,
            twiddles,
            body,
        } = &self.kind
        else {
            let start = out.len();
            out.resize(start + len, 0.0);
            for (spec, row) in spectrum
                .chunks_exact_mut(bins)
                .zip(out[start..].chunks_exact_mut(self.n))
            {
                self.inverse_scaled_into(spec, row, scale);
            }
            return;
        };
        out.reserve(len);
        for spec in spectrum.chunks_exact_mut(bins) {
            recombine_inverse(spec, twiddles, scale, *body);
            let row = pairs_uninit(&mut out.spare_capacity_mut()[..self.n]);
            half.transform_from(&spec[..self.n / 2], row, Direction::Inverse);
            // SAFETY: `transform_from` wrote all `n/2` complexes of the
            // row's view, i.e. its `n` reals; the capacity was reserved
            // for every row.
            unsafe { out.set_len(out.len() + self.n) };
        }
    }

    /// [`RealFft::forward_into`] by the unfused route: the reals copied
    /// into `out`, swapped into bit-reversed order, every butterfly stage
    /// a pass of its own, the bins recombined one pair at a time in
    /// scalar code — what a row cost before the register pass. Bitwise
    /// `forward_into` on every path; kept as its reference in tests and
    /// benchmarks.
    pub fn forward_reference_into(&self, input: &[f64], out: &mut [Complex]) {
        match &self.kind {
            Kind::Fused {
                half,
                twiddles,
                body,
            } => {
                assert_eq!(input.len(), self.n, "real fft: length mismatch");
                assert_eq!(out.len(), self.bins(), "real fft: spectrum length mismatch");
                forward_packed(input, out, twiddles, |z| {
                    half.transform_staged(z, Direction::Forward, *body)
                })
            }
            _ => self.forward_into(input, out),
        }
    }

    /// [`RealFft::inverse_scaled_into`] by the unfused route (see
    /// [`RealFft::forward_reference_into`]).
    pub fn inverse_reference_scaled_into(
        &self,
        spectrum: &mut [Complex],
        out: &mut [f64],
        scale: f64,
    ) {
        match &self.kind {
            Kind::Fused {
                half,
                twiddles,
                body,
            } => {
                assert_eq!(spectrum.len(), self.bins(), "real ifft: length mismatch");
                assert_eq!(out.len(), self.n, "real ifft: output length mismatch");
                inverse_packed(spectrum, out, twiddles, scale, |z| {
                    half.transform_staged(z, Direction::Inverse, *body)
                })
            }
            _ => self.inverse_scaled_into(spectrum, out, scale),
        }
    }

    /// Forward transform: `n` reals → `n/2 + 1` spectrum bins.
    pub fn forward(&self, input: &[f64]) -> Vec<Complex> {
        let mut out = vec![Complex::default(); self.bins()];
        self.forward_into(input, &mut out);
        out
    }

    /// Inverse transform: `n/2 + 1` spectrum bins → `n` reals
    /// (normalized by `1/n`).
    pub fn inverse(&self, spectrum: &[Complex]) -> Vec<f64> {
        let mut work = spectrum.to_vec();
        let mut out = vec![0.0; self.n];
        self.inverse_scaled_into(&mut work, &mut out, 1.0 / self.n as f64);
        out
    }
}

/// The unfused forward route of an even length: pack the reals into
/// `out` (even samples in `re`, odd in `im`), `transform` the first
/// `h = n/2` slots in place, recombine in scalar code.
fn forward_packed(
    input: &[f64],
    out: &mut [Complex],
    twiddles: &[Complex],
    transform: impl FnOnce(&mut [Complex]),
) {
    let h = out.len() - 1;
    for (z, pair) in out.iter_mut().zip(input.chunks_exact(2)) {
        *z = Complex::new(pair[0], pair[1]);
    }
    transform(&mut out[..h]);
    out[h] = recombine_forward(&mut out[..h], twiddles, Body::Portable);
}

/// The unfused inverse route of an even length: recombine in scalar
/// code, `transform` the first `h` slots in place, unpack them into
/// `out`.
fn inverse_packed(
    spectrum: &mut [Complex],
    out: &mut [f64],
    twiddles: &[Complex],
    scale: f64,
    transform: impl FnOnce(&mut [Complex]),
) {
    let h = spectrum.len() - 1;
    recombine_inverse(spectrum, twiddles, scale, Body::Portable);
    transform(&mut spectrum[..h]);
    for (pair, z) in out.chunks_exact_mut(2).zip(spectrum.iter()) {
        pair[0] = z.re;
        pair[1] = z.im;
    }
}

/// Turn the packed transform `z` (length `h`) into bins `0..h` of the
/// real input's spectrum, in place, and return bin `h`:
/// `X[k] = E[k] + w_k·O[k]` with `E`/`O` the Hermitian split of `Z`.
/// Bins `k` and `h − k` read and write the same two slots, so each pair
/// recombines in place. The loop over `k` is the portable body; with
/// `body == Avx` the vector kernel takes the bins two at a time first and
/// leaves the loop the last odd one.
fn recombine_forward(z: &mut [Complex], twiddles: &[Complex], body: Body) -> Complex {
    let h = z.len();
    assert!(
        twiddles.len() >= h.div_ceil(2),
        "real fft: twiddle table too short"
    );
    let z0 = z[0];
    z[0] = Complex::real(z0.re + z0.im);
    let mut first = 1;
    #[cfg(target_arch = "x86_64")]
    if body == Body::Avx {
        // SAFETY: AVX was detected when `body` was chosen; the kernel
        // touches bins `1..h` of `z` and twiddles `1..h.div_ceil(2)`, both
        // in bounds (asserted above).
        first = unsafe { avx::forward_pairs(z, twiddles) };
    }
    let _ = body;
    for k in first..h.div_ceil(2) {
        let (a, b) = (z[k], z[h - k]);
        let (e, o) = split(a, b.conj());
        z[k] = e + twiddles[k] * o;
        // w_{h−k} = −conj(w_k), and E/O of the mirrored bin are the
        // conjugates.
        z[h - k] = e.conj() - twiddles[k].conj() * o.conj();
    }
    if h >= 2 && h.is_multiple_of(2) {
        // Self-paired middle bin: w = −i collapses to conj.
        z[h / 2] = z[h / 2].conj();
    }
    Complex::real(z0.re - z0.im)
}

/// Invert [`recombine_forward`] in place on the `h + 1` bins of
/// `spectrum`, times `scale`, leaving the packed `Z` in slots `0..h`:
/// `Z[k] = (X[k] + conj X[h−k]) + i·conj(w_k)·(X[k] − conj X[h−k])`, the ½
/// of the E/O split absorbed by the half-length transform's missing
/// factor of two. Portable loop and AVX pairs as in the forward.
fn recombine_inverse(spectrum: &mut [Complex], twiddles: &[Complex], scale: f64, body: Body) {
    let h = spectrum.len() - 1;
    assert!(
        twiddles.len() >= h.div_ceil(2),
        "real ifft: twiddle table too short"
    );
    let (x0, xh) = (spectrum[0].re, spectrum[h].re);
    spectrum[0] = Complex::new(x0 + xh, x0 - xh).scale(scale);
    let mut first = 1;
    #[cfg(target_arch = "x86_64")]
    if body == Body::Avx {
        // SAFETY: AVX was detected when `body` was chosen; the kernel
        // touches bins `1..h` of `spectrum` and twiddles
        // `1..h.div_ceil(2)`, both in bounds (asserted above).
        first = unsafe { avx::inverse_pairs(&mut spectrum[..h], twiddles, scale) };
    }
    let _ = body;
    for k in first..h.div_ceil(2) {
        let (a, b) = (spectrum[k], spectrum[h - k]);
        let sum = a + b.conj();
        let rot = (a - b.conj()) * twiddles[k].conj();
        // Z[k] = E + iO and, E and O being spectra of real signals,
        // Z[h−k] = conj(E) + i·conj(O) = conj(E) − conj(iO).
        let irot = Complex::new(-rot.im, rot.re);
        spectrum[k] = (sum + irot).scale(scale);
        spectrum[h - k] = (sum.conj() - irot.conj()).scale(scale);
    }
    if h >= 2 && h.is_multiple_of(2) {
        spectrum[h / 2] = spectrum[h / 2].conj().scale(2.0 * scale);
    }
}

/// Hermitian split of a packed bin pair: `E = (a + b)/2` and
/// `O = −i·(a − b)/2`, where `b` is the conjugated mirror bin.
#[inline]
fn split(a: Complex, b: Complex) -> (Complex, Complex) {
    let d = a - b;
    ((a + b).scale(0.5), Complex::new(d.im * 0.5, -d.re * 0.5))
}

// The reals ↔ complexes views below rely on this layout.
const _: () = assert!(std::mem::size_of::<Complex>() == 16 && std::mem::align_of::<Complex>() == 8);

/// `2h` reals as the `h` complexes `(x[2i], x[2i + 1])`.
fn pairs(x: &[f64]) -> &[Complex] {
    assert!(x.len().is_multiple_of(2), "real fft: odd number of reals");
    // SAFETY: `Complex` is `#[repr(C)]` over two `f64`s, size 16 and
    // align 8, so the `2h` reals at `x` are exactly `h` complexes.
    unsafe { std::slice::from_raw_parts(x.as_ptr().cast::<Complex>(), x.len() / 2) }
}

/// [`pairs`] for slots still to be written.
fn pairs_uninit(x: &mut [MaybeUninit<f64>]) -> &mut [MaybeUninit<Complex>] {
    assert!(x.len().is_multiple_of(2), "real ifft: odd number of reals");
    // SAFETY: as in `pairs` (`MaybeUninit<T>` has `T`'s layout): `2h`
    // real slots are exactly `h` complex slots.
    unsafe { std::slice::from_raw_parts_mut(x.as_mut_ptr().cast(), x.len() / 2) }
}

/// Initialized values seen as slots, for a pass that only writes
/// initialized values through them (`kernel::first_pass_from`).
///
/// # Safety
/// No uninitialized value may be written through the returned view.
unsafe fn as_uninit<T>(x: &mut [T]) -> &mut [MaybeUninit<T>] {
    // SAFETY: `MaybeUninit<T>` has `T`'s layout; the caller writes only
    // initialized values through the view.
    unsafe { &mut *(x as *mut [T] as *mut [MaybeUninit<T>]) }
}

/// The recombination, two bins per `__m256d`: bins `k, k + 1` in one
/// register, their mirrors `h − k, h − k − 1` loaded as one and swapped
/// into the same order. Each lane performs the scalar loop's IEEE
/// operations on the same operands in the same order, with two exact
/// rewrites of the forward mirror (`(−x)·y ≡ −(x·y)`, `(−x)·(−y) ≡ x·y`):
/// `conj(w)·conj(o)` is formed from the products `w·o` already holds,
/// negated, and summed as the scalar sums them, `(−u) + (−v)` — *not* as
/// `−(u + v)`, which differs from it in the sign of an exact zero.
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::Complex;
    use core::arch::x86_64::*;

    /// Sign bits of the imaginary lanes / of the real lanes.
    const IM: [f64; 4] = [0.0, -0.0, 0.0, -0.0];
    const RE: [f64; 4] = [-0.0, 0.0, -0.0, 0.0];

    /// `[p, q]` → `[q, p]`: the register's two complexes exchanged.
    ///
    /// # Safety
    /// AVX: only the `#[target_feature(enable = "avx")]` kernels below
    /// call it. It touches no memory.
    #[inline(always)]
    unsafe fn swap(v: __m256d) -> __m256d {
        _mm256_permute2f128_pd(v, v, 0x01)
    }

    /// `[re, im]` → `[im, re]` in each complex.
    ///
    /// # Safety
    /// AVX: only the `#[target_feature(enable = "avx")]` kernels below
    /// call it. It touches no memory.
    #[inline(always)]
    unsafe fn flip(v: __m256d) -> __m256d {
        _mm256_permute_pd(v, 0b0101)
    }

    /// Per-lane `x·y` with `Complex`'s `Mul` operations in its order:
    /// `[xr·yr − xi·yi, xr·yi + xi·yr]`.
    ///
    /// # Safety
    /// AVX: only the `#[target_feature(enable = "avx")]` kernels below
    /// call it. It touches no memory.
    #[inline(always)]
    unsafe fn mul(x: __m256d, y: __m256d) -> __m256d {
        let (xr, xi) = (_mm256_unpacklo_pd(x, x), _mm256_unpackhi_pd(x, x));
        _mm256_addsub_pd(_mm256_mul_pd(xr, y), _mm256_mul_pd(xi, flip(y)))
    }

    /// Forward recombination of the bin pairs `(k, k + 1)`, `k = 1, 3, …`,
    /// while `k + 1 < h.div_ceil(2)`; returns the first `k` left to the
    /// scalar loop.
    ///
    /// # Safety
    /// AVX; `twiddles.len() ≥ z.len().div_ceil(2)`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn forward_pairs(z: &mut [Complex], twiddles: &[Complex]) -> usize {
        let h = z.len();
        let (p, tw) = (
            z.as_mut_ptr().cast::<f64>(),
            twiddles.as_ptr().cast::<f64>(),
        );
        let (im, half) = (_mm256_loadu_pd(IM.as_ptr()), _mm256_set1_pd(0.5));
        let mut k = 1;
        while k + 1 < h.div_ceil(2) {
            let a = _mm256_loadu_pd(p.add(2 * k));
            let b = swap(_mm256_loadu_pd(p.add(2 * (h - k - 1))));
            // split(a, conj b): e = (a + b̄)·½, o = [d.im·½, (−d.re)·½].
            let bc = _mm256_xor_pd(b, im);
            let e = _mm256_mul_pd(_mm256_add_pd(a, bc), half);
            let d = _mm256_sub_pd(a, bc);
            let o = _mm256_mul_pd(_mm256_xor_pd(flip(d), im), half);
            // w·o from x = [wr·or, wr·oi] and y = [wi·oi, wi·or].
            let w = _mm256_loadu_pd(tw.add(2 * k));
            let x = _mm256_mul_pd(_mm256_unpacklo_pd(w, w), o);
            let y = _mm256_mul_pd(_mm256_unpackhi_pd(w, w), flip(o));
            _mm256_storeu_pd(p.add(2 * k), _mm256_add_pd(e, _mm256_addsub_pd(x, y)));
            // conj(w)·conj(o) = [wr·or − (−wi)·(−oi), wr·(−oi) + (−wi)·or].
            let q = _mm256_addsub_pd(_mm256_xor_pd(x, im), _mm256_xor_pd(y, im));
            let m = _mm256_sub_pd(_mm256_xor_pd(e, im), q);
            _mm256_storeu_pd(p.add(2 * (h - k - 1)), swap(m));
            k += 2;
        }
        k
    }

    /// Inverse recombination of the bin pairs `(k, k + 1)` of the first
    /// `h = z.len()` bins, as [`forward_pairs`]; returns the first `k`
    /// left to the scalar loop.
    ///
    /// # Safety
    /// AVX; `twiddles.len() ≥ z.len().div_ceil(2)`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn inverse_pairs(
        z: &mut [Complex],
        twiddles: &[Complex],
        scale: f64,
    ) -> usize {
        let h = z.len();
        let (p, tw) = (
            z.as_mut_ptr().cast::<f64>(),
            twiddles.as_ptr().cast::<f64>(),
        );
        let (im, re) = (_mm256_loadu_pd(IM.as_ptr()), _mm256_loadu_pd(RE.as_ptr()));
        let scale = _mm256_set1_pd(scale);
        let mut k = 1;
        while k + 1 < h.div_ceil(2) {
            let a = _mm256_loadu_pd(p.add(2 * k));
            let bc = _mm256_xor_pd(swap(_mm256_loadu_pd(p.add(2 * (h - k - 1)))), im);
            let sum = _mm256_add_pd(a, bc);
            let rot = mul(
                _mm256_sub_pd(a, bc),
                _mm256_xor_pd(_mm256_loadu_pd(tw.add(2 * k)), im),
            );
            let irot = _mm256_xor_pd(flip(rot), re); // [−rot.im, rot.re]
            let lo = _mm256_mul_pd(_mm256_add_pd(sum, irot), scale);
            let mirror = _mm256_sub_pd(_mm256_xor_pd(sum, im), _mm256_xor_pd(irot, im));
            _mm256_storeu_pd(p.add(2 * k), lo);
            _mm256_storeu_pd(p.add(2 * (h - k - 1)), swap(_mm256_mul_pd(mirror, scale)));
            k += 2;
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_naive;

    fn real_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.73).sin() + 0.2 * i as f64)
            .collect()
    }

    #[test]
    fn rfft_matches_naive_dft_half_spectrum() {
        // Even (radix-2 and Bluestein half plans) and odd lengths.
        for n in [1usize, 2, 3, 4, 6, 7, 8, 9, 10, 12, 15, 16, 64, 100, 128] {
            let x = real_signal(n);
            let plan = RealFft::new(n);
            let half = plan.forward(&x);
            let full = dft_naive(&x.iter().map(|&v| Complex::real(v)).collect::<Vec<_>>());
            assert_eq!(half.len(), n / 2 + 1);
            for k in 0..=n / 2 {
                assert!(
                    (half[k] - full[k]).abs() < 1e-9 * (1.0 + full[k].abs()),
                    "n={n} k={k}: {} vs {}",
                    half[k],
                    full[k]
                );
            }
        }
    }

    #[test]
    fn rfft_roundtrip() {
        for n in [1usize, 2, 3, 4, 5, 6, 8, 9, 32, 99, 100] {
            let x = real_signal(n);
            let plan = RealFft::new(n);
            let back = plan.inverse(&plan.forward(&x));
            for (a, b) in back.iter().zip(&x) {
                assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "n={n}");
            }
        }
    }

    #[test]
    fn inverse_scale_is_applied_once_to_the_unnormalized_transform() {
        for n in [8usize, 9, 12, 32] {
            let x = real_signal(n);
            let plan = RealFft::new(n);
            let spec = plan.forward(&x);
            let mut out = vec![0.0; n];
            plan.inverse_scaled_into(&mut spec.clone(), &mut out, 3.0);
            for (a, b) in out.iter().zip(&x) {
                assert!((a - 3.0 * n as f64 * b).abs() < 1e-9 * (1.0 + b.abs()) * n as f64);
            }
        }
    }

    #[test]
    fn inverse_ignores_imaginary_parts_of_self_conjugate_bins() {
        for n in [8usize, 9, 32] {
            let plan = RealFft::new(n);
            let clean = plan.forward(&real_signal(n));
            let mut dirty = clean.clone();
            dirty[0].im = 0.37;
            if n % 2 == 0 {
                dirty[n / 2].im = -1.1;
            }
            assert_eq!(plan.inverse(&clean), plan.inverse(&dirty), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "length >= 1")]
    fn zero_length_rejected() {
        let _ = RealFft::new(0);
    }
}

/// Bitwise checks of the fused path against the unfused reference route
/// and of the AVX bodies against the portable ones.
#[cfg(test)]
mod fused_tests {
    use super::*;

    /// Every power of two 16..=4096 (fused), the short lengths 2, 4, 8
    /// and the unchanged even (6, 10, 100: Bluestein halves) and odd
    /// paths.
    fn lengths() -> impl Iterator<Item = usize> {
        (4..=12)
            .map(|e| 1usize << e)
            .chain([2, 4, 8, 6, 10, 100, 9, 33])
    }

    /// What a generated input row is made of.
    #[derive(Clone, Copy, Debug)]
    enum Values {
        /// Full-entropy mantissas over forty binades.
        Entropy,
        /// A few exact values (±0, ±1, 2, ½, the smallest subnormal):
        /// butterflies cancel exactly and produce signed zeros.
        Exact,
        /// Signed zeros only: every bin an exact zero, its sign decided
        /// by the order of operations.
        Zeros,
        /// Entropy scaled into the subnormal range.
        Subnormal,
        /// Entropy with an infinity and, for odd seeds, a NaN.
        NonFinite,
    }

    const VALUES: [Values; 5] = [
        Values::Entropy,
        Values::Exact,
        Values::Zeros,
        Values::Subnormal,
        Values::NonFinite,
    ];

    fn input(n: usize, seed: u64, values: Values) -> Vec<f64> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut x: Vec<f64> = (0..n)
            .map(|_| {
                let r = next();
                let v = (r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
                let v = v * 2f64.powi((r % 41) as i32 - 20);
                match values {
                    Values::Exact => {
                        [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 5e-324, -0.0][(r % 8) as usize]
                    }
                    Values::Zeros => [0.0, -0.0][(r % 2) as usize],
                    Values::Subnormal => v * 2f64.powi(-1050),
                    _ => v,
                }
            })
            .collect();
        if let (Values::NonFinite, true) = (values, n > 0) {
            x[seed as usize % n] = if seed % 4 < 2 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
            if seed % 2 == 1 {
                x[(seed as usize / 2) % n] = f64::NAN;
            }
        }
        x
    }

    /// Bit patterns, with every NaN one pattern: IEEE 754 leaves the sign
    /// and payload of a NaN result to the implementation, and the
    /// compiler may commute the operands of `+` and `×` in the scalar
    /// code, which changes which NaN propagates.
    fn bits(v: impl IntoIterator<Item = f64>) -> Vec<u64> {
        v.into_iter()
            .map(|x| {
                if x.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            })
            .collect()
    }

    fn spectrum_bits(v: &[Complex]) -> Vec<u64> {
        bits(v.iter().flat_map(|z| [z.re, z.im]))
    }

    const SCALES: [f64; 4] = [1.0, 1.0 / 65536.0, -3.0, 1.0 / 3.0];

    /// The forward and inverse of `plan` on one input, by the fused
    /// entry points and by the reference route.
    fn both_routes(plan: &RealFft, x: &[f64], scale: f64) -> [(Vec<u64>, Vec<u64>); 2] {
        let bins = plan.bins();
        let mut fused = vec![Complex::default(); bins];
        plan.forward_into(x, &mut fused);
        let mut reference = vec![Complex::default(); bins];
        plan.forward_reference_into(x, &mut reference);
        let mut back = vec![0.0; x.len()];
        plan.inverse_scaled_into(&mut fused.clone(), &mut back, scale);
        let mut back_ref = vec![0.0; x.len()];
        plan.inverse_reference_scaled_into(&mut reference.clone(), &mut back_ref, scale);
        [
            (spectrum_bits(&fused), bits(back)),
            (spectrum_bits(&reference), bits(back_ref)),
        ]
    }

    #[test]
    fn fused_rows_are_bitwise_the_unfused_reference() {
        for n in lengths() {
            let plan = RealFft::new(n);
            for values in VALUES {
                for seed in 1..=4 {
                    for scale in SCALES {
                        let x = input(n, seed * 7919 + n as u64, values);
                        let [fused, reference] = both_routes(&plan, &x, scale);
                        assert_eq!(
                            fused, reference,
                            "n={n} {values:?} seed={seed} scale={scale}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn inverse_of_arbitrary_spectra_is_bitwise_the_reference() {
        // Spectra that are not the transform of anything real: every
        // bin, including the self-conjugate ones, from the generator.
        for n in lengths() {
            let plan = RealFft::new(n);
            for values in VALUES {
                let raw = input(2 * plan.bins(), 31 + n as u64, values);
                let spec: Vec<Complex> = raw
                    .chunks_exact(2)
                    .map(|p| Complex::new(p[0], p[1]))
                    .collect();
                for scale in SCALES {
                    let (mut fused, mut reference) = (vec![0.0; n], vec![0.0; n]);
                    plan.inverse_scaled_into(&mut spec.clone(), &mut fused, scale);
                    plan.inverse_reference_scaled_into(&mut spec.clone(), &mut reference, scale);
                    assert_eq!(
                        bits(fused),
                        bits(reference),
                        "n={n} {values:?} scale={scale}"
                    );
                }
            }
        }
    }

    #[test]
    fn avx_bodies_are_bitwise_the_portable_bodies() {
        if Body::detect() != Body::Avx {
            return;
        }
        for n in lengths() {
            let (avx, portable) = (
                RealFft::with_body(n, Body::Avx),
                RealFft::with_body(n, Body::Portable),
            );
            for values in VALUES {
                let x = input(n, 97 + n as u64, values);
                let a = both_routes(&avx, &x, 0.25);
                let p = both_routes(&portable, &x, 0.25);
                assert_eq!(a[0], p[0], "n={n} {values:?}");
            }
        }
    }

    #[test]
    fn recombination_bodies_are_bitwise_on_any_bins() {
        // Arbitrary packed bins, not only transforms of real rows: every
        // sign pattern of exact zeros reaches the vector lanes (the
        // transform tests above never produce some of them).
        if Body::detect() != Body::Avx {
            return;
        }
        for h in [8usize, 16, 64, 2048] {
            let n = 2 * h;
            let tw: Vec<Complex> = (0..h)
                .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
                .collect();
            for values in VALUES {
                let raw = input(2 * (h + 1), 71 + h as u64, values);
                let bins: Vec<Complex> = raw
                    .chunks_exact(2)
                    .map(|p| Complex::new(p[0], p[1]))
                    .collect();
                let forward = |body| {
                    let mut z = bins[..h].to_vec();
                    let nyquist = recombine_forward(&mut z, &tw, body);
                    z.push(nyquist);
                    spectrum_bits(&z)
                };
                let f = (forward(Body::Avx), forward(Body::Portable));
                assert_eq!(f.0, f.1, "forward h={h} {values:?}");
                let inverse = |body| {
                    let mut z = bins.clone();
                    recombine_inverse(&mut z, &tw, 0.75, body);
                    spectrum_bits(&z)
                };
                let i = (inverse(Body::Avx), inverse(Body::Portable));
                assert_eq!(i.0, i.1, "inverse h={h} {values:?}");
            }
        }
    }

    #[test]
    fn row_batches_are_bitwise_row_by_row() {
        for n in lengths() {
            let plan = RealFft::new(n);
            let bins = plan.bins();
            for rows in [0usize, 1, 3] {
                let x = input(rows * n, 5 + n as u64, Values::Exact);
                let mut batch = Vec::new();
                plan.forward_rows(&x, &mut batch);
                let mut one_by_one = vec![Complex::default(); rows * bins];
                for (row, out) in x.chunks_exact(n).zip(one_by_one.chunks_exact_mut(bins)) {
                    plan.forward_reference_into(row, out);
                }
                assert_eq!(spectrum_bits(&batch), spectrum_bits(&one_by_one), "n={n}");
                let mut back = Vec::new();
                plan.inverse_rows(&mut batch.clone(), 0.5, &mut back);
                let mut back_ref = vec![0.0; rows * n];
                for (spec, out) in one_by_one
                    .chunks_exact_mut(bins)
                    .zip(back_ref.chunks_exact_mut(n))
                {
                    plan.inverse_reference_scaled_into(spec, out, 0.5);
                }
                assert_eq!(bits(back), bits(back_ref), "n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fused_forward_rejects_a_short_input() {
        let plan = RealFft::new(64);
        plan.forward_into(&[0.0; 62], &mut [Complex::default(); 33]);
    }

    #[test]
    #[should_panic(expected = "spectrum length mismatch")]
    fn fused_forward_rejects_a_short_spectrum() {
        let plan = RealFft::new(64);
        plan.forward_into(&[0.0; 64], &mut [Complex::default(); 32]);
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn fused_inverse_rejects_a_short_output() {
        let plan = RealFft::new(64);
        plan.inverse_scaled_into(&mut [Complex::default(); 33], &mut [0.0; 63], 1.0);
    }

    #[test]
    #[should_panic(expected = "are not rows of 64")]
    fn forward_rows_rejects_a_ragged_input() {
        RealFft::new(64).forward_rows(&[0.0; 130], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "are not rows of 33")]
    fn inverse_rows_rejects_a_ragged_spectrum() {
        RealFft::new(64).inverse_rows(&mut [Complex::default(); 34], 1.0, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "odd number of reals")]
    fn the_complex_view_rejects_an_odd_count() {
        let _ = pairs(&[0.0; 7]);
    }

    #[test]
    #[should_panic(expected = "odd number of reals")]
    fn the_slot_view_rejects_an_odd_count() {
        let _ = pairs_uninit(&mut [MaybeUninit::new(0.0); 7]);
    }

    #[test]
    #[should_panic(expected = "twiddle table too short")]
    fn the_recombination_rejects_a_short_twiddle_table() {
        let _ = recombine_forward(
            &mut [Complex::default(); 16],
            &[Complex::default(); 7],
            Body::detect(),
        );
    }
}

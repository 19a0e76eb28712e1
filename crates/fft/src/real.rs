//! Real-input transforms via Hermitian symmetry.
//!
//! The Z-Model's fields (vorticity, heights, |V|²) are real, so their
//! spectra are Hermitian and half the complex work is redundant.
//! [`RealFft`] maps `n` reals to the `n/2 + 1` bins `0..=n/2` (the rest
//! follow from `X[n−k] = conj(X[k])`) and back, with one of two row
//! kernels behind the same entry points:
//!
//! * even `n` — the classic pack-two-reals trick: the even/odd samples
//!   ride the real/imaginary lanes of one length-`n/2` complex
//!   transform, recombined **in place** in the output slice, so a row
//!   costs no allocation and half the butterflies;
//! * odd `n` — a plain length-`n` complex transform through plan-held
//!   scratch, keeping bins `0..=n/2`.
//!
//! [`RealFft::forward_into`] / [`RealFft::inverse_scaled_into`] are the
//! slice entry points the distributed row transforms call once per row;
//! [`RealFft::forward`] / [`RealFft::inverse`] are allocating wrappers.

use crate::complex::Complex;
use crate::plan::Fft;
use std::cell::RefCell;

/// Planned real-input FFT of length `n ≥ 1` (half-spectrum output of
/// `n/2 + 1` bins).
pub struct RealFft {
    n: usize,
    kind: Kind,
}

enum Kind {
    /// Even `n`: a length-`n/2` complex plan plus the recombination
    /// factors `e^{-2πik/n}` for `k < n/2`.
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
        assert!(n >= 1, "real fft requires length >= 1");
        let kind = if n.is_multiple_of(2) {
            Kind::Packed {
                half_plan: Fft::new(n / 2),
                twiddles: (0..n / 2)
                    .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
                    .collect(),
            }
        } else {
            Kind::Plain {
                plan: Fft::new(n),
                scratch: RefCell::new(vec![Complex::default(); n]),
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
            Kind::Packed {
                half_plan,
                twiddles,
            } => {
                let h = self.n / 2;
                // Even samples in re, odd in im; transform in place in
                // the first h output slots.
                for (z, pair) in out.iter_mut().zip(input.chunks_exact(2)) {
                    *z = Complex::new(pair[0], pair[1]);
                }
                half_plan.forward(&mut out[..h]);
                // X[k] = E[k] + w_k·O[k] with E/O the Hermitian split of
                // the packed transform Z; bins k and h−k read and write
                // the same two slots, so each pair recombines in place.
                let z0 = out[0];
                out[0] = Complex::real(z0.re + z0.im);
                out[h] = Complex::real(z0.re - z0.im);
                for k in 1..h.div_ceil(2) {
                    let (a, b) = (out[k], out[h - k]);
                    let (e, o) = split(a, b.conj());
                    out[k] = e + twiddles[k] * o;
                    // w_{h−k} = −conj(w_k), and E/O of the mirrored bin
                    // are the conjugates.
                    out[h - k] = e.conj() - twiddles[k].conj() * o.conj();
                }
                if h >= 2 && h.is_multiple_of(2) {
                    // Self-paired middle bin: w = −i collapses to conj.
                    out[h / 2] = out[h / 2].conj();
                }
            }
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
            Kind::Packed {
                half_plan,
                twiddles,
            } => {
                let h = self.n / 2;
                // Invert the recombination pairwise in place:
                // Z[k] = (X[k] + conj X[h−k]) + i·conj(w_k)·(X[k] − conj X[h−k]),
                // the ½ of the E/O split absorbed by the half-length
                // transform's missing factor of two.
                let (x0, xh) = (spectrum[0].re, spectrum[h].re);
                spectrum[0] = Complex::new(x0 + xh, x0 - xh).scale(scale);
                for k in 1..h.div_ceil(2) {
                    let (a, b) = (spectrum[k], spectrum[h - k]);
                    let sum = a + b.conj();
                    let rot = (a - b.conj()) * twiddles[k].conj();
                    // Z[k] = E + iO and, E and O being spectra of real
                    // signals, Z[h−k] = conj(E) + i·conj(O) = conj(E) − conj(iO).
                    let irot = Complex::new(-rot.im, rot.re);
                    spectrum[k] = (sum + irot).scale(scale);
                    spectrum[h - k] = (sum.conj() - irot.conj()).scale(scale);
                }
                if h >= 2 && h.is_multiple_of(2) {
                    spectrum[h / 2] = spectrum[h / 2].conj().scale(2.0 * scale);
                }
                half_plan.inverse_unnormalized(&mut spectrum[..h]);
                for (pair, z) in out.chunks_exact_mut(2).zip(spectrum.iter()) {
                    pair[0] = z.re;
                    pair[1] = z.im;
                }
            }
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

/// Hermitian split of a packed bin pair: `E = (a + b)/2` and
/// `O = −i·(a − b)/2`, where `b` is the conjugated mirror bin.
#[inline]
fn split(a: Complex, b: Complex) -> (Complex, Complex) {
    let d = a - b;
    ((a + b).scale(0.5), Complex::new(d.im * 0.5, -d.re * 0.5))
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
        for n in [8usize, 9, 12] {
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
        for n in [8usize, 9] {
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

//! Randomized-property tests of the FFT stack over arbitrary lengths
//! and signals (both the radix-2 and Bluestein paths, the 2D transform,
//! and the real-input helpers). Cases are generated with the workspace's
//! deterministic PRNG — same coverage shape as the former proptest
//! version, but reproducible byte-for-byte on every run and hermetic
//! (no registry dependencies).

use beatnik_fft::dft::dft_naive;
use beatnik_fft::real::RealFft;
use beatnik_fft::{Complex, Fft, Fft2d};
use beatnik_prng::Rng;

/// A random signal with `1..max_len` elements in `[-1e3, 1e3)²`.
fn signal(rng: &mut Rng, max_len: usize) -> Vec<Complex> {
    let n = rng.gen_index(1..max_len);
    (0..n)
        .map(|_| Complex::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3)))
        .collect()
}

fn reals(rng: &mut Rng, lo: usize, hi: usize) -> Vec<f64> {
    let n = rng.gen_index(lo..hi);
    (0..n).map(|_| rng.gen_range(-1e3..1e3)).collect()
}

const CASES: usize = 96;

#[test]
fn roundtrip_identity_any_length() {
    let mut rng = Rng::seed_from_u64(0xFF7_0001);
    for _ in 0..CASES {
        let x = signal(&mut rng, 300);
        let plan = Fft::new(x.len());
        let mut buf = x.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-7 * (1.0 + b.abs()), "len {}", x.len());
        }
    }
}

#[test]
fn unnormalized_inverse_scales_by_n() {
    let mut rng = Rng::seed_from_u64(0xFF7_0002);
    for _ in 0..CASES {
        let x = signal(&mut rng, 120);
        let n = x.len();
        let plan = Fft::new(n);
        let mut a = x.clone();
        plan.inverse(&mut a);
        let mut b = x;
        plan.inverse_unnormalized(&mut b);
        for (u, v) in a.iter().zip(&b) {
            assert!((u.scale(n as f64) - *v).abs() < 1e-6 * (1.0 + v.abs()));
        }
    }
}

#[test]
fn linearity_of_forward_transform() {
    let mut rng = Rng::seed_from_u64(0xFF7_0003);
    for _ in 0..CASES {
        let x = signal(&mut rng, 100);
        let alpha = rng.gen_range(-10.0..10.0);
        let plan = Fft::new(x.len());
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut fax: Vec<Complex> = x.iter().map(|z| z.scale(alpha)).collect();
        plan.forward(&mut fax);
        for (a, b) in fax.iter().zip(&fx) {
            assert!((*a - b.scale(alpha)).abs() < 1e-6 * (1.0 + b.abs() * alpha.abs()));
        }
    }
}

#[test]
fn small_sizes_match_naive_dft() {
    let mut rng = Rng::seed_from_u64(0xFF7_0004);
    for _ in 0..CASES {
        let x = signal(&mut rng, 48);
        let plan = Fft::new(x.len());
        let mut fast = x.clone();
        plan.forward(&mut fast);
        let slow = dft_naive(&x);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((*a - *b).abs() < 1e-6 * (1.0 + b.abs()), "len {}", x.len());
        }
    }
}

#[test]
fn fft2d_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xFF7_0005);
    for _ in 0..CASES {
        let vals = reals(&mut rng, 1, 100);
        // Shape the flat vector into rows x cols (truncate remainder).
        let rows = rng.gen_index(1..10).min(vals.len());
        let cols = vals.len() / rows;
        if cols == 0 {
            continue;
        }
        let data: Vec<Complex> = vals[..rows * cols]
            .iter()
            .map(|&v| Complex::real(v))
            .collect();
        let plan = Fft2d::new(rows, cols);
        let mut buf = data.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&data) {
            assert!((*a - *b).abs() < 1e-7 * (1.0 + b.abs()), "{rows}x{cols}");
        }
    }
}

#[test]
fn real_fft_roundtrip_any_length() {
    let mut rng = Rng::seed_from_u64(0xFF7_0006);
    for _ in 0..CASES {
        let x = reals(&mut rng, 1, 120);
        let n = x.len();
        let plan = RealFft::new(n);
        let back = plan.inverse(&plan.forward(&x));
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-7 * (1.0 + b.abs()), "n {n}");
        }
    }
}

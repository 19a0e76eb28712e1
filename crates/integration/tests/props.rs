//! Randomized-property tests on the core invariants of the numerical
//! substrates: FFT algebra, neighbor-search equivalence, layout
//! partitioning, collective/serial agreement, and kernel antisymmetry.
//! Cases come from the workspace's deterministic PRNG — reproducible
//! and hermetic.

use beatnik_comm::{AllToAllAlgo, World};
use beatnik_core::br::kernel::br_pair_velocity;
use beatnik_dfft::{Dist, Rect};
use beatnik_fft::{dft::dft_naive, Complex, Fft};
use beatnik_prng::Rng;
use beatnik_spatial::neighbors::{brute_force_neighbors, Backend, NeighborList};

fn complex_signal(rng: &mut Rng, max_len: usize) -> Vec<Complex> {
    let n = rng.gen_index(1..max_len);
    (0..n)
        .map(|_| Complex::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0)))
        .collect()
}

fn cloud(rng: &mut Rng, max_n: usize) -> Vec<[f64; 3]> {
    let n = rng.gen_index(0..max_n);
    (0..n)
        .map(|_| {
            [
                rng.gen_range(-5.0..5.0),
                rng.gen_range(-5.0..5.0),
                rng.gen_range(-1.0..1.0),
            ]
        })
        .collect()
}

/// forward→inverse is the identity for every length (radix-2 and
/// Bluestein paths).
#[test]
fn fft_roundtrip_is_identity() {
    let mut rng = Rng::seed_from_u64(0x177_0001);
    for _ in 0..64 {
        let x = complex_signal(&mut rng, 200);
        let plan = Fft::new(x.len());
        let mut buf = x.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-8 * (1.0 + b.abs()), "len {}", x.len());
        }
    }
}

/// The fast transform agrees with the O(n²) DFT.
#[test]
fn fft_matches_naive_dft() {
    let mut rng = Rng::seed_from_u64(0x177_0002);
    for _ in 0..64 {
        let x = complex_signal(&mut rng, 64);
        let plan = Fft::new(x.len());
        let mut fast = x.clone();
        plan.forward(&mut fast);
        let slow = dft_naive(&x);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((*a - *b).abs() < 1e-6 * (1.0 + b.abs()), "len {}", x.len());
        }
    }
}

/// Parseval: energy is conserved up to the 1/n normalization.
#[test]
fn fft_parseval() {
    let mut rng = Rng::seed_from_u64(0x177_0003);
    for _ in 0..64 {
        let x = complex_signal(&mut rng, 128);
        let n = x.len() as f64;
        let plan = Fft::new(x.len());
        let mut spec = x.clone();
        plan.forward(&mut spec);
        let e_time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let e_freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n;
        assert!((e_time - e_freq).abs() < 1e-6 * (1.0 + e_time));
    }
}

/// The cell-binned neighbour list equals brute force exactly
/// (identical CSR lists after per-target sorting).
#[test]
fn neighbor_backends_equal_brute_force() {
    let mut rng = Rng::seed_from_u64(0x177_0004);
    for _ in 0..48 {
        let targets = cloud(&mut rng, 40);
        let sources = cloud(&mut rng, 60);
        let radius = rng.gen_range(0.1..3.0);
        let want = brute_force_neighbors(&targets, &sources, radius);
        let got = NeighborList::build(&targets, &sources, radius, Backend::Grid);
        assert_eq!(got, want);
    }
}

/// Balanced distributions partition exactly with near-equal parts.
#[test]
fn dist_partitions_perfectly() {
    let mut rng = Rng::seed_from_u64(0x177_0005);
    for _ in 0..48 {
        let n = rng.gen_index(0..10_000);
        let parts = rng.gen_index(1..64);
        let d = Dist::new(n, parts);
        let mut covered = 0usize;
        for i in 0..parts {
            let r = d.range(i);
            assert_eq!(r.start, covered);
            covered = r.end;
            assert!(r.len() >= n / parts);
            assert!(r.len() <= n / parts + 1);
        }
        assert_eq!(covered, n, "n {n}, parts {parts}");
    }
}

/// Rectangle intersection is commutative and contained in both.
#[test]
fn rect_intersection_properties() {
    let mut rng = Rng::seed_from_u64(0x177_0006);
    for _ in 0..48 {
        let mut side = || {
            let a = rng.gen_index(0..50);
            let b = rng.gen_index(0..50);
            a.min(b)..a.max(b)
        };
        let r1 = Rect::new(side(), side());
        let r2 = Rect::new(side(), side());
        let i12 = r1.intersect(&r2);
        let i21 = r2.intersect(&r1);
        assert_eq!(i12.area(), i21.area());
        assert!(i12.area() <= r1.area().min(r2.area()));
    }
}

/// The Birkhoff–Rott pair kernel is antisymmetric under exchanging
/// two points carrying equal strengths.
#[test]
fn br_kernel_antisymmetry() {
    let mut rng = Rng::seed_from_u64(0x177_0007);
    for _ in 0..48 {
        let mut v3 = |lo: f64, hi: f64| {
            [
                rng.gen_range(lo..hi),
                rng.gen_range(lo..hi),
                rng.gen_range(lo..hi),
            ]
        };
        let p = v3(-3.0, 3.0);
        let q = v3(-3.0, 3.0);
        let s = v3(-2.0, 2.0);
        let eps = rng.gen_range(0.01..1.0);
        let upq = br_pair_velocity(p, q, s, eps * eps);
        let uqp = br_pair_velocity(q, p, s, eps * eps);
        for k in 0..3 {
            assert!((upq[k] + uqp[k]).abs() < 1e-12 * (1.0 + upq[k].abs()));
        }
    }
}

/// allreduce(sum) equals the serial fold for random per-rank vectors.
/// Threaded cases are costlier; keep the case count low.
#[test]
fn allreduce_equals_serial_fold() {
    let mut rng = Rng::seed_from_u64(0x177_0008);
    for _ in 0..12 {
        let values: Vec<f64> = (0..4).map(|_| rng.gen_range(-1e6..1e6)).collect();
        let expect: f64 = values.iter().sum();
        let v2 = values.clone();
        let results = World::builder(4).run(move |comm| comm.allreduce_sum(v2[comm.rank()]));
        for r in results {
            assert!((r - expect).abs() < 1e-6 * (1.0 + expect.abs()));
        }
    }
}

/// An all-to-allv of uniform blocks delivers exactly the transpose of
/// what was sent.
#[test]
fn alltoall_is_a_transpose() {
    let mut rng = Rng::seed_from_u64(0x177_0009);
    for _ in 0..12 {
        let seed = rng.next_u64() % 1_000_000;
        let results = World::builder(3).run(move |comm| {
            let me = comm.rank() as u64;
            let blocks: Vec<Vec<u64>> = (0..3).map(|d| vec![seed ^ (me * 10 + d as u64)]).collect();
            comm.alltoallv_owned(blocks, AllToAllAlgo::Adaptive)
        });
        for (r, per_rank) in results.into_iter().enumerate() {
            for (src, block) in per_rank.iter().enumerate() {
                assert_eq!(block, &[seed ^ (src as u64 * 10 + r as u64)]);
            }
        }
    }
}

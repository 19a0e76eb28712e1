//! Randomized-property tests of the neighbour search, driven
//! by the workspace's deterministic PRNG (reproducible and hermetic).

use beatnik_prng::Rng;
use beatnik_spatial::neighbors::{brute_force_neighbors, Backend, NeighborList};

/// `0..max_n` random points in the `[-10, 10]² × [-2, 2]` box.
fn points(rng: &mut Rng, max_n: usize) -> Vec<[f64; 3]> {
    let n = rng.gen_index(0..max_n);
    (0..n)
        .map(|_| {
            [
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-2.0..2.0),
            ]
        })
        .collect()
}

const CASES: usize = 48;

#[test]
fn both_backends_equal_brute_force() {
    let mut rng = Rng::seed_from_u64(0x59A_0001);
    for _ in 0..CASES {
        let pts = points(&mut rng, 60);
        let radius = rng.gen_range(0.05..5.0);
        let want = brute_force_neighbors(&pts, &pts, radius);
        let got = NeighborList::build(&pts, &pts, radius, Backend::Grid);
        assert_eq!(got, want, "n {}", pts.len());
    }
}

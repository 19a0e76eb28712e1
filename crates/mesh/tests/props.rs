//! Randomized-property tests of the mesh layer: partitions,
//! halo-exchange correctness on random fields, and spatial ownership.
//! Cases come from the workspace's deterministic PRNG — reproducible
//! and hermetic.

use beatnik_comm::World;
use beatnik_mesh::{split_even, Partition2d, SpatialMesh, SurfaceMesh};
use beatnik_prng::Rng;

const CASES: usize = 64;

#[test]
fn split_even_partitions_exactly() {
    let mut rng = Rng::seed_from_u64(0x3E5_0001);
    for _ in 0..CASES {
        let n = rng.gen_index(0..100_000);
        let parts = rng.gen_index(1..256);
        let mut end = 0;
        for i in 0..parts {
            let r = split_even(n, parts, i);
            assert_eq!(r.start, end);
            end = r.end;
            assert!(r.len() <= n / parts + 1);
        }
        assert_eq!(end, n, "n {n}, parts {parts}");
    }
}

#[test]
fn partition_owner_is_consistent() {
    let mut rng = Rng::seed_from_u64(0x3E5_0002);
    for _ in 0..CASES {
        let nr = rng.gen_index(4..200);
        let nc = rng.gen_index(4..200);
        let pr = rng.gen_index(1..8);
        let pc = rng.gen_index(1..8);
        let p = Partition2d::with_dims([nr, nc], [pr, pc]);
        let gr = ((nr as f64 * rng.next_f64()) as usize).min(nr - 1);
        let gc = ((nc as f64 * rng.next_f64()) as usize).min(nc - 1);
        let [opr, opc] = p.owner_of(gr, gc);
        assert!(p.rows_of(opr).contains(&gr));
        assert!(p.cols_of(opc).contains(&gc));
    }
}

#[test]
fn spatial_mesh_ranks_within_includes_owner() {
    let mut rng = Rng::seed_from_u64(0x3E5_0003);
    for _ in 0..CASES {
        let x = rng.gen_range(-5.0..5.0);
        let y = rng.gen_range(-5.0..5.0);
        let cutoff = rng.gen_range(0.0..3.0);
        let py = rng.gen_index(1..6);
        let px = rng.gen_index(1..6);
        let m = SpatialMesh::new([-3.0, -3.0, -1.0], [3.0, 3.0, 1.0], [py, px]);
        let p = [x, y, 0.0];
        let own = m.rank_of_point(p);
        let within = m.ranks_within(p, cutoff);
        assert!(within.contains(&own), "{own} not in {within:?}");
        assert!(within.iter().all(|&r| r < m.ranks()));
    }
}

#[test]
fn halo_exchange_delivers_wrapped_values() {
    // World-spawning cases are costlier: fewer of them.
    let mut rng = Rng::seed_from_u64(0x3E5_0005);
    for _ in 0..8 {
        let seed = rng.next_u64() % 1000;
        World::builder(4).run(move |comm| {
            let mesh = SurfaceMesh::new(
                &comm,
                [10, 10],
                [true, true],
                2,
                [0.0, 0.0],
                [1.0, 1.0],
            );
            let mut f = mesh.make_field(1);
            let value = |gr: usize, gc: usize| -> f64 {
                ((gr as u64 * 131 + gc as u64 * 17 + seed) % 1000) as f64
            };
            for (lr, lc, gr, gc) in mesh.owned_indices() {
                f.set(lr, lc, 0, value(gr, gc));
            }
            mesh.halo_exchange(&mut f);
            let [lr_n, lc_n] = mesh.local_shape();
            for r in 0..lr_n {
                for c in 0..lc_n {
                    let [gr, gc] = mesh.global_of(r, c);
                    let wr = gr.rem_euclid(10) as usize;
                    let wc = gc.rem_euclid(10) as usize;
                    assert_eq!(f.get(r, c, 0), value(wr, wc), "({r},{c})");
                }
            }
        });
    }
}

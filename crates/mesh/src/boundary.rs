//! Boundary handling for halo cells, matching Beatnik's
//! `BoundaryCondition` class (paper §3.1): most halo data comes from the
//! exchange itself; this pass
//!
//! * **periodic** — corrects *position* components in ghost cells by the
//!   physical period (the exchanged copy holds the wrapped node's
//!   position, which is one period away), and
//! * **free (non-periodic)** — linearly extrapolates position and
//!   vorticity into ghost cells outside the domain.

use crate::field::Field;
use crate::surface::SurfaceMesh;

/// Which treatment the mesh edges get.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundaryCondition {
    /// Both axes periodic with physical periods `[py, px]` added to the
    /// position components `(x, y) = (comp 0, comp 1)` of wrapped ghosts.
    Periodic {
        /// Physical interface periods `[period_y, period_x]`.
        periods: [f64; 2],
    },
    /// Open boundary: ghosts outside the domain are filled by linear
    /// extrapolation of the two nearest cells.
    Free,
}

impl BoundaryCondition {
    /// Apply position corrections / extrapolation to a *position* field
    /// (3 components: x, y, z) after a halo exchange.
    pub fn apply_position(&self, mesh: &SurfaceMesh, z: &mut Field) {
        assert_eq!(z.ncomp(), 3, "position field must have 3 components");
        match self {
            BoundaryCondition::Periodic { periods } => correct_periodic(mesh, z, *periods),
            BoundaryCondition::Free => extrapolate(mesh, z),
        }
    }

    /// Apply boundary handling to a generic *value* field (vorticity
    /// etc.): periodic needs nothing beyond the exchange; free
    /// extrapolates.
    pub fn apply_field(&self, mesh: &SurfaceMesh, f: &mut Field) {
        match self {
            BoundaryCondition::Periodic { .. } => {}
            BoundaryCondition::Free => extrapolate(mesh, f),
        }
    }

    /// Whether this condition is periodic.
    pub fn is_periodic(&self) -> bool {
        matches!(self, BoundaryCondition::Periodic { .. })
    }
}

/// Add ±period offsets to ghost positions that wrapped around the domain.
/// Only halo cells can have wrapped, so whole rows are shifted in `y`
/// where the row did and single entries in `x` where the column did.
fn correct_periodic(mesh: &SurfaceMesh, z: &mut Field, periods: [f64; 2]) {
    let [nr, nc] = mesh.global();
    let [lr, lc] = mesh.local_shape();
    // Number of whole periods a logical index lies outside the domain
    // (…, -1, 0, +1, …), as the offset it calls for; `None` inside.
    let offset = |g: i64, n: usize, period: f64| {
        let k = g.div_euclid(n as i64);
        (k != 0).then_some(k as f64 * period)
    };
    let wrapped_cols: Vec<(usize, f64)> = (0..lc)
        .filter_map(|c| Some((c, offset(mesh.global_of(0, c)[1], nc, periods[1])?)))
        .collect();
    for r in 0..lr {
        let row = z.row_mut(r);
        if let Some(dy) = offset(mesh.global_of(r, 0)[0], nr, periods[0]) {
            for node in row.chunks_exact_mut(3) {
                node[1] += dy;
            }
        }
        for &(c, dx) in &wrapped_cols {
            row[3 * c] += dx;
        }
    }
}

/// Linear extrapolation into ghost cells outside the global domain:
/// x halos first (owned rows), then y halos over the full width so corner
/// ghosts chain off the x results.
fn extrapolate(mesh: &SurfaceMesh, f: &mut Field) {
    let [nr, nc] = mesh.global();
    let [lr, lc] = mesh.local_shape();
    let h = mesh.halo();
    let ncomp = f.ncomp();

    let at_left = mesh.own_cols().start == 0;
    let at_right = mesh.own_cols().end == nc;
    let at_top = mesh.own_rows().start == 0;
    let at_bottom = mesh.own_rows().end == nr;

    if (at_left || at_right) && mesh.own_cols().len() < 2 {
        panic!("extrapolation requires at least 2 owned columns at the boundary");
    }
    if (at_top || at_bottom) && mesh.own_rows().len() < 2 {
        panic!("extrapolation requires at least 2 owned rows at the boundary");
    }

    // X direction, *all* rows: interior y-halo rows hold live neighbor
    // data whose x ghosts must be extrapolated too (their senders had not
    // extrapolated yet at exchange time). Rows at a physical y edge get
    // garbage here, but the y pass below overwrites them at full width.
    for r in 0..lr {
        for k in 0..ncomp {
            if at_left {
                let a = f.get(r, h, k);
                let b = f.get(r, h + 1, k);
                for g in 1..=h {
                    f.set(r, h - g, k, a - g as f64 * (b - a));
                }
            }
            if at_right {
                let a = f.get(r, lc - h - 1, k);
                let b = f.get(r, lc - h - 2, k);
                for g in 1..=h {
                    f.set(r, lc - h - 1 + g, k, a - g as f64 * (b - a));
                }
            }
        }
    }

    // Y direction, full width: interior x-halo columns hold live neighbor
    // data and extrapolating *along y* from them is exactly what corner
    // ghosts need.
    for c in 0..lc {
        for k in 0..ncomp {
            if at_top {
                let a = f.get(h, c, k);
                let b = f.get(h + 1, c, k);
                for g in 1..=h {
                    f.set(h - g, c, k, a - g as f64 * (b - a));
                }
            }
            if at_bottom {
                let a = f.get(lr - h - 1, c, k);
                let b = f.get(lr - h - 2, c, k);
                for g in 1..=h {
                    f.set(lr - h - 1 + g, c, k, a - g as f64 * (b - a));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beatnik_comm::World;

    #[test]
    fn periodic_position_correction_offsets_ghosts() {
        World::builder(1).run(|comm| {
            let mesh =
                SurfaceMesh::new(&comm, [8, 8], [true, true], 2, [0.0, 0.0], [2.0, 2.0]);
            let mut z = mesh.make_field(3);
            // Position = reference coordinates (flat interface).
            for (lr, lc, gr, gc) in mesh.owned_indices() {
                let c = mesh.coord_of(gr as i64, gc as i64);
                z.set_node(lr, lc, &[c[1], c[0], 0.0]);
            }
            mesh.halo_exchange(&mut z);
            let bc = BoundaryCondition::Periodic { periods: [2.0, 2.0] };
            bc.apply_position(&mesh, &mut z);
            // Every cell (owned or ghost) must now hold its *logical*
            // coordinate: ghost left of 0 has negative x.
            let [lr, lc] = mesh.local_shape();
            for r in 0..lr {
                for c in 0..lc {
                    let [gr, gc] = mesh.global_of(r, c);
                    let want = mesh.coord_of(gr, gc);
                    assert!((z.get(r, c, 0) - want[1]).abs() < 1e-12, "x at ({r},{c})");
                    assert!((z.get(r, c, 1) - want[0]).abs() < 1e-12, "y at ({r},{c})");
                }
            }
        });
    }

    #[test]
    fn periodic_correction_distributed_matches_serial() {
        for p in [2usize, 4] {
            World::builder(p).run(|comm| {
                let mesh =
                    SurfaceMesh::new(&comm, [8, 8], [true, true], 2, [0.0, 0.0], [2.0, 2.0]);
                let mut z = mesh.make_field(3);
                for (lr, lc, gr, gc) in mesh.owned_indices() {
                    let c = mesh.coord_of(gr as i64, gc as i64);
                    z.set_node(lr, lc, &[c[1], c[0], 1.0]);
                }
                mesh.halo_exchange(&mut z);
                BoundaryCondition::Periodic { periods: [2.0, 2.0] }.apply_position(&mesh, &mut z);
                let [lr, lc] = mesh.local_shape();
                for r in 0..lr {
                    for c in 0..lc {
                        let [gr, gc] = mesh.global_of(r, c);
                        let want = mesh.coord_of(gr, gc);
                        assert!((z.get(r, c, 0) - want[1]).abs() < 1e-12);
                        assert!((z.get(r, c, 1) - want[0]).abs() < 1e-12);
                        assert!((z.get(r, c, 2) - 1.0).abs() < 1e-12);
                    }
                }
            });
        }
    }

    #[test]
    fn periodic_correction_equals_the_per_cell_walk_bitwise() {
        // The correction as it was before it skipped owned cells: every
        // local cell asked how many periods away it is.
        fn per_cell(mesh: &SurfaceMesh, z: &mut Field, periods: [f64; 2]) {
            let [nr, nc] = mesh.global();
            let [lr, lc] = mesh.local_shape();
            for r in 0..lr {
                for c in 0..lc {
                    let [gr, gc] = mesh.global_of(r, c);
                    let kr = gr.div_euclid(nr as i64);
                    let kc = gc.div_euclid(nc as i64);
                    if kr != 0 {
                        z.add(r, c, 1, kr as f64 * periods[0]);
                    }
                    if kc != 0 {
                        z.add(r, c, 0, kc as f64 * periods[1]);
                    }
                }
            }
        }
        for p in [1usize, 2, 4, 6, 9] {
            World::builder(p).run(|comm| {
                let mesh =
                    SurfaceMesh::new(&comm, [12, 10], [true, true], 2, [0.0, 0.0], [0.7, 1.3]);
                let mut z = mesh.make_field(3);
                for (i, v) in z.as_mut_slice().iter_mut().enumerate() {
                    *v = (i as f64 * 0.618).sin();
                }
                let mut want = z.clone();
                correct_periodic(&mesh, &mut z, [0.7, 1.3]);
                per_cell(&mesh, &mut want, [0.7, 1.3]);
                let bits = |f: &Field| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&z), bits(&want), "p={p}");
            });
        }
    }

    #[test]
    fn free_extrapolation_is_exact_for_linear_fields() {
        // Linear fields are reproduced exactly by linear extrapolation,
        // including corners.
        for p in [1usize, 4] {
            World::builder(p).run(|comm| {
                let mesh =
                    SurfaceMesh::new(&comm, [8, 8], [false, false], 2, [0.0, 0.0], [1.0, 1.0]);
                let mut f = mesh.make_field(2);
                let lin = |gr: i64, gc: i64| (3.0 * gr as f64 - 2.0 * gc as f64, gc as f64 + 1.0);
                for (lr, lc, gr, gc) in mesh.owned_indices() {
                    let (a, b) = lin(gr as i64, gc as i64);
                    f.set_node(lr, lc, &[a, b]);
                }
                mesh.halo_exchange(&mut f);
                BoundaryCondition::Free.apply_field(&mesh, &mut f);
                let [lr, lc] = mesh.local_shape();
                for r in 0..lr {
                    for c in 0..lc {
                        let [gr, gc] = mesh.global_of(r, c);
                        let (a, b) = lin(gr, gc);
                        assert!((f.get(r, c, 0) - a).abs() < 1e-9, "comp0 ({r},{c})");
                        assert!((f.get(r, c, 1) - b).abs() < 1e-9, "comp1 ({r},{c})");
                    }
                }
            });
        }
    }

    #[test]
    fn periodic_value_fields_need_no_correction() {
        World::builder(1).run(|comm| {
            let mesh =
                SurfaceMesh::new(&comm, [6, 6], [true, true], 2, [0.0, 0.0], [1.0, 1.0]);
            let mut f = mesh.make_field(1);
            for (lr, lc, gr, gc) in mesh.owned_indices() {
                f.set(lr, lc, 0, (gr * 10 + gc) as f64);
            }
            mesh.halo_exchange(&mut f);
            let snapshot = f.clone();
            BoundaryCondition::Periodic { periods: [1.0, 1.0] }.apply_field(&mesh, &mut f);
            assert_eq!(f, snapshot);
        });
    }
}

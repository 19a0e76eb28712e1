//! The distributed 2D surface mesh and its halo exchange.
//!
//! The surface mesh is the fundamental decomposition of Beatnik (paper
//! §2): a regular global grid of interface nodes, block-decomposed over a
//! 2D rank grid. Each rank stores its owned block plus a `halo`-wide
//! frame (width 2 in all Beatnik solvers) of copies of neighbor data.
//!
//! Halo exchange is two-phase: first along x (columns, owned rows only),
//! then along y (rows, *full local width* including the just-filled x
//! halos) — so diagonal/corner halo cells are correct without any
//! diagonal messages. This is the standard structured-grid scheme Cabana
//! uses underneath Beatnik.

use crate::field::Field;
use crate::partition::Partition2d;
use beatnik_comm::{CartComm, Communicator};
use std::ops::Range;

/// Reference-space description and decomposition of the interface mesh.
///
/// Axis convention: index `(row, col)` ↔ reference coordinates
/// `(α₂, α₁)` = `(y, x)`; fields are row-major.
pub struct SurfaceMesh {
    cart: CartComm,
    partition: Partition2d,
    periodic: [bool; 2],
    halo: usize,
    own_rows: Range<usize>,
    own_cols: Range<usize>,
    /// Reference-domain bounds: `[y_lo, x_lo]`, `[y_hi, x_hi]`.
    lo: [f64; 2],
    hi: [f64; 2],
}

impl SurfaceMesh {
    /// Create the mesh (collective over `parent`). `global` is the node
    /// count `[rows, cols]`, `periodic` per axis `[y, x]`, and
    /// `lo`/`hi` the reference-domain corners.
    ///
    /// For periodic axes the right endpoint is excluded (spacing
    /// `L/n`); for open axes nodes include both endpoints (spacing
    /// `L/(n-1)`).
    pub fn new(
        parent: &Communicator,
        global: [usize; 2],
        periodic: [bool; 2],
        halo: usize,
        lo: [f64; 2],
        hi: [f64; 2],
    ) -> Self {
        assert!(halo >= 1, "surface mesh requires a halo of at least 1");
        assert!(global[0] >= 2 * halo && global[1] >= 2 * halo, "mesh too small for halo");
        let comm = parent.duplicate();
        let partition = Partition2d::balanced(global, comm.size());
        let cart = CartComm::new(comm, partition.dims, periodic)
            .expect("surface mesh: rank grid mismatch");
        let [pr, pc] = cart.coords();
        let own_rows = partition.rows_of(pr);
        let own_cols = partition.cols_of(pc);
        SurfaceMesh {
            cart,
            partition,
            periodic,
            halo,
            own_rows,
            own_cols,
            lo,
            hi,
        }
    }

    /// The Cartesian communicator.
    pub fn cart(&self) -> &CartComm {
        &self.cart
    }

    /// The world-group communicator underlying the mesh.
    pub fn comm(&self) -> &Communicator {
        self.cart.comm()
    }

    /// The block partition.
    pub fn partition(&self) -> &Partition2d {
        &self.partition
    }

    /// Global node counts `[rows, cols]`.
    pub fn global(&self) -> [usize; 2] {
        self.partition.global
    }

    /// Per-axis periodicity `[y, x]`.
    pub fn periodic(&self) -> [bool; 2] {
        self.periodic
    }

    /// Halo width.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Owned global row range.
    pub fn own_rows(&self) -> Range<usize> {
        self.own_rows.clone()
    }

    /// Owned global column range.
    pub fn own_cols(&self) -> Range<usize> {
        self.own_cols.clone()
    }

    /// Local storage shape (owned + halo frame) `[rows, cols]`.
    pub fn local_shape(&self) -> [usize; 2] {
        [
            self.own_rows.len() + 2 * self.halo,
            self.own_cols.len() + 2 * self.halo,
        ]
    }

    /// Local index range of owned rows.
    pub fn owned_row_range(&self) -> Range<usize> {
        self.halo..self.halo + self.own_rows.len()
    }

    /// Local index range of owned columns.
    pub fn owned_col_range(&self) -> Range<usize> {
        self.halo..self.halo + self.own_cols.len()
    }

    /// Allocate a zeroed field over this mesh's local block.
    pub fn make_field(&self, ncomp: usize) -> Field {
        let [r, c] = self.local_shape();
        Field::zeros(r, c, ncomp)
    }

    /// Grid spacing `[dy, dx]` in reference space.
    pub fn spacing(&self) -> [f64; 2] {
        let [nr, nc] = self.partition.global;
        let dy = if self.periodic[0] {
            (self.hi[0] - self.lo[0]) / nr as f64
        } else {
            (self.hi[0] - self.lo[0]) / (nr - 1) as f64
        };
        let dx = if self.periodic[1] {
            (self.hi[1] - self.lo[1]) / nc as f64
        } else {
            (self.hi[1] - self.lo[1]) / (nc - 1) as f64
        };
        [dy, dx]
    }

    /// Reference-domain extents `[Ly, Lx]`.
    pub fn lengths(&self) -> [f64; 2] {
        [self.hi[0] - self.lo[0], self.hi[1] - self.lo[1]]
    }

    /// Reference coordinates `(y, x)` of a *global* node index.
    pub fn coord_of(&self, gr: i64, gc: i64) -> [f64; 2] {
        let [dy, dx] = self.spacing();
        [
            self.lo[0] + dy * gr as f64,
            self.lo[1] + dx * gc as f64,
        ]
    }

    /// Global node index of a local index (may fall outside `0..n` in
    /// halo regions; for periodic axes the *logical* index is returned
    /// unwrapped, which is what position corrections need).
    pub fn global_of(&self, lr: usize, lc: usize) -> [i64; 2] {
        [
            self.own_rows.start as i64 + lr as i64 - self.halo as i64,
            self.own_cols.start as i64 + lc as i64 - self.halo as i64,
        ]
    }

    /// Iterate owned local indices as `(lr, lc, gr, gc)`.
    pub fn owned_indices(&self) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
        let rr = self.owned_row_range();
        let cr = self.owned_col_range();
        rr.flat_map(move |lr| {
            let cr = cr.clone();
            cr.map(move |lc| {
                (
                    lr,
                    lc,
                    self.own_rows.start + lr - self.halo,
                    self.own_cols.start + lc - self.halo,
                )
            })
        })
    }

    /// Total owned nodes on this rank.
    pub fn owned_count(&self) -> usize {
        self.own_rows.len() * self.own_cols.len()
    }

    /// The owned block of `f`, one slice per owned row (owned columns,
    /// all components interleaved), top to bottom.
    pub fn owned_rows<'a>(&self, f: &'a Field) -> impl Iterator<Item = &'a [f64]> + 'a {
        f.block_rows(self.owned_row_range(), self.owned_col_range())
    }

    /// Mutable [`SurfaceMesh::owned_rows`].
    pub fn owned_rows_mut<'a>(
        &self,
        f: &'a mut Field,
    ) -> impl Iterator<Item = &'a mut [f64]> + 'a {
        f.block_rows_mut(self.owned_row_range(), self.owned_col_range())
    }

    /// Component `k` of `f` at the owned nodes in row-major owned order
    /// (the order of [`SurfaceMesh::owned_indices`] and of the
    /// distributed transforms' real blocks).
    pub fn owned_comp(&self, f: &Field, k: usize) -> Vec<f64> {
        f.gather_comp(self.owned_row_range(), self.owned_col_range(), k)
    }

    /// Write owned-order `vals` into component `k` of `f`'s owned nodes.
    pub fn set_owned_comp(&self, f: &mut Field, k: usize, vals: &[f64]) {
        f.scatter_comp(self.owned_row_range(), self.owned_col_range(), k, vals);
    }

    /// Every component of `f` (which has `N` of them) at the owned nodes,
    /// in row-major owned order.
    pub fn owned_nodes<const N: usize>(&self, f: &Field) -> Vec<[f64; N]> {
        assert_eq!(f.ncomp(), N, "owned_nodes: component count mismatch");
        let mut out = Vec::with_capacity(self.owned_count());
        for row in self.owned_rows(f) {
            out.extend(row.chunks_exact(N).map(|n| -> [f64; N] {
                n.try_into().expect("chunks_exact yields N-element chunks")
            }));
        }
        out
    }

    // ------------------------------------------------------------------
    // Halo exchange
    // ------------------------------------------------------------------

    /// Exchange halo regions of `field` with neighboring ranks. Open
    /// (non-periodic) edges are left untouched — the boundary-condition
    /// pass fills them afterwards.
    pub fn halo_exchange(&self, field: &mut Field) {
        let _phase = self.cart.comm().telemetry().phase("halo");
        let h = self.halo;
        let [lr, lc] = self.local_shape();
        assert_eq!(field.rows(), lr, "halo_exchange: field shape mismatch");
        assert_eq!(field.cols(), lc, "halo_exchange: field shape mismatch");

        // Phase 1 — x (columns, dim 1), owned rows only.
        let r0 = h;
        let r1 = lr - h;
        let (left, right) = {
            let (src, dst) = self.cart.shift(1, 1);
            (src, dst) // src = left neighbor, dst = right neighbor
        };
        // Send rightmost owned columns right; receive into left halo.
        let send_right = field.pack(r0, r1, lc - 2 * h, lc - h);
        if let Some(data) = self.exchange(right, send_right, left, 0) {
            field.unpack(r0, r1, 0, h, &data);
        }
        // Send leftmost owned columns left; receive into right halo.
        let send_left = field.pack(r0, r1, h, 2 * h);
        if let Some(data) = self.exchange(left, send_left, right, 1) {
            field.unpack(r0, r1, lc - h, lc, &data);
        }

        // Phase 2 — y (rows, dim 0), full local width (corners ride along).
        let (up, down) = {
            let (src, dst) = self.cart.shift(0, 1);
            (src, dst) // src = upper neighbor (row-1), dst = lower (row+1)
        };
        // Send bottom owned rows down; receive into top halo.
        let send_down = field.pack(lr - 2 * h, lr - h, 0, lc);
        if let Some(data) = self.exchange(down, send_down, up, 2) {
            field.unpack(0, h, 0, lc, &data);
        }
        // Send top owned rows up; receive into bottom halo.
        let send_up = field.pack(h, 2 * h, 0, lc);
        if let Some(data) = self.exchange(up, send_up, down, 3) {
            field.unpack(lr - h, lr, 0, lc, &data);
        }
    }

    /// Sendrecv helper tolerating open edges on either side.
    fn exchange(
        &self,
        dst: Option<usize>,
        send: Vec<f64>,
        src: Option<usize>,
        tag: u64,
    ) -> Option<Vec<f64>> {
        const HALO_TAG: u64 = 0x4841_4c4f; // "HALO"
        let comm = self.cart.comm();
        let tag = HALO_TAG + tag;
        match (dst, src) {
            (Some(d), Some(s)) => Some(comm.sendrecv(d, send, s, tag)),
            (Some(d), None) => {
                comm.send(d, tag, send);
                None
            }
            (None, Some(s)) => Some(comm.recv(s, tag)),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beatnik_comm::World;

    /// Fill owned cells with a recognizable function of global index.
    fn fill_owned(mesh: &SurfaceMesh, f: &mut Field) {
        for (lr, lc, gr, gc) in mesh.owned_indices() {
            f.set(lr, lc, 0, (gr * 1000 + gc) as f64);
            f.set(lr, lc, 1, -((gr * 1000 + gc) as f64));
        }
    }

    /// Check that halo cells contain the right (wrapped) global values.
    fn check_halos(mesh: &SurfaceMesh, f: &Field, check_x: bool, check_y: bool) {
        let [nr, nc] = mesh.global();
        let [lr, lc] = mesh.local_shape();
        let h = mesh.halo();
        for r in 0..lr {
            for c in 0..lc {
                let in_x_halo = c < h || c >= lc - h;
                let in_y_halo = r < h || r >= lr - h;
                if !in_x_halo && !in_y_halo {
                    continue; // owned
                }
                if in_x_halo && !check_x {
                    continue;
                }
                if in_y_halo && !check_y {
                    continue;
                }
                let [gr, gc] = mesh.global_of(r, c);
                let wr = gr.rem_euclid(nr as i64) as usize;
                let wc = gc.rem_euclid(nc as i64) as usize;
                let expect = (wr * 1000 + wc) as f64;
                assert_eq!(f.get(r, c, 0), expect, "halo mismatch at local ({r},{c})");
                assert_eq!(f.get(r, c, 1), -expect);
            }
        }
    }

    #[test]
    fn periodic_halo_exchange_all_rank_counts() {
        for p in [1usize, 2, 4, 6, 9] {
            World::builder(p).run(|comm| {
                let mesh = SurfaceMesh::new(
                    &comm,
                    [12, 12],
                    [true, true],
                    2,
                    [0.0, 0.0],
                    [1.0, 1.0],
                );
                let mut f = mesh.make_field(2);
                fill_owned(&mesh, &mut f);
                mesh.halo_exchange(&mut f);
                check_halos(&mesh, &f, true, true);
            });
        }
    }

    #[test]
    fn open_boundaries_leave_edge_halos_untouched() {
        World::builder(4).run(|comm| {
            let mesh =
                SurfaceMesh::new(&comm, [8, 8], [false, false], 2, [0.0, 0.0], [1.0, 1.0]);
            let mut f = mesh.make_field(1);
            f.fill(-1.0); // sentinel
            for (lr, lc, gr, gc) in mesh.owned_indices() {
                f.set(lr, lc, 0, (gr * 1000 + gc) as f64);
            }
            mesh.halo_exchange(&mut f);
            let [nr, nc] = mesh.global();
            let [lr, lc] = mesh.local_shape();
            let h = mesh.halo();
            for r in 0..lr {
                for c in 0..lc {
                    let [gr, gc] = mesh.global_of(r, c);
                    let owned_or_interior =
                        gr >= 0 && gr < nr as i64 && gc >= 0 && gc < nc as i64;
                    let in_halo = r < h || r >= lr - h || c < h || c >= lc - h;
                    if in_halo && owned_or_interior {
                        // Interior halo: must have neighbor data.
                        assert_eq!(f.get(r, c, 0), (gr * 1000 + gc) as f64);
                    } else if in_halo {
                        // Outside the global domain: untouched sentinel.
                        assert_eq!(f.get(r, c, 0), -1.0, "local ({r},{c})");
                    }
                }
            }
        });
    }

    #[test]
    fn mixed_periodicity() {
        World::builder(2).run(|comm| {
            let mesh =
                SurfaceMesh::new(&comm, [8, 8], [true, false], 2, [0.0, 0.0], [1.0, 1.0]);
            let mut f = mesh.make_field(2);
            f.fill(f64::NAN);
            fill_owned(&mesh, &mut f);
            mesh.halo_exchange(&mut f);
            // y halos must be valid everywhere (periodic); x edge halos
            // outside the domain stay NaN.
            let [lr, _lc] = mesh.local_shape();
            let h = mesh.halo();
            for r in 0..h {
                let [_, gc] = mesh.global_of(r, h);
                assert!(gc >= 0);
                assert!(!f.get(r, h, 0).is_nan());
                assert!(!f.get(lr - 1 - r, h, 0).is_nan());
            }
        });
    }

    #[test]
    fn spacing_and_coords() {
        World::builder(1).run(|comm| {
            let periodic =
                SurfaceMesh::new(&comm, [8, 16], [true, true], 2, [0.0, -1.0], [2.0, 1.0]);
            let [dy, dx] = periodic.spacing();
            assert!((dy - 0.25).abs() < 1e-12);
            assert!((dx - 0.125).abs() < 1e-12);
            let open =
                SurfaceMesh::new(&comm, [9, 9], [false, false], 2, [0.0, 0.0], [2.0, 2.0]);
            let [dy, dx] = open.spacing();
            assert!((dy - 0.25).abs() < 1e-12);
            assert!((dx - 0.25).abs() < 1e-12);
            let c = open.coord_of(8, 0);
            assert!((c[0] - 2.0).abs() < 1e-12);
            assert!((c[1] - 0.0).abs() < 1e-12);
        });
    }

    #[test]
    fn owned_indices_cover_partition() {
        World::builder(4).run(|comm| {
            let mesh =
                SurfaceMesh::new(&comm, [10, 10], [true, true], 2, [0.0, 0.0], [1.0, 1.0]);
            let count = mesh.owned_indices().count();
            assert_eq!(count, mesh.owned_count());
            let total = mesh.comm().allreduce_sum(count as f64) as usize;
            assert_eq!(total, 100);
        });
    }

    #[test]
    fn owned_block_helpers_follow_owned_indices() {
        for p in [1usize, 4, 6] {
            World::builder(p).run(|comm| {
                let mesh =
                    SurfaceMesh::new(&comm, [12, 10], [true, true], 2, [0.0, 0.0], [1.0, 1.0]);
                let mut f = mesh.make_field(2);
                fill_owned(&mesh, &mut f);
                let nodes: Vec<[f64; 2]> = mesh
                    .owned_indices()
                    .map(|(lr, lc, _, _)| [f.get(lr, lc, 0), f.get(lr, lc, 1)])
                    .collect();
                assert_eq!(mesh.owned_nodes::<2>(&f), nodes);
                let flat: Vec<f64> = mesh.owned_rows(&f).flatten().copied().collect();
                assert_eq!(flat, nodes.concat());
                for k in 0..2 {
                    let comp = mesh.owned_comp(&f, k);
                    assert_eq!(comp, nodes.iter().map(|n| n[k]).collect::<Vec<_>>());
                    // Scatter into a fresh field touches owned nodes only.
                    let mut g = mesh.make_field(2);
                    mesh.set_owned_comp(&mut g, k, &comp);
                    assert_eq!(mesh.owned_comp(&g, k), comp);
                    assert_eq!(g.as_slice().iter().filter(|v| **v != 0.0).count(), {
                        comp.iter().filter(|v| **v != 0.0).count()
                    });
                }
                for row in mesh.owned_rows_mut(&mut f) {
                    row.fill(0.0);
                }
                assert_eq!(f.max_abs(), 0.0);
            });
        }
    }

    #[test]
    #[should_panic(expected = "halo of at least 1")]
    fn zero_halo_rejected() {
        World::builder(1).run(|comm| {
            let _ = SurfaceMesh::new(&comm, [8, 8], [true, true], 0, [0.0, 0.0], [1.0, 1.0]);
        });
    }
}

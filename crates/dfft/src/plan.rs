//! The distributed 2D FFT pipelines.
//!
//! Data lives in a 2D block decomposition over a `Pr × Pc` rank grid
//! (matching the surface mesh decomposition the Z-Model uses). A forward
//! transform runs:
//!
//! * **slab path** (`pencils = false`):
//!   block → row slabs (global reshape) → row FFTs → column slabs
//!   (global reshape) → column FFTs → block (global reshape);
//! * **pencil path** (`pencils = true`):
//!   block → row pencils (reshape *within row subcommunicators*) → row
//!   FFTs → column pencils (global reshape) → column FFTs → block
//!   (reshape *within column subcommunicators*).
//!
//! Both paths perform three reshapes; the pencil path keeps two of them
//! inside `Pc`- and `Pr`-sized groups, trading message count against
//! message size — the tradeoff the paper's Figure 9 explores.
//!
//! ## Real fields
//!
//! [`DistributedFft2d::forward_real_transposed`] and
//! [`DistributedFft2d::inverse_real_transposed`] run the same two
//! reshapes per direction on half the data: `f64` blocks travel to the
//! row layout, real-to-complex row transforms keep the `nc/2 + 1`
//! non-redundant bins, and the column layout (with its column FFTs)
//! covers only those columns, dealt out evenly over the ranks.
//!
//! ## Local transforms
//!
//! In the row layout each row is one contiguous line and goes through
//! the per-line transform. In the column layout the lines are the
//! columns of the row-major buffer; they are transformed where they
//! lie, all at once, by the batched transform ([`Fft::batched`]:
//! butterflies between whole rows, across the columns) — no column is
//! gathered into scratch or scattered back, and each comes out bitwise
//! as the per-line transform would leave it.

use crate::config::FftConfig;
use crate::layout::{Dist, Rect};
use crate::redistribute::{no_reorder_penalty, redistribute};
use beatnik_comm::{AllToAllAlgo, CartComm, Communicator};
use beatnik_fft::{Complex, Fft, RealFft, Transform};
use std::ops::Range;

/// Split `base` into `parts` balanced sub-ranges and return part `i`.
fn subrange(base: Range<usize>, parts: usize, i: usize) -> Range<usize> {
    let d = Dist::new(base.len(), parts);
    let r = d.range(i);
    base.start + r.start..base.start + r.end
}

/// The ranks of one block ↔ intermediate-layout reshape: the
/// communicator it runs on and the world rank `base + q·stride` of its
/// member `q`.
struct Group<'a> {
    comm: &'a Communicator,
    base: usize,
    stride: usize,
}

impl Group<'_> {
    fn world_rank(&self, q: usize) -> usize {
        self.base + q * self.stride
    }
}

/// A planned distributed 2D FFT bound to one rank of a Cartesian grid.
///
/// Construction is collective: every rank of `parent` must construct the
/// plan with identical arguments.
pub struct DistributedFft2d {
    cart: CartComm,
    row_comm: Communicator,
    col_comm: Communicator,
    nr: usize,
    nc: usize,
    config: FftConfig,
    row_plan: Fft,
    col_plan: Fft,
    real_row_plan: RealFft,
    /// Tests flip this to run `fft_cols` through the gather / per-line /
    /// scatter code it replaced, as the bitwise reference.
    #[cfg(test)]
    per_line_cols: std::cell::Cell<bool>,
    /// Tests flip this to run the row transforms by the unfused route
    /// (no register pass: `Fft::{forward, inverse}_scalar`,
    /// `RealFft::*_reference_*`, into zero-filled buffers), as the
    /// bitwise reference.
    #[cfg(test)]
    reference_rows: std::cell::Cell<bool>,
}

impl DistributedFft2d {
    /// Plan transforms of a global `nr × nc` grid over a `proc_dims`
    /// rank grid. `proc_dims[0] × proc_dims[1]` must equal the size of
    /// `parent`.
    pub fn new(
        parent: &Communicator,
        proc_dims: [usize; 2],
        nr: usize,
        nc: usize,
        config: FftConfig,
    ) -> Self {
        let world = parent.duplicate();
        let cart = CartComm::new(world, proc_dims, [false, false])
            .expect("distributed fft: proc grid does not match communicator size");
        let row_comm = cart.row_comm();
        let col_comm = cart.col_comm();
        DistributedFft2d {
            cart,
            row_comm,
            col_comm,
            nr,
            nc,
            config,
            row_plan: Fft::new(nc),
            col_plan: Fft::new(nr),
            real_row_plan: RealFft::new(nc),
            #[cfg(test)]
            per_line_cols: std::cell::Cell::new(false),
            #[cfg(test)]
            reference_rows: std::cell::Cell::new(false),
        }
    }

    /// Global grid shape `(rows, cols)`.
    pub fn global_shape(&self) -> (usize, usize) {
        (self.nr, self.nc)
    }

    /// The tuning configuration.
    pub fn config(&self) -> FftConfig {
        self.config
    }

    fn pr(&self) -> usize {
        self.cart.dims()[0]
    }

    fn pc(&self) -> usize {
        self.cart.dims()[1]
    }

    fn algo(&self) -> AllToAllAlgo {
        if self.config.all_to_all {
            // Collective path: let the transport pick the engine per
            // reshape from the actual exchange volume.
            AllToAllAlgo::Adaptive
        } else {
            AllToAllAlgo::Direct
        }
    }

    // ------------------------------------------------------------------
    // Layouts
    // ------------------------------------------------------------------

    /// Block rectangle of a world rank.
    fn block_rect_of(&self, rank: usize) -> Rect {
        let rd = Dist::new(self.nr, self.pr());
        let cd = Dist::new(self.nc, self.pc());
        Rect::new(rd.range(rank / self.pc()), cd.range(rank % self.pc()))
    }

    /// This rank's block rectangle (the caller's buffer layout).
    pub fn local_rect(&self) -> Rect {
        self.block_rect_of(self.cart.comm().rank())
    }

    /// Row-layout rectangle of world rank `w` over a `width`-column grid
    /// (`nc` for full rows, `nc/2 + 1` for half-spectrum rows), every
    /// column present. Slabs deal the rows over all ranks; pencils give
    /// rank `(pr, pc)` the `pc`-th slice of block-row `pr`'s rows.
    fn row_rect_of(&self, w: usize, width: usize) -> Rect {
        let rows = if self.config.pencils {
            let rd = Dist::new(self.nr, self.pr());
            subrange(rd.range(w / self.pc()), self.pc(), w % self.pc())
        } else {
            Dist::new(self.nr, self.pr() * self.pc()).range(w)
        };
        Rect::new(rows, 0..width)
    }

    /// Column-layout rectangle of world rank `w` over a `width`-column
    /// grid, every row present. Slabs deal the `width` columns over all
    /// ranks; pencils give rank `(pr, pc)` the `pr`-th slice of the
    /// `pc`-th of `Pc` column groups.
    fn col_rect_of(&self, w: usize, width: usize) -> Rect {
        let cols = if self.config.pencils {
            let cd = Dist::new(width, self.pc());
            subrange(cd.range(w % self.pc()), self.pr(), w / self.pc())
        } else {
            Dist::new(width, self.pr() * self.pc()).range(w)
        };
        Rect::new(0..self.nr, cols)
    }

    /// Ranks of the block ↔ row-layout reshape: my row subcommunicator
    /// for pencils (member `q` is world rank `(my_pr, q)`), the world
    /// for slabs.
    fn row_group(&self) -> Group<'_> {
        if self.config.pencils {
            let base = self.cart.coords()[0] * self.pc();
            Group {
                comm: &self.row_comm,
                base,
                stride: 1,
            }
        } else {
            Group {
                comm: self.cart.comm(),
                base: 0,
                stride: 1,
            }
        }
    }

    /// Ranks of the column-layout ↔ block reshape: my column
    /// subcommunicator for pencils (member `q` is world rank
    /// `(q, my_pc)`), the world for slabs.
    fn col_group(&self) -> Group<'_> {
        if self.config.pencils {
            let base = self.cart.coords()[1];
            Group {
                comm: &self.col_comm,
                base,
                stride: self.pc(),
            }
        } else {
            Group {
                comm: self.cart.comm(),
                base: 0,
                stride: 1,
            }
        }
    }

    fn check_block(&self, len: usize) {
        assert_eq!(
            len,
            self.local_rect().area(),
            "distributed fft: block buffer does not match local rectangle"
        );
    }

    // ------------------------------------------------------------------
    // Complex transforms
    // ------------------------------------------------------------------

    /// Forward transform: consumes block-layout data, returns the
    /// block-layout spectrum (unnormalized). Collective.
    pub fn forward(&self, block: Vec<Complex>) -> Vec<Complex> {
        let _phase = self.cart.comm().telemetry().phase("dfft-forward");
        self.run(block, Transform::Forward)
    }

    /// Inverse transform: consumes a block-layout spectrum, returns
    /// block-layout data normalized by `1/(nr·nc)`. Collective.
    pub fn inverse(&self, block: Vec<Complex>) -> Vec<Complex> {
        let _phase = self.cart.comm().telemetry().phase("dfft-inverse");
        self.run(block, Transform::Inverse)
    }

    /// Forward transform that *stays* in the final intermediate layout
    /// (column slabs / column pencils) instead of reshaping back to
    /// blocks: the layout heFFTe calls "transposed output". A
    /// forward→multiply→inverse roundtrip through
    /// [`DistributedFft2d::inverse_transposed`] saves two of the six
    /// reshapes. Returns the spectrum's rectangle and data.
    pub fn forward_transposed(&self, block: Vec<Complex>) -> (Rect, Vec<Complex>) {
        let _phase = self.cart.comm().telemetry().phase("dfft-forward");
        self.to_transposed(&block, Transform::Forward)
    }

    /// Inverse transform starting from the transposed (column slab /
    /// column pencil) spectrum layout produced by
    /// [`DistributedFft2d::forward_transposed`]; returns block-layout data
    /// normalized by `1/(nr·nc)`.
    pub fn inverse_transposed(&self, spectrum: Vec<Complex>) -> Vec<Complex> {
        let _phase = self.cart.comm().telemetry().phase("dfft-inverse");
        let world = self.cart.comm();
        let algo = self.algo();
        let nc = self.nc;
        let my_rect = self.col_rect_of(world.rank(), nc);
        assert_eq!(spectrum.len(), my_rect.area(), "bad transposed spectrum");
        let mut buf = spectrum;
        self.fft_cols(&mut buf, &my_rect, Transform::Inverse);
        let cols_of = |w: usize| self.col_rect_of(w, nc);
        let rows_of = |w: usize| self.row_rect_of(w, nc);
        let (_, mut buf) = redistribute(world, &buf, &cols_of, &rows_of, algo);
        self.fft_rows(&mut buf, Transform::Inverse);
        let g = self.row_group();
        let rows_of = |q: usize| self.row_rect_of(g.world_rank(q), nc);
        let block_of = |q: usize| self.block_rect_of(g.world_rank(q));
        redistribute(g.comm, &buf, &rows_of, &block_of, algo).1
    }

    /// Block → row layout → row transforms → column layout → column
    /// transforms, `transform` applied along both axes.
    fn to_transposed(&self, block: &[Complex], transform: Transform) -> (Rect, Vec<Complex>) {
        self.check_block(block.len());
        let algo = self.algo();
        let nc = self.nc;
        let g = self.row_group();
        let block_of = |q: usize| self.block_rect_of(g.world_rank(q));
        let rows_of = |q: usize| self.row_rect_of(g.world_rank(q), nc);
        let (_, mut buf) = redistribute(g.comm, block, &block_of, &rows_of, algo);
        self.fft_rows(&mut buf, transform);
        let rows_of = |w: usize| self.row_rect_of(w, nc);
        let cols_of = |w: usize| self.col_rect_of(w, nc);
        let (rect, mut buf) = redistribute(self.cart.comm(), &buf, &rows_of, &cols_of, algo);
        self.fft_cols(&mut buf, &rect, transform);
        (rect, buf)
    }

    /// The three-reshape pipeline, block layout in and out.
    fn run(&self, block: Vec<Complex>, transform: Transform) -> Vec<Complex> {
        let (_, buf) = self.to_transposed(&block, transform);
        let nc = self.nc;
        let g = self.col_group();
        let cols_of = |q: usize| self.col_rect_of(g.world_rank(q), nc);
        let block_of = |q: usize| self.block_rect_of(g.world_rank(q));
        redistribute(g.comm, &buf, &cols_of, &block_of, self.algo()).1
    }

    /// Transform every full-width row of `buf` in place, line by line.
    fn fft_rows(&self, buf: &mut [Complex], transform: Transform) {
        if !self.config.reorder {
            no_reorder_penalty(buf);
        }
        #[cfg(test)]
        if self.reference_rows.get() {
            return reference::fft_rows(&self.row_plan, buf, transform);
        }
        for row in buf.chunks_exact_mut(self.nc) {
            self.row_plan.apply(transform, row);
        }
    }

    /// Transform every full-height column of the `rect`-shaped `buf` in
    /// place, all columns at once.
    fn fft_cols(&self, buf: &mut [Complex], rect: &Rect, transform: Transform) {
        debug_assert_eq!(rect.nrows(), self.nr);
        if !self.config.reorder {
            no_reorder_penalty(buf);
        }
        #[cfg(test)]
        if self.per_line_cols.get() {
            return reference::fft_cols_per_line(&self.col_plan, buf, rect.ncols(), transform);
        }
        let ncols = rect.ncols();
        self.col_plan.batched(transform, buf, ncols, ncols);
    }

    // ------------------------------------------------------------------
    // Real-field transforms
    // ------------------------------------------------------------------

    /// Forward transform of a **real** block-layout field into the
    /// transposed *half* spectrum: global columns `0..=nc/2` only, the
    /// rest following from `X[r, nc−c] = conj(X[(nr−r) mod nr, c])`.
    /// Same two reshapes as [`DistributedFft2d::forward_transposed`], on
    /// half the bytes: `f64` blocks to the row layout, real-to-complex
    /// row transforms, half-spectrum rows to a column layout that deals
    /// the `nc/2 + 1` columns evenly over the ranks, complex column
    /// transforms. Returns this rank's half-spectrum rectangle (global
    /// indices) and its unnormalized data. Collective.
    pub fn forward_real_transposed(&self, block: &[f64]) -> (Rect, Vec<Complex>) {
        let _phase = self.cart.comm().telemetry().phase("dfft-forward");
        self.check_block(block.len());
        let algo = self.algo();
        let (nc, nh) = (self.nc, self.real_row_plan.bins());
        let g = self.row_group();
        let block_of = |q: usize| self.block_rect_of(g.world_rank(q));
        let rows_of = |q: usize| self.row_rect_of(g.world_rank(q), nc);
        let (_, mut rows) = redistribute(g.comm, block, &block_of, &rows_of, algo);
        if !self.config.reorder {
            no_reorder_penalty(&mut rows);
        }
        let half = self.real_rows_forward(&rows);
        let rows_of = |w: usize| self.row_rect_of(w, nh);
        let cols_of = |w: usize| self.col_rect_of(w, nh);
        let (rect, mut buf) = redistribute(self.cart.comm(), &half, &rows_of, &cols_of, algo);
        self.fft_cols(&mut buf, &rect, Transform::Forward);
        (rect, buf)
    }

    /// Inverse of [`DistributedFft2d::forward_real_transposed`]: consumes
    /// this rank's half-spectrum columns, returns the real block-layout
    /// field normalized by `1/(nr·nc)` (applied once, inside the
    /// complex-to-real row transforms). The spectrum must be Hermitian
    /// in the sense above; the imaginary parts that symmetry forces to
    /// zero are ignored. Collective.
    pub fn inverse_real_transposed(&self, spectrum: Vec<Complex>) -> Vec<f64> {
        let _phase = self.cart.comm().telemetry().phase("dfft-inverse");
        let world = self.cart.comm();
        let algo = self.algo();
        let (nc, nh) = (self.nc, self.real_row_plan.bins());
        let my_rect = self.col_rect_of(world.rank(), nh);
        assert_eq!(
            spectrum.len(),
            my_rect.area(),
            "bad transposed half spectrum"
        );
        let mut buf = spectrum;
        self.fft_cols(&mut buf, &my_rect, Transform::InverseUnnormalized);
        let cols_of = |w: usize| self.col_rect_of(w, nh);
        let rows_of = |w: usize| self.row_rect_of(w, nh);
        let (_, mut half) = redistribute(world, &buf, &cols_of, &rows_of, algo);
        if !self.config.reorder {
            no_reorder_penalty(&mut half);
        }
        let rows = self.real_rows_inverse(&mut half, 1.0 / (self.nr * nc) as f64);
        let g = self.row_group();
        let rows_of = |q: usize| self.row_rect_of(g.world_rank(q), nc);
        let block_of = |q: usize| self.block_rect_of(g.world_rank(q));
        redistribute(g.comm, &rows, &rows_of, &block_of, algo).1
    }

    /// The real-to-complex transform of every row of the row layout, into
    /// a new half-spectrum row buffer written once.
    fn real_rows_forward(&self, rows: &[f64]) -> Vec<Complex> {
        #[cfg(test)]
        if self.reference_rows.get() {
            return reference::real_rows_forward(&self.real_row_plan, rows);
        }
        self.real_row_plan.forward_rows(rows)
    }

    /// The complex-to-real transform of every half-spectrum row (`half`
    /// is work space), times `scale`, into a new row buffer written once.
    fn real_rows_inverse(&self, half: &mut [Complex], scale: f64) -> Vec<f64> {
        #[cfg(test)]
        if self.reference_rows.get() {
            return reference::real_rows_inverse(&self.real_row_plan, half, scale);
        }
        self.real_row_plan.inverse_rows(half, scale)
    }
}

/// The local transforms as they ran before `Fft::batched` and the
/// register pass, kept as the bitwise references for today's paths:
/// columns gathered 16 at a time into contiguous scratch, transformed
/// per line and scattered back; rows stage by stage, the real ones into
/// zero-filled buffers.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn fft_rows(plan: &Fft, buf: &mut [Complex], transform: Transform) {
        for row in buf.chunks_exact_mut(plan.len()) {
            match transform {
                Transform::Forward => plan.forward_scalar(row),
                Transform::Inverse => plan.inverse_scalar(row),
                Transform::InverseUnnormalized => unreachable!("rows run no unnormalized inverse"),
            }
        }
    }

    pub(super) fn real_rows_forward(plan: &RealFft, rows: &[f64]) -> Vec<Complex> {
        let mut half = vec![Complex::default(); rows.len() / plan.len() * plan.bins()];
        for (row, bins) in rows
            .chunks_exact(plan.len())
            .zip(half.chunks_exact_mut(plan.bins()))
        {
            plan.forward_reference_into(row, bins);
        }
        half
    }

    pub(super) fn real_rows_inverse(plan: &RealFft, half: &mut [Complex], scale: f64) -> Vec<f64> {
        let mut rows = vec![0.0; half.len() / plan.bins() * plan.len()];
        for (bins, row) in half
            .chunks_exact_mut(plan.bins())
            .zip(rows.chunks_exact_mut(plan.len()))
        {
            plan.inverse_reference_scaled_into(bins, row, scale);
        }
        rows
    }

    const TILE_COLS: usize = 16;

    pub(super) fn fft_cols_per_line(
        plan: &Fft,
        buf: &mut [Complex],
        ncols: usize,
        transform: Transform,
    ) {
        let nr = plan.len();
        let mut scratch = vec![Complex::default(); nr * TILE_COLS];
        for c0 in (0..ncols).step_by(TILE_COLS) {
            let tc = TILE_COLS.min(ncols - c0);
            let tile = &mut scratch[..nr * tc];
            for r in 0..nr {
                for j in 0..tc {
                    tile[j * nr + r] = buf[r * ncols + c0 + j];
                }
            }
            for col in tile.chunks_exact_mut(nr) {
                plan.apply(transform, col);
            }
            for r in 0..nr {
                for j in 0..tc {
                    buf[r * ncols + c0 + j] = tile[j * nr + r];
                }
            }
        }
    }
}

#[cfg(test)]
mod batched_cols_tests {
    use super::*;
    use beatnik_comm::{dims_create, World};

    /// Full-entropy mantissas (xorshift), so a reordered or fused
    /// operation cannot hide behind round numbers.
    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64) * 2.0 - 1.0
            })
            .collect()
    }

    fn bits(v: &[Complex]) -> Vec<[u64; 2]> {
        v.iter().map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
    }

    #[test]
    fn every_entry_point_is_bitwise_the_per_line_column_path() {
        for config in FftConfig::table1() {
            // 16x16 runs the fused real rows on a single register-pass
            // group, 8x64 with a stage pair after it; 12x10 has Bluestein
            // columns and rows (its real rows take the packed path); 32x8
            // has 8-point complex rows; 4x4 leaves ranks without a column.
            for (nr, nc) in [(16, 16), (8, 64), (12, 10), (32, 8), (4, 4)] {
                for p in [1, 2, 3, 4, 6, 9] {
                    World::builder(p).run(move |comm| {
                        let plan = DistributedFft2d::new(&comm, dims_create(p), nr, nc, config);
                        let area = plan.local_rect().area();
                        let seed = 0x9E37_79B9 + 977 * comm.rank() as u64;
                        let real = noise(area, seed);
                        let block: Vec<Complex> = noise(2 * area, !seed)
                            .chunks_exact(2)
                            .map(|z| Complex::new(z[0], z[1]))
                            .collect();
                        let run = |per_line: bool, reference_rows: bool| {
                            plan.per_line_cols.set(per_line);
                            plan.reference_rows.set(reference_rows);
                            let (_, spec) = plan.forward_transposed(block.clone());
                            let (_, half) = plan.forward_real_transposed(&real);
                            let back = plan.inverse_real_transposed(half.clone());
                            let complex = [
                                bits(&plan.forward(block.clone())),
                                bits(&plan.inverse(block.clone())),
                                bits(&plan.inverse_transposed(spec.clone())),
                                bits(&spec),
                                bits(&half),
                            ];
                            let real: Vec<u64> = back.iter().map(|x| x.to_bits()).collect();
                            (complex, real)
                        };
                        let today = run(false, false);
                        assert_eq!(today, run(true, false), "cols {config} p={p} {nr}x{nc}");
                        assert_eq!(today, run(false, true), "rows {config} p={p} {nr}x{nc}");
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FftConfig;
    use beatnik_comm::{dims_create, OpKind, World};
    use beatnik_fft::fft2d::Fft2d;

    /// Deterministic test field.
    fn field(r: usize, c: usize) -> Complex {
        Complex::new(
            (r as f64 * 0.7 + c as f64 * 1.3).sin(),
            (r as f64 - 0.2 * c as f64).cos(),
        )
    }

    /// Run a distributed forward FFT and compare every rank's block with
    /// the serial 2D FFT of the full grid.
    fn check_forward(p: usize, nr: usize, nc: usize, config: FftConfig) {
        // Serial reference.
        let mut reference: Vec<Complex> = (0..nr * nc).map(|i| field(i / nc, i % nc)).collect();
        Fft2d::new(nr, nc).forward(&mut reference);

        World::builder(p).run(move |comm| {
            let dims = dims_create(comm.size());
            let plan = DistributedFft2d::new(&comm, dims, nr, nc, config);
            let rect = plan.local_rect();
            let mut block = Vec::with_capacity(rect.area());
            for r in rect.rows.clone() {
                for c in rect.cols.clone() {
                    block.push(field(r, c));
                }
            }
            let spec = plan.forward(block);
            let mut i = 0;
            for r in rect.rows.clone() {
                for c in rect.cols.clone() {
                    let want = reference[r * nc + c];
                    let got = spec[i];
                    assert!(
                        (got - want).abs() < 1e-8 * (nr * nc) as f64,
                        "{config} p={p} ({r},{c}): {got} vs {want}"
                    );
                    i += 1;
                }
            }
        });
    }

    #[test]
    fn all_eight_configs_match_serial_fft() {
        for config in FftConfig::table1() {
            check_forward(4, 8, 8, config);
        }
    }

    #[test]
    fn non_square_grids_and_rank_counts() {
        let cfg = FftConfig::default();
        check_forward(1, 8, 4, cfg);
        check_forward(2, 8, 6, cfg);
        check_forward(6, 12, 8, cfg);
        check_forward(6, 8, 12, FftConfig::from_index(0));
    }

    #[test]
    fn grid_smaller_than_rank_count() {
        // 9 ranks, 4x4 grid: some ranks own nothing in intermediates.
        check_forward(9, 4, 4, FftConfig::default());
        check_forward(9, 4, 4, FftConfig::from_index(2));
    }

    #[test]
    fn forward_inverse_roundtrip_all_configs() {
        for config in FftConfig::table1() {
            World::builder(4).run(move |comm| {
                let dims = dims_create(comm.size());
                let plan = DistributedFft2d::new(&comm, dims, 8, 8, config);
                let rect = plan.local_rect();
                let mut block = Vec::with_capacity(rect.area());
                for r in rect.rows.clone() {
                    for c in rect.cols.clone() {
                        block.push(field(r, c));
                    }
                }
                let orig = block.clone();
                let back = plan.inverse(plan.forward(block));
                for (a, b) in back.iter().zip(&orig) {
                    assert!((*a - *b).abs() < 1e-10, "{config}: {a} vs {b}");
                }
            });
        }
    }

    #[test]
    fn pencil_mode_uses_subcommunicator_reshapes() {
        // With pencils, the first/last reshapes run on Pc/Pr-sized groups:
        // strictly fewer alltoallv messages than three global reshapes.
        let count_msgs = |pencils: bool| {
            let (_, trace) = World::builder(4).run_traced(move |comm| {
                let cfg = FftConfig {
                    all_to_all: true,
                    pencils,
                    reorder: true,
                };
                let plan = DistributedFft2d::new(&comm, [2, 2], 16, 16, cfg);
                let rect = plan.local_rect();
                let block = vec![Complex::default(); rect.area()];
                let _ = plan.forward(block);
            });
            trace.total(OpKind::Alltoallv).messages
        };
        let slab_msgs = count_msgs(false);
        let pencil_msgs = count_msgs(true);
        // Slab: 3 reshapes x 4 ranks x 3 peers = 36 messages. Pencil:
        // 2 reshapes x 4 ranks x 1 peer + 1 global reshape x 4 x 3 = 20.
        assert_eq!(slab_msgs, 36);
        assert_eq!(pencil_msgs, 20);
    }

    #[test]
    fn alltoall_knob_changes_algorithm_not_results() {
        // Covered for results by all_eight_configs; here check that the
        // knob switches the transport: collective alltoallv traffic when
        // on, nonblocking point-to-point (Send/Recv) when off — moving
        // the same payload volume either way.
        let traffic_with = |a2a: bool| {
            let (_, trace) = World::builder(4).run_traced(move |comm| {
                let cfg = FftConfig {
                    all_to_all: a2a,
                    pencils: false,
                    reorder: true,
                };
                let plan = DistributedFft2d::new(&comm, [2, 2], 8, 8, cfg);
                let block = vec![Complex::default(); plan.local_rect().area()];
                let _ = plan.forward(block);
            });
            (
                trace.total(OpKind::Alltoallv).bytes,
                trace.total(OpKind::Send).bytes,
            )
        };
        let (coll_bytes, p2p_when_coll) = traffic_with(true);
        let (coll_when_p2p, p2p_bytes) = traffic_with(false);
        assert_eq!(coll_when_p2p, 0);
        assert_eq!(p2p_when_coll, 0);
        // The p2p path skips empty intersections but every payload byte
        // still travels, so the volumes agree exactly.
        assert_eq!(coll_bytes, p2p_bytes);
        assert!(p2p_bytes > 0);
    }

    #[test]
    #[should_panic(expected = "does not match local rectangle")]
    fn wrong_block_size_panics() {
        World::builder(1).run(|comm| {
            let plan = DistributedFft2d::new(&comm, [1, 1], 4, 4, FftConfig::default());
            let _ = plan.forward(vec![Complex::default(); 3]);
        });
    }
}

#[cfg(test)]
mod transposed_tests {
    use super::*;
    use crate::config::FftConfig;
    use beatnik_comm::{dims_create, OpKind, World};

    fn field(r: usize, c: usize) -> Complex {
        Complex::new((r as f64 * 0.5 + c as f64).sin(), (c as f64 * 0.3).cos())
    }

    #[test]
    fn transposed_roundtrip_matches_plain_roundtrip() {
        for cfg_idx in [0usize, 3, 7] {
            let config = FftConfig::from_index(cfg_idx);
            World::builder(4).run(move |comm| {
                let dims = dims_create(comm.size());
                let plan = DistributedFft2d::new(&comm, dims, 8, 8, config);
                let rect = plan.local_rect();
                let mut block = Vec::with_capacity(rect.area());
                for r in rect.rows.clone() {
                    for c in rect.cols.clone() {
                        block.push(field(r, c));
                    }
                }
                let plain = plan.inverse(plan.forward(block.clone()));
                let (_, spec) = plan.forward_transposed(block);
                let fast = plan.inverse_transposed(spec);
                for (a, b) in plain.iter().zip(&fast) {
                    assert!((*a - *b).abs() < 1e-10, "cfg{cfg_idx}: {a} vs {b}");
                }
            });
        }
    }

    #[test]
    fn transposed_spectrum_values_are_correct() {
        // Values in the transposed layout must equal the plain forward
        // transform's values at the same global indices.
        World::builder(4).run(|comm| {
            let config = FftConfig::default();
            let dims = dims_create(comm.size());
            let plan = DistributedFft2d::new(&comm, dims, 8, 8, config);
            let rect = plan.local_rect();
            let mut block = Vec::with_capacity(rect.area());
            for r in rect.rows.clone() {
                for c in rect.cols.clone() {
                    block.push(field(r, c));
                }
            }
            // Gather the full plain spectrum via allgather of blocks.
            let plain = plan.forward(block.clone());
            let mut tagged: Vec<(u64, u64, Complex)> = Vec::new();
            let mut i = 0;
            for r in rect.rows.clone() {
                for c in rect.cols.clone() {
                    tagged.push((r as u64, c as u64, plain[i]));
                    i += 1;
                }
            }
            let all: Vec<(u64, u64, Complex)> = comm.allgather(&tagged);
            let lookup = |r: usize, c: usize| -> Complex {
                all.iter()
                    .find(|(gr, gc, _)| *gr == r as u64 && *gc == c as u64)
                    .unwrap()
                    .2
            };
            let (trect, tspec) = plan.forward_transposed(block);
            let mut i = 0;
            for r in trect.rows.clone() {
                for c in trect.cols.clone() {
                    let want = lookup(r, c);
                    assert!((tspec[i] - want).abs() < 1e-10, "({r},{c})");
                    i += 1;
                }
            }
        });
    }

    #[test]
    fn transposed_roundtrip_saves_reshapes() {
        let msgs = |transposed: bool| {
            let (_, trace) = World::builder(4).run_traced(move |comm| {
                let config = FftConfig {
                    all_to_all: true,
                    pencils: false,
                    reorder: true,
                };
                let plan = DistributedFft2d::new(&comm, dims_create(4), 16, 16, config);
                let block = vec![Complex::default(); plan.local_rect().area()];
                if transposed {
                    let (_, spec) = plan.forward_transposed(block);
                    let _ = plan.inverse_transposed(spec);
                } else {
                    let _ = plan.inverse(plan.forward(block));
                }
            });
            trace.total(OpKind::Alltoallv).messages
        };
        let plain = msgs(false);
        let fast = msgs(true);
        // Slab path: 6 reshapes -> 4 reshapes.
        assert_eq!(plain, 6 * 4 * 3);
        assert_eq!(fast, 4 * 4 * 3);
    }
}

#[cfg(test)]
mod real_tests {
    use super::*;
    use crate::config::FftConfig;
    use beatnik_comm::{dims_create, OpKind, World};
    use beatnik_fft::fft2d::Fft2d;

    fn field(r: usize, c: usize) -> f64 {
        (r as f64 * 0.7 + c as f64 * 1.3).sin() + 0.25 * (r as f64 - 0.2 * c as f64).cos()
    }

    fn fill(rect: &Rect) -> Vec<f64> {
        let mut block = Vec::with_capacity(rect.area());
        for r in rect.rows.clone() {
            for c in rect.cols.clone() {
                block.push(field(r, c));
            }
        }
        block
    }

    /// Differential check of one (config, mesh, rank count) cell: the
    /// half spectrum equals the serial 2D transform at columns
    /// `0..=nc/2`, the ranks' rectangles tile exactly those columns, and
    /// the inverse returns the input. Returns how many ranks own no
    /// half-spectrum column.
    fn check(p: usize, nr: usize, nc: usize, config: FftConfig) -> usize {
        let mut reference: Vec<Complex> = (0..nr * nc)
            .map(|i| Complex::real(field(i / nc, i % nc)))
            .collect();
        Fft2d::new(nr, nc).forward(&mut reference);
        let owned = World::builder(p).run(move |comm| {
            let plan = DistributedFft2d::new(&comm, dims_create(p), nr, nc, config);
            let block = fill(&plan.local_rect());
            let (rect, spec) = plan.forward_real_transposed(&block);
            assert_eq!(rect.rows, 0..nr, "{config} p={p} {nr}x{nc}");
            assert!(
                rect.cols.end <= nc / 2 + 1,
                "{config} p={p} {nr}x{nc}: {rect:?}"
            );
            let mut i = 0;
            for r in rect.rows.clone() {
                for c in rect.cols.clone() {
                    let want = reference[r * nc + c];
                    assert!(
                        (spec[i] - want).abs() < 1e-10,
                        "{config} p={p} {nr}x{nc} ({r},{c}): {} vs {want}",
                        spec[i]
                    );
                    i += 1;
                }
            }
            let back = plan.inverse_real_transposed(spec);
            assert_eq!(back.len(), block.len());
            for (a, b) in back.iter().zip(&block) {
                assert!(
                    (a - b).abs() < 1e-12,
                    "{config} p={p} {nr}x{nc}: {a} vs {b}"
                );
            }
            rect.area()
        });
        assert_eq!(owned.iter().sum::<usize>(), nr * (nc / 2 + 1));
        owned.iter().filter(|&&a| a == 0).count()
    }

    #[test]
    fn half_spectrum_matches_serial_fft_and_roundtrips_everywhere() {
        for config in FftConfig::table1() {
            for (nr, nc) in [(8, 8), (12, 10), (16, 9), (4, 4)] {
                for p in [1, 2, 3, 4, 6, 9] {
                    let idle = check(p, nr, nc, config);
                    // 4x4 has three half-spectrum columns: nine ranks
                    // cannot all own one.
                    assert!(
                        (nr, nc, p) != (4, 4, 9) || idle >= 6,
                        "{config}: {idle} idle"
                    );
                }
            }
        }
    }

    /// `(messages, bytes)` of one transposed forward + inverse pair over
    /// a 16x16 grid, summed over ranks and over both exchange engines.
    fn traffic(p: usize, config: FftConfig, real: bool) -> (u64, u64) {
        let (_, trace) = World::builder(p).run_traced(move |comm| {
            let plan = DistributedFft2d::new(&comm, dims_create(p), 16, 16, config);
            let block = fill(&plan.local_rect());
            if real {
                let (_, spec) = plan.forward_real_transposed(&block);
                let _ = plan.inverse_real_transposed(spec);
            } else {
                let block = block.into_iter().map(Complex::real).collect();
                let (_, spec) = plan.forward_transposed(block);
                let _ = plan.inverse_transposed(spec);
            }
        });
        let (a, s) = (trace.total(OpKind::Alltoallv), trace.total(OpKind::Send));
        (a.messages + s.messages, a.bytes + s.bytes)
    }

    #[test]
    fn real_pair_sends_its_complex_twins_messages_and_the_analytic_bytes() {
        // cfg7 (collective, pencils), cfg5 (collective, slabs), cfg3
        // (p2p, pencils) on 2 and 4 ranks.
        for cfg in [7usize, 5, 3] {
            let config = FftConfig::from_index(cfg);
            for p in [2usize, 4] {
                let (c_msgs, c_bytes) = traffic(p, config, false);
                let (r_msgs, r_bytes) = traffic(p, config, true);
                assert_eq!(r_msgs, c_msgs, "{config} p={p}");
                // Rows split evenly, so each direction's row<->column
                // reshape moves (1 - 1/p) of the 16x16 complex grid off
                // rank; the block<->row reshapes carry the rest.
                let (n, nh) = (16u64 * 16, 16u64 * 9);
                let spectrum = 2 * 16 * n * (p as u64 - 1) / p as u64;
                let half_spectrum = 2 * 16 * nh * (p as u64 - 1) / p as u64;
                let field = c_bytes - spectrum;
                assert_eq!(r_bytes, field / 2 + half_spectrum, "{config} p={p}");
            }
        }
    }
}

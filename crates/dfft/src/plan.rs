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
//! ## Reshapes
//!
//! [`DistributedFft2d::new`] plans every reshape the pipelines run (a
//! [`Reshape`] each, with the communicator it runs on) and allocates no
//! buffer. Blocks and outputs come from the plan's free lists, one per
//! element type, and every buffer a transform consumes goes back to
//! them; callers hand theirs back through [`DistributedFft2d::give`].
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
use crate::redistribute::{no_reorder_penalty, FreeList, Reshape};
use beatnik_comm::message::CommData;
use beatnik_comm::{AllToAllAlgo, CartComm, Communicator};
use beatnik_fft::{Complex, Fft, RealFft, Transform};
use std::cell::RefCell;
use std::ops::Range;

/// Split `base` into `parts` balanced sub-ranges and return part `i`.
fn subrange(base: Range<usize>, parts: usize, i: usize) -> Range<usize> {
    let d = Dist::new(base.len(), parts);
    let r = d.range(i);
    base.start + r.start..base.start + r.end
}

/// The rectangle every world rank holds in each layout of a global
/// `nr × nc` grid over a `pr × pc` rank grid.
#[derive(Clone, Copy)]
struct Layout {
    nr: usize,
    nc: usize,
    pr: usize,
    pc: usize,
    pencils: bool,
}

impl Layout {
    /// Block rectangle of world rank `w`.
    fn block(&self, w: usize) -> Rect {
        let rd = Dist::new(self.nr, self.pr);
        let cd = Dist::new(self.nc, self.pc);
        Rect::new(rd.range(w / self.pc), cd.range(w % self.pc))
    }

    /// Row-layout rectangle of world rank `w` over a `width`-column grid
    /// (`nc` for full rows, `nc/2 + 1` for half-spectrum rows), every
    /// column present. Slabs deal the rows over all ranks; pencils give
    /// rank `(pr, pc)` the `pc`-th slice of block-row `pr`'s rows.
    fn rows(&self, w: usize, width: usize) -> Rect {
        let rows = if self.pencils {
            let rd = Dist::new(self.nr, self.pr);
            subrange(rd.range(w / self.pc), self.pc, w % self.pc)
        } else {
            Dist::new(self.nr, self.pr * self.pc).range(w)
        };
        Rect::new(rows, 0..width)
    }

    /// Column-layout rectangle of world rank `w` over a `width`-column
    /// grid, every row present. Slabs deal the `width` columns over all
    /// ranks; pencils give rank `(pr, pc)` the `pr`-th slice of the
    /// `pc`-th of `Pc` column groups.
    fn cols(&self, w: usize, width: usize) -> Rect {
        let cols = if self.pencils {
            let cd = Dist::new(width, self.pc);
            subrange(cd.range(w % self.pc), self.pr, w / self.pc)
        } else {
            Dist::new(width, self.pr * self.pc).range(w)
        };
        Rect::new(0..self.nr, cols)
    }
}

/// The communicator a reshape runs on.
#[derive(Clone, Copy, Debug)]
enum On {
    World,
    Row,
    Col,
}

/// The ranks of one reshape: the communicator it runs on and the world
/// rank `base + q·stride` of its member `q`.
#[derive(Clone, Copy)]
struct Group<'a> {
    on: On,
    comm: &'a Communicator,
    base: usize,
    stride: usize,
}

impl Group<'_> {
    /// This rank's part of the reshape from layout `src` to layout `dst`
    /// (world rank → rectangle) over the group's members.
    fn plan(
        &self,
        src: impl Fn(usize) -> Rect,
        dst: impl Fn(usize) -> Rect,
        algo: AllToAllAlgo,
    ) -> Planned {
        let world = |q: usize| self.base + q * self.stride;
        let reshape = Reshape::new(
            self.comm.rank(),
            self.comm.size(),
            &|q| src(world(q)),
            &|q| dst(world(q)),
            algo,
        );
        Planned { on: self.on, reshape }
    }
}

/// A reshape of the plan and the communicator it runs on.
struct Planned {
    on: On,
    reshape: Reshape,
}

/// The seven reshapes the transforms run, each planned once.
struct Reshapes {
    /// Block ↔ full-width rows, inside row subcommunicators for pencils
    /// (every transform's first reshape and every inverse's last).
    block_rows: Planned,
    rows_block: Planned,
    /// Full-width rows ↔ columns over the world: the complex transforms.
    rows_cols: Planned,
    cols_rows: Planned,
    /// Half-spectrum rows ↔ columns over the world: the real transforms.
    half_rows_cols: Planned,
    half_cols_rows: Planned,
    /// Columns → block, inside column subcommunicators for pencils: the
    /// last reshape of [`DistributedFft2d::forward`] and `inverse`.
    cols_block: Planned,
}

/// An element type a plan keeps a free list of: `f64` for real fields,
/// [`Complex`] for spectra.
pub trait Element: CommData + Copy {
    #[doc(hidden)]
    fn free_list(plan: &DistributedFft2d) -> &RefCell<FreeList<Self>>;
}

impl Element for f64 {
    fn free_list(plan: &DistributedFft2d) -> &RefCell<FreeList<f64>> {
        &plan.reals
    }
}

impl Element for Complex {
    fn free_list(plan: &DistributedFft2d) -> &RefCell<FreeList<Complex>> {
        &plan.complex
    }
}

/// A planned distributed 2D FFT bound to one rank of a Cartesian grid.
///
/// Construction is collective: every rank of `parent` must construct the
/// plan with identical arguments. It plans every reshape the transforms
/// run and allocates no buffer; the plan's free lists fill during its
/// first transforms, after which a transform takes every block and
/// output from them and gives every consumed buffer back.
pub struct DistributedFft2d {
    cart: CartComm,
    row_comm: Communicator,
    col_comm: Communicator,
    layout: Layout,
    config: FftConfig,
    row_plan: Fft,
    col_plan: Fft,
    real_row_plan: RealFft,
    reshapes: Reshapes,
    reals: RefCell<FreeList<f64>>,
    complex: RefCell<FreeList<Complex>>,
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
    /// Tests flip this to run every reshape unplanned, through new
    /// buffers, as the bitwise reference.
    #[cfg(test)]
    unplanned: std::cell::Cell<bool>,
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
        let [pr, pc] = cart.dims();
        let [my_pr, my_pc] = cart.coords();
        let l = Layout {
            nr,
            nc,
            pr,
            pc,
            pencils: config.pencils,
        };
        let real_row_plan = RealFft::new(nc);
        let nh = real_row_plan.bins();
        let algo = if config.all_to_all {
            // Collective path: let the transport pick the engine per
            // reshape from the actual exchange volume.
            AllToAllAlgo::Adaptive
        } else {
            AllToAllAlgo::Direct
        };
        let all = Group {
            on: On::World,
            comm: cart.comm(),
            base: 0,
            stride: 1,
        };
        // Pencils keep the block ↔ row reshapes inside my row
        // subcommunicator (member `q` is world rank `(my_pr, q)`) and the
        // column → block reshape inside my column subcommunicator (member
        // `q` is `(q, my_pc)`); slabs run them over the world.
        let (row, col) = if config.pencils {
            let row = Group {
                on: On::Row,
                comm: &row_comm,
                base: my_pr * pc,
                stride: 1,
            };
            let col = Group {
                on: On::Col,
                comm: &col_comm,
                base: my_pc,
                stride: pc,
            };
            (row, col)
        } else {
            (all, all)
        };
        let reshapes = Reshapes {
            block_rows: row.plan(|w| l.block(w), |w| l.rows(w, nc), algo),
            rows_block: row.plan(|w| l.rows(w, nc), |w| l.block(w), algo),
            rows_cols: all.plan(|w| l.rows(w, nc), |w| l.cols(w, nc), algo),
            cols_rows: all.plan(|w| l.cols(w, nc), |w| l.rows(w, nc), algo),
            half_rows_cols: all.plan(|w| l.rows(w, nh), |w| l.cols(w, nh), algo),
            half_cols_rows: all.plan(|w| l.cols(w, nh), |w| l.rows(w, nh), algo),
            cols_block: col.plan(|w| l.cols(w, nc), |w| l.block(w), algo),
        };
        DistributedFft2d {
            cart,
            row_comm,
            col_comm,
            layout: l,
            config,
            row_plan: Fft::new(nc),
            col_plan: Fft::new(nr),
            real_row_plan,
            reshapes,
            reals: RefCell::new(FreeList::new()),
            complex: RefCell::new(FreeList::new()),
            #[cfg(test)]
            per_line_cols: std::cell::Cell::new(false),
            #[cfg(test)]
            reference_rows: std::cell::Cell::new(false),
            #[cfg(test)]
            unplanned: std::cell::Cell::new(false),
        }
    }

    /// Global grid shape `(rows, cols)`.
    pub fn global_shape(&self) -> (usize, usize) {
        (self.layout.nr, self.layout.nc)
    }

    /// The tuning configuration.
    pub fn config(&self) -> FftConfig {
        self.config
    }

    /// This rank's block rectangle (the caller's buffer layout).
    pub fn local_rect(&self) -> Rect {
        self.layout.block(self.cart.comm().rank())
    }

    /// An empty buffer with room for `capacity` elements, from this
    /// plan's free list when it holds one that large.
    pub fn take<T: Element>(&self, capacity: usize) -> Vec<T> {
        T::free_list(self).borrow_mut().take(capacity)
    }

    /// Give a buffer the caller is done with to this plan's free list: a
    /// later reshape packs a block or writes its output into it, or a
    /// later [`DistributedFft2d::take`] returns it.
    pub fn give<T: Element>(&self, buf: Vec<T>) {
        T::free_list(self).borrow_mut().give(buf);
    }

    /// Run one of the plan's reshapes on `data`, which it consumes,
    /// returning this rank's destination rectangle's contents: `data`
    /// itself when the reshape leaves every element in place.
    fn reshape<T: Element>(&self, planned: &Planned, data: Vec<T>) -> Vec<T> {
        let comm = match planned.on {
            On::World => self.cart.comm(),
            On::Row => &self.row_comm,
            On::Col => &self.col_comm,
        };
        #[cfg(test)]
        if self.unplanned.get() {
            return planned.reshape.run_unplanned(comm, &data);
        }
        planned.reshape.run_owned(comm, data, &mut T::free_list(self).borrow_mut())
    }

    fn check_block(&self, len: usize) {
        assert_eq!(
            len,
            self.local_rect().area(),
            "distributed fft: block buffer does not match local rectangle"
        );
    }

    /// heFFTe's skipped-reorder cost, when the configuration asks for it.
    fn penalty<T: Element>(&self, buf: &mut [T]) {
        if !self.config.reorder {
            let mut scratch = self.take(buf.len());
            no_reorder_penalty(buf, &mut scratch);
            self.give(scratch);
        }
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
        let spectrum = self.to_transposed(block, Transform::Forward);
        (self.reshapes.rows_cols.reshape.dst().clone(), spectrum)
    }

    /// Inverse transform starting from the transposed (column slab /
    /// column pencil) spectrum layout produced by
    /// [`DistributedFft2d::forward_transposed`]; returns block-layout data
    /// normalized by `1/(nr·nc)`.
    pub fn inverse_transposed(&self, spectrum: Vec<Complex>) -> Vec<Complex> {
        let _phase = self.cart.comm().telemetry().phase("dfft-inverse");
        let rs = &self.reshapes;
        let my_rect = rs.cols_rows.reshape.src();
        assert_eq!(spectrum.len(), my_rect.area(), "bad transposed spectrum");
        let mut buf = spectrum;
        self.fft_cols(&mut buf, my_rect, Transform::Inverse);
        let mut rows = self.reshape(&rs.cols_rows, buf);
        self.fft_rows(&mut rows, Transform::Inverse);
        self.reshape(&rs.rows_block, rows)
    }

    /// Block → row layout → row transforms → column layout → column
    /// transforms, `transform` applied along both axes.
    fn to_transposed(&self, block: Vec<Complex>, transform: Transform) -> Vec<Complex> {
        self.check_block(block.len());
        let rs = &self.reshapes;
        let mut rows = self.reshape(&rs.block_rows, block);
        self.fft_rows(&mut rows, transform);
        let mut cols = self.reshape(&rs.rows_cols, rows);
        self.fft_cols(&mut cols, rs.rows_cols.reshape.dst(), transform);
        cols
    }

    /// The three-reshape pipeline, block layout in and out.
    fn run(&self, block: Vec<Complex>, transform: Transform) -> Vec<Complex> {
        let cols = self.to_transposed(block, transform);
        self.reshape(&self.reshapes.cols_block, cols)
    }

    /// Transform every full-width row of `buf` in place, line by line.
    fn fft_rows(&self, buf: &mut [Complex], transform: Transform) {
        self.penalty(buf);
        #[cfg(test)]
        if self.reference_rows.get() {
            return reference::fft_rows(&self.row_plan, buf, transform);
        }
        for row in buf.chunks_exact_mut(self.layout.nc) {
            self.row_plan.apply(transform, row);
        }
    }

    /// Transform every full-height column of the `rect`-shaped `buf` in
    /// place, all columns at once.
    fn fft_cols(&self, buf: &mut [Complex], rect: &Rect, transform: Transform) {
        debug_assert_eq!(rect.nrows(), self.layout.nr);
        self.penalty(buf);
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

    /// Forward transform of a **real** block-layout field, which it
    /// consumes, into the transposed *half* spectrum: global columns `0..=nc/2` only, the
    /// rest following from `X[r, nc−c] = conj(X[(nr−r) mod nr, c])`.
    /// Same two reshapes as [`DistributedFft2d::forward_transposed`], on
    /// half the bytes: `f64` blocks to the row layout, real-to-complex
    /// row transforms, half-spectrum rows to a column layout that deals
    /// the `nc/2 + 1` columns evenly over the ranks, complex column
    /// transforms. Returns this rank's half-spectrum rectangle (global
    /// indices) and its unnormalized data. Collective.
    pub fn forward_real_transposed(&self, block: Vec<f64>) -> (Rect, Vec<Complex>) {
        let _phase = self.cart.comm().telemetry().phase("dfft-forward");
        self.check_block(block.len());
        let rs = &self.reshapes;
        let mut rows = self.reshape(&rs.block_rows, block);
        self.penalty(&mut rows);
        let (nc, nh) = (self.layout.nc, self.real_row_plan.bins());
        let mut half = self.take(rows.len() / nc * nh);
        self.real_rows_forward(&rows, &mut half);
        self.give(rows);
        let rect = rs.half_rows_cols.reshape.dst();
        let mut buf = self.reshape(&rs.half_rows_cols, half);
        self.fft_cols(&mut buf, rect, Transform::Forward);
        (rect.clone(), buf)
    }

    /// Inverse of [`DistributedFft2d::forward_real_transposed`]: consumes
    /// this rank's half-spectrum columns, returns the real block-layout
    /// field normalized by `1/(nr·nc)` (applied once, inside the
    /// complex-to-real row transforms). The spectrum must be Hermitian
    /// in the sense above; the imaginary parts that symmetry forces to
    /// zero are ignored. Collective.
    pub fn inverse_real_transposed(&self, spectrum: Vec<Complex>) -> Vec<f64> {
        let _phase = self.cart.comm().telemetry().phase("dfft-inverse");
        let rs = &self.reshapes;
        let my_rect = rs.half_cols_rows.reshape.src();
        assert_eq!(
            spectrum.len(),
            my_rect.area(),
            "bad transposed half spectrum"
        );
        let mut buf = spectrum;
        self.fft_cols(&mut buf, my_rect, Transform::InverseUnnormalized);
        let mut half = self.reshape(&rs.half_cols_rows, buf);
        self.penalty(&mut half);
        let (nr, nc, nh) = (self.layout.nr, self.layout.nc, self.real_row_plan.bins());
        let mut rows = self.take(half.len() / nh * nc);
        self.real_rows_inverse(&mut half, 1.0 / (nr * nc) as f64, &mut rows);
        self.give(half);
        self.reshape(&rs.rows_block, rows)
    }

    /// The real-to-complex transform of every row of the row layout,
    /// appended to `half`, each element written once.
    fn real_rows_forward(&self, rows: &[f64], half: &mut Vec<Complex>) {
        #[cfg(test)]
        if self.reference_rows.get() {
            return half.extend(reference::real_rows_forward(&self.real_row_plan, rows));
        }
        self.real_row_plan.forward_rows(rows, half);
    }

    /// The complex-to-real transform of every half-spectrum row (`half`
    /// is work space), times `scale`, appended to `rows`, each element
    /// written once.
    fn real_rows_inverse(&self, half: &mut [Complex], scale: f64, rows: &mut Vec<f64>) {
        #[cfg(test)]
        if self.reference_rows.get() {
            return rows.extend(reference::real_rows_inverse(&self.real_row_plan, half, scale));
        }
        self.real_row_plan.inverse_rows(half, scale, rows);
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
    use super::planned_tests::entry_points;
    use super::*;
    use beatnik_comm::{dims_create, World};

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
                        let seed = 0x9E37_79B9 + 977 * comm.rank() as u64;
                        let run = |per_line: bool, reference_rows: bool| {
                            plan.per_line_cols.set(per_line);
                            plan.reference_rows.set(reference_rows);
                            entry_points(&plan, seed)
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
mod planned_tests {
    use super::*;
    use crate::redistribute::FREE_LIST_CAP;
    use beatnik_comm::{dims_create, OpKind, World};

    /// Full-entropy mantissas (xorshift), so a stale, misplaced,
    /// reordered or fused element cannot hide behind round numbers.
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

    /// Every entry point once on inputs drawn from `seed`, as bits.
    pub(super) fn entry_points(
        plan: &DistributedFft2d,
        seed: u64,
    ) -> (Vec<Vec<[u64; 2]>>, Vec<u64>) {
        let area = plan.local_rect().area();
        let real = noise(area, seed);
        let block: Vec<Complex> = noise(2 * area, !seed)
            .chunks_exact(2)
            .map(|z| Complex::new(z[0], z[1]))
            .collect();
        let (_, spec) = plan.forward_transposed(block.clone());
        let (_, half) = plan.forward_real_transposed(real.clone());
        let back = plan.inverse_real_transposed(half.clone());
        let complex = vec![
            bits(&plan.forward(block.clone())),
            bits(&plan.inverse(block)),
            bits(&plan.inverse_transposed(spec.clone())),
            bits(&spec),
            bits(&half),
        ];
        plan.give(spec);
        plan.give(half);
        (complex, back.iter().map(|x| x.to_bits()).collect())
    }

    #[test]
    fn every_entry_point_is_bitwise_the_unplanned_reshapes() {
        for config in FftConfig::table1() {
            // 16x16 divides evenly everywhere; 12x10, 7x5 and 9x14 split
            // unevenly over most rank grids, and 7x5 leaves ranks without
            // a half-spectrum column at 4 ranks and up.
            for (nr, nc) in [(16, 16), (12, 10), (7, 5), (9, 14)] {
                for p in 1..=6 {
                    World::builder(p).run(move |comm| {
                        let plan = DistributedFft2d::new(&comm, dims_create(p), nr, nc, config);
                        // Later rounds run on free lists the earlier ones
                        // filled, so a stale element would show there.
                        for round in 0..3u64 {
                            let seed = 0x9E37_79B9 + 977 * comm.rank() as u64 + 31 * round;
                            let planned = entry_points(&plan, seed);
                            plan.unplanned.set(true);
                            let unplanned = entry_points(&plan, seed);
                            plan.unplanned.set(false);
                            assert_eq!(planned, unplanned, "{config} p={p} {nr}x{nc} round {round}");
                        }
                    });
                }
            }
        }
    }

    /// `(messages, bytes)` this rank has sent so far, point-to-point and
    /// collective.
    fn sent(comm: &Communicator) -> (u64, u64) {
        let t = comm.trace();
        let (s, a) = (t.get(OpKind::Send), t.get(OpKind::Alltoallv));
        (s.messages + a.messages, s.bytes + a.bytes)
    }

    #[test]
    fn each_reshape_reports_its_traced_messages_and_bytes() {
        for config in FftConfig::table1() {
            for p in 1..=6 {
                World::builder(p).run_traced(move |comm| {
                    let plan = DistributedFft2d::new(&comm, dims_create(p), 12, 10, config);
                    let rs = &plan.reshapes;
                    let all = [
                        ("block_rows", &rs.block_rows),
                        ("rows_block", &rs.rows_block),
                        ("rows_cols", &rs.rows_cols),
                        ("cols_rows", &rs.cols_rows),
                        ("half_rows_cols", &rs.half_rows_cols),
                        ("half_cols_rows", &rs.half_cols_rows),
                        ("cols_block", &rs.cols_block),
                    ];
                    for (name, planned) in all {
                        let r = &planned.reshape;
                        let what = format!("{config} p={p} {name}");
                        let before = sent(&comm);
                        let out = plan.reshape(planned, vec![0.0f64; r.src().area()]);
                        let after = sent(&comm);
                        assert_eq!(out.len(), r.dst().area(), "{what}");
                        let want = (r.messages() as u64, r.bytes::<f64>());
                        assert_eq!((after.0 - before.0, after.1 - before.1), want, "{what} f64");
                        let before = sent(&comm);
                        plan.reshape(planned, vec![Complex::default(); r.src().area()]);
                        let after = sent(&comm);
                        let want = (r.messages() as u64, r.bytes::<Complex>());
                        assert_eq!((after.0 - before.0, after.1 - before.1), want, "{what} complex");
                    }
                });
            }
        }
    }

    #[test]
    fn free_lists_stay_bounded_over_many_round_trips() {
        // A ragged 7x5 grid over 3 ranks: blocks of many sizes, and
        // ranks that own no half-spectrum column.
        for config in FftConfig::table1() {
            World::builder(3).run(move |comm| {
                let plan = DistributedFft2d::new(&comm, dims_create(3), 7, 5, config);
                let real = noise(plan.local_rect().area(), 7 + comm.rank() as u64);
                let block: Vec<Complex> = real.iter().map(|&x| Complex::new(x, -x)).collect();
                for _ in 0..200 {
                    let (_, half) = plan.forward_real_transposed(real.clone());
                    plan.give(plan.inverse_real_transposed(half));
                    let (_, spec) = plan.forward_transposed(block.clone());
                    plan.give(plan.inverse_transposed(spec));
                    plan.give(plan.inverse(plan.forward(block.clone())));
                    assert!(plan.reals.borrow().len() <= FREE_LIST_CAP, "{config}");
                    assert!(plan.complex.borrow().len() <= FREE_LIST_CAP, "{config}");
                }
            });
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
            let (rect, spec) = plan.forward_real_transposed(block.clone());
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
                let (_, spec) = plan.forward_real_transposed(block);
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

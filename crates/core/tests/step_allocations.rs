//! A low-order step allocates no large buffer once warmed up.
//!
//! Every transform of the step takes its reshape blocks and outputs from
//! the plan's free lists, and `ZModel` hands its spectral buffers back
//! to them, so after the warm-up steps have filled the lists a step
//! makes no allocation of 64 KiB or more. This file is a test binary of
//! its own because it installs a counting global allocator, which would
//! count every other test's allocations too.

use beatnik_comm::World;
use beatnik_core::solver::BrChoice;
use beatnik_core::{InitialCondition, Order, Params, Solver, SolverConfig};
use beatnik_dfft::FftConfig;
use beatnik_mesh::{BoundaryCondition, SurfaceMesh};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The size from which an allocation counts as large: a 256² step's
/// reshape blocks and fields are all above it, its halo strips below.
const LARGE: usize = 64 << 10;

/// Large allocations (and reallocations to a large size) so far, every
/// thread of the process counted.
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; counting
// touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `realloc`'s contract: `ptr` came from
        // this allocator (that is, from `System`) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held while a test counts: the counter sees every thread, so the
/// tests take turns.
static COUNTING: Mutex<()> = Mutex::new(());

const WARMUP_STEPS: usize = 2;
const TIMED_STEPS: usize = 3;

/// Large allocations in each of `TIMED_STEPS` low-order steps of the
/// `low_bw` problem (multi-mode 256², default FFT configuration) on
/// `ranks` thread ranks, after `WARMUP_STEPS`.
fn large_allocs_per_step(ranks: usize) -> Vec<u64> {
    let _turn = COUNTING.lock().unwrap_or_else(|p| p.into_inner());
    let counts = World::builder(ranks).run(|comm| {
        let mesh = SurfaceMesh::new(
            &comm,
            [256, 256],
            [true, true],
            2,
            [-19.0, -19.0],
            [19.0, 19.0],
        );
        let bc = BoundaryCondition::Periodic {
            periods: [38.0, 38.0],
        };
        let cfg = SolverConfig {
            order: Order::Low,
            br: BrChoice::None,
            params: Params::default(),
            fft: FftConfig::default(),
            ic: InitialCondition::MultiMode {
                amplitude: 0.05,
                modes: 4,
                seed: 1984,
            },
        };
        let mut solver = Solver::new(mesh, bc, cfg);
        for _ in 0..WARMUP_STEPS {
            solver.step();
        }
        (0..TIMED_STEPS)
            .map(|_| {
                // Every rank reads the count between two barriers, so no
                // rank's step overlaps another's reading.
                comm.barrier();
                let before = LARGE_ALLOCS.load(Ordering::Relaxed);
                comm.barrier();
                solver.step();
                comm.barrier();
                let after = LARGE_ALLOCS.load(Ordering::Relaxed);
                comm.barrier();
                after - before
            })
            .collect::<Vec<u64>>()
    });
    counts[0].clone()
}

#[test]
fn a_warm_low_order_step_makes_no_large_allocation_on_two_ranks() {
    assert_eq!(large_allocs_per_step(2), vec![0; TIMED_STEPS]);
}

#[test]
fn a_warm_low_order_step_makes_no_large_allocation_on_three_ranks() {
    assert_eq!(large_allocs_per_step(3), vec![0; TIMED_STEPS]);
}

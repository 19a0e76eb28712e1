//! # beatnik-io — simulation output (the Silo substitute)
//!
//! The paper's Beatnik writes surface meshes through LLNL's Silo library
//! for visualization (its `SiloWriter`). This crate provides equivalent
//! output paths with zero external format dependencies:
//!
//! * [`vtk`] — legacy-ASCII VTK `STRUCTURED_GRID` files (loadable in
//!   ParaView/VisIt) of the interface with vorticity point data, the
//!   direct analogue of the paper's Figure 1/2 dumps;
//! * [`csv`] — flat per-point tables for ad-hoc analysis;
//! * [`stats`] — JSON time-series of global diagnostics and ownership
//!   distributions (consumed by the figure harnesses and EXPERIMENTS.md);
//! * [`checkpoint`] — full-state save/restore for long campaigns;
//! * [`profile`] — Chrome Trace Event JSON and CSV summaries of the
//!   span timelines recorded by `WorldBuilder::run_profiled`.
//!
//! All writers gather to rank 0 and write a single file; at benchmark
//! scale this is exactly what the paper's visualization dumps do too.

pub mod checkpoint;
pub mod csv;
pub mod metrics;
pub mod profile;
pub mod stats;
pub mod vtk;

pub use checkpoint::Checkpoint;
pub use metrics::{
    write_comm_matrix_csv, write_critical_path_json, write_metrics_json, write_openmetrics,
};
pub use profile::{dropped_spans_warning, write_chrome_trace, write_phase_csv, write_skew_csv};
pub use stats::{RunLog, StepRecord};

use beatnik_core::ProblemManager;

/// The gathered surface: `(rows, cols, points)` where
/// `points[gr * cols + gc] = ([x, y, z], [w1, w2])`.
pub type GatheredSurface = (usize, usize, Vec<([f64; 3], [f64; 2])>);

/// Gather the full global surface on rank 0. Returns `None` on other
/// ranks. Collective.
pub fn gather_surface(pm: &ProblemManager) -> Option<GatheredSurface> {
    let mesh = pm.mesh();
    let [nr, nc] = mesh.global();
    // Each rank contributes (gr, gc, x, y, z, w1, w2) tuples.
    let state = pm.owned_positions().into_iter().zip(pm.owned_vorticity());
    let local: Vec<_> = mesh
        .owned_indices()
        .zip(state)
        .map(|((_, _, gr, gc), (z, w))| (gr as u64, gc as u64, z, w))
        .collect();
    let gathered = mesh.comm().gather(0, &local)?;
    let mut out = vec![([0.0; 3], [0.0; 2]); nr * nc];
    let mut seen = 0usize;
    for (gr, gc, z, w) in gathered {
        out[gr as usize * nc + gc as usize] = (z, w);
        seen += 1;
    }
    assert_eq!(seen, nr * nc, "gather_surface: incomplete surface");
    Some((nr, nc, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use beatnik_comm::World;
    use beatnik_core::InitialCondition;
    use beatnik_mesh::{BoundaryCondition, SurfaceMesh};

    #[test]
    fn gather_reassembles_global_surface() {
        for p in [1usize, 4] {
            World::builder(p).run(|comm| {
                let mesh = SurfaceMesh::new(
                    &comm,
                    [8, 8],
                    [true, true],
                    2,
                    [0.0, 0.0],
                    [1.0, 1.0],
                );
                let mut pm = ProblemManager::new(
                    mesh,
                    BoundaryCondition::Periodic { periods: [1.0, 1.0] },
                );
                InitialCondition::SingleMode {
                    amplitude: 0.1,
                    modes: [1.0, 1.0],
                }
                .apply(&mut pm);
                let gathered = gather_surface(&pm);
                if comm.rank() == 0 {
                    let (nr, nc, pts) = gathered.unwrap();
                    assert_eq!((nr, nc), (8, 8));
                    assert_eq!(pts.len(), 64);
                    // Spot-check: node (0,0) is at the domain corner.
                    let (z, w) = pts[0];
                    assert_eq!(z[0], 0.0);
                    assert_eq!(z[1], 0.0);
                    assert!((z[2] - 0.1).abs() < 1e-12);
                    assert_eq!(w, [0.0, 0.0]);
                } else {
                    assert!(gathered.is_none());
                }
            });
        }
    }
}

//! Checkpoint/restart: serialize the full simulation state and resume
//! bitwise-identically — the capability long-running benchmark campaigns
//! (like the paper's 1024-GPU sweeps) rely on.
//!
//! Format: JSON with every node's global index, position, and vorticity
//! (rank 0 gathers/writes and reads/broadcasts; ranks fill their owned
//! blocks). JSON keeps checkpoints portable and diffable; the
//! shortest-round-trip float formatting guarantees bit-exact floats.

use crate::gather_surface;
use beatnik_core::ProblemManager;
use beatnik_json::impl_json_struct;
use std::path::Path;

/// A serialized simulation state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Completed step count at save time.
    pub step: usize,
    /// Simulated time at save time.
    pub time: f64,
    /// Global mesh shape `[rows, cols]`.
    pub global: [usize; 2],
    /// Row-major node states: `(z, w)` per global node.
    pub nodes: Vec<([f64; 3], [f64; 2])>,
}

impl_json_struct!(Checkpoint { step, time, global, nodes });

/// Gather and write a checkpoint (rank 0 writes). Collective.
///
/// The write is atomic: the state goes to `<path>.tmp` and is renamed
/// into place only after a successful flush, so a rank dying mid-write
/// (the fault-injection scenario recovery restarts from) can never leave
/// a truncated checkpoint behind — the previous complete one survives.
pub fn save(
    pm: &ProblemManager,
    step: usize,
    time: f64,
    path: impl AsRef<Path>,
) -> std::io::Result<()> {
    if let Some((nr, nc, nodes)) = gather_surface(pm) {
        let ck = Checkpoint {
            step,
            time,
            global: [nr, nc],
            nodes,
        };
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let file = std::fs::File::create(&tmp)?;
            let mut w = std::io::BufWriter::new(file);
            beatnik_json::to_writer(&mut w, &ck)?;
            use std::io::Write as _;
            w.flush()?;
        }
        std::fs::rename(&tmp, path)?;
    }
    Ok(())
}

/// Read a checkpoint (rank 0 reads, broadcasts) and load it into `pm`'s
/// owned block. Returns `(step, time)`. Collective.
///
/// # Panics
/// Panics if the checkpoint's mesh shape differs from `pm`'s.
pub fn load(pm: &mut ProblemManager, path: impl AsRef<Path>) -> std::io::Result<(usize, f64)> {
    let comm = pm.mesh().comm();
    let ck: Checkpoint = if comm.rank() == 0 {
        let text = std::fs::read_to_string(path)?;
        let ck: Checkpoint = beatnik_json::from_str(&text).map_err(std::io::Error::other)?;
        comm.broadcast(0, Some(vec![ck.clone()]));
        ck
    } else {
        comm.broadcast::<Checkpoint>(0, None)
            .into_iter()
            .next()
            .expect("checkpoint broadcast")
    };
    assert_eq!(
        ck.global,
        pm.mesh().global(),
        "checkpoint mesh shape mismatch"
    );
    let [_, nc] = ck.global;
    let (mesh, z, w) = pm.state_mut();
    let cols = mesh.own_cols();
    let rows = mesh.owned_rows_mut(z).zip(mesh.owned_rows_mut(w));
    for (gr, (z_row, w_row)) in mesh.own_rows().zip(rows) {
        let nodes = &ck.nodes[gr * nc + cols.start..gr * nc + cols.end];
        let state = z_row.chunks_exact_mut(3).zip(w_row.chunks_exact_mut(2));
        for ((z, w), (z_saved, w_saved)) in state.zip(nodes) {
            z.copy_from_slice(z_saved);
            w.copy_from_slice(w_saved);
        }
    }
    Ok((ck.step, ck.time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use beatnik_comm::World;
    use beatnik_core::InitialCondition;
    use beatnik_mesh::{BoundaryCondition, SurfaceMesh};

    fn make_pm(comm: &beatnik_comm::Communicator) -> ProblemManager {
        let mesh = SurfaceMesh::new(comm, [8, 8], [true, true], 2, [0.0, 0.0], [1.0, 1.0]);
        ProblemManager::new(mesh, BoundaryCondition::Periodic { periods: [1.0, 1.0] })
    }

    #[test]
    fn save_load_roundtrip_across_rank_counts() {
        let dir = std::env::temp_dir().join("beatnik_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");

        // Save from a 4-rank world…
        let p2 = path.clone();
        World::builder(4).run(move |comm| {
            let mut pm = make_pm(&comm);
            InitialCondition::MultiMode {
                amplitude: 0.07,
                modes: 3,
                seed: 99,
            }
            .apply(&mut pm);
            save(&pm, 17, 0.34, &p2).unwrap();
            comm.barrier();
        });

        // …restore into a 2-rank world and verify every node.
        let p3 = path.clone();
        World::builder(2).run(move |comm| {
            let mut pm = make_pm(&comm);
            let (step, time) = load(&mut pm, &p3).unwrap();
            assert_eq!(step, 17);
            assert_eq!(time, 0.34);
            let mut reference = make_pm(&comm);
            InitialCondition::MultiMode {
                amplitude: 0.07,
                modes: 3,
                seed: 99,
            }
            .apply(&mut reference);
            for (lr, lc, _, _) in pm.mesh().owned_indices() {
                assert_eq!(pm.z().node(lr, lc), reference.z().node(lr, lc));
                assert_eq!(pm.w().node(lr, lc), reference.w().node(lr, lc));
            }
        });
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_mesh_shape_rejected() {
        let dir = std::env::temp_dir().join("beatnik_ckpt_mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        let p2 = path.clone();
        World::builder(1).run(move |comm| {
            let pm = make_pm(&comm);
            save(&pm, 0, 0.0, &p2).unwrap();
        });
        World::builder(1).run(move |comm| {
            let mesh =
                SurfaceMesh::new(&comm, [12, 12], [true, true], 2, [0.0, 0.0], [1.0, 1.0]);
            let mut pm = ProblemManager::new(
                mesh,
                BoundaryCondition::Periodic { periods: [1.0, 1.0] },
            );
            let _ = load(&mut pm, &path);
        });
    }
}

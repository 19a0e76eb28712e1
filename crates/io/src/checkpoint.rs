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

/// What rank 0 found at the checkpoint path, in plain data so that its
/// broadcast crosses every transport: a state's step and time, its
/// nodes to follow, or an error's kind, its message to follow.
#[derive(Clone, Copy)]
enum Found {
    State { step: usize, time: f64 },
    Error(std::io::ErrorKind),
}

/// Read a checkpoint (rank 0 reads, checks and broadcasts) and load it
/// into `pm`'s owned block. Returns `(step, time)`. Collective.
///
/// Every rank returns the same outcome: rank 0 broadcasts what it found
/// before the state, so a file it cannot use fails the load on every
/// rank at once with rank 0's error — `InvalidData` for a file that does
/// not parse, whose mesh shape differs from `pm`'s, or whose node list
/// does not cover that mesh — instead of leaving the other ranks waiting
/// in the broadcast.
pub fn load(pm: &mut ProblemManager, path: impl AsRef<Path>) -> std::io::Result<(usize, f64)> {
    let comm = pm.mesh().comm();
    let read = (comm.rank() == 0).then(|| read_checked(path.as_ref(), pm.mesh().global()));
    let found = read.as_ref().map(|read| {
        vec![match read {
            Ok(ck) => Found::State {
                step: ck.step,
                time: ck.time,
            },
            Err(e) => Found::Error(e.kind()),
        }]
    });
    let (step, time) = match comm.broadcast(0, found)[0] {
        Found::State { step, time } => (step, time),
        Found::Error(kind) => {
            let msg = read.and_then(Result::err).map(|e| e.to_string().into_bytes());
            let msg = comm.broadcast(0, msg);
            return Err(std::io::Error::new(kind, String::from_utf8_lossy(&msg)));
        }
    };
    let saved = comm.broadcast(0, read.and_then(Result::ok).map(|ck| ck.nodes));
    let nc = pm.mesh().global()[1];
    let (mesh, z, w) = pm.state_mut();
    let cols = mesh.own_cols();
    let rows = mesh.owned_rows_mut(z).zip(mesh.owned_rows_mut(w));
    for (gr, (z_row, w_row)) in mesh.own_rows().zip(rows) {
        let nodes = &saved[gr * nc + cols.start..gr * nc + cols.end];
        let state = z_row.chunks_exact_mut(3).zip(w_row.chunks_exact_mut(2));
        for ((z, w), (z_saved, w_saved)) in state.zip(nodes) {
            z.copy_from_slice(z_saved);
            w.copy_from_slice(w_saved);
        }
    }
    Ok((step, time))
}

/// Rank 0's half of [`load`]: the checkpoint at `path`, if it parses and
/// holds one node per point of a `global`-shaped mesh.
fn read_checked(path: &Path, global: [usize; 2]) -> std::io::Result<Checkpoint> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let text = std::fs::read_to_string(path)?;
    let ck: Checkpoint = beatnik_json::from_str(&text).map_err(|e| invalid(e.to_string()))?;
    if ck.global != global {
        return Err(invalid(format!(
            "checkpoint mesh shape mismatch: {:?} saved, {global:?} loading",
            ck.global
        )));
    }
    if ck.nodes.len() != global[0] * global[1] {
        return Err(invalid(format!(
            "checkpoint holds {} nodes for a {global:?} mesh",
            ck.nodes.len()
        )));
    }
    Ok(ck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use beatnik_comm::{TransportKind, World};
    use beatnik_core::InitialCondition;
    use beatnik_mesh::{BoundaryCondition, SurfaceMesh};
    use beatnik_prng::Rng;
    use std::io::ErrorKind;
    use std::time::{Duration, Instant};

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
            let err = load(&mut pm, &path).expect_err("an 8x8 checkpoint in a 12x12 run");
            assert_eq!(err.kind(), ErrorKind::InvalidData);
            assert!(err.to_string().contains("shape mismatch"), "{err}");
        });
    }

    /// Receives give up after this long in the malformed-file worlds, so
    /// a rank left waiting for rank 0 fails the test instead of hanging.
    const SHORT_TIMEOUT: Duration = Duration::from_secs(5);

    const TRANSPORTS: [TransportKind; 3] =
        [TransportKind::Thread, TransportKind::Shmem, TransportKind::Tcp];

    /// Load `path` into an 8×8 mesh on both ranks of a 2-rank world over
    /// `kind`: each rank's result and how long its load took.
    fn load_on_two_ranks(
        path: &Path,
        kind: TransportKind,
    ) -> Vec<(std::io::Result<(usize, f64)>, Duration)> {
        World::builder(2)
            .transport(kind)
            .recv_timeout(SHORT_TIMEOUT)
            .run(|comm| {
                let mut pm = make_pm(&comm);
                let started = Instant::now();
                let got = load(&mut pm, path);
                (got, started.elapsed())
            })
    }

    /// The state and the error both cross the wire backends: every
    /// broadcast `load` makes is plain data.
    #[test]
    fn a_checkpoint_loads_over_every_transport() {
        let dir = std::env::temp_dir().join(format!("beatnik_ckpt_wire_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = valid_checkpoint_text(&dir);
        let path = dir.join("valid.json");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        for kind in TRANSPORTS {
            let states = World::builder(2)
                .transport(kind)
                .recv_timeout(SHORT_TIMEOUT)
                .run(|comm| {
                    let mut pm = make_pm(&comm);
                    let loaded = load(&mut pm, &path).expect("a valid checkpoint");
                    (loaded, owned_state(&pm))
                });
            let reference = World::builder(2).run(|comm| {
                let mut pm = make_pm(&comm);
                valid_initial_condition().apply(&mut pm);
                ((3, 0.5), owned_state(&pm))
            });
            assert_eq!(states, reference, "{kind}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every owned node's `z` and `w`, in owned-index order.
    fn owned_state(pm: &ProblemManager) -> Vec<f64> {
        let mut state = Vec::new();
        for (lr, lc, _, _) in pm.mesh().owned_indices() {
            state.extend_from_slice(pm.z().node(lr, lc));
            state.extend_from_slice(pm.w().node(lr, lc));
        }
        state
    }

    fn valid_initial_condition() -> InitialCondition {
        InitialCondition::MultiMode {
            amplitude: 0.07,
            modes: 3,
            seed: 5,
        }
    }

    /// Save a valid 8×8 checkpoint at step 3, time 0.5 to
    /// `dir/valid.json` and return its bytes.
    fn valid_checkpoint_text(dir: &Path) -> String {
        let path = dir.join("valid.json");
        let p2 = path.clone();
        World::builder(1).run(move |comm| {
            let mut pm = make_pm(&comm);
            valid_initial_condition().apply(&mut pm);
            save(&pm, 3, 0.5, &p2).unwrap();
        });
        std::fs::read_to_string(path).unwrap()
    }

    #[test]
    fn malformed_checkpoints_fail_on_every_rank_promptly() {
        let dir =
            std::env::temp_dir().join(format!("beatnik_ckpt_malformed_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = valid_checkpoint_text(&dir);
        let mut ck: Checkpoint = beatnik_json::from_str(&text).unwrap();
        let wrong_shape = beatnik_json::to_string(&Checkpoint {
            global: [8, 4],
            ..ck.clone()
        });
        ck.nodes.truncate(63);
        let short_nodes = beatnik_json::to_string(&ck);
        let cases: [(&str, Option<&str>, ErrorKind); 4] = [
            ("missing", None, ErrorKind::NotFound),
            (
                "truncated",
                Some(&text[..text.len() / 2]),
                ErrorKind::InvalidData,
            ),
            ("short nodes", Some(&short_nodes), ErrorKind::InvalidData),
            ("wrong shape", Some(&wrong_shape), ErrorKind::InvalidData),
        ];
        for (case, contents, kind) in cases {
            let path = dir.join(format!("{}.json", case.replace(' ', "_")));
            if let Some(contents) = contents {
                std::fs::write(&path, contents).unwrap();
            }
            for transport in TRANSPORTS {
                let loads = load_on_two_ranks(&path, transport);
                for (rank, (got, took)) in loads.into_iter().enumerate() {
                    let err = got.expect_err(case);
                    assert_eq!(err.kind(), kind, "{case} on rank {rank} over {transport}: {err}");
                    assert!(
                        took < Duration::from_secs(1),
                        "{case} on rank {rank} over {transport} took {took:?}"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipped, cut and grown bytes of a valid checkpoint load or fail,
    /// the same way on both ranks, and never panic.
    #[test]
    fn mutated_checkpoints_load_or_fail_and_never_panic() {
        const SEEDS: u64 = 1_000;
        let dir = std::env::temp_dir().join(format!("beatnik_ckpt_mutated_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = valid_checkpoint_text(&dir).into_bytes();
        let path = dir.join("mutated.json");
        let loaded = World::builder(2).recv_timeout(SHORT_TIMEOUT).run(|comm| {
            let mut pm = make_pm(&comm);
            let mut oks = Vec::new();
            for seed in 0..SEEDS {
                if comm.rank() == 0 {
                    std::fs::write(&path, mutate(&text, seed)).unwrap();
                }
                oks.push(load(&mut pm, &path).is_ok());
            }
            oks
        });
        assert_eq!(loaded[0], loaded[1], "the ranks disagreed on some seed");
        // Most mutations break the file, some (a digit for a digit) keep it whole.
        let ok = loaded[0].iter().filter(|&&ok| ok).count();
        assert!(
            0 < ok && ok < SEEDS as usize,
            "{ok} of {SEEDS} mutations loaded"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `text` with one to four seeded edits: a flipped bit, a cut span or
    /// a grown run of random bytes.
    fn mutate(text: &[u8], seed: u64) -> Vec<u8> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut out = text.to_vec();
        for _ in 0..1 + rng.gen_index(0..4) {
            let at = rng.gen_index(0..out.len() + 1);
            match rng.gen_index(0..3) {
                0 if at < out.len() => out[at] ^= 1 << rng.gen_index(0..8),
                1 => {
                    let end = (at + 1 + rng.gen_index(0..64)).min(out.len());
                    out.drain(at..end);
                }
                _ => {
                    let grown: Vec<u8> = (0..1 + rng.gen_index(0..16))
                        .map(|_| rng.next_u64() as u8)
                        .collect();
                    out.splice(at..at, grown);
                }
            }
        }
        out
    }
}

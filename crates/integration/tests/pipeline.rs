//! End-to-end pipeline tests: the four paper benchmark cases run through
//! the rocketrig driver with I/O, deterministically.

use beatnik_comm::World;
use beatnik_core::Solver;
use beatnik_io::gather_surface;
use beatnik_io::stats::RunLog;
use beatnik_rocketrig::{run_rig, BenchCase, Deck};

fn quick(case: BenchCase) -> beatnik_rocketrig::RigConfig {
    let mut cfg = case.config(16, 3);
    cfg.params.dt = 1e-3;
    cfg
}

#[test]
fn all_four_paper_benchmark_cases_run() {
    for case in BenchCase::all() {
        let cfg = quick(case);
        let logs = World::builder(4).run(move |comm| run_rig(&comm, &cfg));
        let log = &logs[0];
        assert_eq!(log.steps.len(), 3, "{case:?}");
        let last = log.steps.last().unwrap();
        assert!(last.diagnostics.amplitude.is_finite(), "{case:?} diverged");
        assert_eq!(last.diagnostics.points, 256);
        // All ranks must report identical global logs.
        for other in &logs[1..] {
            assert_eq!(other.steps, log.steps, "{case:?} logs differ across ranks");
        }
    }
}

#[test]
fn reruns_are_bitwise_deterministic() {
    let cfg = quick(BenchCase::LowOrderWeak);
    let cfg2 = cfg.clone();
    let a = World::builder(4).run(move |comm| run_rig(&comm, &cfg))
        .into_iter()
        .next()
        .unwrap();
    let b = World::builder(4).run(move |comm| run_rig(&comm, &cfg2))
        .into_iter()
        .next()
        .unwrap();
    assert_eq!(a.steps, b.steps);
}

#[test]
fn multimode_initial_surface_is_rank_count_invariant() {
    // Every rank count runs the same arithmetic on every node, so the
    // surface after three low-order steps is bitwise the 1-rank one.
    for n in [16, 24] {
        let surface = |ranks: usize| {
            let cfg = BenchCase::LowOrderWeak.config(n, 3);
            let mut gathered = World::builder(ranks).run(move |comm| {
                let mesh = cfg.build_mesh(&comm);
                let mut solver = Solver::new(mesh, cfg.boundary_condition(), cfg.solver_config());
                while solver.step_count() < cfg.steps {
                    solver.step();
                }
                gather_surface(solver.problem()).map(|(_, _, points)| {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let (z, w): (Vec<_>, Vec<_>) = points.into_iter().unzip();
                    (bits(z.as_flattened()), bits(w.as_flattened()))
                })
            });
            gathered.swap_remove(0).expect("rank 0 gathers the surface")
        };
        let one = surface(1);
        for ranks in 2..=9 {
            let (z, w) = surface(ranks);
            assert!(z == one.0, "z at n={n}, {ranks} ranks");
            assert!(w == one.1, "w at n={n}, {ranks} ranks");
        }
    }
}

#[test]
fn run_log_json_roundtrips_through_disk() {
    let mut cfg = quick(BenchCase::CutoffStrong);
    cfg.record_ownership = true;
    cfg.ownership_ranks = Some(64);
    let log = World::builder(2).run(move |comm| run_rig(&comm, &cfg))
        .into_iter()
        .next()
        .unwrap();
    let dir = std::env::temp_dir().join("beatnik_pipeline_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.json");
    log.write_json(&path).unwrap();
    let back = RunLog::read_json(&path).unwrap();
    assert_eq!(back, log);
    assert_eq!(back.steps[0].ownership.as_ref().unwrap().len(), 64);
}

#[test]
fn vtk_and_csv_dumps_from_one_run() {
    let dir = std::env::temp_dir().join("beatnik_pipeline_io");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dir2 = dir.clone();
    World::builder(4).run(move |comm| {
        let cfg = quick(BenchCase::LowOrderWeak);
        let mesh = cfg.build_mesh(&comm);
        let bc = cfg.boundary_condition();
        let mut solver = beatnik_core::Solver::new(mesh, bc, cfg.solver_config());
        solver.step();
        beatnik_io::vtk::write_vtk(solver.problem(), dir2.join("s.vtk")).unwrap();
        beatnik_io::csv::write_csv(solver.problem(), dir2.join("s.csv")).unwrap();
    });
    let vtk = std::fs::read_to_string(dir.join("s.vtk")).unwrap();
    assert!(vtk.contains("STRUCTURED_GRID"));
    let csv = std::fs::read_to_string(dir.join("s.csv")).unwrap();
    assert_eq!(csv.lines().count(), 257); // header + 16x16 points
}

#[test]
fn deck_metadata_is_consistent() {
    assert!(Deck::MultiModePeriodic.periodic());
    assert!(!Deck::SingleModeOpen.periodic());
    // CLI parses a full paper-case invocation.
    let args: Vec<String> = [
        "--deck",
        "singlemode",
        "--order",
        "high",
        "--solver",
        "cutoff",
        "--cutoff",
        "0.5",
        "--n",
        "32",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let opts = beatnik_rocketrig::parse_args(&args).unwrap();
    assert_eq!(opts.config.deck, Deck::SingleModeOpen);
    assert_eq!(opts.config.params.cutoff, 0.5);
}

#[test]
fn checkpoint_restart_is_bitwise_identical() {
    // 6 straight steps == 3 steps + checkpoint + restore + 3 steps.
    let dir = std::env::temp_dir().join("beatnik_ckpt_pipeline");
    std::fs::create_dir_all(&dir).unwrap();
    let ck_path = dir.join("mid.json");

    let build = |comm: &beatnik_comm::Communicator| {
        let cfg = quick(BenchCase::LowOrderWeak);
        let mesh = cfg.build_mesh(comm);
        let bc = cfg.boundary_condition();
        beatnik_core::Solver::new(mesh, bc, cfg.solver_config())
    };

    // Reference: 6 steps straight through.
    let reference = World::builder(4).run(|comm| {
        let mut s = build(&comm);
        for _ in 0..6 {
            s.step();
        }
        s.problem().owned_positions()
    });

    // Run 3, checkpoint, new world restores and runs 3 more.
    let p2 = ck_path.clone();
    World::builder(4).run(move |comm| {
        let mut s = build(&comm);
        for _ in 0..3 {
            s.step();
        }
        beatnik_io::checkpoint::save(s.problem(), s.step_count(), s.time(), &p2).unwrap();
        comm.barrier();
    });
    let p3 = ck_path.clone();
    let restarted = World::builder(4).run(move |comm| {
        let mut s = build(&comm);
        let (step, time) = beatnik_io::checkpoint::load(s.problem_mut(), &p3).unwrap();
        s.restore_clock(step, time);
        assert_eq!(s.step_count(), 3);
        for _ in 0..3 {
            s.step();
        }
        s.problem().owned_positions()
    });

    for (rank, (a, b)) in reference.iter().zip(&restarted).enumerate() {
        assert_eq!(a, b, "rank {rank} state diverged after restart");
    }
}

#[test]
fn rank_failure_mid_run_aborts_the_world() {
    // Failure injection: one rank dies inside the timestep loop; the
    // world must abort with the root-cause panic rather than hang.
    let result = std::panic::catch_unwind(|| {
        World::builder(4).run(|comm| {
            let cfg = quick(BenchCase::LowOrderWeak);
            let mesh = cfg.build_mesh(&comm);
            let bc = cfg.boundary_condition();
            let mut s = beatnik_core::Solver::new(mesh, bc, cfg.solver_config());
            s.step();
            if comm.rank() == 2 {
                panic!("injected failure on rank 2");
            }
            s.step();
        })
    });
    let err = result.unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or("");
    assert!(
        msg.contains("injected failure"),
        "expected root-cause panic, got: {msg}"
    );
}

//! The rocket-rig driver binary: Beatnik-RS's equivalent of the paper's
//! ~700-line driver program. Launches `--ranks` thread-ranks, runs the
//! configured deck, prints per-step diagnostics, and optionally writes
//! VTK dumps and a JSON run log.

use beatnik_comm::telemetry::{DEFAULT_SPAN_CAPACITY, StragglerConfig, StragglerReport};
use beatnik_comm::World;
use beatnik_rocketrig::{parse_args, run_rig, run_rig_ft, CliOptions, FT_RECV_TIMEOUT};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        run_serve(&args[1..]);
        return;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg.contains("USAGE") { 0 } else { 2 });
        }
    };

    if opts.print_config {
        let mut config = beatnik_comm::CommConfig::from_env();
        config.transport = opts.transport;
        println!("{config}");
        return;
    }

    let cfg = opts.config.clone();
    if opts.procs {
        run_procs(&opts, &cfg, &args);
        return;
    }
    println!(
        "rocketrig: {:?}, {} order, {}x{} mesh, {} steps, {} ranks, {}",
        cfg.deck, cfg.order, cfg.mesh_n, cfg.mesh_n, cfg.steps, opts.ranks, cfg.fft
    );

    let start = std::time::Instant::now();
    let (log, trace, timeline) = if opts.fault_tolerant() {
        std::fs::create_dir_all(&cfg.out_dir).expect("cannot create output dir");
        let ckpt = cfg.out_dir.join("checkpoint.json");
        let _ = std::fs::remove_file(&ckpt); // stale state must not leak in
        let world = |ranks| {
            let builder = World::builder(ranks)
                .transport(opts.transport)
                .recv_timeout(FT_RECV_TIMEOUT);
            if opts.profiling() {
                builder.span_capacity(DEFAULT_SPAN_CAPACITY)
            } else {
                builder
            }
        };
        let report =
            run_rig_ft(world, opts.ranks, opts.fault_plan(), &cfg, opts.checkpoint_every, &ckpt);
        if !report.killed.is_empty() {
            println!("ranks killed by fault injection: {:?}", report.killed);
        }
        for r in &report.relaunches {
            match r.from_step {
                0 => println!("relaunched on {} ranks from the start", r.ranks),
                s => println!("relaunched on {} ranks from the step-{s} checkpoint", r.ranks),
            }
        }
        for ev in &report.fault_events {
            println!("fault: {ev}");
        }
        if !report.fault_events.is_empty() {
            let path = cfg.out_dir.join("fault-events.json");
            write_fault_events(&report.fault_events, &path)
                .expect("failed to write fault events");
            println!("fault events written to {}", path.display());
        }
        (report.log, report.trace, report.timeline)
    } else {
        let cfg2 = cfg.clone();
        if opts.profiling() {
            let (logs, trace, timeline) = World::builder(opts.ranks)
                .transport(opts.transport)
                .run_profiled(move |comm| run_rig(&comm, &cfg2));
            let log = logs.into_iter().next().expect("no rank output");
            (log, trace, Some(timeline))
        } else {
            let (logs, trace) = World::builder(opts.ranks)
                .transport(opts.transport)
                .run_traced(move |comm| run_rig(&comm, &cfg2));
            let log = logs.into_iter().next().expect("no rank output");
            (log, trace, None)
        }
    };
    let elapsed = start.elapsed();

    for rec in &log.steps {
        println!(
            "step {:5}  t={:.5}  amplitude={:.6e}  z=[{:+.4e}, {:+.4e}]  enstrophy={:.4e}",
            rec.step,
            rec.time,
            rec.diagnostics.amplitude,
            rec.diagnostics.z_min,
            rec.diagnostics.z_max,
            rec.diagnostics.enstrophy
        );
        if let Some(own) = &rec.ownership {
            let max = own.iter().cloned().fold(0.0f64, f64::max);
            println!(
                "            ownership: max {:.3}% of points on one rank ({} ranks)",
                max * 100.0,
                own.len()
            );
        }
    }

    println!("\ncommunication summary (all ranks):\n{}", trace.summary());
    if opts.print_matrix {
        println!("{}", trace.matrix_text());
    }
    println!("wall time: {:.3} s", elapsed.as_secs_f64());

    if let Some(timeline) = &timeline {
        if opts.profile_summary {
            println!("\ntelemetry summary:\n{}", timeline.summary());
            let report = StragglerReport::from_timeline(timeline, StragglerConfig::default());
            println!("{}", report.text());
        }
        if let Some(path) = &opts.profile_path {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            beatnik_io::write_chrome_trace(timeline, path).expect("failed to write trace");
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("profile");
            let phases = path.with_file_name(format!("{stem}-phases.csv"));
            let skew = path.with_file_name(format!("{stem}-skew.csv"));
            beatnik_io::write_phase_csv(timeline, &phases).expect("failed to write phase CSV");
            beatnik_io::write_skew_csv(timeline, &skew).expect("failed to write skew CSV");
            println!(
                "profile written to {} (open in chrome://tracing or Perfetto); \
                 tables: {}, {}",
                path.display(),
                phases.display(),
                skew.display()
            );
        }
    }

    if let Some(mpath) = &cfg.metrics_path {
        // The live files were flushed by rank 0 during the run; add the
        // post-run artifacts that need the aggregated trace/timeline.
        let stem = mpath.file_stem().and_then(|s| s.to_str()).unwrap_or("metrics");
        let matrix = mpath.with_file_name(format!("{stem}-matrix.csv"));
        beatnik_io::write_comm_matrix_csv(&trace, &matrix)
            .expect("failed to write comm-matrix CSV");
        let mut outputs = format!("{}, {}", mpath.display(), matrix.display());
        if let Some(timeline) = &timeline {
            let cp = timeline.critical_path("step");
            let cp_path = mpath.with_file_name("critical-path.json");
            beatnik_io::write_critical_path_json(&cp, &cp_path)
                .expect("failed to write critical-path JSON");
            outputs.push_str(&format!(", {}", cp_path.display()));
        }
        println!("metrics written to {outputs}");
    }

    if let Some(path) = opts.log_path {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        log.write_json(&path).expect("failed to write run log");
        println!("run log written to {}", path.display());
    }
}

/// Multi-process launch (`--procs`): one OS process per rank via
/// [`beatnik_comm::proc::spmd_with`]. Children re-execute this binary
/// with the same argv and are routed back here; only the parent (world
/// rank 0) returns to print the log. The cross-rank trace summary is
/// unavailable in this mode — each process owns only its own trace.
///
/// Wire-level (`@link`) fault plans ride along: the plan ships to every
/// child via the environment, and each process arms its rank's seeded
/// fault injector, which delays the frames its rank sends without
/// changing what arrives.
fn run_procs(opts: &CliOptions, cfg: &beatnik_rocketrig::RigConfig, args: &[String]) {
    let plan = opts.fault_plan();
    let parent = beatnik_comm::proc::child_rank().is_none();
    if parent {
        println!(
            "rocketrig: {:?}, {} order, {}x{} mesh, {} steps, {} process-ranks over {}, {}",
            cfg.deck, cfg.order, cfg.mesh_n, cfg.mesh_n, cfg.steps, opts.ranks, opts.transport,
            cfg.fft
        );
        if let Some(p) = &plan {
            println!("wire chaos armed: {} (seed {:#x})", p.to_spec(), p.seed);
        }
    }
    let child_args: Vec<&str> = args.iter().map(String::as_str).collect();
    let start = std::time::Instant::now();
    let cfg2 = cfg.clone();
    let (log, _killed) =
        beatnik_comm::proc::spmd_with(opts.ranks, opts.transport, &child_args, plan.as_ref(), {
            move |comm| run_rig(&comm, &cfg2)
        });
    let elapsed = start.elapsed();
    for rec in &log.steps {
        println!(
            "step {:5}  t={:.5}  amplitude={:.6e}  z=[{:+.4e}, {:+.4e}]  enstrophy={:.4e}",
            rec.step,
            rec.time,
            rec.diagnostics.amplitude,
            rec.diagnostics.z_min,
            rec.diagnostics.z_max,
            rec.diagnostics.enstrophy
        );
    }
    println!("wall time: {:.3} s", elapsed.as_secs_f64());
    if let Some(path) = &opts.log_path {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        log.write_json(path).expect("failed to write run log");
        println!("run log written to {}", path.display());
    }
}

/// Write the injected-fault ledger as a JSON array (one object per
/// fault, in `(rank, op_index)` order — byte-identical across replays
/// with the same plan and seed).
fn write_fault_events(
    events: &[beatnik_comm::FaultEvent],
    path: &std::path::Path,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "[")?;
    for (i, ev) in events.iter().enumerate() {
        let step = ev
            .step
            .map(|s| s.to_string())
            .unwrap_or_else(|| "null".into());
        write!(
            f,
            "  {{\"kind\": \"{}\", \"rank\": {}, \"op_index\": {}, \"step\": {}, \"delay_ns\": {}}}",
            ev.kind, ev.rank, ev.op_index, step, ev.delay_ns
        )?;
        writeln!(f, "{}", if i + 1 < events.len() { "," } else { "" })?;
    }
    writeln!(f, "]")
}

/// The `rocketrig serve` subcommand: a long-running multi-tenant
/// simulation service. Blocks until SIGTERM/SIGINT, then drains the
/// scheduler (queued jobs cancel, running jobs checkpoint and stop)
/// before exiting 0.
fn run_serve(args: &[String]) {
    use beatnik_comm::telemetry::metrics::MetricsRegistry;
    use beatnik_rocketrig::{parse_serve_args, RigRunner};
    use beatnik_serve::{serve, JobLimits, Scheduler, SchedulerConfig};
    use std::sync::Arc;

    let opts = match parse_serve_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg.starts_with("rocketrig serve") { 0 } else { 2 });
        }
    };

    let cfg = SchedulerConfig {
        pool_ranks: opts.pool_ranks,
        max_queue: opts.max_queue,
        limits: JobLimits {
            max_mesh_n: opts.max_mesh_n,
            max_steps: opts.max_steps,
            pool_ranks: opts.pool_ranks,
        },
        ckpt_dir: opts.ckpt_dir.clone(),
    };
    let registry = Arc::new(MetricsRegistry::new());
    let scheduler = Arc::new(Scheduler::new(cfg, registry, Arc::new(RigRunner::new())));
    let handle = match serve(opts.addr.as_str(), scheduler) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("rocketrig serve: cannot listen on {}: {e}", opts.addr);
            std::process::exit(1);
        }
    };
    println!(
        "rocketrig serve: listening on http://{} ({} rank pool, queue {}, checkpoints in {})",
        handle.addr(),
        opts.pool_ranks,
        opts.max_queue,
        opts.ckpt_dir.display(),
    );

    sig::install();
    while !sig::requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    println!("rocketrig serve: signal received, draining");
    handle.shutdown();
    println!("rocketrig serve: bye");
}

/// Minimal libc-free SIGTERM/SIGINT hookup (same `extern "C"` approach
/// as the shmem transport's mmap bindings). The handler only flips an
/// atomic — all real work happens on the main thread.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal` is the C library's, declared with its C
        // signature, and both signal numbers are valid. `on_signal` is
        // an `extern "C" fn(i32)` that lives for the whole program and
        // is async-signal-safe: it only stores to a lock-free atomic.
        // A failed install (`SIG_ERR`, ignored) keeps the default
        // disposition, under which the signal ends the process as before.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    extern "C" {
        fn raise(signum: i32) -> i32;
    }

    #[test]
    fn a_raised_sigterm_reaches_the_flag() {
        super::sig::install();
        assert!(!super::sig::requested());
        // SAFETY: `raise` is the C library's, declared with its C
        // signature; the handler installed above takes the signal, so
        // it does not end the test process.
        assert_eq!(unsafe { raise(15) }, 0, "SIGTERM");
        assert!(super::sig::requested());
    }
}

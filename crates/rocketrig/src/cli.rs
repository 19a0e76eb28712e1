//! Hand-rolled command-line parsing for the `rocketrig` binary (kept
//! dependency-free; the option names mirror the paper's driver flags).

use crate::{Deck, RigConfig};
use beatnik_comm::TransportKind;
use beatnik_core::Order;
use beatnik_dfft::FftConfig;
use std::path::PathBuf;

/// Options parsed from the command line: the run config plus the number
/// of thread-ranks to launch.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// The run configuration.
    pub config: RigConfig,
    /// Ranks to launch (`--ranks`).
    pub ranks: usize,
    /// Write the run log JSON here (`--log`).
    pub log_path: Option<PathBuf>,
    /// Print the per-rank communication matrix (`--matrix`).
    pub print_matrix: bool,
    /// Record span telemetry and write a Chrome Trace Event JSON here,
    /// plus `<stem>-phases.csv` / `<stem>-skew.csv` next to it
    /// (`--profile`).
    pub profile_path: Option<PathBuf>,
    /// Record span telemetry and print the wait-time-attribution /
    /// collective-skew summary (`--profile-summary`).
    pub profile_summary: bool,
    /// Fault-injection plan spec (`--faults`), validated at parse time;
    /// seeded from `BEATNIK_FAULT_SEED`.
    pub fault_spec: Option<String>,
    /// Checkpoint cadence in steps (`--checkpoint-every`, 0 = off). The
    /// checkpoint file is `<out>/checkpoint.json`.
    pub checkpoint_every: usize,
    /// Communication backend (`--transport`); defaults to
    /// `BEATNIK_TRANSPORT` (or the thread backend).
    pub transport: TransportKind,
    /// Launch one OS process per rank instead of one thread per rank
    /// (`--procs`); requires `--transport shmem` or `--transport tcp`.
    pub procs: bool,
    /// Print the resolved communication config and exit
    /// (`--print-config`).
    pub print_config: bool,
}

impl CliOptions {
    /// Whether a span-recorded run is needed: either profiling flag, or
    /// `--metrics` (the live metrics plane emits `critical-path.json`
    /// from the span timeline, so metrics runs record spans too).
    pub fn profiling(&self) -> bool {
        self.profile_path.is_some() || self.profile_summary || self.config.metrics_path.is_some()
    }

    /// Whether the fault-tolerant driver loop should run (any fault plan
    /// or checkpoint cadence opts in).
    pub fn fault_tolerant(&self) -> bool {
        self.fault_spec.is_some() || self.checkpoint_every > 0
    }

    /// Parse the fault spec into a plan (`None` when `--faults` was not
    /// given). The spec was validated at argument-parse time, so this
    /// cannot fail.
    pub fn fault_plan(&self) -> Option<beatnik_comm::FaultPlan> {
        self.fault_spec.as_deref().map(|s| {
            beatnik_comm::FaultPlan::parse(s, beatnik_comm::seed_from_env())
                .expect("spec validated during argument parsing")
        })
    }

    /// Whether the fault plan touches only the wire (`@link` actions).
    /// Wire-level chaos only delays frames, so it composes with the
    /// plain driver loop — including `--procs` — where op-level kills
    /// and delays do not.
    pub fn wire_chaos_only(&self) -> bool {
        match self.fault_plan() {
            Some(plan) => plan.link_only(),
            None => false,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "rocketrig - Beatnik-RS Rayleigh-Taylor mini-application driver

USAGE:
    rocketrig [OPTIONS]

OPTIONS:
    --deck <multimode|singlemode>   input deck            [multimode]
    --order <low|medium|high>       model order           [low]
    --solver <exact|cutoff>         BR solver             [cutoff]
    --n <N>                         mesh nodes per axis   [64]
    --steps <N>                     timesteps             [20]
    --ranks <N>                     thread-ranks          [4]
    --transport <thread|shmem|tcp>  communication backend
                                    [BEATNIK_TRANSPORT or thread]
    --procs                         one OS process per rank (requires
                                    --transport shmem or tcp)
    --print-config                  print the resolved BEATNIK_* comm
                                    config and exit
    --atwood <F>                    Atwood number         [0.5]
    --gravity <F>                   gravity               [9.8]
    --mu <F>                        artificial viscosity  [1.0]
    --epsilon <F>                   desingularization     [0.25]
    --cutoff <F>                    cutoff distance       [0.5]
    --dt <F>                        timestep size         [1e-3]
    --fft-config <0..7>             heFFTe-style config   [7]
    --filter-every <N>              Krasny filter cadence [0 = off]
    --filter-tol <F>                Krasny filter tol     [1e-12]
    --diag-every <N>                diagnostics cadence   [1]
    --ownership                     record ownership fractions
    --matrix                        print the communication matrix
    --vtk-every <N>                 VTK dump cadence      [0 = off]
    --out <DIR>                     output directory      [rocketrig-out]
    --log <FILE>                    write run log JSON
    --profile <FILE>                record span telemetry; write Chrome
                                    Trace Event JSON (chrome://tracing /
                                    Perfetto) plus phase/skew CSVs
    --profile-summary               record span telemetry; print wait-time
                                    attribution, collective skew, the
                                    critical-path decomposition, and
                                    flagged straggler ops
    --metrics <FILE>                flush live metrics as OpenMetrics text
                                    at FILE (JSON twin at FILE.json); also
                                    writes <FILE stem>-matrix.csv and
                                    critical-path.json after the run
    --metrics-every <N>             metrics flush cadence in steps
                                    [0 = final step only]
    --faults <SPEC>                 inject faults, e.g.
                                    kill:r2@step5,delay:r1@op10:50ms
                                    or wire-level chaos like
                                    delay:r0>r1@link3:2ms,delay:r1>r0@link5:5ms
                                    (seeded by BEATNIK_FAULT_SEED)
    --checkpoint-every <N>          checkpoint cadence    [0 = off];
                                    writes <out>/checkpoint.json and
                                    enables relaunch from it after
                                    a failure
    --help                          print this text
";

/// Parse arguments (not including argv[0]). Returns `Err(message)` on
/// bad input; the caller prints and exits.
pub fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions {
        config: RigConfig::default(),
        ranks: 4,
        log_path: None,
        print_matrix: false,
        profile_path: None,
        profile_summary: false,
        fault_spec: None,
        checkpoint_every: 0,
        transport: beatnik_comm::CommConfig::from_env().transport,
        procs: false,
        print_config: false,
    };
    let mut i = 0;
    let take = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {flag}"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--deck" => {
                opts.config.deck = match take(args, &mut i, flag)?.as_str() {
                    "multimode" => Deck::MultiModePeriodic,
                    "singlemode" => Deck::SingleModeOpen,
                    other => return Err(format!("unknown deck '{other}'")),
                }
            }
            "--order" => {
                opts.config.order = take(args, &mut i, flag)?.parse::<Order>()?;
            }
            "--solver" => {
                opts.config.cutoff_solver = match take(args, &mut i, flag)?.as_str() {
                    "exact" => false,
                    "cutoff" => true,
                    other => return Err(format!("unknown solver '{other}'")),
                }
            }
            "--n" => opts.config.mesh_n = parse_num(&take(args, &mut i, flag)?, flag)?,
            "--steps" => opts.config.steps = parse_num(&take(args, &mut i, flag)?, flag)?,
            "--ranks" => opts.ranks = parse_num(&take(args, &mut i, flag)?, flag)?,
            "--transport" => {
                opts.transport = take(args, &mut i, flag)?
                    .parse::<TransportKind>()
                    .map_err(|e| format!("{flag}: {e}"))?
            }
            "--procs" => opts.procs = true,
            "--print-config" => opts.print_config = true,
            "--atwood" => opts.config.params.atwood = parse_f(&take(args, &mut i, flag)?, flag)?,
            "--gravity" => opts.config.params.gravity = parse_f(&take(args, &mut i, flag)?, flag)?,
            "--mu" => opts.config.params.mu = parse_f(&take(args, &mut i, flag)?, flag)?,
            "--epsilon" => opts.config.params.epsilon = parse_f(&take(args, &mut i, flag)?, flag)?,
            "--cutoff" => opts.config.params.cutoff = parse_f(&take(args, &mut i, flag)?, flag)?,
            "--dt" => opts.config.params.dt = parse_f(&take(args, &mut i, flag)?, flag)?,
            "--fft-config" => {
                let idx: usize = parse_num(&take(args, &mut i, flag)?, flag)?;
                if idx > 7 {
                    return Err("--fft-config must be 0..7".into());
                }
                opts.config.fft = FftConfig::from_index(idx);
            }
            "--filter-every" => {
                opts.config.params.filter_every = parse_num(&take(args, &mut i, flag)?, flag)?
            }
            "--filter-tol" => {
                opts.config.params.filter_tolerance =
                    parse_f(&take(args, &mut i, flag)?, flag)?
            }
            "--diag-every" => {
                opts.config.diag_every = parse_num(&take(args, &mut i, flag)?, flag)?
            }
            "--ownership" => opts.config.record_ownership = true,
            "--matrix" => opts.print_matrix = true,
            "--vtk-every" => opts.config.vtk_every = parse_num(&take(args, &mut i, flag)?, flag)?,
            "--out" => opts.config.out_dir = PathBuf::from(take(args, &mut i, flag)?),
            "--log" => opts.log_path = Some(PathBuf::from(take(args, &mut i, flag)?)),
            "--profile" => opts.profile_path = Some(PathBuf::from(take(args, &mut i, flag)?)),
            "--profile-summary" => opts.profile_summary = true,
            "--metrics" => {
                opts.config.metrics_path = Some(PathBuf::from(take(args, &mut i, flag)?))
            }
            "--metrics-every" => {
                opts.config.metrics_every = parse_num(&take(args, &mut i, flag)?, flag)?
            }
            "--faults" => {
                let spec = take(args, &mut i, flag)?;
                // Validate eagerly so a typo fails at the prompt, not
                // five minutes into the run.
                beatnik_comm::FaultPlan::parse(&spec, beatnik_comm::seed_from_env())?;
                opts.fault_spec = Some(spec);
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = parse_num(&take(args, &mut i, flag)?, flag)?
            }
            other => return Err(format!("unknown option '{other}'\n\n{USAGE}")),
        }
        i += 1;
    }
    if opts.ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    if opts.procs && opts.transport == TransportKind::Thread {
        return Err("--procs needs a cross-process backend: --transport shmem or tcp".into());
    }
    // Wire-level (`@link`) chaos only delays frames, so it is the one
    // fault flavour the plain `--procs` loop can carry.
    let op_level_faults = opts.fault_spec.is_some() && !opts.wire_chaos_only();
    if opts.procs && (op_level_faults || opts.checkpoint_every > 0 || opts.profiling()) {
        return Err(
            "--procs runs the plain driver loop; wire-level @link faults are allowed, \
             but drop op-level --faults/--checkpoint-every/--profile/--metrics"
                .into(),
        );
    }
    opts.config.validate()?;
    Ok(opts)
}

/// Options for the `rocketrig serve` subcommand.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address (`--addr`).
    pub addr: String,
    /// Rank slots in the shared pool (`--pool`).
    pub pool_ranks: usize,
    /// Queue depth before 429s (`--max-queue`).
    pub max_queue: usize,
    /// Checkpoint directory (`--ckpt-dir`).
    pub ckpt_dir: PathBuf,
    /// Largest accepted mesh edge (`--max-mesh-n`).
    pub max_mesh_n: usize,
    /// Largest accepted step count (`--max-steps`).
    pub max_steps: usize,
}

/// Usage text for `rocketrig serve`.
pub const SERVE_USAGE: &str = "rocketrig serve - run a multi-tenant simulation service

USAGE:
    rocketrig serve [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>     listen address            [127.0.0.1:7747]
    --pool <N>             rank slots in the pool    [8]
    --max-queue <N>        queued jobs before 429    [256]
    --ckpt-dir <DIR>       checkpoint directory      [<tmp>/beatnik-serve]
    --max-mesh-n <N>       largest accepted mesh     [256]
    --max-steps <N>        largest accepted steps    [100000]
    --help                 print this text

The server exposes GET /healthz, GET /metrics (OpenMetrics), GET /jobs,
POST /jobs, GET /jobs/{id}, DELETE /jobs/{id}. SIGTERM (or SIGINT)
drains gracefully: queued jobs are canceled, running jobs checkpoint
and stop.
";

/// Parse `rocketrig serve` arguments (not including argv[0] or the
/// literal `serve`).
pub fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions {
        addr: "127.0.0.1:7747".to_string(),
        pool_ranks: 8,
        max_queue: 256,
        ckpt_dir: std::env::temp_dir().join("beatnik-serve"),
        max_mesh_n: 256,
        max_steps: 100_000,
    };
    let mut i = 0;
    let take = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {flag}"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--help" | "-h" => return Err(SERVE_USAGE.to_string()),
            "--addr" => opts.addr = take(args, &mut i, flag)?,
            "--pool" => opts.pool_ranks = parse_num(&take(args, &mut i, flag)?, flag)?,
            "--max-queue" => opts.max_queue = parse_num(&take(args, &mut i, flag)?, flag)?,
            "--ckpt-dir" => opts.ckpt_dir = PathBuf::from(take(args, &mut i, flag)?),
            "--max-mesh-n" => opts.max_mesh_n = parse_num(&take(args, &mut i, flag)?, flag)?,
            "--max-steps" => opts.max_steps = parse_num(&take(args, &mut i, flag)?, flag)?,
            other => return Err(format!("unknown option '{other}'\n\n{SERVE_USAGE}")),
        }
        i += 1;
    }
    if opts.pool_ranks == 0 {
        return Err("--pool must be at least 1".into());
    }
    if opts.max_queue == 0 {
        return Err("--max-queue must be at least 1".into());
    }
    Ok(opts)
}

fn parse_num(s: &str, flag: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("bad integer for {flag}: '{s}'"))
}

fn parse_f(s: &str, flag: &str) -> Result<f64, String> {
    s.parse().map_err(|_| format!("bad number for {flag}: '{s}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_parse_from_empty() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.ranks, 4);
        assert_eq!(o.config.mesh_n, 64);
        assert_eq!(o.config.order, Order::Low);
    }

    #[test]
    fn full_command_line() {
        let o = parse_args(&sv(&[
            "--deck", "singlemode", "--order", "high", "--solver", "exact", "--n", "32",
            "--steps", "5", "--ranks", "2", "--atwood", "0.3", "--gravity", "1.5", "--mu",
            "0.0", "--epsilon", "0.1", "--cutoff", "0.7", "--dt", "0.002", "--fft-config",
            "3", "--diag-every", "2", "--ownership", "--vtk-every", "4", "--out", "/tmp/x",
            "--log", "/tmp/x/log.json",
        ]))
        .unwrap();
        assert_eq!(o.config.deck, Deck::SingleModeOpen);
        assert_eq!(o.config.order, Order::High);
        assert!(!o.config.cutoff_solver);
        assert_eq!(o.config.mesh_n, 32);
        assert_eq!(o.ranks, 2);
        assert_eq!(o.config.params.atwood, 0.3);
        assert_eq!(o.config.fft.index(), 3);
        assert!(o.config.record_ownership);
        assert_eq!(o.config.vtk_every, 4);
        assert_eq!(o.log_path.unwrap(), PathBuf::from("/tmp/x/log.json"));
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(parse_args(&sv(&["--deck", "cube"])).is_err());
        assert!(parse_args(&sv(&["--order", "ultra"])).is_err());
        assert!(parse_args(&sv(&["--n"])).is_err());
        assert!(parse_args(&sv(&["--n", "abc"])).is_err());
        assert!(parse_args(&sv(&["--fft-config", "9"])).is_err());
        assert!(parse_args(&sv(&["--ranks", "0"])).is_err());
        assert!(parse_args(&sv(&["--atwood", "2.0"])).is_err());
        // Non-finite values parse as numbers but fail validation, NaN
        // included (it passes no ordered comparison).
        for (flag, value) in [
            ("--dt", "nan"),
            ("--epsilon", "nan"),
            ("--epsilon", "inf"),
            ("--cutoff", "inf"),
            ("--mu", "nan"),
            ("--gravity", "nan"),
            ("--atwood", "-inf"),
            ("--filter-tol", "nan"),
        ] {
            let err = parse_args(&sv(&[flag, value])).unwrap_err();
            assert!(err.contains("must be finite"), "{flag} {value}: {err}");
        }
        assert!(parse_args(&sv(&["--frobnicate"])).is_err());
        // Unknown solver values and flags fail, naming what was given.
        for (args, named) in [
            (&["--solver", "tree"][..], "'tree'"),
            (&["--solver", "balanced"], "'balanced'"),
            (&["--theta", "0.5"], "'--theta'"),
        ] {
            let err = parse_args(&sv(args)).unwrap_err();
            assert!(err.contains(named), "{args:?}: {err}");
        }
    }

    #[test]
    fn filter_options() {
        let o = parse_args(&sv(&["--filter-every", "10", "--filter-tol", "1e-10"])).unwrap();
        assert_eq!(o.config.params.filter_every, 10);
        assert_eq!(o.config.params.filter_tolerance, 1e-10);
        assert!(parse_args(&sv(&["--filter-tol", "-1.0"])).is_err());
    }

    #[test]
    fn solver_flag_is_last_one_wins() {
        use beatnik_core::solver::BrChoice;
        let br = |args: &[&str]| {
            let mut args = args.to_vec();
            args.extend(["--order", "high"]);
            parse_args(&sv(&args)).unwrap().config.solver_config().br
        };
        assert!(matches!(br(&[]), BrChoice::Cutoff { .. }));
        assert_eq!(br(&["--solver", "cutoff", "--solver", "exact"]), BrChoice::Exact);
        assert!(matches!(
            br(&["--solver", "exact", "--solver", "cutoff"]),
            BrChoice::Cutoff { .. }
        ));
    }

    /// The FFT orders need periodic boundaries: on the open deck they
    /// fail at the prompt with one line, not on every rank.
    #[test]
    fn fft_orders_on_the_open_deck_are_refused() {
        for order in ["low", "medium"] {
            let err = parse_args(&sv(&["--order", order, "--deck", "singlemode"])).unwrap_err();
            assert!(err.contains(&format!("order {order} needs periodic boundaries")), "{err}");
            assert!(!err.contains('\n'), "{err}");
        }
        assert!(parse_args(&sv(&["--order", "high", "--deck", "singlemode"])).is_ok());
        assert!(parse_args(&sv(&["--order", "medium", "--deck", "multimode"])).is_ok());
    }

    #[test]
    fn profile_options() {
        let o = parse_args(&[]).unwrap();
        assert!(!o.profiling());
        let o = parse_args(&sv(&["--profile", "/tmp/t.json"])).unwrap();
        assert_eq!(o.profile_path.unwrap(), PathBuf::from("/tmp/t.json"));
        assert!(!o.profile_summary);
        let o = parse_args(&sv(&["--profile-summary"])).unwrap();
        assert!(o.profile_summary && o.profiling());
        assert!(parse_args(&sv(&["--profile"])).is_err());
    }

    #[test]
    fn metrics_options() {
        let o = parse_args(&[]).unwrap();
        assert!(o.config.metrics_path.is_none());
        assert_eq!(o.config.metrics_every, 0);
        let o = parse_args(&sv(&["--metrics", "/tmp/m.om", "--metrics-every", "5"])).unwrap();
        assert_eq!(o.config.metrics_path, Some(PathBuf::from("/tmp/m.om")));
        assert_eq!(o.config.metrics_every, 5);
        // --metrics implies a span-recorded run (for critical-path.json).
        assert!(o.profiling());
        assert!(parse_args(&sv(&["--metrics"])).is_err());
        assert!(parse_args(&sv(&["--metrics-every", "x"])).is_err());
    }

    #[test]
    fn fault_options() {
        let o = parse_args(&[]).unwrap();
        assert!(!o.fault_tolerant());
        let o = parse_args(&sv(&[
            "--faults",
            "kill:r2@step5",
            "--checkpoint-every",
            "2",
        ]))
        .unwrap();
        assert_eq!(o.fault_spec.as_deref(), Some("kill:r2@step5"));
        assert_eq!(o.checkpoint_every, 2);
        assert!(o.fault_tolerant());
        // Checkpointing alone also opts into the recovery loop.
        let o = parse_args(&sv(&["--checkpoint-every", "3"])).unwrap();
        assert!(o.fault_tolerant());
        // Bad specs fail at the prompt.
        assert!(parse_args(&sv(&["--faults", "explode:r2@step5"])).is_err());
        assert!(parse_args(&sv(&["--faults", "drop:r0@step3"])).is_err());
        assert!(parse_args(&sv(&["--faults"])).is_err());
    }

    #[test]
    fn transport_options() {
        let o = parse_args(&[]).unwrap();
        assert!(!o.procs && !o.print_config);
        let o = parse_args(&sv(&["--transport", "shmem", "--procs"])).unwrap();
        assert_eq!(o.transport, TransportKind::Shmem);
        assert!(o.procs);
        let o = parse_args(&sv(&["--transport", "tcp", "--print-config"])).unwrap();
        assert_eq!(o.transport, TransportKind::Tcp);
        assert!(o.print_config);
        // --procs needs a cross-process backend and the plain loop.
        assert!(parse_args(&sv(&["--procs"])).is_err());
        assert!(parse_args(&sv(&["--transport", "carrier-pigeon"])).is_err());
        assert!(
            parse_args(&sv(&["--transport", "shmem", "--procs", "--profile-summary"])).is_err()
        );
    }

    #[test]
    fn procs_accepts_wire_chaos_but_not_op_level_faults() {
        // Pure @link plans compose with the plain --procs loop: a
        // delayed frame arrives whole, the driver never notices.
        let o = parse_args(&sv(&[
            "--transport",
            "tcp",
            "--procs",
            "--faults",
            "delay:r0>r1@link3:2ms,delay:r1>r0@link5:4ms",
        ]))
        .unwrap();
        assert!(o.wire_chaos_only());
        assert!(o.fault_plan().unwrap().link_only());

        // An op-level kill still needs the fault-tolerant driver.
        let err = parse_args(&sv(&[
            "--transport",
            "tcp",
            "--procs",
            "--faults",
            "kill:r1@step3",
        ]))
        .unwrap_err();
        assert!(err.contains("op-level"), "unexpected error: {err}");

        // Mixed plans count as op-level too.
        assert!(parse_args(&sv(&[
            "--transport",
            "tcp",
            "--procs",
            "--faults",
            "delay:r0>r1@link3:2ms,kill:r1@step3",
        ]))
        .is_err());

        // Checkpointing keeps requiring the FT driver.
        assert!(parse_args(&sv(&[
            "--transport",
            "tcp",
            "--procs",
            "--checkpoint-every",
            "2",
        ]))
        .is_err());

        // Without --procs nothing changes.
        let o = parse_args(&sv(&["--faults", "kill:r1@step3"])).unwrap();
        assert!(!o.wire_chaos_only() && o.fault_tolerant());
    }

    #[test]
    fn help_returns_usage() {
        let err = parse_args(&sv(&["--help"])).unwrap_err();
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn serve_defaults() {
        let o = parse_serve_args(&[]).unwrap();
        assert_eq!(o.addr, "127.0.0.1:7747");
        assert_eq!(o.pool_ranks, 8);
        assert_eq!(o.max_queue, 256);
        assert_eq!(o.max_mesh_n, 256);
        assert_eq!(o.max_steps, 100_000);
    }

    #[test]
    fn serve_options_parse() {
        let o = parse_serve_args(&sv(&[
            "--addr",
            "0.0.0.0:9000",
            "--pool",
            "4",
            "--max-queue",
            "16",
            "--ckpt-dir",
            "/tmp/ck",
            "--max-mesh-n",
            "64",
            "--max-steps",
            "500",
        ]))
        .unwrap();
        assert_eq!(o.addr, "0.0.0.0:9000");
        assert_eq!(o.pool_ranks, 4);
        assert_eq!(o.max_queue, 16);
        assert_eq!(o.ckpt_dir, PathBuf::from("/tmp/ck"));
        assert_eq!(o.max_mesh_n, 64);
        assert_eq!(o.max_steps, 500);
    }

    #[test]
    fn serve_rejects_bad_input() {
        assert!(parse_serve_args(&sv(&["--pool", "0"])).is_err());
        assert!(parse_serve_args(&sv(&["--max-queue", "0"])).is_err());
        assert!(parse_serve_args(&sv(&["--addr"])).is_err());
        assert!(parse_serve_args(&sv(&["--bogus"])).is_err());
        let err = parse_serve_args(&sv(&["--help"])).unwrap_err();
        assert!(err.contains("rocketrig serve"));
    }
}

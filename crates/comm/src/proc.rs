//! One process per rank: spawn, rendezvous, join.
//!
//! [`spmd`] turns the current binary into an `mpirun`-style launcher.
//! The calling process hosts **world rank 0**; every other rank is a
//! re-exec of `std::env::current_exe()` with a role, rank, and
//! rendezvous information carried in `BEATNIK_PROC_*` environment
//! variables (plus the parent's resolved [`CommConfig`], re-exported as
//! the ordinary `BEATNIK_*` variables so every process agrees on
//! timeouts and ring sizes without re-reading a possibly-racing
//! environment).
//!
//! The child re-enters the same code path the parent ran — a test
//! re-runs itself via libtest's `--exact` filter, `rocketrig` re-runs
//! its own argv — and [`spmd`] detects the child role, joins the world,
//! runs the rank closure, and **exits the process** (it never returns
//! in a child). Exit codes form the join protocol:
//!
//! * `0` — clean completion (the rank also said `Bye` on the wire),
//! * [`EXIT_KILLED`] (86) — the rank died by fault injection
//!   ([`crate::fault::RankKilled`]); the parent records it and carries on,
//! * anything else — a real failure; the parent panics after reaping.

use crate::communicator::Communicator;
use crate::config::CommConfig;
use crate::fault::{FaultInjector, FaultPlan, RankKilled};
use crate::registry::{Registry, WORLD_COMM_ID};
use crate::trace::RankTrace;
use crate::transport::chaos::{ChaosTransport, LinkChaos};
use crate::transport::{shmem, tcp, CtrlMsg, Transport, TransportKind};
use beatnik_telemetry::metrics::MetricsRegistry;
use beatnik_telemetry::SpanRecorder;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Role marker: set (to the child's rank) in every spawned process.
pub const RANK_ENV: &str = "BEATNIK_PROC_RANK";

/// World size, set in every spawned process.
pub const SIZE_ENV: &str = "BEATNIK_PROC_SIZE";

/// Shmem rendezvous: the ring directory created by the parent.
pub const SHM_DIR_ENV: &str = "BEATNIK_PROC_SHM_DIR";

/// TCP rendezvous: the parent's listen address.
pub const TCP_PARENT_ENV: &str = "BEATNIK_PROC_TCP_PARENT";

/// Fault plan spec shipped to every spawned rank (see
/// [`FaultPlan::to_spec`]); the seed rides in `BEATNIK_FAULT_SEED`.
pub const FAULT_PLAN_ENV: &str = "BEATNIK_PROC_FAULT_PLAN";

/// Exit code of a child whose rank died by fault injection: part of the
/// experiment, not a launcher failure.
pub const EXIT_KILLED: i32 = 86;

/// How long the parent waits for children to exit after its own rank
/// completes before killing them.
const REAP_TIMEOUT: Duration = Duration::from_secs(60);

/// Whether this process is a spawned child rank (and which rank).
pub fn child_rank() -> Option<usize> {
    std::env::var(RANK_ENV).ok()?.parse().ok()
}

/// Launcher failures a caller can handle instead of unwinding — today
/// just rendezvous breakdown (a child crashed before joining, so the
/// parent's accept loop hit its deadline instead of hanging forever).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpmdError {
    /// The world never fully assembled within the handshake timeout.
    Rendezvous {
        /// What the rendezvous was waiting on when it gave up.
        detail: String,
    },
}

impl std::fmt::Display for SpmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpmdError::Rendezvous { detail } => write!(f, "spmd rendezvous failed: {detail}"),
        }
    }
}

impl std::error::Error for SpmdError {}

/// Run `f` as an SPMD program over `num_ranks` processes, one per rank.
///
/// In the launching process this spawns `num_ranks - 1` children (each
/// re-executes the current binary with `child_args`), hosts rank 0
/// itself, reaps the children, and returns `(rank 0's result, killed
/// world ranks)`. In a child process (detected via [`child_rank`]) it
/// joins the world, runs `f`, and exits — it never returns.
///
/// `child_args` must make the re-executed binary reach this same
/// [`spmd`] call: for a libtest binary, `["<exact test path>",
/// "--exact", "--nocapture", "--test-threads=1"]`; for an application,
/// usually its own argv tail.
pub fn spmd<R, F>(
    num_ranks: usize,
    kind: TransportKind,
    child_args: &[&str],
    f: F,
) -> (R, Vec<usize>)
where
    F: FnOnce(Communicator) -> R,
{
    spmd_with(num_ranks, kind, child_args, None, f)
}

/// [`spmd`] with a fault plan: op-level actions build per-rank
/// injectors, `@link` actions build the wire-level chaos engine, and
/// the whole plan ships to children via [`FAULT_PLAN_ENV`] so every
/// process replays the same seeded schedule.
pub fn spmd_with<R, F>(
    num_ranks: usize,
    kind: TransportKind,
    child_args: &[&str],
    plan: Option<&FaultPlan>,
    f: F,
) -> (R, Vec<usize>)
where
    F: FnOnce(Communicator) -> R,
{
    match try_spmd(num_ranks, kind, child_args, plan, f) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`spmd_with`]: rendezvous breakdown comes back as a typed
/// [`SpmdError`] instead of a panic, so launchers can retry or report.
/// In a child process this still never returns (the child exits).
pub fn try_spmd<R, F>(
    num_ranks: usize,
    kind: TransportKind,
    child_args: &[&str],
    plan: Option<&FaultPlan>,
    f: F,
) -> Result<(R, Vec<usize>), SpmdError>
where
    F: FnOnce(Communicator) -> R,
{
    assert!(num_ranks > 0, "world needs at least one rank");
    let config = {
        let mut c = CommConfig::from_env();
        c.transport = kind;
        if let Some(p) = plan {
            c.fault_seed = p.seed;
        }
        c
    };
    match child_rank() {
        Some(rank) => child_main(rank, &config, f),
        None => parent_main(num_ranks, &config, child_args, plan, f),
    }
}

/// Build the per-process world plumbing shared by parent and children.
fn join_world<R, F>(
    rank: usize,
    num_ranks: usize,
    config: &CommConfig,
    transport: Arc<dyn Transport>,
    injector: Option<Arc<FaultInjector>>,
    f: F,
) -> std::thread::Result<R>
where
    F: FnOnce(Communicator) -> R,
{
    let registry = Arc::new(Registry::new());
    registry.install_transport(Arc::clone(&transport));
    transport.attach(&registry);

    let metrics = Arc::new(MetricsRegistry::new());
    let trace = Arc::new(RankTrace::with_registry(&metrics, rank));
    let comm = Communicator::new(
        Arc::clone(&registry),
        WORLD_COMM_ID,
        rank,
        num_ranks,
        Arc::new((0..num_ranks).collect()),
        trace,
        Arc::new(SpanRecorder::disabled()),
        config.recv_timeout,
    )
    .with_fault(injector);
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm)));
    match &out {
        // A clean goodbye first, so peers treat the coming disconnect
        // as shutdown rather than failure.
        Ok(_) => transport.publish_ctrl(CtrlMsg::Bye(rank)),
        Err(p) if p.downcast_ref::<RankKilled>().is_some() => {
            // The ledger broadcast already happened in mark_failed.
        }
        Err(_) => registry.signal_abort(),
    }
    transport.shutdown();
    out
}

fn build_child_transport(
    rank: usize,
    num_ranks: usize,
    config: &CommConfig,
    chaos: Option<Arc<LinkChaos>>,
) -> Arc<dyn Transport> {
    let bare: Arc<dyn Transport> = match config.transport {
        TransportKind::Thread => {
            panic!("the thread transport cannot span processes; use shmem or tcp")
        }
        TransportKind::Shmem => {
            let dir = std::env::var(SHM_DIR_ENV)
                .unwrap_or_else(|_| panic!("child missing {SHM_DIR_ENV}"));
            Arc::new(
                shmem::for_process(std::path::Path::new(&dir), rank, num_ranks, config.shm_ring_bytes)
                    .unwrap_or_else(|e| panic!("rank {rank}: joining shm world: {e}")),
            )
        }
        TransportKind::Tcp => {
            let addr = std::env::var(TCP_PARENT_ENV)
                .unwrap_or_else(|_| panic!("child missing {TCP_PARENT_ENV}"));
            Arc::new(
                tcp::child(&addr, rank, num_ranks, config)
                    .unwrap_or_else(|e| panic!("rank {rank}: joining tcp world: {e}")),
            )
        }
    };
    ChaosTransport::wrap(bare, chaos)
}

/// Reconstruct the launcher's fault plan from the environment (children
/// only; [`spawn_children`] ships the spec and seed).
fn plan_from_env(config: &CommConfig) -> Option<FaultPlan> {
    let spec = std::env::var(FAULT_PLAN_ENV).ok()?;
    match FaultPlan::parse(&spec, config.fault_seed) {
        Ok(plan) => Some(plan),
        Err(e) => panic!("child could not parse {FAULT_PLAN_ENV}={spec:?}: {e}"),
    }
}

fn child_main<R, F>(rank: usize, config: &CommConfig, f: F) -> !
where
    F: FnOnce(Communicator) -> R,
{
    let num_ranks: usize = std::env::var(SIZE_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("child missing {SIZE_ENV}"));
    let plan = plan_from_env(config);
    let chaos = plan.as_ref().and_then(LinkChaos::from_plan);
    let injector = plan.as_ref().and_then(|p| p.injector_for(rank));
    let transport = build_child_transport(rank, num_ranks, config, chaos);
    match join_world(rank, num_ranks, config, transport, injector, f) {
        Ok(_) => std::process::exit(0),
        Err(p) if p.downcast_ref::<RankKilled>().is_some() => std::process::exit(EXIT_KILLED),
        Err(_) => std::process::exit(101),
    }
}

fn parent_main<R, F>(
    num_ranks: usize,
    config: &CommConfig,
    child_args: &[&str],
    plan: Option<&FaultPlan>,
    f: F,
) -> Result<(R, Vec<usize>), SpmdError>
where
    F: FnOnce(Communicator) -> R,
{
    let exe = std::env::current_exe().expect("resolving current executable");
    let chaos = plan.and_then(LinkChaos::from_plan);
    let injector = plan.and_then(|p| p.injector_for(0));
    // A shmem world's ring files go when this returns or unwinds,
    // however the world ended.
    let mut world_dir = None;

    // Rendezvous state the children need, plus our own transport.
    let (transport, rendezvous): (Arc<dyn Transport>, (&str, String)) = match config.transport {
        TransportKind::Thread => {
            panic!("the thread transport cannot span processes; use shmem or tcp")
        }
        TransportKind::Shmem => {
            let dir = world_dir.insert(shmem::WorldDir::create().expect("creating the shm world directory"));
            let t = shmem::for_process(dir.path(), 0, num_ranks, config.shm_ring_bytes)
                .expect("joining the shm world as rank 0");
            let dir_str = dir.path().to_string_lossy().into_owned();
            (ChaosTransport::wrap(Arc::new(t), chaos), (SHM_DIR_ENV, dir_str))
        }
        TransportKind::Tcp => {
            let listener = TcpListener::bind("127.0.0.1:0").expect("binding the parent listener");
            let addr = listener.local_addr().unwrap().to_string();
            // Children connect while we block in tcp::parent below, so
            // spawn first, accept after.
            let children = spawn_children(
                &exe,
                child_args,
                num_ranks,
                config,
                plan,
                (TCP_PARENT_ENV, addr.clone()),
            );
            // A crashed child leaves the accept loop short; its
            // deadline turns that into a typed error instead of a
            // parent that hangs forever at rendezvous.
            let t = match tcp::parent(listener, num_ranks, config) {
                Ok(t) => t,
                Err(e) => {
                    abandon_children(children);
                    return Err(SpmdError::Rendezvous {
                        detail: e.to_string(),
                    });
                }
            };
            return Ok(run_parent_rank(
                num_ranks,
                config,
                ChaosTransport::wrap(Arc::new(t), chaos),
                injector,
                children,
                f,
            ));
        }
    };

    let children = spawn_children(&exe, child_args, num_ranks, config, plan, rendezvous);
    Ok(run_parent_rank(
        num_ranks, config, transport, injector, children, f,
    ))
}

/// Kill and reap children after a failed rendezvous: the world never
/// assembled, so exit codes carry no protocol meaning.
fn abandon_children(children: Vec<(usize, std::process::Child)>) {
    for (_, mut child) in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

fn spawn_children(
    exe: &std::path::Path,
    child_args: &[&str],
    num_ranks: usize,
    config: &CommConfig,
    plan: Option<&FaultPlan>,
    rendezvous: (&str, String),
) -> Vec<(usize, std::process::Child)> {
    (1..num_ranks)
        .map(|rank| {
            let mut cmd = std::process::Command::new(exe);
            cmd.args(child_args)
                .env(RANK_ENV, rank.to_string())
                .env(SIZE_ENV, num_ranks.to_string())
                .env(rendezvous.0, &rendezvous.1)
                // Ship the *resolved* config so every process agrees.
                .env(crate::config::TRANSPORT_ENV, config.transport.name())
                .env(crate::fault::FAULT_SEED_ENV, config.fault_seed.to_string())
                .env(
                    crate::config::RECV_TIMEOUT_ENV,
                    config.recv_timeout.as_millis().to_string(),
                )
                .env(
                    crate::config::SHM_RING_BYTES_ENV,
                    config.shm_ring_bytes.to_string(),
                )
                .env(
                    crate::config::HANDSHAKE_TIMEOUT_ENV,
                    config.handshake_timeout.as_millis().to_string(),
                );
            if let Some(p) = plan {
                cmd.env(FAULT_PLAN_ENV, p.to_spec());
            }
            let child = cmd
                .spawn()
                .unwrap_or_else(|e| panic!("spawning child rank {rank}: {e}"));
            (rank, child)
        })
        .collect()
}

fn run_parent_rank<R, F>(
    num_ranks: usize,
    config: &CommConfig,
    transport: Arc<dyn Transport>,
    injector: Option<Arc<FaultInjector>>,
    children: Vec<(usize, std::process::Child)>,
    f: F,
) -> (R, Vec<usize>)
where
    F: FnOnce(Communicator) -> R,
{
    let out = join_world(0, num_ranks, config, transport, injector, f);
    let killed = reap(children, out.is_err());
    match out {
        Ok(r) => (r, killed),
        Err(p) => std::panic::resume_unwind(p),
    }
}

/// Wait for every child, killing stragglers past [`REAP_TIMEOUT`] (or
/// immediately when the parent rank itself failed). Returns the world
/// ranks that exited with [`EXIT_KILLED`]; panics on any other nonzero
/// exit.
fn reap(children: Vec<(usize, std::process::Child)>, parent_failed: bool) -> Vec<usize> {
    let deadline = Instant::now() + if parent_failed { Duration::ZERO } else { REAP_TIMEOUT };
    let mut killed = Vec::new();
    let mut bad: Vec<String> = Vec::new();
    for (rank, mut child) in children {
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() > deadline => {
                    let _ = child.kill();
                    break child.wait().expect("reaping a killed child");
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => panic!("waiting for child rank {rank}: {e}"),
            }
        };
        match status.code() {
            Some(0) => {}
            Some(EXIT_KILLED) => killed.push(rank),
            other => bad.push(format!("rank {rank} exited with {other:?}")),
        }
    }
    if !bad.is_empty() && !parent_failed {
        panic!("child ranks failed: {}", bad.join(", "));
    }
    killed.sort_unstable();
    killed
}

//! Typed world configuration: the single gathering point for every
//! `BEATNIK_*` environment variable the comm runtime reads.
//!
//! [`CommConfig::from_env`] is the one place the environment is
//! consulted, [`crate::WorldBuilder`] carries the resulting struct, and
//! `rocketrig --print-config` prints it so a run's effective
//! configuration is always inspectable.
//!
//! | variable                 | field            | default          |
//! |--------------------------|------------------|------------------|
//! | `BEATNIK_TRANSPORT`      | `transport`      | `thread`         |
//! | `BEATNIK_FAULT_SEED`     | `fault_seed`     | `0xBEA7`         |
//! | `BEATNIK_RECV_TIMEOUT_MS`| `recv_timeout`   | 120 000 ms       |
//! | `BEATNIK_SHM_RING_BYTES` | `shm_ring_bytes` | 8 MiB            |
//! | `BEATNIK_HANDSHAKE_TIMEOUT_MS` | `handshake_timeout` | 30 000 ms |
//!
//! TCP has no liveness or reconnect knobs: a torn stream is a failed
//! peer (DESIGN.md §16).
//!
//! Unset or unparseable values fall back to the defaults — a typo'd
//! override must never abort a run, only fail to take effect.

use crate::transport::TransportKind;
use std::time::Duration;

/// Name of the environment variable selecting the transport backend.
pub const TRANSPORT_ENV: &str = "BEATNIK_TRANSPORT";

/// Name of the environment variable overriding the receive deadline.
pub const RECV_TIMEOUT_ENV: &str = "BEATNIK_RECV_TIMEOUT_MS";

/// Name of the environment variable sizing shared-memory rings.
pub const SHM_RING_BYTES_ENV: &str = "BEATNIK_SHM_RING_BYTES";

/// Default per-pair shared-memory ring capacity. Large enough that a
/// serialized payload at rocketrig scales fits whole; a frame larger
/// than the ring is a hard error telling the user to raise this.
pub const DEFAULT_SHM_RING_BYTES: usize = 8 * 1024 * 1024;

/// Name of the environment variable bounding rendezvous handshakes.
pub const HANDSHAKE_TIMEOUT_ENV: &str = "BEATNIK_HANDSHAKE_TIMEOUT_MS";

/// Default rendezvous handshake deadline (parent accept loop, child
/// dial loop). A child that crashes during startup turns into a typed
/// error after this long instead of a hang.
pub const DEFAULT_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// Every tunable the comm runtime reads from the environment, resolved
/// once at world construction (a mid-run env change cannot split a
/// world across two configurations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommConfig {
    /// Which [`TransportKind`] carries envelopes between ranks.
    pub transport: TransportKind,
    /// Seed for the deterministic fault-injection engine.
    pub fault_seed: u64,
    /// Stall limit for blocking receives; doubles as the
    /// failure-detection deadline for fault-tolerant drivers.
    pub recv_timeout: Duration,
    /// Capacity of each per-pair shared-memory ring (shmem backend).
    pub shm_ring_bytes: usize,
    /// Deadline for rendezvous handshakes (parent accept / child dial).
    pub handshake_timeout: Duration,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            transport: TransportKind::Thread,
            fault_seed: crate::fault::DEFAULT_FAULT_SEED,
            recv_timeout: crate::world::DEFAULT_RECV_TIMEOUT,
            shm_ring_bytes: DEFAULT_SHM_RING_BYTES,
            handshake_timeout: DEFAULT_HANDSHAKE_TIMEOUT,
        }
    }
}

impl CommConfig {
    /// Resolve the configuration from the process environment. This is
    /// the *only* place `BEATNIK_*` variables are consulted.
    pub fn from_env() -> Self {
        let get = |name: &str| std::env::var(name).ok();
        Self::from_lookup(|name| get(name))
    }

    /// Resolve from an arbitrary lookup function. Split out from
    /// [`CommConfig::from_env`] so parsing is testable without mutating
    /// process-global environment state under a parallel test runner.
    pub fn from_lookup<F: Fn(&str) -> Option<String>>(get: F) -> Self {
        let d = CommConfig::default();
        CommConfig {
            transport: get(TRANSPORT_ENV)
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or(d.transport),
            fault_seed: parse_or(get(crate::fault::FAULT_SEED_ENV), d.fault_seed),
            recv_timeout: millis_or(get(RECV_TIMEOUT_ENV), d.recv_timeout),
            shm_ring_bytes: parse_or(get(SHM_RING_BYTES_ENV), d.shm_ring_bytes),
            handshake_timeout: millis_or(get(HANDSHAKE_TIMEOUT_ENV), d.handshake_timeout),
        }
    }
}

fn millis_or(raw: Option<String>, default: Duration) -> Duration {
    raw.and_then(|s| s.trim().parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(default)
}

fn parse_or<T: std::str::FromStr>(raw: Option<String>, default: T) -> T {
    raw.and_then(|s| s.trim().parse().ok()).unwrap_or(default)
}

impl std::fmt::Display for CommConfig {
    /// `key = value` lines, one per field, annotated with the env var
    /// that controls it — the format `rocketrig --print-config` emits.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "transport      = {} ({TRANSPORT_ENV})", self.transport)?;
        writeln!(
            f,
            "fault_seed     = {:#x} ({})",
            self.fault_seed,
            crate::fault::FAULT_SEED_ENV
        )?;
        writeln!(
            f,
            "recv_timeout   = {}ms ({RECV_TIMEOUT_ENV})",
            self.recv_timeout.as_millis()
        )?;
        writeln!(
            f,
            "shm_ring_bytes = {} ({SHM_RING_BYTES_ENV})",
            self.shm_ring_bytes
        )?;
        write!(
            f,
            "handshake_timeout = {}ms ({HANDSHAKE_TIMEOUT_ENV})",
            self.handshake_timeout.as_millis()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_when_nothing_is_set() {
        let c = CommConfig::from_lookup(|_| None);
        assert_eq!(c, CommConfig::default());
        assert_eq!(c.transport, TransportKind::Thread);
        assert_eq!(c.fault_seed, 0xBEA7);
        assert_eq!(c.recv_timeout, Duration::from_secs(120));
        assert_eq!(c.handshake_timeout, Duration::from_secs(30));
    }

    #[test]
    fn overrides_parse_and_garbage_falls_back() {
        let c = CommConfig::from_lookup(|name| match name {
            TRANSPORT_ENV => Some("tcp".into()),
            "BEATNIK_FAULT_SEED" => Some("42".into()),
            RECV_TIMEOUT_ENV => Some("1500".into()),
            SHM_RING_BYTES_ENV => Some("65536".into()),
            HANDSHAKE_TIMEOUT_ENV => Some("750".into()),
            _ => None,
        });
        assert_eq!(c.transport, TransportKind::Tcp);
        assert_eq!(c.fault_seed, 42);
        assert_eq!(c.recv_timeout, Duration::from_millis(1500));
        assert_eq!(c.shm_ring_bytes, 65536);
        assert_eq!(c.handshake_timeout, Duration::from_millis(750));

        let c = CommConfig::from_lookup(|_| Some("garbage".into()));
        assert_eq!(c, CommConfig::default());
    }

    #[test]
    fn display_names_every_env_var() {
        let text = CommConfig::default().to_string();
        for var in [
            TRANSPORT_ENV,
            "BEATNIK_FAULT_SEED",
            RECV_TIMEOUT_ENV,
            SHM_RING_BYTES_ENV,
            HANDSHAKE_TIMEOUT_ENV,
        ] {
            assert!(text.contains(var), "missing {var} in:\n{text}");
        }
    }
}

//! The world-scope metrics plane.
//!
//! One [`MetricsPlane`] is installed per [`crate::World`] (into the
//! shared [`crate::registry::Registry`]), tying together everything
//! that publishes metrics:
//!
//! * the shared [`MetricsRegistry`] every [`RankTrace`] registers its
//!   atomic counters into,
//! * the per-rank [`SpanRecorder`]s (dropped-span counts, always-on
//!   phase-entry counts),
//! * and, at snapshot time, the world registry itself (mailbox
//!   posted-receive depth, failure ledger).
//!
//! The hot paths never see the plane: ranks write through the atomic
//! handles `RankTrace` obtained at registration. The plane only *reads*
//! — [`MetricsPlane::snapshot`] refreshes the pull-style gauges, copies
//! the registry, and synthesizes the families that live outside atomic
//! cells: per-phase entry counters and the per-phase P×P communication
//! matrix with its imbalance summary.

use crate::registry::{Registry, WORLD_COMM_ID};
use crate::trace::{MatrixImbalance, RankTrace};
use beatnik_telemetry::metrics::{
    Gauge, MetricFamily, MetricKind, MetricSample, MetricValue, MetricsRegistry, MetricsSnapshot,
};
use beatnik_telemetry::{
    algos, RankTimeline, SpanRecorder, StragglerConfig, StragglerReport, WorldTimeline,
};
use std::sync::Arc;

/// World-scope view over every metrics publisher (see module docs).
pub struct MetricsPlane {
    registry: Arc<MetricsRegistry>,
    traces: Vec<Arc<RankTrace>>,
    recorders: Vec<Arc<SpanRecorder>>,
    // Pull-style gauges, refreshed on every snapshot.
    dropped: Vec<Gauge>,
    posted: Vec<Gauge>,
    rank_failed: Vec<Gauge>,
    ranks_failed: Gauge,
}

impl MetricsPlane {
    /// Build the plane over a world's publishers, registering its
    /// pull-style gauges into `registry`. All vectors are indexed by
    /// world rank and must have equal length.
    pub fn new(
        registry: Arc<MetricsRegistry>,
        traces: Vec<Arc<RankTrace>>,
        recorders: Vec<Arc<SpanRecorder>>,
    ) -> Self {
        let n = traces.len();
        assert_eq!(recorders.len(), n, "one recorder per rank");
        let mut dropped = Vec::with_capacity(n);
        let mut posted = Vec::with_capacity(n);
        let mut rank_failed = Vec::with_capacity(n);
        for rank in 0..n {
            let r = rank.to_string();
            let labels: &[(&str, &str)] = &[("rank", &r)];
            dropped.push(registry.gauge(
                "beatnik_telemetry_dropped_spans",
                "Spans evicted from the rank's ring buffer (drop-oldest)",
                labels,
            ));
            posted.push(registry.gauge(
                "beatnik_mailbox_posted_receives",
                "Posted-receive registry depth of the rank's world mailbox",
                labels,
            ));
            rank_failed.push(registry.gauge(
                "beatnik_rank_failed",
                "1 while the rank is marked dead in the failure ledger",
                labels,
            ));
        }
        let ranks_failed = registry.gauge(
            "beatnik_ranks_failed",
            "Number of world ranks marked dead",
            &[],
        );
        MetricsPlane {
            registry,
            traces,
            recorders,
            dropped,
            posted,
            rank_failed,
            ranks_failed,
        }
    }

    /// Number of world ranks the plane observes.
    pub fn num_ranks(&self) -> usize {
        self.traces.len()
    }

    /// The shared registry the plane snapshots.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Refresh every pull-style gauge from its source of truth.
    fn refresh(&self, world: &Registry) {
        for rank in 0..self.num_ranks() {
            self.dropped[rank].set(self.recorders[rank].dropped_spans());
            self.posted[rank].set(world.mailbox(WORLD_COMM_ID, rank).posted_len() as u64);
        }
        let failed = world.failed_snapshot();
        for (rank, g) in self.rank_failed.iter().enumerate() {
            g.set(u64::from(failed.contains(&rank)));
        }
        self.ranks_failed.set(failed.len() as u64);
    }

    /// Refresh the pull gauges, copy the registry, and append the
    /// synthesized families (phase-entry counters, the per-phase comm
    /// matrix, and its imbalance summary). Safe to call mid-run from
    /// any thread: everything read is atomic or internally locked.
    pub fn snapshot(&self, world: &Registry) -> MetricsSnapshot {
        self.refresh(world);
        let mut snap = self.registry.snapshot();
        snap.push_family(self.phase_family());
        let (messages, bytes) = self.matrix_families();
        snap.push_family(messages);
        snap.push_family(bytes);
        for fam in self.imbalance_families() {
            snap.push_family(fam);
        }
        for fam in self.straggler_families() {
            snap.push_family(fam);
        }
        snap
    }

    /// `beatnik_comm_straggler_*` from replaying every rank's retained
    /// spans through the EWMA detector. Disabled recorders snapshot
    /// empty, so non-profiled runs pay nothing and expose a zero
    /// checks counter. Replay cost is O(retained spans), which is fine
    /// at the snapshot cadence (a handful per run, not per step).
    fn straggler_families(&self) -> Vec<MetricFamily> {
        let ranks = self
            .recorders
            .iter()
            .enumerate()
            .map(|(rank, rec)| {
                let (spans, dropped) = rec.snapshot();
                RankTimeline {
                    rank,
                    spans,
                    dropped,
                }
            })
            .collect();
        let tl = WorldTimeline::new(ranks);
        StragglerReport::from_timeline(&tl, StragglerConfig::default()).families()
    }

    /// `beatnik_phase_entries_total{rank,phase}` from the always-on
    /// phase counters of every recorder.
    fn phase_family(&self) -> MetricFamily {
        let mut samples = Vec::new();
        for (rank, rec) in self.recorders.iter().enumerate() {
            let r = rank.to_string();
            for (phase, count) in rec.phase_counts() {
                samples.push(MetricSample {
                    labels: vec![
                        ("rank".to_string(), r.clone()),
                        ("phase".to_string(), phase.to_string()),
                    ],
                    value: MetricValue::Counter(count),
                });
            }
        }
        MetricFamily {
            name: "beatnik_phase_entries_total".to_string(),
            help: "Times each solver phase was entered, per rank".to_string(),
            kind: MetricKind::Counter,
            samples,
        }
    }

    /// The per-phase P×P communication matrix as two counter families:
    /// `beatnik_comm_matrix_messages_total` and
    /// `beatnik_comm_matrix_bytes_total`, labelled
    /// `{src,dst,phase,algo}`.
    fn matrix_families(&self) -> (MetricFamily, MetricFamily) {
        let mut messages = Vec::new();
        let mut bytes = Vec::new();
        for (src, trace) in self.traces.iter().enumerate() {
            let s = src.to_string();
            for cell in trace.matrix_cells() {
                let labels = vec![
                    ("src".to_string(), s.clone()),
                    ("dst".to_string(), cell.dst.to_string()),
                    ("phase".to_string(), cell.phase.to_string()),
                    (
                        "algo".to_string(),
                        algos::name(cell.algo).unwrap_or("").to_string(),
                    ),
                ];
                messages.push(MetricSample {
                    labels: labels.clone(),
                    value: MetricValue::Counter(cell.messages),
                });
                bytes.push(MetricSample {
                    labels,
                    value: MetricValue::Counter(cell.bytes),
                });
            }
        }
        (
            MetricFamily {
                name: "beatnik_comm_matrix_messages_total".to_string(),
                help: "Point-to-point messages per (src,dst,phase,algo)".to_string(),
                kind: MetricKind::Counter,
                samples: messages,
            },
            MetricFamily {
                name: "beatnik_comm_matrix_bytes_total".to_string(),
                help: "Point-to-point payload bytes per (src,dst,phase,algo)".to_string(),
                kind: MetricKind::Counter,
                samples: bytes,
            },
        )
    }

    /// Row-imbalance summary of the matrix (per-source total bytes):
    /// max, mean, max/mean and Gini, the latter two scaled by 1000
    /// because the exposition is integer-valued.
    fn imbalance_families(&self) -> Vec<MetricFamily> {
        let rows: Vec<u64> = self
            .traces
            .iter()
            .map(|t| t.peer_bytes().values().sum())
            .collect();
        let imb = MatrixImbalance::from_rank_bytes(&rows);
        let gauge = |name: &str, help: &str, value: u64| MetricFamily {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Gauge,
            samples: vec![MetricSample {
                labels: Vec::new(),
                value: MetricValue::Gauge(value),
            }],
        };
        vec![
            gauge(
                "beatnik_comm_matrix_row_bytes_max",
                "Largest per-source total of matrix bytes",
                imb.max_bytes,
            ),
            gauge(
                "beatnik_comm_matrix_row_bytes_mean",
                "Mean per-source total of matrix bytes",
                imb.mean_bytes as u64,
            ),
            gauge(
                "beatnik_comm_matrix_max_over_mean_milli",
                "Max/mean row imbalance of the comm matrix, x1000",
                (imb.max_over_mean * 1000.0).round() as u64,
            ),
            gauge(
                "beatnik_comm_matrix_gini_milli",
                "Gini coefficient of per-source matrix bytes, x1000",
                (imb.gini * 1000.0).round() as u64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(n: usize) -> (MetricsPlane, Arc<Registry>) {
        let reg = Arc::new(MetricsRegistry::new());
        let traces: Vec<Arc<RankTrace>> = (0..n)
            .map(|r| Arc::new(RankTrace::with_registry(&reg, r)))
            .collect();
        let recorders: Vec<Arc<SpanRecorder>> =
            (0..n).map(|_| Arc::new(SpanRecorder::disabled())).collect();
        let world = Arc::new(Registry::new());
        (MetricsPlane::new(reg, traces, recorders), world)
    }

    #[test]
    fn snapshot_carries_gauges_and_synthesized_families() {
        let (plane, world) = plane(2);
        plane.traces[0].sent(crate::trace::OpKind::Send, 300, false, 1, "halo", algos::NONE);
        plane.recorders[1].phase("halo");
        world.mark_failed(1);

        let snap = plane.snapshot(&world);
        assert_eq!(snap.value("beatnik_rank_failed", &[("rank", "1")]), Some(1));
        assert_eq!(snap.value("beatnik_rank_failed", &[("rank", "0")]), Some(0));
        assert_eq!(snap.value("beatnik_ranks_failed", &[]), Some(1));
        assert_eq!(
            snap.value("beatnik_phase_entries_total", &[("rank", "1"), ("phase", "halo")]),
            Some(1)
        );
        assert_eq!(
            snap.value(
                "beatnik_comm_matrix_bytes_total",
                &[("src", "0"), ("dst", "1"), ("phase", "halo")]
            ),
            Some(300)
        );
        assert_eq!(
            snap.value("beatnik_comm_matrix_messages_total", &[("src", "0"), ("dst", "1")]),
            Some(1)
        );
        // Rows are [300, 0]: max 300, mean 150, ratio 2.0, Gini 0.5.
        assert_eq!(snap.value("beatnik_comm_matrix_row_bytes_max", &[]), Some(300));
        assert_eq!(snap.value("beatnik_comm_matrix_row_bytes_mean", &[]), Some(150));
        assert_eq!(
            snap.value("beatnik_comm_matrix_max_over_mean_milli", &[]),
            Some(2000)
        );
        assert_eq!(snap.value("beatnik_comm_matrix_gini_milli", &[]), Some(500));
        // Straggler families ride every snapshot; disabled recorders
        // yield a zero checks counter (scored values are pinned by the
        // telemetry crate's own tests).
        assert_eq!(
            snap.value("beatnik_comm_straggler_checks_total", &[]),
            Some(0)
        );
    }

    #[test]
    fn mailbox_depth_is_pulled_at_snapshot() {
        let (plane, world) = plane(1);
        // One consumer parked in the posted-receive registry.
        let mb = world.mailbox(WORLD_COMM_ID, 0);
        let slot = mb.post_recv(0, 7);
        let snap = plane.snapshot(&world);
        assert_eq!(
            snap.value("beatnik_mailbox_posted_receives", &[("rank", "0")]),
            Some(1)
        );
        mb.cancel_post(slot);
        let snap = plane.snapshot(&world);
        assert_eq!(
            snap.value("beatnik_mailbox_posted_receives", &[("rank", "0")]),
            Some(0)
        );
    }
}

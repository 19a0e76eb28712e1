//! Lock-free metrics registry: counters, gauges, and fixed-bucket
//! histograms with atomic cells and a zero-alloc hot path.
//!
//! `RankTrace` (comm byte accounting), the mailbox posted-receive
//! registry, and the fault ledger all publish into one
//! [`MetricsRegistry`] per world. Registration (naming a metric and its
//! label set) takes a lock and allocates; it happens once at world
//! setup. The handles it returns — [`Counter`], [`Gauge`],
//! [`Histogram`] — are `Arc`-wrapped atomics, so the hot path is a
//! relaxed `fetch_add`: no locks, no allocation, no branching on
//! enablement.
//!
//! Histograms use the canonical power-of-two byte buckets of
//! [`crate::sizebins`] — the same table the per-op trace histograms and
//! the analytic network model use — so there is exactly one
//! bucket-edge definition in the workspace.
//!
//! [`MetricsRegistry::snapshot`] copies every cell into a plain-data
//! [`MetricsSnapshot`], which renders to OpenMetrics text exposition
//! via [`openmetrics_text`] or to JSON via `beatnik-io`.

use crate::sizebins;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A monotonically increasing counter. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (all-zero standalone cell).
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero (benchmark harnesses only — OpenMetrics counters
    /// are conceptually monotonic).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A gauge: a value that can move both ways (queue depths, in-flight
/// counts, high-water marks). Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Self {
        Gauge::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n`, returning the new value.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Subtract `n` (saturating at the atomic level is the caller's
    /// responsibility; paired add/sub never underflow in practice).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if larger (high-water marks).
    #[inline]
    pub fn max_with(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Atomic cells backing one histogram: per-bucket counts over the
/// [`sizebins`] table plus a total count and sum.
#[derive(Debug)]
pub struct HistogramCells {
    buckets: [AtomicU64; sizebins::NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> Self {
        HistogramCells {
            buckets: [(); sizebins::NUM_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket histogram over the canonical [`sizebins`] byte
/// buckets. Cloning shares the cells.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached() -> Self {
        Histogram::default()
    }

    /// Record one observation of `bytes`.
    #[inline]
    pub fn observe(&self, bytes: u64) {
        let c = &self.0;
        c.buckets[sizebins::bucket_of(bytes)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Per-bucket counts (non-cumulative, matching `RankTrace`'s
    /// `ByteHistogram` layout).
    pub fn bucket_counts(&self) -> [u64; sizebins::NUM_BUCKETS] {
        let mut out = [0u64; sizebins::NUM_BUCKETS];
        for (o, b) in out.iter_mut().zip(self.0.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Reset all cells to zero.
    pub fn reset(&self) {
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.0.count.store(0, Ordering::Relaxed);
        self.0.sum.store(0, Ordering::Relaxed);
    }
}

/// The kind of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter (name should end in `_total`).
    Counter,
    /// Bidirectional gauge.
    Gauge,
    /// Fixed-bucket byte histogram.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct SampleEntry {
    labels: Vec<(String, String)>,
    cell: Cell,
}

#[derive(Debug)]
struct FamilyEntry {
    name: String,
    help: String,
    kind: MetricKind,
    samples: Vec<SampleEntry>,
}

/// The metrics registry: named families of labelled samples.
///
/// Registration is idempotent — asking for the same (name, labels)
/// pair twice returns a handle to the same cell — and panics if a name
/// is re-registered under a different kind, which would corrupt the
/// exposition.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<FamilyEntry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<FamilyEntry>> {
        // A panic mid-registration cannot leave a family half-written in
        // a way later readers care about; recover from poison.
        self.families
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Cell,
    ) -> Cell {
        let mut fams = self.lock();
        let fam = match fams.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert_eq!(
                    f.kind, kind,
                    "metric {name:?} re-registered as {kind:?}, was {:?}",
                    f.kind
                );
                f
            }
            None => {
                fams.push(FamilyEntry {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    samples: Vec::new(),
                });
                fams.last_mut().unwrap()
            }
        };
        if let Some(s) = fam
            .samples
            .iter()
            .find(|s| s.labels.len() == labels.len()
                && s.labels.iter().zip(labels).all(|((k, v), (lk, lv))| k == lk && v == lv))
        {
            return s.cell.clone();
        }
        let cell = make();
        fam.samples.push(SampleEntry {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            cell: cell.clone(),
        });
        cell
    }

    /// Register (or look up) a counter sample.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, MetricKind::Counter, labels, || {
            Cell::Counter(Counter::detached())
        }) {
            Cell::Counter(c) => c,
            _ => unreachable!("kind checked during registration"),
        }
    }

    /// Register (or look up) a gauge sample.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, MetricKind::Gauge, labels, || {
            Cell::Gauge(Gauge::detached())
        }) {
            Cell::Gauge(g) => g,
            _ => unreachable!("kind checked during registration"),
        }
    }

    /// Register (or look up) a histogram sample over the canonical
    /// [`sizebins`] buckets.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, help, MetricKind::Histogram, labels, || {
            Cell::Histogram(Histogram::detached())
        }) {
            Cell::Histogram(h) => h,
            _ => unreachable!("kind checked during registration"),
        }
    }

    /// Copy every registered cell into a plain-data snapshot. Safe to
    /// call while other threads keep writing (relaxed reads; values are
    /// per-cell consistent, not cross-cell consistent).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let fams = self.lock();
        let families = fams
            .iter()
            .map(|f| MetricFamily {
                name: f.name.clone(),
                help: f.help.clone(),
                kind: f.kind,
                samples: f
                    .samples
                    .iter()
                    .map(|s| MetricSample {
                        labels: s.labels.clone(),
                        value: match &s.cell {
                            Cell::Counter(c) => MetricValue::Counter(c.get()),
                            Cell::Gauge(g) => MetricValue::Gauge(g.get()),
                            Cell::Histogram(h) => MetricValue::Histogram {
                                buckets: Box::new(h.bucket_counts()),
                                count: h.count(),
                                sum: h.sum(),
                            },
                        },
                    })
                    .collect(),
            })
            .collect();
        MetricsSnapshot { families }
    }
}

/// Plain-data copy of a registry (plus any synthesized families), ready
/// for rendering.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// The metric families, in registration order.
    pub families: Vec<MetricFamily>,
}

/// One named family of samples sharing a kind and help string.
#[derive(Debug, Clone)]
pub struct MetricFamily {
    /// Full metric name (counters end in `_total`).
    pub name: String,
    /// Help text for the exposition.
    pub help: String,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// The labelled samples.
    pub samples: Vec<MetricSample>,
}

/// One labelled sample.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Label key/value pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: MetricValue,
}

/// A sampled metric value.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram cells: non-cumulative per-bucket counts over
    /// [`sizebins`], total count, and sum of observations.
    Histogram {
        /// Per-bucket observation counts (bucket `i` per `sizebins`).
        /// Boxed so scalar samples don't pay the array's footprint.
        buckets: Box<[u64; sizebins::NUM_BUCKETS]>,
        /// Total observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
    },
}

impl MetricsSnapshot {
    /// Find a sample's scalar value by family name and exact label
    /// subset match (every pair in `labels` must be present).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let fam = self.families.iter().find(|f| f.name == name)?;
        let s = fam.samples.iter().find(|s| {
            labels
                .iter()
                .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })?;
        match s.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(v),
            MetricValue::Histogram { count, .. } => Some(count),
        }
    }

    /// Append a synthesized family (used for values that live outside
    /// the registry's atomic cells, e.g. the per-phase comm matrix).
    pub fn push_family(&mut self, family: MetricFamily) {
        self.families.push(family);
    }
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    out.push('}');
}

/// Render a snapshot as OpenMetrics / Prometheus text exposition
/// (`# TYPE` / `# HELP` headers, cumulative `le` histogram buckets,
/// trailing `# EOF`).
pub fn openmetrics_text(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for fam in &snap.families {
        // OpenMetrics metric-family names drop the `_total` suffix;
        // the counter sample lines keep it.
        let base = fam.name.strip_suffix("_total").unwrap_or(&fam.name);
        let _ = writeln!(out, "# TYPE {base} {}", fam.kind.as_str());
        if !fam.help.is_empty() {
            let _ = writeln!(out, "# HELP {base} {}", fam.help);
        }
        for s in &fam.samples {
            match &s.value {
                MetricValue::Counter(v) => {
                    out.push_str(base);
                    out.push_str("_total");
                    render_labels(&mut out, &s.labels, None);
                    let _ = writeln!(out, " {v}");
                }
                MetricValue::Gauge(v) => {
                    out.push_str(base);
                    render_labels(&mut out, &s.labels, None);
                    let _ = writeln!(out, " {v}");
                }
                MetricValue::Histogram { buckets, count, sum } => {
                    let mut cum = 0u64;
                    for (i, &c) in buckets.iter().enumerate() {
                        cum += c;
                        let le = if i == sizebins::NUM_BUCKETS - 1 {
                            "+Inf".to_string()
                        } else {
                            sizebins::bucket_hi(i).to_string()
                        };
                        out.push_str(base);
                        out.push_str("_bucket");
                        render_labels(&mut out, &s.labels, Some(("le", &le)));
                        let _ = writeln!(out, " {cum}");
                    }
                    out.push_str(base);
                    out.push_str("_count");
                    render_labels(&mut out, &s.labels, None);
                    let _ = writeln!(out, " {count}");
                    out.push_str(base);
                    out.push_str("_sum");
                    render_labels(&mut out, &s.labels, None);
                    let _ = writeln!(out, " {sum}");
                }
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("beatnik_test_total", "a counter", &[("rank", "0")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("beatnik_depth", "a gauge", &[("rank", "0")]);
        g.set(7);
        g.sub(2);
        assert_eq!(g.add(1), 6);
        g.max_with(3);
        assert_eq!(g.get(), 6);
        g.max_with(11);
        assert_eq!(g.get(), 11);
        let h = reg.histogram("beatnik_sizes_bytes", "sizes", &[("rank", "0")]);
        h.observe(1);
        h.observe(100);
        h.observe(100);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 201);
        assert_eq!(h.bucket_counts()[sizebins::bucket_of(100)], 2);

        let snap = reg.snapshot();
        assert_eq!(snap.value("beatnik_test_total", &[("rank", "0")]), Some(5));
        assert_eq!(snap.value("beatnik_depth", &[("rank", "0")]), Some(11));
        assert_eq!(snap.value("beatnik_sizes_bytes", &[("rank", "0")]), Some(3));
        assert_eq!(snap.value("beatnik_missing", &[]), None);
    }

    #[test]
    fn registration_is_idempotent_and_shares_cells() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("beatnik_x_total", "x", &[("rank", "1")]);
        let b = reg.counter("beatnik_x_total", "x", &[("rank", "1")]);
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        // A different label set is a distinct cell in the same family.
        let c = reg.counter("beatnik_x_total", "x", &[("rank", "2")]);
        c.inc();
        let snap = reg.snapshot();
        let fam = snap.families.iter().find(|f| f.name == "beatnik_x_total").unwrap();
        assert_eq!(fam.samples.len(), 2);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_conflict_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("beatnik_y_total", "y", &[]);
        let _ = reg.gauge("beatnik_y_total", "y", &[]);
    }

    #[test]
    fn openmetrics_rendering_is_valid_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("beatnik_msgs_total", "messages", &[("rank", "0"), ("op", "send")])
            .add(2);
        reg.gauge("beatnik_inflight", "in flight", &[("rank", "0")]).set(3);
        let h = reg.histogram("beatnik_msg_size_bytes", "sizes", &[("rank", "0")]);
        h.observe(64);
        h.observe(65536);
        let text = openmetrics_text(&reg.snapshot());
        assert!(text.contains("# TYPE beatnik_msgs counter"), "{text}");
        assert!(
            text.contains("beatnik_msgs_total{rank=\"0\",op=\"send\"} 2"),
            "{text}"
        );
        assert!(text.contains("# TYPE beatnik_inflight gauge"), "{text}");
        assert!(text.contains("beatnik_inflight{rank=\"0\"} 3"), "{text}");
        assert!(text.contains("# TYPE beatnik_msg_size_bytes histogram"), "{text}");
        // Cumulative buckets: the +Inf bucket equals the count.
        assert!(
            text.contains("beatnik_msg_size_bytes_bucket{rank=\"0\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("beatnik_msg_size_bytes_count{rank=\"0\"} 2"), "{text}");
        assert!(
            text.contains(&format!("beatnik_msg_size_bytes_sum{{rank=\"0\"}} {}", 64 + 65536)),
            "{text}"
        );
        assert!(text.ends_with("# EOF\n"), "{text}");
        // Histogram bucket edges are the canonical sizebins edges.
        assert!(
            text.contains("le=\"64\"") && text.contains("le=\"65536\""),
            "{text}"
        );
    }

    #[test]
    fn hot_path_handles_work_across_threads() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("beatnik_par_total", "", &[]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}

//! The bench regression gate: diff a freshly generated `BENCH_comm.json`
//! / `BENCH_fault.json` / `BENCH_serve.json` / `BENCH_compute.json`
//! against the committed baselines and fail on regressions.
//!
//! Thresholds are per-metric-class, not global:
//!
//! * **time-like** metrics (`ns_per_op`, `ns`) are noisy on shared CI
//!   hosts, so the ceiling is `max(baseline * time_ratio, baseline +
//!   floor)`. The additive floor matters for metrics whose baseline is
//!   near zero (a `recovery_time` of 0.7 ms would otherwise flag on
//!   scheduler jitter alone); the fault bench's single-shot timings get
//!   a wider floor than the comm bench's per-op averages.
//! * **deterministic** metrics (`bytes_copied_per_op`) are exact
//!   properties of the algorithm, so the ceiling is tight:
//!   `max(baseline * bytes_ratio, baseline + bytes_floor)`.
//!
//! A baseline row with no matching fresh row is itself a regression —
//! silently dropping a bench case must not pass the gate.

use beatnik_json::Value;
use std::collections::BTreeMap;

/// Per-metric-class ceilings. See the module docs for the rationale.
#[derive(Debug, Clone, Copy)]
pub struct GatePolicy {
    /// Multiplicative ceiling for time-like metrics (`ns_per_op`, `ns`).
    pub time_ratio: f64,
    /// Additive floor (ns) for time-like metrics; absorbs jitter on
    /// near-zero baselines.
    pub time_floor_ns: f64,
    /// Additive floor (ns) for the fault-bench metrics, which are
    /// single-shot run timings, not per-op averages: detection latency
    /// legitimately lands anywhere inside the detector's poll slice
    /// (sub-ms to ~100 ms) and recovery time swings with where the kill
    /// falls relative to a checkpoint boundary.
    pub fault_floor_ns: f64,
    /// Additive floor (ns) for the serve-bench metrics. These are
    /// whole-service latencies (queue wait, p99 job latency) over a
    /// few hundred jobs on a shared pool — one slow scheduling round
    /// on an oversubscribed CI host moves the tail by whole seconds.
    pub serve_floor_ns: f64,
    /// Additive floor (ns per element) for the compute-kernel metrics.
    /// These are tight per-element numbers (fractions of a nanosecond
    /// to a few nanoseconds), so the floor is correspondingly small —
    /// it absorbs frequency scaling and cache-state jitter without
    /// letting a kernel quietly fall back to a slower path.
    pub compute_floor_ns: f64,
    /// Multiplicative ceiling for deterministic byte counts.
    pub bytes_ratio: f64,
    /// Additive floor (bytes) for deterministic byte counts; absorbs
    /// zero baselines.
    pub bytes_floor: f64,
}

impl Default for GatePolicy {
    fn default() -> Self {
        GatePolicy {
            time_ratio: 2.0,
            time_floor_ns: 1.0e7,
            fault_floor_ns: 1.5e8,
            serve_floor_ns: 2.0e9,
            compute_floor_ns: 5.0,
            bytes_ratio: 1.10,
            bytes_floor: 64.0,
        }
    }
}

/// One gated comparison: a baseline value, the matching fresh value (if
/// any), and the verdict.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Human-readable join key, e.g. `alltoallv_owned/direct r=16 b=64`.
    pub key: String,
    /// The compared field (`ns_per_op`, `bytes_copied_per_op`, `ns`).
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value; `None` when the bench case disappeared.
    pub fresh: Option<f64>,
    /// The ceiling the fresh value must stay under.
    pub limit: f64,
    /// Verdict.
    pub pass: bool,
}

/// The gate's verdict over one baseline/fresh document pair.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// One row per `(baseline row, metric)` comparison.
    pub rows: Vec<GateRow>,
}

impl GateReport {
    /// Number of failed comparisons.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| !r.pass).count()
    }

    /// Fixed-width report table, failures marked `FAIL`.
    pub fn text(&self) -> String {
        let mut out = String::new();
        let keyw = self
            .rows
            .iter()
            .map(|r| r.key.len())
            .max()
            .unwrap_or(4)
            .max(4);
        out.push_str(&format!(
            "{:<keyw$}  {:<19}  {:>14}  {:>14}  {:>14}  verdict\n",
            "case", "metric", "baseline", "fresh", "limit"
        ));
        for r in &self.rows {
            let fresh = match r.fresh {
                Some(v) => format!("{v:.1}"),
                None => "missing".to_string(),
            };
            out.push_str(&format!(
                "{:<keyw$}  {:<19}  {:>14.1}  {:>14}  {:>14.1}  {}\n",
                r.key,
                r.metric,
                r.baseline,
                fresh,
                r.limit,
                if r.pass { "ok" } else { "FAIL" }
            ));
        }
        out
    }
}

fn bench_rows(doc: &Value) -> Result<&[Value], String> {
    match doc.get("benches") {
        Some(Value::Array(rows)) => Ok(rows),
        _ => Err("document has no \"benches\" array".to_string()),
    }
}

fn field_f64(row: &Value, key: &str) -> Result<f64, String> {
    row.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("bench row missing numeric field {key:?}"))
}

fn field_str<'v>(row: &'v Value, key: &str) -> Result<&'v str, String> {
    row.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("bench row missing string field {key:?}"))
}

/// The row's transport backend. Baselines (and fresh files) written
/// before the transport was pluggable carry no field — every row was
/// implicitly the thread backend, so that is the fallback.
fn transport_of(row: &Value) -> &str {
    row.get("transport").and_then(Value::as_str).unwrap_or("thread")
}

fn check(
    report: &mut GateReport,
    key: &str,
    metric: &str,
    baseline: f64,
    fresh: Option<f64>,
    ratio: f64,
    floor: f64,
) {
    let limit = (baseline * ratio).max(baseline + floor);
    let pass = matches!(fresh, Some(v) if v <= limit);
    report.rows.push(GateRow {
        key: key.to_string(),
        metric: metric.to_string(),
        baseline,
        fresh,
        limit,
        pass,
    });
}

/// Socket rows that must also stay within a multiple of their thread
/// twin of the same *fresh* run: `(op, algo, ranks, bytes, ceiling on
/// tcp / thread)`. The thread backend is the floor a socket adds its
/// transport cost to, and host speed cancels in the ratio, so a return
/// of per-message overhead shows here even when every absolute row sits
/// far under its ceiling. Each ceiling is 1.25× the median ratio of five
/// runs: 7.98 for the 64 KiB owned ping-pong, 0.966 for the 2-rank
/// alltoallv at 16 KiB per destination (with an event-loop hop per
/// message they read 12–14 and about 1.8).
const FRESH_TWINS: [(&str, &str, u64, u64, f64); 2] = [
    ("p2p_owned", "-", 2, 64 * 1024, 9.98),
    ("alltoallv", "adaptive", 2, 16 * 1024, 1.21),
];

/// Rows that must also stay within a multiple of a reference row of the
/// same *fresh* run, same algo, transport, ranks and bytes: `(op,
/// reference op, ceiling on op / reference)`. `p2p_one_cpu` is a 2-rank
/// 64 B ping-pong with both ranks pinned to one CPU; `condvar_one_cpu`
/// the same exchange through a bare `Mutex` + `Condvar`, the futex
/// sleep and wake every wait paid before waiting ranks yielded. The
/// ceiling is 1.25× the median ratio of five runs, 1.19 (1.17–1.41);
/// with a sleep before every receive the ratio read 5.0–5.6.
const FRESH_REFERENCES: [(&str, &str, f64); 1] = [("p2p_one_cpu", "condvar_one_cpu", 1.49)];

/// Gate a fresh `BENCH_comm.json` against its baseline. Rows join on
/// `(op, algo, transport, ranks, bytes)` — a missing `transport` field
/// (pre-pluggable baselines) reads as `thread`; `ns_per_op` is
/// time-like, while `bytes_copied_per_op` is deterministic and held
/// tight. The [`FRESH_TWINS`] socket rows are also held against their
/// thread twin of the fresh run, and the [`FRESH_REFERENCES`] rows
/// against their reference row.
pub fn gate_comm(baseline: &Value, fresh: &Value, policy: &GatePolicy) -> Result<GateReport, String> {
    let mut fresh_by_key = BTreeMap::new();
    for row in bench_rows(fresh)? {
        let key = (
            field_str(row, "op")?.to_string(),
            field_str(row, "algo")?.to_string(),
            transport_of(row).to_string(),
            field_f64(row, "ranks")? as u64,
            field_f64(row, "bytes")? as u64,
        );
        fresh_by_key.insert(key, row);
    }
    let mut report = GateReport::default();
    for row in bench_rows(baseline)? {
        let op = field_str(row, "op")?;
        let algo = field_str(row, "algo")?;
        let transport = transport_of(row);
        let ranks = field_f64(row, "ranks")? as u64;
        let bytes = field_f64(row, "bytes")? as u64;
        let key = format!("{op}/{algo}@{transport} r={ranks} b={bytes}");
        let hit = fresh_by_key
            .get(&(
                op.to_string(),
                algo.to_string(),
                transport.to_string(),
                ranks,
                bytes,
            ))
            .copied();
        let fresh_ns = hit.map(|r| field_f64(r, "ns_per_op")).transpose()?;
        check(
            &mut report,
            &key,
            "ns_per_op",
            field_f64(row, "ns_per_op")?,
            fresh_ns,
            policy.time_ratio,
            policy.time_floor_ns,
        );
        let fresh_bytes = hit.map(|r| field_f64(r, "bytes_copied_per_op")).transpose()?;
        check(
            &mut report,
            &key,
            "bytes_copied_per_op",
            field_f64(row, "bytes_copied_per_op")?,
            fresh_bytes,
            policy.bytes_ratio,
            policy.bytes_floor,
        );
        let twin = FRESH_TWINS
            .iter()
            .find(|&&(o, a, r, b, _)| (o, a, "tcp", r, b) == (op, algo, transport, ranks, bytes))
            .map(|&(.., ceiling)| (op, "thread", ceiling));
        let reference = FRESH_REFERENCES
            .iter()
            .find(|&&(o, ..)| o == op)
            .map(|&(_, reference, ceiling)| (reference, transport, ceiling));
        if let Some((ref_op, ref_transport, ceiling)) = twin.or(reference) {
            let held = fresh_by_key
                .get(&(ref_op.to_string(), algo.to_string(), ref_transport.to_string(), ranks, bytes))
                .map(|r| field_f64(r, "ns_per_op"))
                .transpose()?;
            // A missing row already failed its own comparison.
            if let (Some(fresh), Some(held)) = (fresh_ns, held) {
                let limit = held * ceiling;
                report.rows.push(GateRow {
                    key,
                    metric: format!("vs fresh {}", if twin.is_some() { ref_transport } else { ref_op }),
                    baseline: held,
                    fresh: Some(fresh),
                    limit,
                    pass: fresh <= limit,
                });
            }
        }
    }
    Ok(report)
}

/// Gate a fresh `BENCH_fault.json` against its baseline. Rows join on
/// `(metric, ranks, checkpoint_every)`; every `ns` value is time-like.
pub fn gate_fault(
    baseline: &Value,
    fresh: &Value,
    policy: &GatePolicy,
) -> Result<GateReport, String> {
    let mut fresh_by_key = BTreeMap::new();
    for row in bench_rows(fresh)? {
        let key = (
            field_str(row, "metric")?.to_string(),
            field_f64(row, "ranks")? as u64,
            field_f64(row, "checkpoint_every")? as u64,
        );
        fresh_by_key.insert(key, row);
    }
    let mut report = GateReport::default();
    for row in bench_rows(baseline)? {
        let metric = field_str(row, "metric")?;
        let ranks = field_f64(row, "ranks")? as u64;
        let every = field_f64(row, "checkpoint_every")? as u64;
        let key = format!("{metric} r={ranks} ckpt={every}");
        let fresh_ns = fresh_by_key
            .get(&(metric.to_string(), ranks, every))
            .map(|r| field_f64(r, "ns"))
            .transpose()?;
        check(
            &mut report,
            &key,
            "ns",
            field_f64(row, "ns")?,
            fresh_ns,
            policy.time_ratio,
            policy.fault_floor_ns,
        );
    }
    Ok(report)
}

/// Gate a fresh `BENCH_serve.json` against its baseline. Rows join on
/// `(metric, jobs, pool_ranks)`; every `ns` value is time-like and
/// single-shot, so the wide serve floor applies.
pub fn gate_serve(
    baseline: &Value,
    fresh: &Value,
    policy: &GatePolicy,
) -> Result<GateReport, String> {
    let mut fresh_by_key = BTreeMap::new();
    for row in bench_rows(fresh)? {
        let key = (
            field_str(row, "metric")?.to_string(),
            field_f64(row, "jobs")? as u64,
            field_f64(row, "pool_ranks")? as u64,
        );
        fresh_by_key.insert(key, row);
    }
    let mut report = GateReport::default();
    for row in bench_rows(baseline)? {
        let metric = field_str(row, "metric")?;
        let jobs = field_f64(row, "jobs")? as u64;
        let pool = field_f64(row, "pool_ranks")? as u64;
        let key = format!("{metric} jobs={jobs} pool={pool}");
        let fresh_ns = fresh_by_key
            .get(&(metric.to_string(), jobs, pool))
            .map(|r| field_f64(r, "ns"))
            .transpose()?;
        check(
            &mut report,
            &key,
            "ns",
            field_f64(row, "ns")?,
            fresh_ns,
            policy.time_ratio,
            policy.serve_floor_ns,
        );
    }
    Ok(report)
}

/// Rows that must also beat a reference row of the same *fresh* run, where
/// host speed cancels: `(kernel, variant, reference variant, how many
/// times faster)`. The batched column transform measures 2.2–4× the
/// gather / per-line / scatter shape; the AVX2 distance filter 2.3–2.5×
/// and the AVX2 symmetric hit kernel 1.9–2.3× their scalar bodies; the
/// fused real row transform 1.5–2.0× the unfused route (n = 32 and 256); the
/// symmetric pair kernel 1.44–1.58× the one-sided block on the same 2304
/// points, per ordered interaction.
const FRESH_SPEEDUPS: [(&str, &str, &str, f64); 5] = [
    ("fft_columns", "batched", "per_line", 1.5),
    ("br_select", "simd", "scalar", 1.5),
    ("br_hits_half", "simd", "scalar", 1.25),
    ("rfft_rows", "fused", "reference", 1.3),
    ("br_pairs", "symmetric", "exact", 1.25),
];

/// Gate a fresh `BENCH_compute.json` against its baseline. Rows join on
/// `(kernel, variant, n)`; `ns_per_elem` is time-like with the tight
/// compute floor (these are single-node kernel timings, not
/// communication). Informational fields like `gbps` are not gated —
/// throughput is the reciprocal view of the gated time.
///
/// The [`FRESH_SPEEDUPS`] rows are also held against their reference row
/// of the *fresh* run: at 0.4–3 ns per element the ceiling above cannot
/// tell a fast path falling back to its reference's speed (1.6–4×
/// slower) from a slow host.
pub fn gate_compute(
    baseline: &Value,
    fresh: &Value,
    policy: &GatePolicy,
) -> Result<GateReport, String> {
    let mut fresh_by_key = BTreeMap::new();
    for row in bench_rows(fresh)? {
        let key = (
            field_str(row, "kernel")?.to_string(),
            field_str(row, "variant")?.to_string(),
            field_f64(row, "n")? as u64,
        );
        fresh_by_key.insert(key, row);
    }
    let mut report = GateReport::default();
    for row in bench_rows(baseline)? {
        let kernel = field_str(row, "kernel")?;
        let variant = field_str(row, "variant")?;
        let n = field_f64(row, "n")? as u64;
        let key = format!("{kernel}/{variant} n={n}");
        let fresh_ns = fresh_by_key
            .get(&(kernel.to_string(), variant.to_string(), n))
            .map(|r| field_f64(r, "ns_per_elem"))
            .transpose()?;
        check(
            &mut report,
            &key,
            "ns_per_elem",
            field_f64(row, "ns_per_elem")?,
            fresh_ns,
            policy.time_ratio,
            policy.compute_floor_ns,
        );
        let held = FRESH_SPEEDUPS
            .iter()
            .find(|(k, v, ..)| (*k, *v) == (kernel, variant));
        if let Some(&(_, _, reference, speedup)) = held {
            let slow = fresh_by_key
                .get(&(kernel.to_string(), reference.to_string(), n))
                .map(|r| field_f64(r, "ns_per_elem"))
                .transpose()?;
            // A missing row already failed the comparison above.
            if let (Some(fast), Some(slow)) = (fresh_ns, slow) {
                let limit = slow / speedup;
                report.rows.push(GateRow {
                    key,
                    metric: format!("vs fresh {reference}"),
                    baseline: slow,
                    fresh: Some(fast),
                    limit,
                    pass: fast <= limit,
                });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm_doc(ns: f64, copied: f64) -> Value {
        beatnik_json::parse(&format!(
            r#"{{"benches": [{{"op": "alltoall", "algo": "direct", "ranks": 16,
                 "bytes": 64, "size_bin": "≤64B", "ns_per_op": {ns},
                 "bytes_copied_per_op": {copied}}}]}}"#
        ))
        .unwrap()
    }

    fn fault_doc(metric: &str, ns: f64) -> Value {
        beatnik_json::parse(&format!(
            r#"{{"benches": [{{"metric": "{metric}", "ranks": 8,
                 "checkpoint_every": 1, "ns": {ns}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let doc = comm_doc(1.0e6, 4096.0);
        let report = gate_comm(&doc, &doc, &GatePolicy::default()).unwrap();
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.regressions(), 0);

        let doc = fault_doc("recovery_time", 7.4e5);
        let report = gate_fault(&doc, &doc, &GatePolicy::default()).unwrap();
        assert_eq!(report.regressions(), 0);
    }

    #[test]
    fn synthetic_twenty_percent_regression_fails_a_tight_gate() {
        let baseline = comm_doc(1.0e9, 4096.0);
        let fresh = comm_doc(1.2e9, 4096.0);
        // A strict CI policy (15% ceiling, no jitter floor at this
        // magnitude) must flag a +20% time regression...
        let tight = GatePolicy {
            time_ratio: 1.15,
            time_floor_ns: 0.0,
            ..GatePolicy::default()
        };
        let report = gate_comm(&baseline, &fresh, &tight).unwrap();
        assert_eq!(report.regressions(), 1);
        assert!(report.text().contains("FAIL"), "{}", report.text());
        // ...while the default shared-host policy tolerates it.
        let report = gate_comm(&baseline, &fresh, &GatePolicy::default()).unwrap();
        assert_eq!(report.regressions(), 0);
    }

    #[test]
    fn deterministic_bytes_are_held_tight() {
        let baseline = comm_doc(1.0e6, 4096.0);
        // +20% copied bytes means the algorithm changed shape: always a
        // failure, even under the default policy.
        let fresh = comm_doc(1.0e6, 4915.2);
        let report = gate_comm(&baseline, &fresh, &GatePolicy::default()).unwrap();
        assert_eq!(report.regressions(), 1);
        let bad = report.rows.iter().find(|r| !r.pass).unwrap();
        assert_eq!(bad.metric, "bytes_copied_per_op");
    }

    #[test]
    fn missing_fresh_row_is_a_regression() {
        let baseline = comm_doc(1.0e6, 0.0);
        let fresh = beatnik_json::parse(r#"{"benches": []}"#).unwrap();
        let report = gate_comm(&baseline, &fresh, &GatePolicy::default()).unwrap();
        assert_eq!(report.regressions(), 2);
        assert!(report.text().contains("missing"));
    }

    #[test]
    fn additive_floor_absorbs_jitter_on_near_zero_baselines() {
        // recovery_time can legitimately be ~0 in the baseline, and
        // single-shot fault timings swing by tens of ms run to run; the
        // fault floor must absorb that.
        let baseline = fault_doc("recovery_time", 0.0);
        let fresh = fault_doc("recovery_time", 1.2e8);
        let report = gate_fault(&baseline, &fresh, &GatePolicy::default()).unwrap();
        assert_eq!(report.regressions(), 0);
        // But a genuinely slow recovery still fails.
        let fresh = fault_doc("recovery_time", 5.0e8);
        let report = gate_fault(&baseline, &fresh, &GatePolicy::default()).unwrap();
        assert_eq!(report.regressions(), 1);
    }

    #[test]
    fn transportless_baseline_joins_fresh_thread_rows() {
        // A pre-pluggable baseline row (no transport field) must match
        // a fresh row tagged "transport": "thread"...
        let baseline = comm_doc(1.0e6, 4096.0);
        let fresh = beatnik_json::parse(
            r#"{"benches": [{"op": "alltoall", "algo": "direct", "transport": "thread",
                 "ranks": 16, "bytes": 64, "size_bin": "≤64B", "ns_per_op": 1.0e6,
                 "bytes_copied_per_op": 4096.0},
                {"op": "alltoall", "algo": "direct", "transport": "tcp",
                 "ranks": 16, "bytes": 64, "size_bin": "≤64B", "ns_per_op": 9.9e9,
                 "bytes_copied_per_op": 4096.0}]}"#,
        )
        .unwrap();
        let report = gate_comm(&baseline, &fresh, &GatePolicy::default()).unwrap();
        assert_eq!(report.regressions(), 0, "{}", report.text());
        // ...and must NOT match a fresh row from another backend.
        let fresh_tcp_only = beatnik_json::parse(
            r#"{"benches": [{"op": "alltoall", "algo": "direct", "transport": "tcp",
                 "ranks": 16, "bytes": 64, "size_bin": "≤64B", "ns_per_op": 1.0e6,
                 "bytes_copied_per_op": 4096.0}]}"#,
        )
        .unwrap();
        let report = gate_comm(&baseline, &fresh_tcp_only, &GatePolicy::default()).unwrap();
        assert_eq!(report.regressions(), 2);
        assert!(report.text().contains("@thread"));
    }

    #[test]
    fn serve_gate_joins_on_metric_jobs_pool() {
        let doc = |ns: f64| {
            beatnik_json::parse(&format!(
                r#"{{"benches": [{{"metric": "p99_latency", "jobs": 200,
                     "pool_ranks": 8, "ns": {ns}}}]}}"#
            ))
            .unwrap()
        };
        // The wide serve floor absorbs single-shot tail jitter...
        let report = gate_serve(&doc(1.0e9), &doc(2.5e9), &GatePolicy::default()).unwrap();
        assert_eq!(report.regressions(), 0, "{}", report.text());
        // ...but a service that got an order of magnitude slower fails.
        let report = gate_serve(&doc(1.0e9), &doc(1.2e10), &GatePolicy::default()).unwrap();
        assert_eq!(report.regressions(), 1);
        // A vanished bench case is a regression.
        let empty = beatnik_json::parse(r#"{"benches": []}"#).unwrap();
        let report = gate_serve(&doc(1.0e9), &empty, &GatePolicy::default()).unwrap();
        assert_eq!(report.regressions(), 1);
    }

    #[test]
    fn compute_gate_joins_on_kernel_variant_n() {
        let doc = |ns: f64| {
            beatnik_json::parse(&format!(
                r#"{{"benches": [{{"kernel": "fft_forward", "variant": "simd",
                     "n": 4096, "ns_per_elem": {ns}, "gbps": 12.0}}]}}"#
            ))
            .unwrap()
        };
        // The small compute floor absorbs cache/frequency jitter on a
        // sub-ns baseline...
        let report = gate_compute(&doc(0.8), &doc(3.1), &GatePolicy::default()).unwrap();
        assert_eq!(report.regressions(), 0, "{}", report.text());
        // ...but a kernel that fell back to a 10x slower path fails.
        let report = gate_compute(&doc(0.8), &doc(8.0), &GatePolicy::default()).unwrap();
        assert_eq!(report.regressions(), 1);
        // A vanished kernel row is a regression.
        let empty = beatnik_json::parse(r#"{"benches": []}"#).unwrap();
        let report = gate_compute(&doc(0.8), &empty, &GatePolicy::default()).unwrap();
        assert_eq!(report.regressions(), 1);
    }

    /// `kernel/fast` passes on a uniformly slower host and fails at the
    /// speed of `kernel/reference` in the same fresh run.
    fn assert_held_against_fresh(kernel: &str, fast: &str, reference: &str) {
        let doc = |fast_ns: f64, reference_ns: f64| {
            beatnik_json::parse(&format!(
                r#"{{"benches": [
                     {{"kernel": "{kernel}", "variant": "{fast}", "n": 288,
                       "ns_per_elem": {fast_ns}, "gbps": 1.0}},
                     {{"kernel": "{kernel}", "variant": "{reference}", "n": 288,
                       "ns_per_elem": {reference_ns}, "gbps": 1.0}}]}}"#
            ))
            .unwrap()
        };
        let policy = GatePolicy::default();
        // A host twice as slow moves both rows: still a pass.
        let report = gate_compute(&doc(2.0, 4.7), &doc(4.0, 9.4), &policy).unwrap();
        assert_eq!(report.regressions(), 0, "{}", report.text());
        // The fast path at its reference's speed passes the absolute
        // ceiling (2.0 + 5 ns) and fails against the fresh reference.
        let report = gate_compute(&doc(2.0, 4.7), &doc(4.7, 4.7), &policy).unwrap();
        assert_eq!(report.regressions(), 1, "{}", report.text());
        let metric = format!("vs fresh {reference}");
        assert!(!report.rows.iter().find(|r| r.metric == metric).unwrap().pass);
    }

    #[test]
    fn batched_columns_must_beat_per_line_in_the_fresh_run() {
        assert_held_against_fresh("fft_columns", "batched", "per_line");
    }

    #[test]
    fn vector_pair_pass_must_beat_its_scalar_bodies_in_the_fresh_run() {
        assert_held_against_fresh("br_select", "simd", "scalar");
        assert_held_against_fresh("br_hits_half", "simd", "scalar");
    }

    #[test]
    fn fused_real_rows_must_beat_the_unfused_route_in_the_fresh_run() {
        assert_held_against_fresh("rfft_rows", "fused", "reference");
    }

    #[test]
    fn symmetric_pairs_must_beat_the_one_sided_block_in_the_fresh_run() {
        assert_held_against_fresh("br_pairs", "symmetric", "exact");
    }

    /// A socket row passes on a uniformly slower host and fails at the
    /// same absolute time once its thread twin of the fresh run is fast.
    #[test]
    fn socket_rows_are_held_against_their_thread_twin_in_the_fresh_run() {
        let doc = |tcp_ns: f64, thread_ns: f64| {
            beatnik_json::parse(&format!(
                r#"{{"benches": [
                     {{"op": "p2p_owned", "algo": "-", "transport": "tcp", "ranks": 2,
                       "bytes": 65536, "ns_per_op": {tcp_ns}, "bytes_copied_per_op": 0}},
                     {{"op": "p2p_owned", "algo": "-", "transport": "thread", "ranks": 2,
                       "bytes": 65536, "ns_per_op": {thread_ns}, "bytes_copied_per_op": 0}}]}}"#
            ))
            .unwrap()
        };
        let policy = GatePolicy::default();
        let baseline = doc(100_000.0, 12_500.0);
        // A host twice as slow moves both rows: still a pass.
        let report = gate_comm(&baseline, &doc(200_000.0, 25_000.0), &policy).unwrap();
        assert_eq!(report.regressions(), 0, "{}", report.text());
        // The hop back: 165 µs passes the absolute ceiling (2x + 10 ms)
        // and fails against the fresh thread twin.
        let report = gate_comm(&baseline, &doc(165_000.0, 12_500.0), &policy).unwrap();
        assert_eq!(report.regressions(), 1, "{}", report.text());
        let held = report.rows.iter().filter(|r| r.metric == "vs fresh thread");
        assert_eq!(held.map(|r| r.pass).collect::<Vec<_>>(), [false]);
    }

    /// The one-CPU ping-pong passes on a uniformly slower host and fails
    /// once it falls back to a futex sleep per wait, which its condvar
    /// reference of the same fresh run pays by construction.
    #[test]
    fn one_cpu_ping_pong_is_held_against_its_condvar_reference_in_the_fresh_run() {
        let doc = |p2p_ns: f64, condvar_ns: f64| {
            beatnik_json::parse(&format!(
                r#"{{"benches": [
                     {{"op": "p2p_one_cpu", "algo": "-", "transport": "thread", "ranks": 2,
                       "bytes": 64, "ns_per_op": {p2p_ns}, "bytes_copied_per_op": 0}},
                     {{"op": "condvar_one_cpu", "algo": "-", "transport": "thread", "ranks": 2,
                       "bytes": 64, "ns_per_op": {condvar_ns}, "bytes_copied_per_op": 0}}]}}"#
            ))
            .unwrap()
        };
        let policy = GatePolicy::default();
        let baseline = doc(3_800.0, 3_200.0);
        // A host twice as slow moves both rows: still a pass.
        let report = gate_comm(&baseline, &doc(7_600.0, 6_400.0), &policy).unwrap();
        assert_eq!(report.regressions(), 0, "{}", report.text());
        // A sleep per wait again: 12 µs passes the absolute ceiling
        // (2x + 10 ms) and fails against the fresh reference.
        let report = gate_comm(&baseline, &doc(12_000.0, 2_300.0), &policy).unwrap();
        assert_eq!(report.regressions(), 1, "{}", report.text());
        let held = report.rows.iter().filter(|r| r.metric == "vs fresh condvar_one_cpu");
        assert_eq!(held.map(|r| r.pass).collect::<Vec<_>>(), [false]);
    }

    #[test]
    fn malformed_documents_error() {
        let ok = comm_doc(1.0, 0.0);
        let bad = beatnik_json::parse(r#"{"nope": 1}"#).unwrap();
        assert!(gate_comm(&bad, &ok, &GatePolicy::default()).is_err());
        let missing_field =
            beatnik_json::parse(r#"{"benches": [{"op": "alltoall"}]}"#).unwrap();
        assert!(gate_comm(&missing_field, &ok, &GatePolicy::default()).is_err());
    }
}

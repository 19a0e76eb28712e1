//! `benchmark compare A.json B.json`: one verdict per (end-to-end
//! metric, workload), judged against the bounds in `BENCHMARK.json`.

use beatnik_json::Value;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The two halves of one run disagree by more than the bound, so a
    /// change of the bound's size cannot be told from noise.
    Unresolved,
}

/// Judge candidate `b` against baseline `a`. `spread` is how far the two
/// halves of one run disagree, as a share of their mean.
pub fn verdict(a: f64, b: f64, lower_is_better: bool, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    let worsening = if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct Bounded {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` block of `./BENCHMARK.json`.
pub fn declared_bounds() -> Result<Vec<Bounded>, String> {
    let doc = load("BENCHMARK.json")?;
    let Some(Value::Array(items)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| {
            Some(Bounded {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

pub fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    beatnik_json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

/// The value of metric `name` in one run's result object.
pub fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// How far the statistic on a run's even repetitions sits from the one
/// on its odd repetitions, as a share of their mean; 0 when the result
/// set carries no halves for `name`.
fn half_disagreement(workload: &Value, name: &str) -> f64 {
    let halves = workload.get("halves").and_then(|h| h.get(name));
    match halves {
        Some(Value::Array(pair)) => match (
            pair.first().and_then(Value::as_f64),
            pair.get(1).and_then(Value::as_f64),
        ) {
            (Some(a), Some(b)) if a + b > 0.0 => (a - b).abs() / (0.5 * (a + b)),
            _ => 0.0,
        },
        _ => 0.0,
    }
}

/// Failed operations as a share of those attempted, over both modes.
fn failed_share(workload: &Value) -> f64 {
    let count = |mode: &str, key: &str| {
        workload
            .get(mode)
            .and_then(|r| r.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let attempted = count("end_to_end", "attempted") + count("per_layer", "attempted");
    let failed = count("end_to_end", "failed") + count("per_layer", "failed");
    if attempted == 0.0 {
        1.0
    } else {
        failed / attempted
    }
}

/// Per-layer metrics that are exact counts of one program on one input.
fn is_exact_count(name: &str) -> bool {
    name.starts_with("comm.") && name.contains("_per_step")
}

/// Compare two result sets written by `benchmark all`.
pub fn compare_files(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let bounds = declared_bounds()?;
    let (a, b) = (load(path_a)?, load(path_b)?);
    let same_seed = a.get("seed").and_then(Value::as_u64) == b.get("seed").and_then(Value::as_u64);
    let Some(Value::Object(workloads)) = a.get("workloads") else {
        return Err(format!("{path_a}: no workloads"));
    };
    let mut bad = 0;
    for (name, wa) in workloads {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("{path_b}: no workload {name}"))?;
        for m in &bounds {
            let value = |w: &Value| metric_value(w.get("end_to_end")?, &m.name);
            let (Some(va), Some(vb)) = (value(wa), value(wb)) else {
                return Err(format!("{name}: {} missing from a result set", m.name));
            };
            let spread = half_disagreement(wa, &m.name).max(half_disagreement(wb, &m.name));
            let v = verdict(va, vb, m.lower_is_better, m.bound, spread);
            bad += usize::from(v == Verdict::Worse);
            println!(
                "{name:<12} {:<14} {va:>12.5} -> {vb:>12.5}  ({:+6.2} %, bound {:.0} %, halves differ {:.1} %)  {v:?}",
                m.name,
                (vb / va - 1.0) * 100.0,
                m.bound * 100.0,
                spread * 100.0,
            );
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        if fb > fa {
            bad += 1;
            println!("{name:<12} failed_share   {fa} -> {fb}  Worse");
        }
        if same_seed {
            let layers = |w: &Value| w.get("per_layer").and_then(|r| r.get("metrics")).cloned();
            if let (Some(Value::Object(la)), Some(lb)) = (layers(wa), layers(wb)) {
                for (metric_name, entry) in la.iter().filter(|(n, _)| is_exact_count(n)) {
                    if lb.get(metric_name) != Some(entry) {
                        bad += 1;
                        println!("{name:<12} {metric_name} differs between runs of one seed");
                    }
                }
            }
        }
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_hand_made_inputs() {
        // Lower is better, bound 10 %, quiet repetitions.
        assert_eq!(verdict(100.0, 104.0, true, 0.10, 0.02), Verdict::Same);
        assert_eq!(verdict(100.0, 96.0, true, 0.10, 0.02), Verdict::Same);
        assert_eq!(verdict(100.0, 111.0, true, 0.10, 0.02), Verdict::Worse);
        assert_eq!(verdict(100.0, 89.0, true, 0.10, 0.02), Verdict::Better);
        // Exactly on the bound is still "same".
        assert_eq!(verdict(100.0, 110.0, true, 0.10, 0.10), Verdict::Same);
    }

    #[test]
    fn noisy_repetitions_are_unresolved_whatever_the_change() {
        assert_eq!(verdict(100.0, 150.0, true, 0.10, 0.12), Verdict::Unresolved);
        assert_eq!(verdict(100.0, 100.0, true, 0.10, 0.12), Verdict::Unresolved);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        assert_eq!(verdict(100.0, 120.0, false, 0.10, 0.0), Verdict::Better);
        assert_eq!(verdict(100.0, 80.0, false, 0.10, 0.0), Verdict::Worse);
    }

    #[test]
    fn failed_share_counts_both_modes_and_missing_runs() {
        let run = |attempted: u64, failed: u64| {
            Value::Object(vec![
                ("attempted".into(), Value::UInt(attempted)),
                ("failed".into(), Value::UInt(failed)),
            ])
        };
        let w = Value::Object(vec![
            ("end_to_end".into(), run(90, 1)),
            ("per_layer".into(), run(10, 1)),
        ]);
        assert_eq!(failed_share(&w), 0.02);
        // A workload that never ran fails entirely.
        assert_eq!(failed_share(&Value::Object(vec![])), 1.0);
    }

    #[test]
    fn half_disagreement_is_relative_to_the_mean_of_the_halves() {
        let pair = Value::Array(vec![Value::Float(90.0), Value::Float(110.0)]);
        let halves = Value::Object(vec![("step_ms_p10".into(), pair)]);
        let w = Value::Object(vec![("halves".into(), halves)]);
        assert_eq!(half_disagreement(&w, "step_ms_p10"), 0.2);
        // No halves recorded (a per-layer-only or older result set).
        assert_eq!(half_disagreement(&w, "setup_s"), 0.0);
    }

    #[test]
    fn only_per_step_comm_counts_must_repeat() {
        assert!(is_exact_count("comm.msgs_per_step"));
        assert!(is_exact_count("comm.bytes_per_step_4r"));
        assert!(!is_exact_count("comm.barrier_us"));
        assert!(!is_exact_count("driver.step_samples"));
    }
}

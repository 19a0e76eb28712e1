//! `benchmark all` and `benchmark calibrate`: drive single runs the way
//! the acceptance driver does — one fresh process per run, the result
//! read off the last line of its standard output.

use crate::compare::{declared_bounds, metric_value};
use crate::run::RUN_SECONDS;
use crate::stats::{iqr_share, median};
use crate::workload::WORKLOADS;
use beatnik_json::Value;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// One child run: its result object and, in untraced mode, the
/// half-run statistics it printed on its `#halves` line.
struct ChildRun {
    result: Value,
    halves: Value,
}

fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: u8,
    echo: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a run of {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "run of {workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("run of {workload} printed nothing"))?;
    let result =
        beatnik_json::parse(last).map_err(|e| format!("{workload}: bad result line: {e:?}"))?;
    let mut halves = Value::Null;
    for line in lines {
        match line.strip_prefix("#halves ") {
            Some(json) => {
                halves = beatnik_json::parse(json)
                    .map_err(|e| format!("{workload}: bad #halves line: {e:?}"))?
            }
            None if echo && !line.starts_with('#') => println!("{line}"),
            None => {}
        }
    }
    Ok(ChildRun { result, halves })
}

fn is_correct(result: &Value) -> bool {
    matches!(result.get("correct"), Some(Value::Bool(true)))
}

/// `driver.layer_cover` outside this range means the probes no longer
/// explain the step.
const LAYER_COVER_RANGE: std::ops::RangeInclusive<f64> = 0.7..=1.2;

/// The one workload `--quick` also runs traced: the probes are the same
/// whatever the workload, so once shows them all, and this one is cheapest.
const QUICK_TRACED: &str = "low_lat";

/// Run every workload in both modes, print every metric, and write the
/// result set to `benchmark/out/<out>`.
pub fn all(seed: u64, seconds: Option<f64>, quick: bool, out: &str) -> Result<ExitCode, String> {
    let seconds = seconds.unwrap_or(if quick { 1.0 } else { RUN_SECONDS });
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        println!("# {}: {}", w.name, w.why);
        let plain = child_run(w.name, seed, seconds, 0, true)?;
        all_correct &= is_correct(&plain.result);
        let mut entry = vec![
            ("end_to_end".to_string(), plain.result),
            ("halves".to_string(), plain.halves),
        ];
        if !quick || w.name == QUICK_TRACED {
            let traced = child_run(w.name, seed, seconds, 1, true)?;
            all_correct &= is_correct(&traced.result);
            let cover = metric_value(&traced.result, "driver.layer_cover");
            if !quick && !cover.is_some_and(|c| LAYER_COVER_RANGE.contains(&c)) {
                eprintln!(
                    "benchmark: {}: probes explain {cover:?} of the step",
                    w.name
                );
                all_correct = false;
            }
            entry.push(("per_layer".to_string(), traced.result));
        }
        workloads.push((w.name.to_string(), Value::Object(entry)));
    }
    let doc = Value::Object(vec![
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::Float(seconds)),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    let path = Path::new(crate::OUT_DIR).join(out);
    std::fs::write(&path, beatnik_json::to_string_pretty(&doc))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("benchmark: wrote {}", path.display());
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("benchmark: some run failed a check (see above)");
        Ok(ExitCode::FAILURE)
    }
}

/// Run every workload on `seeds` different seeds and hold the spread of
/// each end-to-end metric — the interquartile range over the seeds as a
/// share of the median, the driver's own statistic — against a third of
/// its bound. A step-time spread that fails is fixed by measuring more
/// work, not by widening the bound.
pub fn calibrate(seeds: u64, seconds: Option<f64>) -> Result<ExitCode, String> {
    if seeds < 3 {
        return Err("calibrate needs at least 3 seeds".into());
    }
    let seconds = seconds.unwrap_or(RUN_SECONDS);
    let bounds = declared_bounds()?;
    // values[workload][metric] over the seeds. Seeds outermost, so a
    // noisy minute lands on every workload instead of on one.
    let mut values = vec![vec![Vec::new(); bounds.len()]; WORKLOADS.len()];
    for i in 0..seeds {
        for (w, per_metric) in WORKLOADS.iter().zip(&mut values) {
            let run = child_run(w.name, crate::run::DEFAULT_SEED + i, seconds, 0, false)?;
            if !is_correct(&run.result) {
                return Err(format!(
                    "{}: seed {} failed its output checks",
                    w.name,
                    crate::run::DEFAULT_SEED + i
                ));
            }
            for (m, samples) in bounds.iter().zip(per_metric) {
                let v = metric_value(&run.result, &m.name)
                    .ok_or_else(|| format!("{}: run reports no {}", w.name, m.name))?;
                samples.push(v);
            }
        }
        eprintln!("benchmark: calibrate: seed {} of {seeds} done", i + 1);
    }
    let mut too_wide = false;
    let mut rows = Vec::new();
    for (mi, m) in bounds.iter().enumerate() {
        let mut worst: f64 = 0.0;
        for (w, per_metric) in WORKLOADS.iter().zip(&values) {
            let spread = iqr_share(&per_metric[mi]);
            worst = worst.max(spread);
            println!(
                "{:<12} {:<14} median {:>12.5}  spread {:>6.2} %",
                w.name,
                m.name,
                median(&per_metric[mi]),
                spread * 100.0
            );
        }
        // setup_s is exempt from the spread rule and takes the largest bound.
        let exempt = m.name == "setup_s";
        let suggested = if exempt {
            0.25
        } else {
            (3.0 * worst).clamp(0.10, 0.25)
        };
        let ok = exempt || 3.0 * worst <= m.bound;
        too_wide |= !ok;
        println!(
            "{:<14} worst spread {:>6.2} %  bound {:.0} %  suggested bound {:.0} %  {}",
            m.name,
            worst * 100.0,
            m.bound * 100.0,
            suggested * 100.0,
            if ok {
                "ok"
            } else {
                "TOO WIDE: measure more work"
            }
        );
        rows.push(Value::Object(vec![
            ("name".into(), Value::Str(m.name.clone())),
            ("worst_spread".into(), Value::Float(worst)),
            ("bound".into(), Value::Float(m.bound)),
            ("suggested_bound".into(), Value::Float(suggested)),
        ]));
    }
    let path = Path::new(crate::OUT_DIR).join("calibration.json");
    std::fs::write(&path, beatnik_json::to_string_pretty(&Value::Array(rows)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(if too_wide {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

//! One benchmark run: one workload, one seed, one mode, one JSON line.

use crate::driver::{
    diagnostics_identical, diagnostics_rel_err, peak_rss_mib, run_rep, Rep, RepSpec, Traffic,
};
use crate::probes;
use crate::reference::{self, Reference};
use crate::spans::Spans;
use crate::stats::{highest_percentile, median, percentile, QUIET_PCT};
use crate::workload::Workload;
use beatnik_comm::TransportKind;
use beatnik_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub const DEFAULT_SEED: u64 = 1984;

/// The `run_seconds` of `BENCHMARK.json`; probe call counts and traced
/// sample counts are stated for a run of this length and scale with
/// `--seconds` so `--quick` stays quick.
pub const RUN_SECONDS: f64 = 20.0;

/// Steps of the 2-rank vs 1-rank physics-parity check.
const PARITY_STEPS: usize = 5;
/// Largest relative `Diagnostics` difference the parity check accepts.
const PARITY_TOLERANCE: f64 = 1e-8;
/// Step samples the traced run pools (both arms) at `RUN_SECONDS`: p90
/// needs a hundred to leave ten beyond it.
const TRACED_SAMPLES: f64 = 110.0;
/// Reference-kernel runs before each timed repetition (0.2 ms each).
const REFERENCE_RUNS: usize = 16;
/// Set-up-only world launches after each timed repetition.
const SETUPS_PER_REP: usize = 4;
/// Steps of the 4-rank counts-only pass at `RUN_SECONDS`.
const COUNT_STEPS_4R: f64 = 20.0;

/// A named value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Pass/fail bookkeeping: every timed step, probe call and output check
/// is one attempt.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one output check; complain on stderr when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: CHECK FAILED: {}", what());
        }
    }
}

/// One repetition, or `None` when the world panicked (a deadlock
/// time-out, a solver assertion): every step of it then counts as failed.
fn checked_rep(spec: &RepSpec, tally: &mut Tally) -> Option<Rep> {
    // A set-up-only launch still counts as one attempt.
    let attempts = spec.timed_steps.max(1) as u64;
    tally.attempted += attempts;
    match catch_unwind(AssertUnwindSafe(|| run_rep(spec))) {
        Ok(rep) => {
            tally.failed += rep.bad_steps as u64;
            Some(rep)
        }
        Err(_) => {
            tally.failed += attempts;
            eprintln!("benchmark: a repetition of {} panicked", spec.workload.name);
            None
        }
    }
}

/// 2 ranks against 1 rank over a few steps: the decomposition must not
/// change the physics. Returns the largest relative difference.
fn parity_err(workload: &Workload, seed: u64, tally: &mut Tally) -> f64 {
    let short = |ranks: usize, transport: TransportKind| RepSpec {
        ranks,
        transport,
        warmup_steps: 0,
        timed_steps: PARITY_STEPS,
        ..RepSpec::of(workload, seed)
    };
    let two = checked_rep(&short(crate::workload::RANKS, workload.transport), tally);
    let one = checked_rep(&short(1, TransportKind::Thread), tally);
    let err = match (two, one) {
        (Some(a), Some(b)) => diagnostics_rel_err(&a.diagnostics, &b.diagnostics),
        _ => f64::INFINITY,
    };
    tally.check(err <= PARITY_TOLERANCE, || {
        format!(
            "{}: 2-rank vs 1-rank diagnostics differ by {err:e}",
            workload.name
        )
    });
    err
}

/// Output checks shared by both modes, on the repetitions already run.
fn check_outputs(workload: &Workload, seed: u64, reps: &[Rep], tally: &mut Tally) {
    let Some(first) = reps.first() else { return };
    tally.check(
        reps.iter()
            .all(|r| diagnostics_identical(&r.diagnostics, &first.diagnostics)),
        || {
            format!(
                "{}: repetitions of one seed ended in different states",
                workload.name
            )
        },
    );
    if workload.transport != TransportKind::Thread {
        // The transports are interchangeable bit for bit.
        let twin = checked_rep(
            &RepSpec {
                transport: TransportKind::Thread,
                ..RepSpec::of(workload, seed)
            },
            tally,
        );
        tally.check(
            twin.is_some_and(|t| diagnostics_identical(&t.diagnostics, &first.diagnostics)),
            || {
                format!(
                    "{}: final state differs from the thread transport's",
                    workload.name
                )
            },
        );
    }
}

/// `stat` of `samples`, or NaN when nothing survived to be measured
/// (reported beside `correct: false`).
fn stat_or_nan(samples: Vec<f64>, stat: impl FnOnce(&[f64]) -> f64) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        stat(&samples)
    }
}

/// Percentile `pct` of the timed steps of all `reps`, pooled.
fn pooled_step_ms<'a>(reps: impl IntoIterator<Item = &'a Rep>, pct: f64) -> f64 {
    let pooled = reps.into_iter().flat_map(|r| r.step_ms.iter().copied());
    stat_or_nan(pooled.collect(), |v| percentile(v, pct))
}

/// Untraced mode: the end-to-end metrics.
fn end_to_end(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> (Vec<Metric>, Value) {
    let spec = RepSpec::of(workload, seed);
    let setup_only = RepSpec {
        warmup_steps: 0,
        timed_steps: 0,
        ..RepSpec::of(workload, seed)
    };
    let reference = Reference::default();
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut setups = Vec::new();
    let mut host_ns = Vec::new();
    let mut launched = 0.0;
    loop {
        host_ns.extend(reference.sample(REFERENCE_RUNS));
        reps.extend(checked_rep(&spec, tally));
        // Set-up is a millisecond of thread spawns and plan building, so
        // one sample per repetition is too few for a steady median.
        for _ in 0..SETUPS_PER_REP {
            setups.extend(checked_rep(&setup_only, tally).map(|r| r.setup_s));
        }
        launched += 1.0;
        // Stop when one more repetition would overrun the run length.
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / launched > seconds {
            break;
        }
    }
    check_outputs(workload, seed, &reps, tally);
    parity_err(workload, seed, tally);
    setups.extend(reps.iter().map(|r| r.setup_s));
    // Both times are quoted for a host at nominal speed (`reference.rs`).
    let slowdown = reference::slowdown(&host_ns);
    let setup_s = |samples: Vec<f64>| stat_or_nan(samples, median) / slowdown;
    // The same statistics on the even and the odd repetitions alone:
    // how far the two halves of one run disagree is how well the run
    // resolves them (`compare` reports "Unresolved" past the bound).
    let halves = |parity: usize| {
        let step = pooled_step_ms(reps.iter().skip(parity).step_by(2), QUIET_PCT) / slowdown;
        let setup = setup_s(setups.iter().copied().skip(parity).step_by(2).collect());
        (Value::Float(step), Value::Float(setup))
    };
    let ((step_even, setup_even), (step_odd, setup_odd)) = (halves(0), halves(1));
    let halves = Value::Object(vec![
        (
            "step_ms_p10".into(),
            Value::Array(vec![step_even, step_odd]),
        ),
        ("setup_s".into(), Value::Array(vec![setup_even, setup_odd])),
    ]);
    let step_ms = pooled_step_ms(&reps, QUIET_PCT);
    println!(
        "# host ran the reference kernel {slowdown:.3}x nominal; raw step p10 {step_ms:.4} ms"
    );
    let metrics = vec![
        ("step_ms_p10", step_ms / slowdown, "ms"),
        ("setup_s", setup_s(setups), "s"),
    ];
    (metrics, halves)
}

/// `low_lat` step time under `WorldBuilder::profiled()` against plain,
/// in percent: the "telemetry costs at most 5 % of a step" number.
fn profiled_overhead_pct(seed: u64, scale: f64, tally: &mut Tally) -> f64 {
    let low_lat = Workload::by_name("low_lat").expect("low_lat workload");
    let (mut plain, mut profiled) = (Vec::new(), Vec::new());
    let short = |profiled: bool| RepSpec {
        profiled,
        timed_steps: ((low_lat.timed_steps as f64 * scale / 2.0) as usize).max(10),
        ..RepSpec::of(low_lat, seed)
    };
    for _ in 0..2 {
        plain.extend(checked_rep(&short(false), tally));
        profiled.extend(checked_rep(&short(true), tally));
    }
    (pooled_step_ms(&profiled, QUIET_PCT) / pooled_step_ms(&plain, QUIET_PCT) - 1.0) * 100.0
}

/// Traced mode: the per-layer metrics.
fn per_layer(workload: &Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let scale = (seconds / RUN_SECONDS).clamp(0.05, 4.0);
    let spans = Spans::default();
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name, value, unit| out.push((name, value, unit));

    // Step samples, alternating an untraced and a traced repetition so a
    // noisy window lands on both arms.
    let pairs = (TRACED_SAMPLES * scale / (2 * workload.timed_steps) as f64).ceil() as usize;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let reference = Reference::default();
    let mut host_ns = Vec::new();
    for rep_index in 0..pairs.max(1) {
        host_ns.extend(reference.sample(REFERENCE_RUNS));
        plain.extend(checked_rep(&RepSpec::of(workload, seed), tally));
        spans.set_rep(rep_index);
        traced.extend(checked_rep(
            &RepSpec {
                spans: Some(&spans),
                ..RepSpec::of(workload, seed)
            },
            tally,
        ));
    }
    spans.set_rep(0);
    let (quiet_plain, quiet_traced) = (
        pooled_step_ms(&plain, QUIET_PCT),
        pooled_step_ms(&traced, QUIET_PCT),
    );
    let reps: Vec<Rep> = plain.into_iter().chain(traced).collect();
    // Peak memory of the workload itself: read before the checks and
    // probes below launch differently shaped worlds.
    put("driver.peak_rss_mib", peak_rss_mib(), "MiB");
    // Per-layer times are raw; this says what the host was doing to them.
    put(
        "driver.host_slowdown",
        reference::slowdown(&host_ns),
        "ratio",
    );
    check_outputs(workload, seed, &reps, tally);
    let samples: usize = reps.iter().map(|r| r.step_ms.len()).sum();
    tally.check(
        highest_percentile(samples).is_some_and(|p| p >= 90.0) || scale < 1.0,
        || format!("{samples} step samples leave fewer than ten beyond p90"),
    );
    put("driver.step_ms_p50", pooled_step_ms(&reps, 50.0), "ms");
    put("driver.step_ms_p90", pooled_step_ms(&reps, 90.0), "ms");
    put("driver.step_samples", samples as f64, "count");
    put(
        "driver.trace_overhead_pct",
        (quiet_traced / quiet_plain - 1.0) * 100.0,
        "%",
    );

    // Traffic of the timed steps; a count, so it must repeat exactly.
    let traffic = reps.first().map(|r| r.traffic).unwrap_or_default();
    tally.check(reps.iter().all(|r| r.traffic == traffic), || {
        format!(
            "{}: message counts differ between repetitions",
            workload.name
        )
    });
    let per_step = |t: Traffic, steps: usize| {
        let s = steps as f64;
        (
            t.messages as f64 / s,
            t.bytes as f64 / s,
            t.copied_bytes as f64 / s,
        )
    };
    let (msgs, bytes, copied) = per_step(traffic, workload.timed_steps);
    put("comm.msgs_per_step", msgs, "count");
    put("comm.bytes_per_step", bytes, "B");
    put("comm.copied_bytes_per_step", copied, "B");

    // 4 ranks exceed the cores, so that world gives counts, never times.
    let steps_4r = ((COUNT_STEPS_4R * scale).ceil() as usize).max(2);
    let four = checked_rep(
        &RepSpec {
            ranks: 4,
            warmup_steps: 0,
            timed_steps: steps_4r,
            ..RepSpec::of(workload, seed)
        },
        tally,
    );
    let (msgs_4r, bytes_4r, _) = four.map_or((0.0, 0.0, 0.0), |r| per_step(r.traffic, steps_4r));
    put("comm.msgs_per_step_4r", msgs_4r, "count");
    put("comm.bytes_per_step_4r", bytes_4r, "B");

    // The plain single-threaded baseline of the same problem.
    let steps_1r = (workload.timed_steps / 3).max(3);
    let one = checked_rep(
        &RepSpec {
            ranks: 1,
            transport: TransportKind::Thread,
            timed_steps: steps_1r,
            ..RepSpec::of(workload, seed)
        },
        tally,
    );
    let quiet_1rank = pooled_step_ms(&one, QUIET_PCT);
    put(
        "driver.speedup_vs_1rank",
        quiet_1rank / quiet_plain,
        "ratio",
    );
    put(
        "driver.parity_err",
        parity_err(workload, seed, tally),
        "rel",
    );
    put(
        "telemetry.profiled_overhead_pct",
        profiled_overhead_pct(seed, scale, tally),
        "%",
    );

    let layers = probes::run_all(&spans, scale, seed, tally);
    let explained_ms = workload
        .layer_calls
        .iter()
        .chain([&(workload.zmodel_local, probes::STAGES_PER_STEP)])
        .map(|(name, calls)| layers.time_ms(name).0 * calls)
        .sum::<f64>();
    // Reported, not checked here: cover judges the benchmark's own
    // explanatory power, not the program; `benchmark all` gates on it.
    put("driver.layer_cover", explained_ms / quiet_plain, "ratio");
    // The calls-per-step constants must also account for the messages.
    let explained_msgs: f64 = workload
        .layer_calls
        .iter()
        .map(|(n, calls)| layers.msgs_per_call(n) * calls)
        .sum();
    tally.check(explained_msgs == msgs, || {
        format!(
            "{}: layer_calls predicts {explained_msgs} messages per step, the run sent {msgs}",
            workload.name
        )
    });
    out.extend(layers.metrics);

    let path = std::path::Path::new(crate::OUT_DIR).join(format!("trace-{}.json", workload.name));
    if let Err(e) = spans.write_json(&path, workload.name) {
        eprintln!("benchmark: writing {}: {e}", path.display());
    }
    out
}

/// Run and print. Human-readable lines first; the last line of standard
/// output is the result object the driver reads.
pub fn run(workload: &Workload, seed: u64, seconds: f64, traced: bool) {
    let mut tally = Tally::default();
    let (measured, halves, declared) = if traced {
        let m = per_layer(workload, seed, seconds, &mut tally);
        (m, Value::Null, crate::metrics::PER_LAYER)
    } else {
        let (m, halves) = end_to_end(workload, seed, seconds, &mut tally);
        (m, halves, crate::metrics::END_TO_END)
    };
    // Report exactly the declared metrics, in the declared order.
    tally.check(measured.len() == declared.len(), || {
        format!(
            "measured {} metrics, {} are declared",
            measured.len(),
            declared.len()
        )
    });
    let metrics: Vec<Metric> = declared
        .iter()
        .map(|&(name, unit, _)| {
            let found = measured.iter().find(|(n, _, u)| *n == name && *u == unit);
            tally.check(found.is_some(), || {
                format!("no measurement of {name} in {unit}")
            });
            // JSON has no NaN; a failed run still prints a number.
            let value = found.map_or(f64::NAN, |m| m.1);
            tally.check(value.is_finite(), || format!("{name} is not finite"));
            let value = if value.is_finite() { value } else { f64::MAX };
            (name, value, unit)
        })
        .collect();
    for (name, value, unit) in &metrics {
        println!("{:<12} {name:<34} {value:>16.6} {unit}", workload.name);
    }
    println!(
        "{:<12} {:<34} {:>16.6} ratio",
        workload.name,
        "failed_share",
        tally.failed as f64 / tally.attempted as f64
    );
    if !traced {
        println!("#halves {}", beatnik_json::to_string(&halves));
    }
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(tally.failed == 0)),
        ("attempted".into(), Value::UInt(tally.attempted)),
        ("failed".into(), Value::UInt(tally.failed)),
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        let body = vec![
                            ("value".to_string(), Value::Float(value)),
                            ("unit".to_string(), Value::Str(unit.into())),
                        ];
                        (name.to_string(), Value::Object(body))
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", beatnik_json::to_string(&result));
}

//! The repo benchmark. See README.md for the glossary; `BENCHMARK.json`
//! at the repo root names this program as its command.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! benchmark all [--seed N] [--seconds S] [--quick] [--out F]  every workload, both modes
//! benchmark compare A.json B.json                           verdict per (metric, workload)
//! benchmark calibrate [--seeds K] [--seconds S]             run-to-run spread vs the bounds
//! ```

mod compare;
mod driver;
mod metrics;
mod pin;
mod probes;
mod reference;
mod run;
mod spans;
mod stats;
mod sweep;
mod workload;

use std::process::ExitCode;

/// Where run artifacts (traces, result sets, probe scratch files) go:
/// inside the benchmark's own directory, which `.gitignore` covers.
pub const OUT_DIR: &str = "benchmark/out";

/// `--flag value` pairs after the subcommand.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a valid value")),
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("all") => sweep::all(
            flag(args, "--seed")?.unwrap_or(run::DEFAULT_SEED),
            flag(args, "--seconds")?,
            args.iter().any(|a| a == "--quick"),
            &flag(args, "--out")?.unwrap_or_else(|| "results.json".to_string()),
        ),
        Some("calibrate") => sweep::calibrate(
            flag(args, "--seeds")?.unwrap_or(10),
            flag(args, "--seconds")?,
        ),
        Some("compare") => match args {
            [_, a, b] => compare::compare_files(a, b),
            _ => Err("usage: benchmark compare A.json B.json".into()),
        },
        _ => {
            let name: String = flag(args, "--workload")?.ok_or("--workload is required")?;
            let workload = workload::Workload::by_name(&name)
                .ok_or_else(|| format!("unknown workload '{name}'"))?;
            let seed = flag(args, "--seed")?.unwrap_or(run::DEFAULT_SEED);
            let seconds: f64 = flag(args, "--seconds")?.ok_or("--seconds is required")?;
            let trace: u8 = flag(args, "--trace")?.unwrap_or(0);
            if seconds.is_nan() || seconds <= 0.0 || trace > 1 {
                return Err("--seconds must be positive and --trace 0 or 1".into());
            }
            run::run(workload, seed, seconds, trace == 1);
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    // The shmem transport and the checkpoint probe write scratch files
    // under `temp_dir()`; keep them inside the checkout. Set before any
    // thread exists.
    let tmp = std::path::Path::new(OUT_DIR).join("tmp");
    if std::fs::create_dir_all(&tmp).is_ok() {
        if let Ok(abs) = tmp.canonicalize() {
            std::env::set_var("TMPDIR", abs);
        }
    }
    // Before any rank thread exists, so that every one inherits it.
    if !pin::to_one_cpu() {
        eprintln!("benchmark: cannot pin to one CPU; step times will follow the host's scheduling");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

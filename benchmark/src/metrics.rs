//! Every metric the benchmark reports, by name. `BENCHMARK.json` lists
//! the same names; a unit test holds the two together, and a traced run
//! fails its checks if it reports a different set.

/// `(name, unit, better)`.
pub type Declared = (&'static str, &'static str, &'static str);

/// Printed by an untraced run.
pub const END_TO_END: &[Declared] = &[("step_ms_p10", "ms", "lower"), ("setup_s", "s", "lower")];

/// Printed by a traced run, whatever its workload: the `driver.*` rows
/// and the `comm.*_per_step*` counts describe the workload of the run,
/// every other row is a probe at the size its name states.
pub const PER_LAYER: &[Declared] = &[
    // The workload of this run.
    ("driver.step_ms_p50", "ms", "lower"),
    ("driver.step_ms_p90", "ms", "lower"),
    ("driver.step_samples", "count", "higher"),
    ("driver.peak_rss_mib", "MiB", "lower"),
    ("driver.host_slowdown", "ratio", "lower"),
    ("driver.trace_overhead_pct", "%", "lower"),
    ("driver.speedup_vs_1rank", "ratio", "higher"),
    ("driver.layer_cover", "ratio", "higher"),
    ("driver.parity_err", "rel", "lower"),
    ("comm.msgs_per_step", "count", "lower"),
    ("comm.bytes_per_step", "B", "lower"),
    ("comm.copied_bytes_per_step", "B", "lower"),
    ("comm.msgs_per_step_4r", "count", "lower"),
    ("comm.bytes_per_step_4r", "B", "lower"),
    ("telemetry.profiled_overhead_pct", "%", "lower"),
    // fft: the serial kernel under dfft.
    ("fft.fft2d_256_ms", "ms", "lower"),
    ("fft.fft2d_32_us", "us", "lower"),
    // dfft: transforms and one bare reshape.
    ("dfft.forward_256_ms", "ms", "lower"),
    ("dfft.inverse_256_ms", "ms", "lower"),
    ("dfft.redistribute_256_ms", "ms", "lower"),
    ("dfft.forward_32_us", "us", "lower"),
    ("dfft.inverse_32_us", "us", "lower"),
    ("dfft.redistribute_32_us", "us", "lower"),
    ("dfft.forward_64_tcp_ms", "ms", "lower"),
    ("dfft.inverse_64_tcp_ms", "ms", "lower"),
    // comm: the p2p floor, the send paths, the collectives, launch.
    ("comm.p2p_rtt_64B_us", "us", "lower"),
    ("comm.p2p_rtt_64B_shmem_us", "us", "lower"),
    ("comm.p2p_rtt_64B_tcp_us", "us", "lower"),
    ("comm.isend_owned_256KiB_us", "us", "lower"),
    ("comm.sendrecv_2KiB_us", "us", "lower"),
    ("comm.sendrecv_12KiB_us", "us", "lower"),
    ("comm.alltoallv_256KiB_us", "us", "lower"),
    ("comm.alltoallv_4KiB_us", "us", "lower"),
    ("comm.alltoallv_16KiB_tcp_us", "us", "lower"),
    ("comm.barrier_us", "us", "lower"),
    ("comm.world_launch_ms", "ms", "lower"),
    ("comm.world_launch_tcp_ms", "ms", "lower"),
    // mesh: surface halos and the cutoff solver's point traffic.
    ("mesh.halo_exchange_256_us", "us", "lower"),
    ("mesh.halo_exchange_32_us", "us", "lower"),
    ("mesh.halo_exchange_64_tcp_us", "us", "lower"),
    ("mesh.halo_exchange_96_open_us", "us", "lower"),
    ("mesh.halo_exchange_48_us", "us", "lower"),
    ("mesh.migrate_to_spatial_us", "us", "lower"),
    ("mesh.halo_points_us", "us", "lower"),
    ("mesh.migrate_home_us", "us", "lower"),
    ("mesh.owned_imbalance", "ratio", "lower"),
    // spatial: neighbour search.
    ("spatial.neighbor_build_ms", "ms", "lower"),
    ("spatial.pairs_per_target", "count", "lower"),
    // core: Birkhoff-Rott solvers, one Runge-Kutta stage per workload,
    // and what that stage spends outside the layers below it.
    ("core.br_cutoff_ms", "ms", "lower"),
    ("core.br_exact_ms", "ms", "lower"),
    ("core.br_pair_ns", "ns", "lower"),
    ("core.derivatives_256_ms", "ms", "lower"),
    ("core.derivatives_32_us", "us", "lower"),
    ("core.derivatives_64_tcp_ms", "ms", "lower"),
    ("core.derivatives_cutoff_ms", "ms", "lower"),
    ("core.derivatives_exact_ms", "ms", "lower"),
    ("core.zmodel_local_256_ms", "ms", "lower"),
    ("core.zmodel_local_32_us", "us", "lower"),
    ("core.zmodel_local_64_tcp_ms", "ms", "lower"),
    ("core.zmodel_local_cutoff_ms", "ms", "lower"),
    ("core.zmodel_local_exact_ms", "ms", "lower"),
    // io: checkpoints.
    ("io.checkpoint_save_ms", "ms", "lower"),
    ("io.checkpoint_load_ms", "ms", "lower"),
    ("io.checkpoint_bytes", "B", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use beatnik_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        beatnik_json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match doc.get(key) {
            Some(Value::Array(items)) => items,
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    }

    fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("entry without {key}"))
    }

    #[test]
    fn benchmark_json_declares_the_metrics_the_program_reports() {
        let doc = benchmark_json();
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let theirs: Vec<(&str, &str, &str)> = list(&doc, key)
                .iter()
                .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
                .collect();
            assert_eq!(
                theirs,
                ours.to_vec(),
                "{key} differs between BENCHMARK.json and src/metrics.rs"
            );
        }
    }

    #[test]
    fn benchmark_json_declares_the_workloads_the_program_runs() {
        let doc = benchmark_json();
        let run_seconds = doc.get("run_seconds").and_then(Value::as_f64);
        assert_eq!(run_seconds, Some(crate::run::RUN_SECONDS));
        let theirs: Vec<(&str, &str)> = list(&doc, "workloads")
            .iter()
            .map(|e| (text(e, "name"), text(e, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(theirs, ours);
    }

    #[test]
    fn every_layer_call_names_a_declared_time() {
        for w in &WORKLOADS {
            let names = w.layer_calls.iter().map(|(n, _)| *n);
            for name in names.chain([w.derivatives, w.zmodel_local]) {
                let unit = PER_LAYER.iter().find(|(n, _, _)| *n == name).map(|d| d.1);
                assert!(
                    matches!(unit, Some("ms" | "us")),
                    "{}: {name} is not a declared time",
                    w.name
                );
            }
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(matches!(*better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}

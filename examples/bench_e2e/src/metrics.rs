//! The metric tables: names, units and regression bounds. `BENCHMARK.json`
//! at the repository root lists the same names and units (a test below
//! holds the two together).

/// `(name, unit, bound)`: what a user of the system sees. Lower is better
/// for all. The bound is the share of the parent's median by which the
/// metric may get worse. Over two sets of ten contract runs per workload the
/// widest spread ((q3 - q1) / median) read 12 % for `wall_s`, 13 % for
/// `req_p50_us` (both on `compile_corpus`), 11 % for `peak_rss_mb` and 20 %
/// for `setup_s`, and no median moved by more than 6 % between the sets;
/// the bounds leave that noise room.
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("req_p50_us", "us", 0.25),
    ("peak_rss_mb", "MiB", 0.2),
];

/// The Figure-2 passes, in pipeline order, as the `passes.*` metrics name
/// them.
pub const PASSES: [&str; 8] = [
    "fir-to-core",
    "lower-omp-mapped-data",
    "lower-omp-target-region",
    "canonicalize-host",
    "extract-device-module",
    "lower-omp-to-hls",
    "canonicalize-device",
    "hls-to-func",
];

/// `(name, unit)` of every per-layer metric except the `passes.*` pairs,
/// which [`per_layer`] appends. A metric that does not apply to a workload
/// (the ladder on `compile_corpus`) reads 0 there; that is why only the
/// ladder's shares are listed, not its rungs (`ladder.r0_us` ..
/// `ladder.r3_us`, printed by the full report): a time must never read the
/// same on every run.
const PER_LAYER: [(&str, &str); 80] = [
    ("frontend.parse_us", "us"),
    ("frontend.lower_us", "us"),
    ("frontend.fir_ops", "count"),
    ("ir.verify_us", "us"),
    ("ir.print_us", "us"),
    ("ir.parse_us", "us"),
    ("ir.host_module_bytes", "bytes"),
    ("fpga.synth_us", "us"),
    ("fpga.image_load_us", "us"),
    ("fpga.bitstream_bytes", "bytes"),
    ("fpga.lut", "count"),
    ("fpga.dsp", "count"),
    ("fpga.bram", "count"),
    ("fpga.sum_ii", "count"),
    ("fpga.sum_depth", "count"),
    ("fpga.execute_ns_per_elem", "ns"),
    ("fpga.execute_fixed_us", "us"),
    ("fpga.sim_cycles", "count"),
    ("fpga.sim_kernel_s", "sim_s"),
    ("fpga.cost_model_ratio", "ratio"),
    ("llvm.convert_us", "us"),
    ("llvm.emit_us", "us"),
    ("llvm.downgrade_us", "us"),
    ("llvm.ir_bytes", "bytes"),
    ("interp.ns_per_elem", "ns"),
    ("interp.call_fixed_us", "us"),
    ("interp.mem_copy_gb_per_s", "GB/s"),
    ("interp.alloc_us", "us"),
    ("host.cpp_print_us", "us"),
    ("host.cpp_bytes", "bytes"),
    ("host.launches", "count"),
    ("host.transfers", "count"),
    ("host.sim_transfer_s", "sim_s"),
    ("core.compile_residual_share", "ratio"),
    ("core.registry_us", "us"),
    ("core.teardown_us", "us"),
    ("core.machine_load_us", "us"),
    ("core.machine_run_us", "us"),
    ("shard.plan_us", "us"),
    ("shard.scatter_us", "us"),
    ("shard.gather_us", "us"),
    ("shard.delta_us", "us"),
    ("cluster.pool_load_us", "us"),
    ("cluster.launch_us_tiny", "us"),
    ("cluster.launch_us_big", "us"),
    ("cluster.open_us", "us"),
    ("cluster.close_us", "us"),
    ("cluster.sharded_launch_us", "us"),
    ("cluster.refresh_halos_us", "us"),
    ("cluster.sharded_close_us", "us"),
    ("cluster.run_us", "us"),
    ("cluster.cache_hit_us", "us"),
    ("cluster.queue_wait_us_per_job", "us"),
    ("cluster.jobs", "count"),
    ("cluster.staged_uploads", "count"),
    ("cluster.elided_transfers", "count"),
    ("cluster.halo_bytes", "bytes"),
    ("serve.healthz_us", "us"),
    ("serve.http_overhead_us", "us"),
    ("serve.open_us", "us"),
    ("serve.close_us", "us"),
    ("serve.json_parse_mb_per_s", "MB/s"),
    ("serve.json_write_mb_per_s", "MB/s"),
    ("serve.compile_cached_us", "us"),
    ("serve.req_p99_us", "us"),
    ("serve.storm2_launches_per_s", "1/s"),
    ("serve.stats_body_bytes", "bytes"),
    ("trace.recorder_overhead_share", "ratio"),
    ("trace.disabled_span_ns", "ns"),
    ("trace.enabled_span_ns", "ns"),
    ("trace.profile_coverage", "ratio"),
    ("trace.profile_kernel_share", "ratio"),
    ("sim.makespan_s", "sim_s"),
    ("bench.probe_overhead_share", "ratio"),
    ("bench.rep_spread", "ratio"),
    ("ladder.serve_share", "ratio"),
    ("ladder.cluster_share", "ratio"),
    ("ladder.fpga_share", "ratio"),
    ("ladder.interp_share", "ratio"),
    ("ladder.residual_share", "ratio"),
];

/// Every per-layer metric with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|(name, unit)| (name.to_string(), *unit))
        .collect();
    for pass in PASSES {
        all.push((format!("passes.{pass}_us"), "us"));
        all.push((format!("passes.{pass}_ops_after"), "count"));
    }
    all
}

/// The unit of per-layer metric `name` (the ladder's rungs, which are
/// printed but not listed, are microseconds).
pub fn unit_of(name: &str) -> &'static str {
    per_layer()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or("us", |(_, unit)| unit)
}

/// Simulated statistics and counts: they must repeat exactly, between the
/// reps of one run and between two runs of the same code.
pub fn is_exact(name: &str) -> bool {
    matches!(unit_of(name), "count" | "bytes" | "sim_s") && name != "serve.stats_body_bytes"
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no '{key}' list")
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("metric without name and unit: {m:?}"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let doc = serde_json::value_from_str(include_str!("../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), want);
        let Some(Value::Arr(gated)) = doc.get("end_to_end") else {
            unreachable!("listed above")
        };
        for (m, (name, _, bound)) in gated.iter().zip(END_TO_END) {
            assert_eq!(m.get("bound"), Some(&Value::Float(bound)), "{name}");
        }
        let want: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), want);
        let Some(Value::Arr(workloads)) = doc.get("workloads") else {
            panic!("no workloads")
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::Str(n)) => n.as_str(),
                _ => panic!("workload without a name"),
            })
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _, _)| n.to_string()));
        assert!(names.len() - END_TO_END.len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
    }
}

//! The metric names and units the benchmark prints. `BENCHMARK.json`
//! declares the same lists (pinned by a test): a metric added here without a
//! declaration there, or the reverse, fails `cargo test`.

/// End-to-end metrics: `(name, unit)`, printed by every untraced run.
/// `failed_share` is not among them: the result line carries it as
/// `failed` over `attempted`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("sim_ns_per_wall_s", "sim-ns/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`, printed by every traced run. A layer a
/// workload never enters reads 0 there.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("workloads.mutator.busy_share", "ratio"),
    ("workloads.mutator.ns_per_alloc", "ns"),
    ("workloads.snapshot.capture_ms", "ms"),
    ("workloads.snapshot.capture_ns_per_alloc", "ns"),
    ("workloads.snapshot.restore_ms", "ms"),
    ("workloads.runner.host_ns_per_mem_op", "ns"),
    ("core.collect.busy_share", "ratio"),
    ("core.collect.ns_per_copied_object", "ns"),
    ("core.collect.ns_per_engine_step", "ns"),
    ("core.collect.host_ns_per_sim_ns", "ratio"),
    ("micro.core.engine.scan_ns_per_step.w4", "ns"),
    ("micro.core.engine.scan_ns_per_step.w8", "ns"),
    ("micro.core.engine.scan_ns_per_step.w12", "ns"),
    ("micro.core.engine.scan_ns_per_step.w56", "ns"),
    ("micro.core.engine.heap_ns_per_step.w4", "ns"),
    ("micro.core.engine.heap_ns_per_step.w8", "ns"),
    ("micro.core.engine.heap_ns_per_step.w12", "ns"),
    ("micro.core.engine.heap_ns_per_step.w56", "ns"),
    ("micro.core.header_map.put_ns", "ns"),
    ("micro.core.header_map.get_hit_ns", "ns"),
    ("micro.core.header_map.get_miss_ns", "ns"),
    ("micro.core.write_cache.translate_ns", "ns"),
    ("heap.verify.ms_per_call", "ms"),
    ("heap.verify.ns_per_object", "ns"),
    ("micro.heap.alloc_object_ns", "ns"),
    ("micro.heap.copy_object_ns", "ns"),
    ("micro.heap.remset_insert_ns", "ns"),
    ("micro.heap.clone_ms", "ms"),
    ("micro.memsim.bus.grant_ns", "ns"),
    ("micro.memsim.llc.access_ns", "ns"),
    ("micro.memsim.llc.install_range_ns_per_line", "ns"),
    ("micro.memsim.system.read_word_ns.nvm", "ns"),
    ("micro.memsim.system.read_word_ns.dram", "ns"),
    ("micro.memsim.system.write_word_ns.nvm", "ns"),
    ("micro.memsim.system.write_word_ns.dram", "ns"),
    ("micro.memsim.system.read_bulk_ns_per_kib", "ns"),
    ("micro.memsim.system.nt_write_bulk_ns_per_kib", "ns"),
    ("micro.memsim.persist.record_store_ns", "ns"),
    ("micro.memsim.persist.write_back_ns_per_line", "ns"),
    ("micro.memsim.persist.persist_meta_ns", "ns"),
    ("micro.memsim.persist.crash_image_us", "us"),
    ("memsim.persist.enabled_cost_share", "ratio"),
    ("workloads.scenario.run_us", "us"),
    ("workloads.scenario.us_per_batch", "us"),
    ("metrics.hdr.record_n_ns", "ns"),
    ("metrics.hdr.encode_us", "us"),
    ("bench.grids.report_ms", "ms"),
    ("metrics.report.write_json_ms", "ms"),
    ("metrics.report.json_bytes", "bytes"),
    ("bench.warm.fork_saving_share", "ratio"),
    ("bench.runner.pool_speedup", "ratio"),
    ("sim.total_ns", "sim-ns"),
    ("sim.pause_ns", "sim-ns"),
    ("sim.engine_steps", "count"),
    ("sim.bus_grants", "count"),
    ("sim.llc_installs", "count"),
    ("sim.llc_hit_rate", "ratio"),
    ("sim.mem_ops", "count"),
    ("sim.copied_objects", "count"),
    ("sim.nvm_write_bytes", "bytes"),
    ("sim.oracle_checks", "count"),
    ("sim.recovered_cycles", "count"),
    ("sim.replayed_map_entries", "count"),
    ("sim.alloc_fences", "count"),
    ("sim.client_requests", "count"),
    ("sim.client_cohorts", "count"),
    ("sim.gc_attributed_windows", "count"),
    ("sim.gc_speedup_all_over_vanilla", "ratio"),
    ("trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::NAMES;

    fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
        doc.get(list)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no '{list}'"))
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).expect("string field");
                (field("name").to_owned(), field("unit").to_owned())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, NAMES);
        let run_seconds = doc.get("run_seconds").and_then(Value::as_f64);
        assert_eq!(run_seconds, Some(crate::run::DEFAULT_SECONDS));
    }
}

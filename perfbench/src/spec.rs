//! The metric tables: what `BENCHMARK.json` declares, in its order. A
//! result line is built by walking these tables, so a run prints exactly
//! these names on every workload or fails.

/// `(name, unit)` of every end-to-end metric (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("disk_bytes_per_node", "B"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("calib.v1_fwd_scan_ns_per_node", "ns"),
    ("xml.parse_ns_per_node", "ns"),
    ("storage.create_ns_per_node", "ns"),
    ("storage.open_us", "us"),
    ("storage.arb_bytes_per_node", "B"),
    ("storage.scan_bwd_ns_per_node", "ns"),
    ("storage.scan_fwd_ns_per_node", "ns"),
    ("storage.block_decode_ns_per_node", "ns"),
    ("storage.blocks_decoded_per_eval", "count"),
    ("storage.sta_write_ns_per_node", "ns"),
    ("storage.sta_read_ns_per_node", "ns"),
    ("storage.sta_bytes_per_node", "B"),
    ("storage.update_apply_ms", "ms"),
    ("storage.update_blocks_rewritten", "count"),
    ("storage.sta_rewrite_ms", "ms"),
    ("xpath.compile_us", "us"),
    ("tmnf.compile_us", "us"),
    ("tmnf.merge4_us", "us"),
    ("core.automata_build_us", "us"),
    ("core.delta_fill_ms", "ms"),
    ("core.bottom_up_warm_ns_per_node", "ns"),
    ("core.top_down_warm_ns_per_node", "ns"),
    ("core.bu_states", "count"),
    ("core.td_states", "count"),
    ("core.delta_entries", "count"),
    ("core.automata_mem_kib", "KiB"),
    ("engine.prepare_us", "us"),
    ("engine.phase1_ns_per_node", "ns"),
    ("engine.phase2_ns_per_node", "ns"),
    ("engine.phase1_self_ns_per_node", "ns"),
    ("engine.phase2_self_ns_per_node", "ns"),
    ("engine.nodeset_extra_ns_per_node", "ns"),
    ("engine.xmlmark_extra_ns_per_node", "ns"),
    ("engine.batch4_ns_per_node_query", "ns"),
    ("engine.sharded2_speedup", "ratio"),
    ("engine.eval_mem_kib", "KiB"),
    ("engine.prime_ms", "ms"),
    ("engine.refresh_ms", "ms"),
    ("engine.dirty_nodes_per_refresh", "count"),
    ("engine.retained_sta_blocks", "count"),
    ("engine.full_after_update_ms", "ms"),
    ("server.codec_req_us", "us"),
    ("server.codec_resp_ns_per_result_node", "ns"),
    ("server.ping_rtt_us", "us"),
    ("server.service_overhead_ms", "ms"),
    ("server.queue_wait_p50_us", "us"),
    ("server.mean_batch", "ratio"),
    ("server.scans_per_query", "ratio"),
    ("server.program_cache_hit_rate", "%"),
    ("server.automata_reuse_rate", "%"),
    ("server.shed", "count"),
    ("server.req_p99_ms", "ms"),
    ("server.generator_lag_p95_ms", "ms"),
    ("server.update_push_ms", "ms"),
    ("server.rss_peak_mb", "MB"),
    ("cli.fixed_cost_ms", "ms"),
    ("trace.op_p50_ms", "ms"),
];

/// `BENCHMARK.json` of the repository this package was built in.
pub fn benchmark_json() -> Result<crate::json::Value, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    crate::json::parse(&text)
}

/// The result line: `values` laid out in `table` order. Panics if a
/// measured name is not in the table or a table name was not measured —
/// a run that cannot print every declared metric has no result.
pub fn result_line(
    table: &[(&str, &str)],
    values: &[(&str, f64)],
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    for (name, _) in values {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not declared in BENCHMARK.json"
        );
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            assert!(value.is_finite(), "metric {name} is {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;
    use crate::json::{self, Value};

    fn declared(section: &Value) -> Vec<(String, String)> {
        section
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Value::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_equal_benchmark_json() {
        let b = benchmark_json().unwrap();
        assert_eq!(declared(b.get("end_to_end").unwrap()), owned(END_TO_END));
        assert_eq!(declared(b.get("per_layer").unwrap()), owned(PER_LAYER));
        let names: Vec<&str> = b
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
        for (w, declared) in WORKLOADS
            .iter()
            .zip(b.get("workloads").and_then(Value::as_arr).unwrap())
        {
            assert_eq!(declared.get("why").and_then(Value::as_str), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn result_line_prints_the_table_and_nothing_else() {
        let values: Vec<(&str, f64)> = END_TO_END
            .iter()
            .rev()
            .enumerate()
            .map(|(i, (n, _))| (*n, i as f64 + 0.5))
            .collect();
        let line = result_line(END_TO_END, &values, true, 10, 0);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let printed: Vec<&str> = v
            .get("metrics")
            .and_then(Value::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            printed,
            END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(0.5)
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_no_result() {
        result_line(END_TO_END, &[("op_p50_ms", 1.0)], true, 1, 0);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_is_no_result() {
        result_line(END_TO_END, &[("op_p51_ms", 1.0)], true, 1, 0);
    }
}

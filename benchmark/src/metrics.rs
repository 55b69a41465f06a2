//! Every metric the benchmark prints, by name, with its unit and
//! direction — the single source `BENCHMARK.json` is generated from
//! (`lbnn-benchmark manifest`) and checked against.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}
use Better::{Higher, Lower};

/// Seconds one run measures (`--seconds`, fixed in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 14;

/// Workloads with the one-line reason each was chosen.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "offline_model",
        "VGG16 layers 2-13 on pre-packed batches: small cache-resident frames, so kernel replay and layer chaining do all the work (the paper's FPS case)",
    ),
    (
        "offline_dag",
        "one 24.6k-gate DAG whose 526 KB frame overflows the 256 KiB tile budget: same kernel, but tiling decides throughput",
    ),
    (
        "runtime_saturated",
        "one tiny block behind Runtime::submit with 4096 requests outstanding: marshalling and batching dominate, the kernel barely matters",
    ),
    (
        "serve_wire_bin",
        "JSC-M behind lbnn-serve, one binary-protocol connection, one request in flight: sockets, hand-off and the deadline flush are everything",
    ),
    (
        "serve_wire_http",
        "the same server over one HTTP/1.1 keep-alive connection: a gain for one codec that costs the other shows here",
    ),
    (
        "compile_deploy",
        "compile the model and the partitioned DAG, serialise, load back, patch a serving runtime: a serving gain bought with compile-, load- or patch-time work shows here",
    ),
];

/// End-to-end metrics: `(name, unit, better, bound)`. Every workload
/// reports every one; what an operation is differs per workload (see
/// `README.md`).
///
/// The two speed bounds are sized to the host, not to the estimators:
/// ten runs on a quiet host spread 1-5 %, but for minutes at a time
/// neighbours on the 2-vCPU sandbox slow whatever lives in the L2 cache
/// or crosses cores by ~20 % in every window, and a set of runs that
/// straddles such a stretch spreads that wide whatever one run reports
/// (`README.md`, "Steadiness").
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    ("ops_per_s", "1/s", Higher, 0.25),
    ("p50_us", "us", Lower, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.10),
    ("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics that are exact counts: the same for every seed and
/// every run of one commit.
pub const EXACT: [&str; 25] = [
    "netlist.eval.tape_len",
    "netlist.eval.frame_slots",
    "netlist.eval.tile_words",
    "netlist.eval.frame_bytes",
    "netlist.eval.fused_chains",
    "netlist.partitioned.cut_nets",
    "netlist.partitioned.cut_copies",
    "netlist.partitioned.exchange_kib_per_block",
    "netlist.partitioned.max_frame_slots",
    "core.compiler.nodes_after_optimize",
    "core.compiler.mfgs_after_merge",
    "core.compiler.schedule_attempts",
    "core.lpu.sim_cycles_per_image",
    "core.lpu.sim_fps",
    "core.engine.batches_served",
    "core.artifact.bytes",
    "core.artifact.delta_bytes",
    "serve.wire.request_bytes",
    "serve.wire.response_bytes",
    "serve.http.request_bytes",
    "serve.http.response_bytes",
    "serve.server.connections",
    "serve.server.requests",
    "serve.server.protocol_errors",
    "core.runtime.shed",
];

/// Per-layer metrics: `(name, unit, better)`, grouped by the module they
/// measure.
pub const PER_LAYER: [(&str, &str, Better); 91] = [
    // netlist::eval — kernel replay and the transposes around it.
    ("netlist.eval.kernel_ns_per_sample", "ns", Lower),
    ("netlist.eval.dag_kernel_ns_per_sample", "ns", Lower),
    ("netlist.eval.pack_ns_per_sample", "ns", Lower),
    ("netlist.eval.unpack_ns_per_sample", "ns", Lower),
    ("netlist.eval.tape_len", "count", Lower),
    ("netlist.eval.frame_slots", "count", Lower),
    ("netlist.eval.tile_words", "count", Higher),
    ("netlist.eval.frame_bytes", "bytes", Lower),
    ("netlist.eval.fused_chains", "count", Higher),
    // netlist::partitioned — recorded per layer only.
    ("netlist.partitioned.p2_ns_per_sample", "ns", Lower),
    ("netlist.partitioned.p3_ns_per_sample", "ns", Lower),
    ("netlist.partitioned.cut_nets", "count", Lower),
    ("netlist.partitioned.cut_copies", "count", Lower),
    ("netlist.partitioned.exchange_kib_per_block", "KiB", Lower),
    ("netlist.partitioned.max_frame_slots", "count", Lower),
    // netlist::patch
    ("netlist.patch.patched_ms", "ms", Lower),
    // core::compiler — the compiler's own per-pass wall times.
    ("core.compiler.optimize_us", "us", Lower),
    ("core.compiler.balance_us", "us", Lower),
    ("core.compiler.levelize_us", "us", Lower),
    ("core.compiler.partition_us", "us", Lower),
    ("core.compiler.merge_us", "us", Lower),
    ("core.compiler.schedule_us", "us", Lower),
    ("core.compiler.codegen_us", "us", Lower),
    ("core.compiler.locality_us", "us", Lower),
    ("core.compiler.exchange_us", "us", Lower),
    ("core.compiler.nodes_after_optimize", "count", Lower),
    ("core.compiler.mfgs_after_merge", "count", Lower),
    ("core.compiler.schedule_attempts", "count", Lower),
    // core::lpu — simulated machine time, and the simulator's host time.
    ("core.lpu.sim_cycles_per_image", "count", Lower),
    ("core.lpu.sim_fps", "frames/s", Higher),
    ("core.lpu.scalar_ns_per_sample", "ns", Lower),
    // core::engine
    ("core.engine.run_batch_ns_per_sample", "ns", Lower),
    ("core.engine.run_batches_ns_per_sample", "ns", Lower),
    ("core.engine.batches_served", "count", Higher),
    // core::model
    ("core.model.infer_ns_per_sample", "ns", Lower),
    ("core.model.layers_sum_ns_per_sample", "ns", Lower),
    ("core.model.chain_ns_per_sample", "ns", Lower),
    ("core.model.slowest_layer_ns_per_sample", "ns", Lower),
    // core::runtime — saturated, as in `runtime_saturated`...
    ("core.runtime.micro_batches", "count", Lower),
    ("core.runtime.full_flushes", "count", Higher),
    ("core.runtime.deadline_flushes", "count", Lower),
    ("core.runtime.mean_lanes_per_batch", "count", Higher),
    ("core.runtime.fill_ratio", "ratio", Higher),
    ("core.runtime.peak_depth", "count", Lower),
    ("core.runtime.shed", "count", Lower),
    ("core.runtime.queue_p50_us", "us", Lower),
    ("core.runtime.queue_p99_us", "us", Lower),
    ("core.runtime.submit_call_ns", "ns", Lower),
    ("core.runtime.req_per_s", "1/s", Higher),
    ("core.runtime.overhead_ns_per_req", "ns", Lower),
    ("core.runtime.stats_call_us", "us", Lower),
    ("core.runtime.swap_ms", "ms", Lower),
    // ...and one request at a time, as behind the wire.
    ("core.runtime.wire_fill_ratio", "ratio", Higher),
    ("core.runtime.wire_deadline_flushes", "count", Lower),
    ("core.runtime.wire_queue_p50_us", "us", Lower),
    // core::artifact
    ("core.artifact.save_ms", "ms", Lower),
    ("core.artifact.load_ms", "ms", Lower),
    ("core.artifact.bytes", "bytes", Lower),
    ("core.artifact.delta_make_ms", "ms", Lower),
    ("core.artifact.delta_apply_ms", "ms", Lower),
    ("core.artifact.delta_bytes", "bytes", Lower),
    // serve::wire
    ("serve.wire.encode_request_ns", "ns", Lower),
    ("serve.wire.decode_request_ns", "ns", Lower),
    ("serve.wire.encode_response_ns", "ns", Lower),
    ("serve.wire.decode_response_ns", "ns", Lower),
    ("serve.wire.request_bytes", "bytes", Lower),
    ("serve.wire.response_bytes", "bytes", Lower),
    // serve::http
    ("serve.http.read_request_ns", "ns", Lower),
    ("serve.http.write_response_ns", "ns", Lower),
    ("serve.http.request_bytes", "bytes", Lower),
    ("serve.http.response_bytes", "bytes", Lower),
    // serve::registry
    ("serve.registry.resolve_ns", "ns", Lower),
    ("serve.registry.infer_p50_us", "us", Lower),
    ("serve.registry.load_dir_ms", "ms", Lower),
    // serve::server — one binary and one HTTP connection, seen from the
    // client, and what the in-process replay cannot account for.
    ("serve.server.bin_p50_us", "us", Lower),
    ("serve.server.http_p50_us", "us", Lower),
    ("serve.server.unattributed_bin_p50_us", "us", Lower),
    ("serve.server.unattributed_http_p50_us", "us", Lower),
    ("serve.server.connections", "count", Lower),
    ("serve.server.requests", "count", Higher),
    ("serve.server.protocol_errors", "count", Lower),
    ("serve.server.drain_ms", "ms", Lower),
    // models::workload
    ("models.workload.gen_s", "s", Lower),
    // The traced workload itself.
    ("bench.ops_per_s", "1/s", Higher),
    ("bench.win_median", "1/s", Higher),
    ("bench.win_q1", "1/s", Higher),
    ("bench.p50_us", "us", Lower),
    ("bench.pooled_p50_us", "us", Lower),
    ("bench.pooled_p90_us", "us", Lower),
    ("bench.samples", "count", Higher),
    ("bench.trace_overhead_share", "ratio", Lower),
];

/// A set of measured values keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Formats a number with all its digits, as JSON.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v}")
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`
/// with exactly the metrics of `table`, each with its unit.
///
/// # Panics
///
/// Panics if `values` lacks a metric of the table: a metric that is
/// declared but not measured is a bug in the benchmark.
pub fn result_line<'a>(
    attempted: u64,
    failed: u64,
    table: impl Iterator<Item = (&'a str, &'a str)>,
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    );
    for (i, (name, unit)) in table.enumerate() {
        let value = values
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` is declared but was not measured"));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    out.push_str("}}");
    out
}

/// The text lines printed before the result line.
pub fn text_lines<'a>(table: impl Iterator<Item = (&'a str, &'a str)>, values: &Values) -> String {
    let mut out = String::new();
    for (name, unit) in table {
        if let Some(v) = values.get(name) {
            let exact = if EXACT.contains(&name) {
                "  (exact)"
            } else {
                ""
            };
            let _ = writeln!(out, "  {name:<44} {v:>16.4} {unit}{exact}");
        }
    }
    out
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}",
            better.as_str()
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}",
            better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut names = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(
                valid_name(name) && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
            assert!(names.insert(name), "{name} used twice");
        }
        assert_eq!(WORKLOADS.map(|w| w.0), crate::workloads::NAMES);
        for (name, unit, _, bound) in END_TO_END {
            assert!(valid_name(name) && valid_unit(unit), "{name}");
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(names.insert(name), "{name} used twice");
        }
        // setup_s carries the largest bound.
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert_eq!((setup.1, setup.2), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3));
        assert!(PER_LAYER.len() <= 128);
        for name in EXACT {
            assert!(
                PER_LAYER.iter().any(|m| m.0 == name),
                "{name} is not a per-layer metric"
            );
        }
        for (name, unit, _) in PER_LAYER {
            assert!(valid_name(name) && valid_unit(unit), "{name}");
            assert!(names.insert(name), "{name} used twice");
        }
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `lbnn-benchmark manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() < 64 * 1024);
    }

    #[test]
    fn result_line_lists_exactly_the_table() {
        let mut values = Values::new();
        values.insert("a", 1.25);
        values.insert("b", 3.0);
        values.insert("ignored", 9.0);
        let table = [("a", "ms"), ("b", "count")];
        let line = result_line(10, 0, table.into_iter(), &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        assert!(result_line(10, 1, table.into_iter(), &values).starts_with("{\"correct\": false"));
    }
}

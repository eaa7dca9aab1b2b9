//! The benchmark's fixed names: workloads, end-to-end gates, per-layer
//! metrics. `BENCHMARK.json` is rendered from these tables (`--manifest`),
//! so the file and the program cannot drift apart.

use std::fmt::Write as _;

/// How long one run measures; `BENCHMARK.json`'s `run_seconds` and the
/// default of `--seconds`.
pub const RUN_SECONDS: u64 = 15;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "batch-temporal",
        "Paper S2 shape: 768-segment batches through GPUTemporal/ThreadPerQuery, unsharded. Over \
         90% of wall is the kernel simulation, so simulator speed-ups show here; sharding and \
         service changes must not.",
    ),
    (
        "sharded-spatiotemporal",
        "Same database, GPUSpatioTemporal/WarpPerTile over 4 temporal shards with slab routing. \
         Routing, back-to-back shard searches and merge/dedup weigh in, so shard parallelism and \
         merge fixes show here.",
    ),
    (
        "service-burst",
        "Read-only QueryService, 2 workers: bursts of 16 requests x 16 segments through admission, \
         batcher, workers, demux. Set-up builds workers x 2 indexes, so a shared index shows \
         here; ingest must not.",
    ),
    (
        "service-stream",
        "Sliding-window QueryService: each tick appends a timestep, expires one, then serves a \
         burst. Most of a tick is ingest/expire into four engine replicas - the path \
         service-burst bypasses.",
    ),
];

pub struct Gate {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The same six on every workload. Each bound is about three times the
/// inter-quartile spread that metric shows over ten seeds in a quiet period
/// on its noisiest workload, and above every spread and shift in `AA.md`
/// (README, "Noise findings"); `setup_s` carries the widest.
pub const END_TO_END: [Gate; 6] = [
    Gate { name: "setup_s", unit: "s", lower_is_better: true, bound: 0.25 },
    Gate { name: "op_p50_ms", unit: "ms", lower_is_better: true, bound: 0.2 },
    Gate { name: "op_p90_ms", unit: "ms", lower_is_better: true, bound: 0.2 },
    Gate { name: "ops_per_s", unit: "1/s", lower_is_better: false, bound: 0.2 },
    Gate { name: "sim_device_s", unit: "sim_s", lower_is_better: true, bound: 0.15 },
    Gate { name: "peak_rss_mb", unit: "MiB", lower_is_better: true, bound: 0.15 },
];

/// `(name, unit, lower_is_better)`; the prefix names the layer (crate).
/// Every `_s` time is the median duration of the spans of that name in the
/// traced run; counts are per op. A workload that never enters a layer
/// reports 0 for it.
pub const PER_LAYER: [(&str, &str, bool); 77] = [
    ("geom.prepare_sort_s", "s", true),
    ("geom.stats_s", "s", true),
    ("geom.columns_transpose_s", "s", true),
    ("geom.partition_s", "s", true),
    ("geom.replication_factor", "ratio", true),
    ("geom.append_s", "s", true),
    ("geom.expire_s", "s", true),
    ("geom.dedup_s", "s", true),
    ("kernels.sort_queries_s", "s", true),
    ("kernels.upload_s", "s", true),
    ("kernels.comparisons", "count", true),
    ("kernels.raw_matches", "count", true),
    ("kernels.matches", "count", true),
    ("kernels.comparisons_per_wall_s", "1/s", false),
    ("gpu-sim.kernel_exec_sim_s", "sim_s", true),
    ("gpu-sim.h2d_sim_s", "sim_s", true),
    ("gpu-sim.d2h_sim_s", "sim_s", true),
    ("gpu-sim.launch_sim_s", "sim_s", true),
    ("gpu-sim.host_compute_s", "s", true),
    ("gpu-sim.kernel_invocations", "count", true),
    ("gpu-sim.redo_rounds", "count", true),
    ("gpu-sim.instructions", "count", true),
    ("gpu-sim.gmem_read_bytes", "bytes", true),
    ("gpu-sim.gmem_write_bytes", "bytes", true),
    ("gpu-sim.atomics", "count", true),
    ("gpu-sim.h2d_bytes", "bytes", true),
    ("gpu-sim.d2h_bytes", "bytes", true),
    ("gpu-sim.divergent_warps", "count", true),
    ("gpu-sim.tiles_dispatched", "count", true),
    ("gpu-sim.load_spread", "ratio", true),
    ("gpu-sim.sim_repeat_spread", "ratio", true),
    ("gpu-sim.device_new_s", "s", true),
    ("index-temporal.build_s", "s", true),
    ("index-temporal.schedule_build_s", "s", true),
    ("index-temporal.search_s", "s", true),
    ("index-temporal.append_s", "s", true),
    ("index-temporal.expire_s", "s", true),
    ("index-spatiotemporal.build_s", "s", true),
    ("index-spatiotemporal.schedule_s", "s", true),
    ("index-spatiotemporal.search_s", "s", true),
    ("index-spatiotemporal.fallback_queries", "count", true),
    ("index-spatiotemporal.append_s", "s", true),
    ("index-spatiotemporal.expire_s", "s", true),
    ("index-spatial.fsg_build_s", "s", true),
    ("index-spatial.search_s", "s", true),
    ("rtree.build_s", "s", true),
    ("rtree.search_s", "s", true),
    ("core.engine_build_s", "s", true),
    ("core.engine_search_s", "s", true),
    ("core.sharded_build_s", "s", true),
    ("core.sharded_search_s", "s", true),
    ("core.shard_overhead_s", "s", true),
    ("core.shard_queries_routed", "count", true),
    ("core.shard_queries_skipped", "count", false),
    ("core.budget_redos", "count", true),
    ("core.duplicates_dropped", "count", true),
    ("core.verify_s", "s", true),
    ("service.start_s", "s", true),
    ("service.shutdown_s", "s", true),
    ("service.submit_p50_us", "us", true),
    ("service.request_waited_p50_ms", "ms", true),
    ("service.request_waited_p99_ms", "ms", true),
    ("service.overhead_ms", "ms", true),
    ("service.batches_executed", "count", true),
    ("service.mean_batch_queries", "count", false),
    ("service.mean_batch_requests", "count", false),
    ("service.max_queue_depth", "count", true),
    ("service.fallback_batches", "count", true),
    ("service.requests_rejected", "count", true),
    ("service.requests_timed_out", "count", true),
    ("service.requests_failed", "count", true),
    ("service.advance_window_p50_ms", "ms", true),
    ("service.advance_window_p90_ms", "ms", true),
    ("service.segments_ingested", "count", true),
    ("service.segments_expired", "count", true),
    ("trace.overhead_ratio", "ratio", true),
    ("gen.dataset_s", "s", true),
];

fn better(lower_is_better: bool) -> &'static str {
    if lower_is_better {
        "lower"
    } else {
        "higher"
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, g) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            g.name,
            g.unit,
            better(g.lower_is_better),
            g.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, lower)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{sep}",
            better(*lower)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The result line the driver reads: one JSON object, last on stdout.
/// A value that is not finite is a runner bug; it is reported as 0 rather
/// than as a token JSON cannot carry.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    values: &[(&str, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{"
    );
    for (i, (name, unit, value)) in values.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

//! Metric catalogue and result rendering.
//!
//! The catalogue mirrors `BENCHMARK.json`: every end-to-end metric with its
//! unit and better direction, every per-layer metric with its unit. A run
//! prints a readable table and then, as its last line, the one JSON object
//! the benchmark contract asks for.

/// An end-to-end metric: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 12] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("wall_ms", "ms", "lower"),
    ("max_program_ms", "ms", "lower"),
    ("scaling_exponent", "slope", "lower"),
    ("speedup_geomean", "x", "higher"),
    ("static_growth", "x", "lower"),
    ("warm_p50_us", "us", "lower"),
    ("warm_p99_us", "us", "lower"),
    ("cold_p50_us", "us", "lower"),
    ("cold_p99_us", "us", "lower"),
    ("throughput_rps", "req/s", "higher"),
];

/// The layers, named after the crate directories under `crates/`.
pub const LAYERS: [&str; 9] = [
    "workloads",
    "ir",
    "interp",
    "regions",
    "core",
    "analysis",
    "sched",
    "bench",
    "serve",
];

/// A per-layer metric: `(name, unit)`. `<layer>.loc` entries follow.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("workloads.suite_build_ms", "ms"),
    ("workloads.corpus_build_ms", "ms"),
    ("workloads.by_name_us", "us"),
    ("ir.fingerprint_us", "us"),
    ("bench.cache_probe_us", "us"),
    ("bench.warm_compile_us", "us"),
    ("bench.cache_hits", "count"),
    ("bench.cache_misses", "count"),
    ("bench.cache_hit_ratio", "ratio"),
    ("bench.inflight_waits", "count"),
    ("bench.unattributed_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.classify_us", "us"),
    ("serve.render_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.queue_io_p50_us", "us"),
    ("serve.queue_io_p99_us", "us"),
    ("serve.unattributed_us", "us"),
    ("interp.profile_ms", "ms"),
    ("interp.steps", "count"),
    ("interp.ns_per_step", "ns"),
    ("regions.superblock_ms", "ms"),
    ("regions.unroll_ms", "ms"),
    ("regions.frp_ms", "ms"),
    ("regions.unroll_growth", "x"),
    ("core.icbm_ms", "ms"),
    ("core.speculate_ms", "ms"),
    ("core.liveness_ms", "ms"),
    ("core.match_ms", "ms"),
    ("core.restructure_ms", "ms"),
    ("core.motion_ms", "ms"),
    ("core.motion_deps_ms", "ms"),
    ("core.motion_facts_ms", "ms"),
    ("core.dce_ms", "ms"),
    ("core.cpr_blocks", "count"),
    ("core.skipped", "count"),
    ("core.branches_collapsed", "count"),
    ("core.useful_ratio", "ratio"),
    ("analysis.bdd_queries", "count"),
    ("analysis.bdd_memo_hit_ratio", "ratio"),
    ("analysis.liveness_ms", "ms"),
    ("analysis.incremental_liveness_ms", "ms"),
    ("sched.schedule_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.warm_p50_us", "us"),
    ("trace.cold_p50_us", "us"),
    ("trace.throughput_rps", "req/s"),
];

/// The unit of a per-layer metric name (`<layer>.loc` included).
fn per_layer_unit(name: &str) -> &'static str {
    if name.ends_with(".loc") {
        return "lines";
    }
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// What one run produced.
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (compiles, requests, checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    /// Prints the readable table and the final JSON line.
    pub fn print(&self, trace: bool) {
        println!(
            "--- {} metrics ---",
            if trace { "per-layer" } else { "end-to-end" }
        );
        for (name, value) in &self.metrics {
            if let Some((_, unit, better)) = END_TO_END.iter().find(|(n, _, _)| n == name) {
                println!("{name:<28} {value:>16.4} {unit:<6} ({better} is better)");
            } else {
                println!("{name:<28} {value:>16.4} {}", per_layer_unit(name));
            }
        }
        println!(
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = END_TO_END
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map_or_else(|| per_layer_unit(name), |(_, u, _)| u);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

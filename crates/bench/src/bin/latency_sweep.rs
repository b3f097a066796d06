//! Exposed-branch-latency sweep.
//!
//! The paper's motivation (§1, §3) is that EPIC processors have *exposed*
//! branch latency and limited branch throughput; control CPR's value should
//! therefore grow as branch latency grows. This binary regenerates the
//! Table 2 geomean on the medium machine for branch latencies 1..4.
//!
//! Workloads compile in parallel, and each latency point schedules its
//! compiled pairs in parallel; output order is fixed.

use epic_bench::{
    check_pair_schedules, compile_cached, enable_tracing_if_requested, take_check_schedules_flag,
    take_trace_flag, write_trace, CompileCache, PipelineConfig,
};
use epic_machine::Machine;
use epic_perf::geomean;
use rayon::prelude::*;

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let trace_path = take_trace_flag(&mut args);
    let check_schedules = take_check_schedules_flag(&mut args);
    enable_tracing_if_requested(&trace_path);
    let workloads = epic_workloads::all();
    let cfg = PipelineConfig::default();
    // The sweep reschedules one compiled pair per workload at several
    // branch latencies; the cache keeps those compiles shared with any
    // other tool pointed at the same `EPIC_CACHE_DIR`.
    let cache = CompileCache::from_env();
    let compiled: Vec<_> = workloads
        .par_iter()
        .map(|w| compile_cached(w, &cfg, &cache).unwrap_or_else(|e| panic!("{}: {e}", w.name)))
        .collect();

    println!("Geomean speedup (medium machine) vs exposed branch latency");
    println!();
    println!("{:<16} {:>8}", "branch latency", "geomean");
    for blat in 1..=4u32 {
        let m = [Machine::medium().with_branch_latency(blat)];
        let speedups: Vec<f64> = compiled
            .par_iter()
            .map(|c| {
                let b = c.base_cycles(&m)[0];
                let o = c.opt_cycles(&m)[0].max(1);
                b as f64 / o as f64
            })
            .collect();
        println!("{:<16} {:>8.3}", blat, geomean(speedups));
    }
    if check_schedules {
        // Validate every compiled pair under each swept branch latency;
        // all output goes to stderr so the sweep stays byte-identical.
        let machines: Vec<Machine> =
            (1..=4u32).map(|blat| Machine::medium().with_branch_latency(blat)).collect();
        let errors: Vec<Option<String>> = compiled
            .par_iter()
            .map_with_index(|i, c| check_pair_schedules(workloads[i].name, c, &machines).err())
            .collect();
        let errors: Vec<String> = errors.into_iter().flatten().collect();
        assert!(errors.is_empty(), "schedule validation failed:\n{}", errors.join("\n"));
        eprintln!(
            "schedule validation: {} workloads x {} latencies x 2 functions OK",
            workloads.len(),
            machines.len()
        );
    }
    if let Some(path) = &trace_path {
        write_trace(path);
    }
}

//! Regenerates the paper's Table 2: ICBM speedup over the superblock
//! baseline on the five EPIC processors, per benchmark plus geometric
//! means.
//!
//! Workloads compile and schedule in parallel (`RAYON_NUM_THREADS`
//! controls the fan-out; `RAYON_NUM_THREADS=1` is the serial reference).
//! `--timings out.json` writes per-workload pass timings. Stage
//! artifacts are served through a compile cache (set `EPIC_CACHE_DIR` to
//! persist them across runs); `--cache-stats` prints the counters.

use epic_bench::{
    check_all_schedules, enable_tracing_if_requested, render_table2, table2,
    take_check_schedules_flag, take_timings_flag, take_trace_flag, timings_to_json, write_trace,
    CompileCache, PipelineConfig,
};

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let timings_path = take_timings_flag(&mut args);
    let trace_path = take_trace_flag(&mut args);
    let check_schedules = take_check_schedules_flag(&mut args);
    enable_tracing_if_requested(&trace_path);
    let cache_stats = args.iter().any(|a| a == "--cache-stats");
    let large = args.iter().any(|a| a == "--large");

    // `--large` appends the RISC-lite corpus tier (1k–10k-op translated
    // functions) to the paper suite.
    let workloads =
        if large { epic_workloads::all_with_corpus() } else { epic_workloads::all() };
    let cfg = PipelineConfig::default();
    let cache = CompileCache::from_env();
    let (rows, timings) = table2(&workloads, &cfg, Some(&cache));
    if let Some(path) = &timings_path {
        std::fs::write(path, timings_to_json(&timings)).expect("write timings");
        eprintln!("pass timings written to {path}");
    }
    if let Some(path) = &trace_path {
        write_trace(path);
    }
    if check_schedules {
        // Table 2 schedules on all five processors: validate all of them.
        // Compiles are in-process cache hits; all output goes to stderr.
        check_all_schedules(&workloads, &cfg, &cache, &epic_machine::Machine::paper_suite());
    }
    if cache_stats {
        eprintln!("cache: {}", cache.stats().to_json());
    }
    println!("Table 2: speedup of control CPR (ICBM) over the superblock baseline");
    println!("(branch latency 1; estimation: schedule length x profile frequency)");
    println!();
    print!("{}", render_table2(&rows));
}

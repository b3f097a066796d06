//! Regenerates the paper's Table 3: static and dynamic operation-count
//! ratios (height-reduced / baseline), total and branches-only — plus the
//! melding × front-end matrix (CPR vs melding vs both, ideal vs modern
//! front end) on the branchy subset.
//!
//! Workloads compile in parallel (`RAYON_NUM_THREADS` controls the
//! fan-out; `RAYON_NUM_THREADS=1` is the serial reference).
//! `--timings out.json` writes per-workload pass timings. Stage artifacts
//! are served through a compile cache (set `EPIC_CACHE_DIR` to persist
//! them across runs); `--cache-stats` prints the counters.

use epic_bench::{
    check_all_schedules, enable_tracing_if_requested, meld_matrix, meld_matrix_configs,
    meld_matrix_machines, render_meld_matrix, render_table3, table3, take_check_schedules_flag,
    take_timings_flag, take_trace_flag, timings_to_json, write_trace, CompileCache,
    PipelineConfig,
};

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let timings_path = take_timings_flag(&mut args);
    let trace_path = take_trace_flag(&mut args);
    let check_schedules = take_check_schedules_flag(&mut args);
    enable_tracing_if_requested(&trace_path);
    let cache_stats = args.iter().any(|a| a == "--cache-stats");

    let workloads = epic_workloads::all();
    let cfg = PipelineConfig::default();
    let cache = CompileCache::from_env();
    let (rows, timings) = table3(&workloads, &cfg, Some(&cache));
    if let Some(path) = &timings_path {
        std::fs::write(path, timings_to_json(&timings)).expect("write timings");
        eprintln!("pass timings written to {path}");
    }
    if let Some(path) = &trace_path {
        write_trace(path);
    }
    // The melding matrix on the branchy subset: control CPR vs melding vs
    // both, on the ideal and the penalized front end (both reduce branch
    // counts, but only cycles under a front-end model show the difference
    // Table 3's ratios cannot).
    let subset: Vec<_> = ["strcpy", "cmp", "wc", "grep", "lex", "sort", "diff", "023.eqntott", "126.gcc"]
        .iter()
        .map(|n| epic_workloads::by_name(n).expect("known workload"))
        .collect();
    let fe_machines = meld_matrix_machines();
    let matrix = meld_matrix(&subset, &fe_machines, Some(&cache));
    if check_schedules {
        // Table 3 itself never schedules; validate under the wide and
        // sequential extremes, then the matrix configurations (melded
        // code included) under both front ends. All output goes to stderr.
        let machines = [epic_machine::Machine::wide(), epic_machine::Machine::sequential()];
        check_all_schedules(&workloads, &cfg, &cache, &machines);
        for (_, mc) in &meld_matrix_configs() {
            check_all_schedules(&subset, mc, &cache, &fe_machines);
        }
    }
    if cache_stats {
        eprintln!("cache: {}", cache.stats().to_json());
    }
    println!("Table 3: operation-count ratios (height-reduced / baseline)");
    println!();
    print!("{}", render_table3(&rows));
    println!();
    println!("Melding x front end (geomean cycles speedup over `neither`, branchy subset)");
    println!();
    print!("{}", render_meld_matrix(&matrix));
}

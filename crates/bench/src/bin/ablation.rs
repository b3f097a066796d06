//! Ablation studies over the design choices the paper discusses:
//!
//! * exit-weight threshold (CPR blocking granularity, §4.1/§5.2),
//! * the taken variation on/off (§5.3),
//! * predicate speculation on/off (§5.1),
//! * uniform whole-superblock CPR vs profile-driven blocking,
//! * instruction melding vs control CPR vs both, on the paper's ideal
//!   front end and on a penalized modern one (the melding matrix).
//!
//! The configurations are independent, so they are evaluated in parallel
//! (each one additionally fans out over its workloads inside `table2`);
//! output order is fixed regardless of thread count. All configurations
//! share one compile cache: stage keys hash only the configuration fields
//! each stage consumes, so e.g. every CPR-only variation reuses the
//! superblock and baseline artifacts the default configuration computed.

use control_cpr::CprConfig;
use epic_bench::{
    check_all_schedules, enable_tracing_if_requested, meld_matrix, meld_matrix_configs,
    meld_matrix_machines, render_meld_matrix, table2, take_check_schedules_flag,
    take_trace_flag, write_trace, CompileCache, PipelineConfig,
};
use epic_perf::geomean;
use epic_regions::IfConvertConfig;
use rayon::prelude::*;

fn gmean_all(
    cfg: &PipelineConfig,
    machine_idx: usize,
    names: &[&str],
    cache: &CompileCache,
) -> f64 {
    let workloads: Vec<_> = names
        .iter()
        .map(|n| epic_workloads::by_name(n).expect("known workload"))
        .collect();
    let (rows, _) = table2(&workloads, cfg, Some(cache));
    geomean(rows.iter().map(|r| r.speedup(machine_idx)))
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let trace_path = take_trace_flag(&mut args);
    let check_schedules = take_check_schedules_flag(&mut args);
    enable_tracing_if_requested(&trace_path);
    // A representative branchy subset keeps the ablation quick; sort and
    // diff contribute the full diamonds the melding matrix needs. `--large`
    // swaps in the two mid-size corpus programs as well, so the design
    // choices are also measured at 1k+ op function sizes.
    let mut names = vec!["strcpy", "cmp", "wc", "grep", "lex", "sort", "diff", "023.eqntott", "126.gcc"];
    if args.iter().any(|a| a == "--large") {
        names.extend(["corpus.chain.1k", "corpus.diamond.1k"]);
    }
    let medium = 2; // index in Machine::paper_suite()

    println!("Ablations (geomean speedup on the medium processor, subset: {names:?})");
    println!();

    let mut configs: Vec<(String, PipelineConfig)> = Vec::new();
    configs.push(("default configuration:          ".to_string(), PipelineConfig::default()));

    let mut no_taken = PipelineConfig::default();
    no_taken.cpr.enable_taken_variation = false;
    configs.push(("taken variation disabled:       ".to_string(), no_taken));

    let mut no_spec = PipelineConfig::default();
    no_spec.cpr.speculate = false;
    configs.push(("predicate speculation disabled: ".to_string(), no_spec));

    let uniform = PipelineConfig { cpr: CprConfig::uniform(), ..PipelineConfig::default() };
    configs.push(("uniform (unblocked) CPR:        ".to_string(), uniform));

    // The paper's named enhancement: traditional if-conversion first.
    let ifc = PipelineConfig {
        if_convert: Some(IfConvertConfig::default()),
        ..PipelineConfig::default()
    };
    configs.push(("with if-conversion first:       ".to_string(), ifc));

    for thresh in [0.05, 0.2, 0.35, 0.6, 0.9] {
        let mut cfg = PipelineConfig::default();
        cfg.cpr.exit_weight_threshold = thresh;
        configs.push((format!("exit-weight threshold {thresh:>4}:     "), cfg));
    }

    let cache = CompileCache::from_env();
    let results: Vec<(String, f64)> = configs
        .par_iter()
        .map(|(label, cfg)| (label.clone(), gmean_all(cfg, medium, &names, &cache)))
        .collect();
    for (label, g) in results {
        println!("  {label}{g:.3}");
    }

    // Melding vs control CPR, with and without a penalized front end
    // (§ "Melding & front-end models" in EXPERIMENTS.md): geomean cycles
    // speedup of each configuration's optimized code over the
    // no-CPR/no-meld baseline, per machine front end.
    let workloads: Vec<_> = names
        .iter()
        .map(|n| epic_workloads::by_name(n).expect("known workload"))
        .collect();
    let fe_machines = meld_matrix_machines();
    let matrix = meld_matrix(&workloads, &fe_machines, Some(&cache));
    println!();
    println!("Melding x front end (geomean cycles speedup over `neither`)");
    println!();
    print!("{}", render_meld_matrix(&matrix));
    if check_schedules {
        // Validate every ablation configuration's compiled pairs on the
        // medium processor (the one the ablation reports); the shared
        // cache makes the re-compiles in-process lookups.
        let machines = [epic_machine::Machine::medium()];
        for (_, cfg) in &configs {
            check_all_schedules(&workloads, cfg, &cache, &machines);
        }
        // The matrix configurations (melded code included) must pass the
        // independent checker and the replay oracle on *both* front ends.
        for (_, cfg) in &meld_matrix_configs() {
            check_all_schedules(&workloads, cfg, &cache, &fe_machines);
        }
    }
    if let Some(path) = &trace_path {
        write_trace(path);
    }
    let s = cache.stats();
    eprintln!(
        "cache: {} hits, {} misses across {} configurations",
        s.hits,
        s.misses,
        configs.len() + meld_matrix_configs().len()
    );
}

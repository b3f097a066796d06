//! Decomposition of the speedup: how much comes from FRP conversion alone
//! (branches become independent and can overlap in the schedule), versus
//! the *redundant* full-CPR scheme of \[SK95\] (every branch re-guarded by a
//! fresh height-reduced FRP, quadratic compares, nothing moved off-trace),
//! versus the full ICBM transformation (branches collapse into a bypass).
//!
//! This is the paper's §4 comparison made quantitative: ICBM should match
//! or beat full CPR on modest machines because it does not pay the
//! redundant compares.
//!
//! Each workload's three variants are built independently, so the per-
//! workload work fans out in parallel; rows print in workload order.

use control_cpr::dce;
use epic_bench::PipelineConfig;
use epic_machine::Machine;
use epic_perf::{geomean, profile_and_count, weighted_cycles};
use epic_regions::{form_superblocks, frp_convert, unroll_hot_loops};
use epic_sched::{schedule_function, SchedOptions};
use epic_workloads::Workload;
use rayon::prelude::*;

/// `(FRP-only, full-CPR, FRP+ICBM)` speedups for one workload.
fn decompose(w: &Workload, cfg: &PipelineConfig, m: &Machine) -> (f64, f64, f64) {
    let opts = SchedOptions::default();
    let (p0, _) = profile_and_count(&w.func, &w.training).expect("runs");
    let mut base = form_superblocks(&w.func, &p0, &cfg.trace);
    let (p1, _) = profile_and_count(&base, &w.training).expect("runs");
    unroll_hot_loops(&mut base, &p1, w.unroll, cfg.trace.min_count);
    dce(&mut base);
    let (bp, _) = profile_and_count(&base, &w.training).expect("runs");
    let base_cycles = {
        let s = schedule_function(&base, m, &opts);
        weighted_cycles(&base, &bp, &s)
    };

    let mut frp = base.clone();
    frp_convert(&mut frp);
    dce(&mut frp);
    let (fp, _) = profile_and_count(&frp, &w.training).expect("runs");
    let frp_cycles = {
        let s = schedule_function(&frp, m, &opts);
        weighted_cycles(&frp, &fp, &s).max(1)
    };

    let mut red = base.clone();
    frp_convert(&mut red);
    control_cpr::apply_full_cpr(&mut red, &bp, &cfg.cpr);
    dce(&mut red);
    let (rp, _) = profile_and_count(&red, &w.training).expect("runs");
    let red_cycles = {
        let s = schedule_function(&red, m, &opts);
        weighted_cycles(&red, &rp, &s).max(1)
    };

    let mut opt = base.clone();
    frp_convert(&mut opt);
    control_cpr::apply_icbm(&mut opt, &bp, &cfg.cpr);
    let (op, _) = profile_and_count(&opt, &w.training).expect("runs");
    let opt_cycles = {
        let s = schedule_function(&opt, m, &opts);
        weighted_cycles(&opt, &op, &s).max(1)
    };

    (
        base_cycles as f64 / frp_cycles as f64,
        base_cycles as f64 / red_cycles as f64,
        base_cycles as f64 / opt_cycles as f64,
    )
}

fn main() {
    let cfg = PipelineConfig::default();
    let m = Machine::medium();
    println!("Medium-machine speedup decomposition (vs superblock baseline)");
    println!();
    println!("{:<14} {:>10} {:>10} {:>10}", "Benchmark", "FRP-only", "full-CPR", "FRP+ICBM");
    let workloads = epic_workloads::all();
    let rows: Vec<(String, f64, f64, f64)> = workloads
        .par_iter()
        .map(|w| {
            let (s_frp, s_red, s_full) = decompose(w, &cfg, &m);
            (w.name.to_string(), s_frp, s_red, s_full)
        })
        .collect();
    let mut frp_only = Vec::new();
    let mut fullcpr = Vec::new();
    let mut full = Vec::new();
    for (name, s_frp, s_red, s_full) in &rows {
        frp_only.push(*s_frp);
        fullcpr.push(*s_red);
        full.push(*s_full);
        println!("{name:<14} {s_frp:>10.2} {s_red:>10.2} {s_full:>10.2}");
    }
    println!(
        "{:<14} {:>10.2} {:>10.2} {:>10.2}",
        "Gmean-all",
        geomean(frp_only),
        geomean(fullcpr),
        geomean(full)
    );
}

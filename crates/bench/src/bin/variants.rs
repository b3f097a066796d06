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
//! The baseline and the FRP+ICBM leg come from the compile pipeline; the
//! FRP-only and full-CPR legs are built from its baseline here. Each
//! workload's variants are independent, so the per-workload work fans out
//! in parallel; rows print in workload order.

use control_cpr::dce;
use epic_analysis::GlobalLiveness;
use epic_bench::{compile, PipelineConfig};
use epic_ir::{Function, Profile};
use epic_machine::Machine;
use epic_perf::{geomean, profile_and_count, weighted_cycles};
use epic_regions::frp_convert;
use epic_sched::{schedule_function, SchedOptions};
use epic_workloads::Workload;
use rayon::prelude::*;

/// `(FRP-only, full-CPR, FRP+ICBM)` speedups for one workload.
fn decompose(w: &Workload, cfg: &PipelineConfig, m: &Machine) -> (f64, f64, f64) {
    let cycles = |f: &Function, p: &Profile| {
        weighted_cycles(f, p, &schedule_function(f, m, &SchedOptions::default()))
    };
    let c = compile(w, cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    // A baseline variant: FRP-converted, optionally transformed, cleaned
    // and re-profiled.
    let variant = |transform: &dyn Fn(&mut Function)| {
        let mut f = Function::clone(&c.baseline);
        frp_convert(&mut f);
        transform(&mut f);
        let mut live = GlobalLiveness::compute(&f);
        dce(&mut f, &mut live);
        let (p, _) = profile_and_count(&f, &w.training).expect("runs");
        cycles(&f, &p).max(1)
    };

    let base_cycles = cycles(&c.baseline, &c.base_profile);
    let frp_cycles = variant(&|_| {});
    let red_cycles = variant(&|f| {
        control_cpr::apply_full_cpr(f, &c.base_profile, &cfg.cpr);
    });
    let opt_cycles = cycles(&c.optimized, &c.opt_profile).max(1);

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

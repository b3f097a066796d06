//! Reproduction of the paper's §6 walkthrough: the ICBM schema applied to
//! an unrolled string-copy loop, showing each phase's effect on the code
//! and the final operation-count / height accounting (the paper reports
//! 30 ops → 28 on-trace + 11 compensation, height 8 → 7 for unroll 4; exact
//! numbers differ with our op set, but the same quantities are printed).
//!
//! ```sh
//! cargo run -p epic-bench --example strcpy_walkthrough
//! ```

use epic_analysis::GlobalLiveness;
use epic_bench::PipelineConfig;
use epic_machine::Machine;
use epic_perf::profile_and_count;
use epic_regions::{form_superblocks, frp_convert, unroll_hot_loops};
use epic_sched::{schedule_function, SchedOptions};

fn hot_block(f: &epic_ir::Function, p: &epic_ir::Profile) -> epic_ir::BlockId {
    f.blocks_in_layout()
        .max_by_key(|b| p.entry_count(b.id) * b.ops.len() as u64)
        .expect("function has blocks")
        .id
}

fn main() {
    let w = epic_workloads::by_name("strcpy").expect("strcpy workload");
    let cfg = PipelineConfig::default();

    // --- unrolled input (the paper's Figure 6(b)) ---
    let (p0, _) = profile_and_count(&w.func, &w.training).expect("profiles");
    let mut unrolled = form_superblocks(&w.func, &p0, &cfg.trace);
    let (p1, _) = profile_and_count(&unrolled, &w.training).expect("profiles");
    let mut live = GlobalLiveness::compute(&unrolled);
    unroll_hot_loops(&mut unrolled, &p1, 4, cfg.trace.min_count, &mut live);
    control_cpr::dce(&mut unrolled, &mut live);
    let (profile, _) = profile_and_count(&unrolled, &w.training).expect("profiles");
    let loop_blk = hot_block(&unrolled, &profile);
    println!("=== unrolled loop (Figure 6(b) analogue) ===");
    println!("{}", unrolled.block(loop_blk));
    let ops_before = unrolled.block(loop_blk).ops.len();

    // --- FRP conversion (Figure 6(c)) ---
    let mut frp = unrolled.clone();
    let converted = frp_convert(&mut frp);
    println!("=== after FRP conversion: {converted} branches converted ===");
    println!("{}", frp.block(loop_blk));

    // --- predicate speculation (Figure 7(a)) ---
    let mut spec = frp.clone();
    let (s, _) = control_cpr::speculate(&mut spec, &GlobalLiveness::compute(&frp));
    println!("=== after predicate speculation: {s:?} ===");
    println!("{}", spec.block(loop_blk));

    // --- match + restructure + off-trace motion + DCE (Figure 7(b,c)) ---
    let mut done = frp.clone();
    let stats = control_cpr::apply_icbm(&mut done, &profile, &cfg.cpr);
    println!("=== after ICBM ({stats:?}) ===");
    println!("{done}");

    // --- the paper's accounting ---
    let ops_on_trace = done.block(loop_blk).ops.len();
    let comp_ops: usize = done
        .blocks_in_layout()
        .filter(|b| b.name.ends_with("_cmp"))
        .map(|b| b.ops.len())
        .sum();
    let m = Machine::medium();
    let h_before = schedule_function(&unrolled, &m, &SchedOptions::default())
        .block(loop_blk)
        .length;
    let h_after = schedule_function(&done, &m, &SchedOptions::default())
        .block(loop_blk)
        .length;
    println!("loop operations:       {ops_before} -> {ops_on_trace} on-trace + {comp_ops} compensation");
    println!("loop schedule length:  {h_before} -> {h_after} cycles (medium machine)");
    assert!(ops_on_trace < ops_before, "on-trace code is irredundant");
    assert!(h_after <= h_before, "height must not grow");
}

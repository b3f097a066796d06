//! Reproduction of the paper's §6 walkthrough: the ICBM schema applied to
//! an unrolled string-copy loop, showing each phase's effect on the code
//! and the final operation-count / height accounting (the paper reports
//! 30 ops → 28 on-trace + 11 compensation, height 8 → 7 for unroll 4; exact
//! numbers differ with our op set, but the same quantities are printed).
//! The phases shown are those of the shipped pipeline, observed through
//! `Pipeline::run_observed` at the paper's unroll factor.
//!
//! ```sh
//! cargo run -p epic-bench --example strcpy_walkthrough
//! ```

use control_cpr::IcbmPhase;
use epic_bench::{stage, CompileError, Pipeline, PipelineConfig, Step};
use epic_machine::Machine;
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
    let (mut frp, mut spec) = (None, None);
    let c = Pipeline::for_function(w.name, &w.func, &w.training, 4, &cfg)
        .run_observed(|step, f| {
            match step {
                Step::Stage(stage::FRP_CONVERT) => frp = Some(f.clone()),
                Step::Icbm(IcbmPhase::Speculate) => spec = Some(f.clone()),
                _ => {}
            }
            Ok::<(), CompileError>(())
        })
        .expect("strcpy compiles");
    let (unrolled, done) = (&c.baseline, &c.optimized);

    // --- unrolled input (the paper's Figure 6(b)) ---
    let loop_blk = hot_block(unrolled, &c.base_profile);
    println!("=== unrolled loop (Figure 6(b) analogue) ===");
    println!("{}", unrolled.block(loop_blk));
    let ops_before = unrolled.block(loop_blk).ops.len();

    // --- FRP conversion (Figure 6(c)) ---
    println!("=== after FRP conversion ===");
    println!("{}", frp.expect("FRP conversion ran").block(loop_blk));

    // --- predicate speculation (Figure 7(a)) ---
    let (promoted, demoted) = (c.stats.promoted, c.stats.demoted);
    println!("=== after predicate speculation: {promoted} promoted, {demoted} demoted ===");
    println!("{}", spec.expect("speculation ran").block(loop_blk));

    // --- match + restructure + off-trace motion + DCE (Figure 7(b,c)) ---
    println!("=== after ICBM ({:?}) ===", c.stats);
    println!("{done}");

    // --- the paper's accounting ---
    let ops_on_trace = done.block(loop_blk).ops.len();
    let comp_ops: usize = done
        .blocks_in_layout()
        .filter(|b| b.name.ends_with("_cmp"))
        .map(|b| b.ops.len())
        .sum();
    let m = Machine::medium();
    let h_before = schedule_function(unrolled, &m, &SchedOptions::default())
        .block(loop_blk)
        .length;
    let h_after = schedule_function(done, &m, &SchedOptions::default())
        .block(loop_blk)
        .length;
    println!("loop operations:       {ops_before} -> {ops_on_trace} on-trace + {comp_ops} compensation");
    println!("loop schedule length:  {h_before} -> {h_after} cycles (medium machine)");
    assert!(ops_on_trace < ops_before, "on-trace code is irredundant");
    assert!(h_after <= h_before, "height must not grow");
}

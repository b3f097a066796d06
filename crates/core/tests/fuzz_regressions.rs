//! Minimized reproducers harvested by the differential pipeline fuzzer
//! (`crates/fuzz`). Each test rebuilds the shrunken program shape that
//! exposed a real miscompile, runs the guilty stage, and differentially
//! checks it — so the bug class stays fixed. See EXPERIMENTS.md ("Fuzzing
//! the pipeline") for the workflow that produced these.

#![allow(clippy::disallowed_methods)]

use control_cpr::{dce, match_cpr_blocks, off_trace_motion, restructure, CprConfig, Skip};
use epic_analysis::GlobalLiveness;
use epic_ir::{BlockId, CmpCond, Function, FunctionBuilder, Opcode, Operand, Profile};
use epic_interp::{diff_test, run, Input};
use epic_regions::frp_convert;

fn cpr_cfg() -> CprConfig {
    CprConfig { enable_taken_variation: false, ..CprConfig::uniform() }
}

/// Fuzz seed 18 (dce stage): a register live at a *mid-block* branch
/// target but unconditionally redefined after the branch. Whole-block kill
/// sets removed it from the block's live-in, so DCE deleted the definition
/// the taken edge still needed.
#[test]
fn dce_keeps_def_live_only_at_mid_block_exit() {
    let mut b = FunctionBuilder::new("mid_exit_live");
    let entry = b.block("entry");
    let body = b.block("body");
    let exit = b.block("exit");
    let v = b.reg();
    let x = b.reg();
    b.switch_to(exit);
    let a0 = b.movi(0);
    b.store(a0, v.into());
    b.ret();
    b.switch_to(entry);
    b.mov_to(v, Operand::Imm(7)); // dead on the fall-through path only
    b.switch_to(body);
    let (p, _q) = b.cmpp_un_uc(CmpCond::Lt, x.into(), Operand::Imm(0));
    b.branch_if(p, exit); // taken edge still reads v = 7
    b.mov_to(v, Operand::Imm(1));
    let f = b.finish();

    let mut g = f.clone();
    dce(&mut g, &mut GlobalLiveness::compute(&f));
    epic_ir::verify(&g).unwrap();
    for xv in [-1, 5] {
        let input = Input::new().memory_size(4).with_reg(x, xv);
        diff_test(&f, &g, &input).unwrap();
    }
    // The mov(7) must survive: it feeds the store on the taken edge.
    let movs = g.block(entry).ops.iter().filter(|o| o.opcode == Opcode::Mov).count();
    assert_eq!(movs, 1, "entry def deleted:\n{g}");
}

/// Fuzz seed 0 (frp-convert stage): one two-target `cmpp.un.uc` feeding
/// *two* branches. Converting the second branch re-guarded the compare
/// with its own complement output, so at runtime the compare nullified
/// itself, neither branch fired, and fall-through code the reference never
/// reaches executed.
#[test]
fn frp_convert_shared_compare_two_way_dispatch() {
    let mut b = FunctionBuilder::new("shared_cmpp");
    let sb = b.block("sb");
    let dead = b.block("dead");
    let other = b.block("other");
    let exit = b.block("exit");
    let x = b.reg();
    b.switch_to(exit);
    b.ret();
    b.switch_to(other);
    let d = b.movi(0);
    b.store(d, Operand::Imm(9));
    b.ret();
    b.switch_to(dead);
    // Reachable only if *neither* branch takes — impossible, since their
    // guards are complementary.
    let d = b.movi(0);
    b.store(d, Operand::Imm(-3));
    b.ret();
    b.switch_to(sb);
    let (p, q) = b.cmpp_un_uc(CmpCond::Ge, Operand::Imm(12), x.into());
    b.branch_if(p, exit);
    b.branch_if(q, other);
    let f = b.finish();

    let mut g = f.clone();
    frp_convert(&mut g);
    epic_ir::verify(&g).unwrap();
    for xv in [3, 20] {
        let input = Input::new().memory_size(4).with_reg(x, xv);
        diff_test(&f, &g, &input).unwrap();
    }
}

/// Shared helper: match the first non-trivial CPR block of `sb` and
/// restructure it.
fn restructure_first(f: &mut Function, sb: BlockId) -> Result<control_cpr::Restructured, Skip> {
    let cfg = cpr_cfg();
    let blocks = match_cpr_blocks(&f.block(sb).ops, &Profile::new(), &cfg, f.mem_classes());
    let cpr = blocks.iter().find(|c| c.is_nontrivial()).expect("a non-trivial CPR block");
    let live = GlobalLiveness::compute(f);
    restructure(f, sb, cpr, &live)
}

/// Fuzz seed 1 (motion stage): an unguarded definition of a live-out
/// register sits *between* the CPR block's exit branches. Moving the
/// branches off-trace would make it execute speculatively before the
/// bypass, clobbering the live-out on taken paths; motion must refuse.
#[test]
fn motion_bails_on_unguarded_live_out_between_branches() {
    let mut b = FunctionBuilder::new("spec_live_out");
    let sb = b.block("sb");
    let exit = b.block("exit");
    let x = b.reg();
    let y = b.reg();
    let out = b.reg();
    b.switch_to(exit);
    b.ret();
    b.switch_to(sb);
    let (p1, _) = b.cmpp_un_uc(CmpCond::Le, x.into(), Operand::Imm(16));
    b.branch_if(p1, exit);
    b.mov_to(out, Operand::Imm(-2)); // live-out, unguarded, between branches
    let (p2, _) = b.cmpp_un_uc(CmpCond::Lt, y.into(), Operand::Imm(9));
    b.branch_if(p2, exit);
    b.ret();
    b.mark_live_out(out);
    let f = b.finish();

    let mut g = f.clone();
    let r = restructure_first(&mut g, sb).expect("CPR block must restructure");
    let live = GlobalLiveness::compute(&g);
    assert_eq!(
        off_trace_motion(&mut g, &r, &live),
        Err(Skip::SpeculativeOnTrace),
        "motion must refuse to speculate a live-out def:\n{g}"
    );
    epic_ir::verify(&g).unwrap();
    for (xv, yv) in [(10, 0), (20, 0), (20, 10)] {
        let input = Input::new().memory_size(4).with_reg(x, xv).with_reg(y, yv);
        diff_test(&f, &g, &input).unwrap();
    }
}

/// Fuzz seed 17 (motion stage, root cause in restructure): a branch
/// guarded by the *complement* (`UC`) output of its compare. The lookahead
/// accumulated the un-inverted condition, so the off-trace FRP missed that
/// branch's taken path and the bypass fell through into code the reference
/// never executes.
#[test]
fn restructure_inverts_lookahead_for_complement_guarded_branch() {
    let mut b = FunctionBuilder::new("uc_guard");
    let sb = b.block("sb");
    let fall = b.block("fall");
    let t1 = b.block("t1");
    let t2 = b.block("t2");
    let x = b.reg();
    b.switch_to(t1);
    b.ret();
    b.switch_to(t2);
    let d = b.movi(0);
    b.store(d, Operand::Imm(1));
    b.ret();
    b.switch_to(fall);
    // Reachable only if both complementary branches fall through: never.
    let d = b.movi(0);
    b.store(d, Operand::Imm(7));
    b.ret();
    b.switch_to(sb);
    let (p, q) = b.cmpp_un_uc(CmpCond::Le, x.into(), Operand::Imm(0));
    b.branch_if(p, t1);
    b.branch_if(q, t2); // taken when the compare is FALSE
    let f = b.finish();

    let mut g = f.clone();
    let r = restructure_first(&mut g, sb).expect("CPR block must restructure");
    let live = GlobalLiveness::compute(&g);
    off_trace_motion(&mut g, &r, &live).expect("motion succeeds");
    epic_ir::verify(&g).unwrap();
    for xv in [-1, 1] {
        let input = Input::new().memory_size(4).with_reg(x, xv);
        diff_test(&f, &g, &input).unwrap();
    }
}

/// Fuzz seed 500579 (motion stage, taken variation): the final branch is
/// guarded by its compare's *complement* output, and a store guarded by
/// the *normal* output — true exactly when the branch falls through — sits
/// between the compare and the branch. In the taken variation the
/// fall-through path is off-trace, so the store must move off-trace
/// entirely; the old taken-pred heuristic kept an on-trace copy guarded by
/// the on-trace FRP, which fires exactly when the bypass takes.
#[test]
fn motion_taken_variation_moves_fall_through_store_off_trace() {
    let mut b = FunctionBuilder::new("taken_split");
    let sb = b.block("sb");
    let t1 = b.block("t1");
    let hot = b.block("hot");
    let x = b.reg();
    let y = b.reg();
    b.switch_to(t1);
    b.ret();
    b.switch_to(hot);
    b.ret();
    b.switch_to(sb);
    let (p1, _q1) = b.cmpp_un_uc(CmpCond::Lt, x.into(), Operand::Imm(0));
    b.branch_if(p1, t1); // cold
    let a = b.movi(0);
    let (p2, q2) = b.cmpp_un_uc(CmpCond::Lt, Operand::Imm(10), y.into());
    b.set_guard(Some(p2));
    b.store(a, Operand::Imm(-7)); // fires only when the final branch falls through
    b.set_guard(None);
    b.branch_if(q2, hot); // hot-taken final branch (10 < y is usually false)
    b.ret();
    let f = b.finish();

    // Profile one run that takes the final branch: predict-taken fires.
    let training = Input::new().memory_size(4).with_reg(x, 5).with_reg(y, 3);
    let profile = run(&f, &training).unwrap().profile;
    let cfg = CprConfig { min_entry_count: 1, ..CprConfig::default() };
    let mut g = f.clone();
    let blocks = match_cpr_blocks(&g.block(sb).ops, &profile, &cfg, g.mem_classes());
    let cpr = blocks.iter().find(|c| c.is_nontrivial()).expect("CPR block");
    assert!(cpr.taken_variation, "must exercise the taken variation: {cpr:?}");
    let live = GlobalLiveness::compute(&g);
    let r = restructure(&mut g, sb, cpr, &live).expect("restructures");
    let live = GlobalLiveness::compute(&g);
    off_trace_motion(&mut g, &r, &live).expect("motion succeeds");
    epic_ir::verify(&g).unwrap();
    for (xv, yv) in [(5, 3), (5, 20), (-1, 3)] {
        let input = Input::new().memory_size(4).with_reg(x, xv).with_reg(y, yv);
        diff_test(&f, &g, &input).unwrap();
    }
}

/// Fuzz seed 2110 (motion stage, root cause in restructure): predicate
/// reuse paired the *second* branch with the *first* compare — positions
/// out of branch order. The FRP `pinit` was inserted at the branch-order
/// first compare (wiping the earlier lookahead's accumulation) and the
/// prefix-conjunction guard assumption behind split re-guarding broke, so
/// the bypass missed taken paths. Restructure must skip such blocks.
#[test]
fn restructure_skips_out_of_order_compare_branch_pairs() {
    let mut b = FunctionBuilder::new("ooo_pairs");
    let sb = b.block("sb");
    let t1 = b.block("t1");
    let t2 = b.block("t2");
    let x = b.reg();
    let y = b.reg();
    b.switch_to(t1);
    b.ret();
    b.switch_to(t2);
    let d = b.movi(0);
    b.store(d, Operand::Imm(13));
    b.ret();
    b.switch_to(sb);
    let a = b.movi(1);
    // Compare A feeds the SECOND branch; compare B (defined later, reading
    // a load guarded by A's output) feeds the FIRST.
    let (p2, p3) = b.cmpp_un_uc(CmpCond::Gt, Operand::Imm(4), x.into());
    b.set_guard(Some(p2));
    let v = b.load(a);
    b.set_guard(None);
    let (p4, _) = b.cmpp_un_uc(CmpCond::Lt, v.into(), y.into());
    b.branch_if(p4, t1);
    b.branch_if(p3, t2);
    b.ret();
    let f = b.finish();

    let mut g = f.clone();
    assert_eq!(
        restructure_first(&mut g, sb).err(),
        Some(Skip::OutOfOrderCompares),
        "out-of-order compare/branch pairing must be skipped:\n{g}"
    );
    assert_eq!(f.to_string(), g.to_string(), "skipped block must be untouched");
    epic_ir::verify(&g).unwrap();
    for (xv, yv) in [(3, 9), (9, 9), (9, -9)] {
        let input =
            Input::new().memory_size(4).with_memory(1, &[2]).with_reg(x, xv).with_reg(y, yv);
        diff_test(&f, &g, &input).unwrap();
    }
}

/// Fuzz seed 3340 (motion stage): a guarded store between the branches
/// pulls a later load into the moved set through the store→load memory
/// dependence, and the second *lookahead accumulator* reads that load — so
/// the accumulator itself lands in the moved set and its split copy would
/// be re-inserted after the bypass branch that consumes its FRPs. The
/// bypass then tests stale predicates and misses taken paths; motion must
/// refuse (restructure alone is still correct).
#[test]
fn motion_bails_when_bypass_reads_a_moved_lookahead() {
    let mut b = FunctionBuilder::new("bypass_stale_frp");
    let sb = b.block("sb");
    let t1 = b.block("t1");
    let exit = b.block("exit");
    let x = b.reg();
    let y = b.reg();
    b.switch_to(t1);
    b.ret();
    b.switch_to(exit);
    let d = b.movi(0);
    b.store(d, Operand::Imm(9));
    b.ret();
    b.switch_to(sb);
    let a0 = b.movi(1);
    let a1 = b.movi(1);
    let (p8, p16) = b.cmpp_un_uc(CmpCond::Lt, x.into(), x.into());
    b.branch_if(p8, t1);
    // Chain off the first compare's fall-through output into memory...
    b.set_guard(Some(p16));
    let (p10, _) = b.cmpp_un_uc(CmpCond::Eq, Operand::Imm(-11), y.into());
    b.set_guard(Some(p10));
    b.store(a0, Operand::Imm(0));
    b.set_guard(None);
    // ...and back out: the load may alias the moved store, and the second
    // compare (whose lookahead accumulates into the bypass FRPs) reads it.
    let v = b.load(a1);
    let (p14, _) = b.cmpp_un_uc(CmpCond::Ne, v.into(), Operand::Imm(5));
    b.branch_if(p14, exit);
    b.ret();
    let f = b.finish();

    let mut g = f.clone();
    let r = restructure_first(&mut g, sb).expect("CPR block must restructure");
    let live = GlobalLiveness::compute(&g);
    assert_eq!(
        off_trace_motion(&mut g, &r, &live),
        Err(Skip::BypassReadsMoved),
        "motion must refuse when the bypass reads moved FRPs:\n{g}"
    );
    epic_ir::verify(&g).unwrap();
    for yv in [-11, 4] {
        let input = Input::new()
            .memory_size(4)
            .with_memory(1, &[5])
            .with_reg(x, 0)
            .with_reg(y, yv);
        diff_test(&f, &g, &input).unwrap();
    }
}

/// Fuzz seed 3891 (motion stage, taken variation): a store guarded by the
/// final branch's *taken* predicate sits between the compare and the
/// branch. The compare moves off-trace, and the split on-trace copy kept
/// its original guard — which is never recomputed on-trace, so the copy
/// silently stopped firing. The taken predicate of the final branch is
/// exactly the on-trace condition, so the copy must rewire to the on-trace
/// FRP.
#[test]
fn motion_taken_variation_rewires_final_taken_guard() {
    let mut b = FunctionBuilder::new("taken_guard_split");
    let sb = b.block("sb");
    let t1 = b.block("t1");
    let hot = b.block("hot");
    let x = b.reg();
    let y = b.reg();
    b.switch_to(t1);
    b.ret();
    b.switch_to(hot);
    b.ret();
    b.switch_to(sb);
    let a = b.movi(0);
    let (p1, q1) = b.cmpp_un_uc(CmpCond::Lt, x.into(), Operand::Imm(1));
    b.branch_if(p1, t1); // cold
    b.set_guard(Some(q1));
    let (p2, _q2) = b.cmpp_un_uc(CmpCond::Ne, Operand::Imm(4), y.into());
    b.set_guard(Some(p2));
    b.store(a, Operand::Imm(4)); // guarded by the final branch's taken pred
    b.set_guard(None);
    b.branch_if(p2, hot); // hot-taken final branch
    b.ret();
    let f = b.finish();

    // Profile one run that takes the final branch: predict-taken fires.
    let training = Input::new().memory_size(4).with_reg(x, 5).with_reg(y, 3);
    let profile = run(&f, &training).unwrap().profile;
    let cfg = CprConfig { min_entry_count: 1, ..CprConfig::default() };
    let mut g = f.clone();
    let blocks = match_cpr_blocks(&g.block(sb).ops, &profile, &cfg, g.mem_classes());
    let cpr = blocks.iter().find(|c| c.is_nontrivial()).expect("CPR block");
    assert!(cpr.taken_variation, "must exercise the taken variation: {cpr:?}");
    let live = GlobalLiveness::compute(&g);
    let r = restructure(&mut g, sb, cpr, &live).expect("restructures");
    let live = GlobalLiveness::compute(&g);
    assert_eq!(off_trace_motion(&mut g, &r, &live), Ok(()), "motion must succeed:\n{g}");
    epic_ir::verify(&g).unwrap();
    // The split on-trace store is re-guarded by the on-trace FRP.
    let on_store = g
        .block(sb)
        .ops
        .iter()
        .find(|o| o.opcode == Opcode::Store)
        .expect("on-trace store copy");
    assert_eq!(on_store.guard, Some(r.on_frp), "\n{g}");
    for (xv, yv) in [(5, 3), (5, 4), (0, 3)] {
        let input = Input::new().memory_size(4).with_reg(x, xv).with_reg(y, yv);
        diff_test(&f, &g, &input).unwrap();
    }
}

/// Fuzz seed 1900 (motion stage, taken variation; found by the RISC-lite
/// differential sweep, whose unguarded ALU ops the native generator rarely
/// produces mid-chain): an *unguarded* definition of a live-out register
/// joins the moved set through a flow dependence on a guarded mid-chain
/// def. In the taken variation the split on-trace copies sit *before* the
/// bypass, so the unguarded copy fired even when control fell through to
/// the compensation block and an earlier moved branch then exited —
/// clobbering the live-out on a path where the original op never ran. The
/// copy must be re-guarded by the on-trace FRP, which is true exactly when
/// the bypass takes.
#[test]
fn motion_taken_variation_guards_unguarded_split_copy() {
    let mut b = FunctionBuilder::new("unguarded_split");
    let sb = b.block("sb");
    let t1 = b.block("t1");
    let hot = b.block("hot");
    let x = b.reg();
    let y = b.reg();
    let z = b.reg();
    let tmp = b.reg();
    let out = b.reg();
    b.switch_to(t1);
    b.ret();
    b.switch_to(hot);
    b.ret();
    b.switch_to(sb);
    let (p1, q1) = b.cmpp_un_uc(CmpCond::Lt, x.into(), Operand::Imm(0));
    b.branch_if(p1, t1); // cold early exit
    b.set_guard(Some(q1));
    b.mov_to(tmp, Operand::Imm(-148)); // moved: guarded by an internal pred
    let (p2, _q2) = b.cmpp_un_uc(CmpCond::Ne, Operand::Imm(4), y.into());
    b.set_guard(None);
    // Unguarded, reads `tmp` (so it rides the moved closure), live-out.
    b.emit(Opcode::Sub, vec![epic_ir::Dest::Reg(out)], vec![tmp.into(), z.into()]);
    b.branch_if(p2, hot); // hot-taken final branch
    b.ret();
    b.mark_live_out(out);
    let f = b.finish();

    // Profile one run that takes the final branch: predict-taken fires.
    let training = Input::new().memory_size(4).with_reg(x, 5).with_reg(y, 3);
    let profile = run(&f, &training).unwrap().profile;
    let cfg = CprConfig { min_entry_count: 1, ..CprConfig::default() };
    let mut g = f.clone();
    let blocks = match_cpr_blocks(&g.block(sb).ops, &profile, &cfg, g.mem_classes());
    let cpr = blocks.iter().find(|c| c.is_nontrivial()).expect("CPR block");
    assert!(cpr.taken_variation, "must exercise the taken variation: {cpr:?}");
    let live = GlobalLiveness::compute(&g);
    let r = restructure(&mut g, sb, cpr, &live).expect("restructures");
    let live = GlobalLiveness::compute(&g);
    assert_eq!(off_trace_motion(&mut g, &r, &live), Ok(()), "motion must succeed:\n{g}");
    epic_ir::verify(&g).unwrap();
    // The only def of `out` left on-trace is the split copy; it must be
    // guarded by the on-trace FRP, not run unconditionally.
    let copy = g
        .block(sb)
        .ops
        .iter()
        .find(|o| o.defs_regs().any(|d| d == out))
        .expect("on-trace copy of the live-out def");
    assert_eq!(copy.guard, Some(r.on_frp), "\n{g}");
    // (x = -1, *) is the miscompiled path: the early branch exits, `out`
    // must keep its entry value.
    for (xv, yv) in [(5, 3), (5, 4), (-1, 3), (-1, 4)] {
        let input = Input::new().memory_size(4).with_reg(x, xv).with_reg(y, yv);
        diff_test(&f, &g, &input).unwrap();
    }
}

/// Fuzz seed 21014 (restructure stage): an operation after the final
/// branch guarded by a *taken* predicate — sequentially dead, because its
/// guard being true means the branch above exited. Rewiring it to the
/// on-trace FRP resurrected it on the fall-through path; it must rewire to
/// the off-trace FRP (false past the bypass) instead.
#[test]
fn restructure_rewires_taken_pred_uses_to_false_past_bypass() {
    let mut b = FunctionBuilder::new("taken_use");
    let sb = b.block("sb");
    let out = b.block("out");
    let x = b.reg();
    let y = b.reg();
    b.switch_to(out);
    b.ret();
    b.switch_to(sb);
    let r21 = b.mov(Operand::Imm(3));
    let (p6, p12) = b.cmpp_un_uc(CmpCond::Ge, x.into(), Operand::Imm(0));
    b.branch_if(p6, out);
    b.set_guard(Some(p12));
    let (p8, _p13) = b.cmpp_un_uc(CmpCond::Le, y.into(), Operand::Imm(0));
    b.set_guard(None);
    b.branch_if(p8, out);
    b.set_guard(Some(p8));
    b.mov_to(r21, Operand::Imm(0)); // guard true ⇒ the branch above took
    b.set_guard(None);
    b.ret();
    b.mark_live_out(r21);
    let f = b.finish();

    let mut g = f.clone();
    let r = restructure_first(&mut g, sb).expect("CPR block must restructure");
    epic_ir::verify(&g).unwrap();
    for (xv, yv) in [(1, 5), (-1, -5), (-1, 5)] {
        let input = Input::new().memory_size(4).with_reg(x, xv).with_reg(y, yv);
        diff_test(&f, &g, &input).unwrap();
    }
    // And the full phase sequence stays equivalent too.
    let live = GlobalLiveness::compute(&g);
    off_trace_motion(&mut g, &r, &live).expect("motion succeeds");
    epic_ir::verify(&g).unwrap();
    for (xv, yv) in [(1, 5), (-1, -5), (-1, 5)] {
        let input = Input::new().memory_size(4).with_reg(x, xv).with_reg(y, yv);
        diff_test(&f, &g, &input).unwrap();
    }
}

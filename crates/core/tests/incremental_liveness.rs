//! Property tests: the one liveness context a compile keeps is
//! indistinguishable from recomputing `GlobalLiveness` from scratch after
//! every mutation.
//!
//! The tests mirror `apply_icbm`'s exact loop structure through the public
//! phase APIs (speculate → match → restructure → off-trace motion or
//! rollback → DCE pass by pass), and the unroll stage's (unroll, then
//! induction flattening, per hot self-loop), repairing one
//! [`GlobalLiveness`] with the passes' touched-block sets and comparing it
//! against a from-scratch build at each step: both the solution and the
//! per-block summaries a later repair solves from. Any missed invalidation
//! — a block a pass edits but does not report — shows up as an inequality
//! here. Each case also checks the final context against the pre-bitset
//! `liveness::reference` oracle.

#![allow(clippy::disallowed_methods)]

use control_cpr::{dce_pass, match_cpr_blocks, off_trace_motion, restructure, speculate, CprConfig};
use epic_analysis::liveness::reference;
use epic_analysis::GlobalLiveness;
use epic_interp::{run, Input};
use epic_ir::{BlockId, CmpCond, Function, FunctionBuilder, Operand, Reg};
use epic_regions::{flatten_induction, unroll_hot_loops, unroll_loop};
use proptest::prelude::*;

/// An FRP-converted string-scan superblock with `links` compare/branch/store
/// segments and a hot back edge — the pipeline shape ICBM consumes.
/// `guarded_stores` toggles whether the per-segment stores ride the FRP
/// chain (they do after real FRP conversion) or run unguarded.
fn chain(links: usize, guarded_stores: bool) -> (Function, Reg, BlockId) {
    let mut fb = FunctionBuilder::new("scan");
    let sb = fb.block("sb");
    let exit = fb.block("exit");
    fb.switch_to(exit);
    fb.ret();
    fb.switch_to(sb);
    let a = fb.reg();
    let mut guard = None;
    for k in 0..links as i64 {
        fb.set_guard(None);
        let addr = fb.add(a.into(), Operand::Imm(k));
        fb.set_alias_class(Some(1));
        let v = fb.load(addr);
        fb.set_alias_class(Some(2));
        fb.set_guard(guard);
        let (t, f_) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
        fb.branch_if(t, exit);
        if guarded_stores {
            fb.set_guard(Some(f_));
        } else {
            fb.set_guard(None);
        }
        let d = fb.add(addr.into(), Operand::Imm(100));
        fb.store(d, v.into());
        guard = Some(f_);
    }
    fb.set_guard(None);
    let a2 = fb.add(a.into(), Operand::Imm(links as i64));
    fb.set_alias_class(Some(1));
    let probe = fb.load(a2);
    fb.set_alias_class(None);
    fb.set_guard(guard);
    fb.mov_to(a, a2.into());
    let (cont, _stop) = fb.cmpp_un_uc(CmpCond::Ne, probe.into(), Operand::Imm(0));
    fb.branch_if(cont, sb);
    fb.set_guard(None);
    fb.ret();
    (fb.finish(), a, sb)
}

fn training_input(a: Reg, iterations: usize) -> Input {
    let mut image = vec![3i64; iterations];
    image.push(0);
    image.resize(400, 0);
    Input::new().memory_size(400).with_memory(0, &image).with_reg(a, 0)
}

/// Two strcpy-style self-loops in sequence, each copying words until a
/// zero terminator; the first loop's destination pointer is a live-out, so
/// it stays live through the second loop. Returns the training input and
/// both loop heads.
fn two_loops() -> (Function, Input, [BlockId; 2]) {
    let mut fb = FunctionBuilder::new("two_loops");
    let heads = [fb.block("l1"), fb.block("l2")];
    let exit = fb.block("exit");
    let image = [7, 7, 5, 0, 0, 0, 0, 0, 3, 2, 1, 0];
    let mut input = Input::new().memory_size(64).with_memory(0, &image);
    for (k, &head) in heads.iter().enumerate() {
        fb.switch_to(head);
        let (src, dst) = (fb.reg(), fb.reg());
        input = input.with_reg(src, 8 * k as i64).with_reg(dst, 32 + 16 * k as i64);
        let v = fb.load(src);
        fb.store(dst, v.into());
        let src2 = fb.add(src.into(), Operand::Imm(1));
        fb.mov_to(src, src2.into());
        let dst2 = fb.add(dst.into(), Operand::Imm(1));
        fb.mov_to(dst, dst2.into());
        let (cont, _stop) = fb.cmpp_un_uc(CmpCond::Ne, v.into(), Operand::Imm(0));
        fb.branch_if(cont, head);
        if k == 0 {
            fb.mark_live_out(dst);
        }
    }
    fb.switch_to(exit);
    fb.ret();
    (fb.finish(), input, heads)
}

/// Checks `live` against a from-scratch build of `f`: the solution and the
/// per-block summaries.
fn exact(live: &GlobalLiveness, f: &Function, after: &str) -> Result<(), TestCaseError> {
    let scratch = GlobalLiveness::compute(f);
    prop_assert_eq!(live, &scratch, "solution diverged after {}", after);
    prop_assert!(live.same_summaries(&scratch), "summaries diverged after {}", after);
    Ok(())
}

/// Runs DCE to its fixed point one pass at a time, checking the context
/// `dce_pass` repaired after each pass.
fn dce_checked(f: &mut Function, live: &mut GlobalLiveness) -> Result<(), TestCaseError> {
    loop {
        let removed = dce_pass(f, live);
        exact(live, f, "a DCE pass")?;
        if removed == 0 {
            return Ok(());
        }
    }
}

#[test]
fn cache_matches_scratch_after_each_unroll_step() {
    for factor in 2..=5 {
        let (mut f, input, heads) = two_loops();
        let mut live = GlobalLiveness::compute(&f);
        for head in heads {
            assert!(unroll_loop(&mut f, head, factor, &live), "factor {factor}");
            live.repair(&f, &[head]);
            exact(&live, &f, &format!("unrolling, factor {factor}")).unwrap();
            flatten_induction(&mut f, head);
            live.repair(&f, &[head]);
            exact(&live, &f, &format!("flattening, factor {factor}")).unwrap();
        }

        // The unroll stage as the pipeline runs it: one context, built
        // before `unroll_hot_loops`, repaired by it and handed on to DCE.
        let (mut g, _, _) = two_loops();
        let profile = run(&g, &input).unwrap().profile;
        let mut live = GlobalLiveness::compute(&g);
        assert_eq!(unroll_hot_loops(&mut g, &profile, factor, 1, &mut live), 2);
        exact(&live, &g, &format!("unroll_hot_loops, factor {factor}")).unwrap();
        dce_checked(&mut g, &mut live).unwrap();
        assert_eq!(live, reference::compute(&g), "factor {factor}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cache_matches_scratch_after_each_icbm_mutation(
        links in 2usize..6,
        guarded_stores in any::<bool>(),
        do_speculate in any::<bool>(),
        threshold_idx in 0usize..3,
        iterations in 20usize..80,
    ) {
        let (mut f, a, sb) = chain(links, guarded_stores);
        let profile = run(&f, &training_input(a, iterations)).unwrap().profile;
        let cfg = CprConfig {
            min_entry_count: 1,
            exit_weight_threshold: [0.2, 0.5, 1.0][threshold_idx],
            speculate: do_speculate,
            ..CprConfig::default()
        };

        // Every chain's back-edge compare has a dead `_stop` destination and
        // nothing else is dead, so the first DCE pass only prunes it.
        let mut pruned = f.clone();
        let mut pruned_live = GlobalLiveness::compute(&pruned);
        prop_assert_eq!(dce_pass(&mut pruned, &mut pruned_live), 0);
        prop_assert!(pruned.to_string() != f.to_string(), "no cmpp destination pruned");
        exact(&pruned_live, &pruned, "a prune-only DCE pass")?;

        // Mirror apply_icbm: one context for the whole function, built
        // before speculation and repaired per mutation.
        let mut cache = GlobalLiveness::compute(&f);
        if cfg.speculate {
            let (_, changed) = speculate(&mut f, &cache);
            cache.repair(&f, &changed);
            exact(&cache, &f, "speculate")?;
        }

        let mut mutations = 0usize;
        let cpr_blocks = match_cpr_blocks(&f.block(sb).ops, &profile, &cfg, f.mem_classes());
        for cpr in &cpr_blocks {
            if !cpr.is_nontrivial() {
                continue;
            }
            let saved_ops = f.block(sb).ops.clone();
            let saved_summary = cache.save_summary(sb);
            let Ok(r) = restructure(&mut f, sb, cpr, &cache) else {
                continue;
            };
            cache.repair(&f, &r.touched_blocks());
            exact(&cache, &f, "restructure")?;
            mutations += 1;
            if off_trace_motion(&mut f, &r, &cache).is_ok() {
                cache.repair(&f, &r.touched_blocks());
            } else {
                f.block_mut(sb).ops = saved_ops;
                let kept = f.layout().iter().copied().filter(|&b| b != r.comp).collect();
                f.set_layout(kept);
                cache.restore_summary(&f, saved_summary);
            }
            exact(&cache, &f, "off-trace motion or its rollback")?;
        }
        // The generator must actually exercise the cache: every case has a
        // non-trivial chain, so at least one restructure must land.
        prop_assert!(mutations >= 1, "no ICBM mutation fired for links={links}");

        dce_checked(&mut f, &mut cache)?;
        prop_assert_eq!(&cache, &reference::compute(&f));
    }
}

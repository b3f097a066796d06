//! Property test: the incremental liveness cache the ICBM driver maintains
//! is indistinguishable from recomputing `GlobalLiveness` from scratch
//! after every mutation.
//!
//! The test mirrors `apply_icbm`'s exact loop structure through the public
//! phase APIs (speculate → match → restructure → off-trace motion),
//! repairing an [`IncrementalLiveness`] with the passes' touched-block sets
//! and comparing against a from-scratch solution at each step. Any missed
//! invalidation — a block the passes edit but do not report — shows up as
//! an inequality here.

use control_cpr::{match_cpr_blocks, off_trace_motion, restructure, speculate, CprConfig};
use epic_analysis::{GlobalLiveness, IncrementalLiveness};
use epic_interp::{run, Input};
use epic_ir::{BlockId, CmpCond, Function, FunctionBuilder, Operand, Reg};
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

        // Mirror apply_icbm: speculate first, then one cache for the whole
        // function, repaired per mutation.
        if cfg.speculate {
            speculate(&mut f);
        }
        let mut cache = IncrementalLiveness::new(&f);
        prop_assert_eq!(cache.live(), &GlobalLiveness::compute(&f));

        let mut mutations = 0usize;
        let cpr_blocks = match_cpr_blocks(&f.block(sb).ops, &profile, &cfg, f.mem_classes());
        for cpr in &cpr_blocks {
            if !cpr.is_nontrivial() {
                continue;
            }
            let Ok(r) = restructure(&mut f, sb, cpr, cache.live()) else {
                continue;
            };
            cache.repair(&f, &r.touched_blocks());
            prop_assert_eq!(
                cache.live(),
                &GlobalLiveness::compute(&f),
                "cache diverged after restructure"
            );
            mutations += 1;
            if off_trace_motion(&mut f, &r, cache.live()).is_ok() {
                cache.repair(&f, &r.touched_blocks());
                prop_assert_eq!(
                    cache.live(),
                    &GlobalLiveness::compute(&f),
                    "cache diverged after off-trace motion"
                );
                mutations += 1;
            }
        }
        // The generator must actually exercise the cache: every case has a
        // non-trivial chain, so at least one restructure must land.
        prop_assert!(mutations >= 1, "no ICBM mutation fired for links={links}");
    }
}

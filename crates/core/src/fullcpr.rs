//! Full (redundant) control CPR, the [SK95] scheme the paper contrasts
//! ICBM against (§4): "Some approaches to control CPR are redundant like
//! full CPR which aggressively accelerates all paths within a region at the
//! cost of a quadratic growth in the number of compares."
//!
//! For every branch `k` of a suitable chain, a *fresh* fully-resolved
//! predicate is computed from the root with a dedicated wired-and
//! accumulation,
//!
//! ```text
//!   q_k = root ∧ ¬c₁ ∧ … ∧ ¬c_{k−1} ∧ c_k ,
//! ```
//!
//! and the branch is re-guarded by it. Because every `q_k` is accumulated
//! independently (one `AC` term per earlier condition plus one `AN` term for
//! its own condition), each branch's guard has O(1) reassociated height and
//! all branches become pairwise disjoint — every exit is accelerated, not
//! just the predominant path. Nothing moves off-trace and nothing is
//! removed: the code is *redundant*, with Θ(n²) inserted compares, which is
//! exactly the trade-off ICBM was designed to avoid.

use epic_analysis::GlobalLiveness;
use epic_ir::{
    BlockId, Dest, Function, Op, Opcode, Operand, PredAction, Profile,
};

use crate::config::CprConfig;
use crate::matching::{hot_hyperblocks, match_cpr_blocks};

/// Statistics from one [`apply_full_cpr`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FullCprStats {
    /// Branches re-guarded with fresh height-reduced FRPs.
    pub branches_accelerated: usize,
    /// Compare operations inserted (the quadratic cost).
    pub compares_inserted: usize,
}

/// Applies full (redundant) CPR to every hot hyperblock of `func`.
///
/// Chains are discovered with the same suitability/separability machinery
/// as ICBM (separability is stricter than full CPR strictly needs, which
/// only makes the comparison conservative in ICBM's favor on code where
/// both apply).
#[allow(clippy::disallowed_methods)]
pub fn apply_full_cpr(func: &mut Function, profile: &Profile, cfg: &CprConfig) -> FullCprStats {
    let mut stats = FullCprStats::default();
    if cfg.speculate {
        // Same preparation as ICBM: without speculation, separability fails
        // at almost every FRP-converted block (§5.1). Nothing after it
        // reads liveness, so the context is dropped unrepaired.
        crate::speculate(func, &GlobalLiveness::compute(func));
    }
    let uniform = CprConfig {
        exit_weight_threshold: f64::INFINITY,
        predict_taken_threshold: f64::INFINITY,
        max_branches: usize::MAX,
        enable_taken_variation: false,
        ..*cfg
    };
    for hb in hot_hyperblocks(func, profile, cfg) {
        let blocks = match_cpr_blocks(&func.block(hb).ops, profile, &uniform, func.mem_classes());
        for chain in &blocks {
            if !chain.is_nontrivial() {
                continue;
            }
            let s = accelerate_chain(func, hb, chain);
            stats.branches_accelerated += s.branches_accelerated;
            stats.compares_inserted += s.compares_inserted;
        }
    }
    stats
}

fn accelerate_chain(
    func: &mut Function,
    block: BlockId,
    chain: &crate::matching::CprBlock,
) -> FullCprStats {
    let mut stats = FullCprStats::default();
    let ops = func.block(block).ops.clone();
    let pos_of = |id: epic_ir::OpId| ops.iter().position(|o| o.id == id);
    let Some(cmpp_pos) = chain.compares.iter().map(|&id| pos_of(id)).collect::<Option<Vec<_>>>()
    else {
        return stats;
    };
    let Some(branch_pos) = chain.branches.iter().map(|&id| pos_of(id)).collect::<Option<Vec<_>>>()
    else {
        return stats;
    };
    if cmpp_pos.len() != branch_pos.len() {
        return stats;
    }
    let root = ops[cmpp_pos[0]].guard;

    // Fresh q_k per branch after the first (the first branch's guard is
    // already root ∧ c₁ and gains nothing).
    // Insertions are planned against original positions and applied
    // back-to-front so indices stay valid.
    let n = cmpp_pos.len();
    let mut inserts: Vec<(usize, Op)> = Vec::new(); // (insert BEFORE index, op)
    for k in 1..n {
        let q = func.new_pred();
        // Initialization to the root value, before the chain's first compare.
        match root {
            None => inserts.push((
                cmpp_pos[0],
                Op {
                    id: func.new_op_id(),
                    opcode: Opcode::PredInit,
                    dests: vec![Dest::Pred(q, PredAction::UN)],
                    srcs: vec![Operand::Imm(1)],
                    guard: None,
                },
            )),
            Some(r) => inserts.push((
                cmpp_pos[0],
                Op {
                    id: func.new_op_id(),
                    opcode: Opcode::Cmpp(epic_ir::CmpCond::Eq),
                    dests: vec![Dest::Pred(q, PredAction::UN)],
                    srcs: vec![Operand::Imm(0), Operand::Imm(0)],
                    guard: Some(r),
                },
            )),
        }
        // One wired term per condition: AC (and-complement) for the earlier
        // fall-through conditions, AN (and-normal) for its own condition.
        for j in 0..=k {
            let orig = &ops[cmpp_pos[j]];
            let cond = orig.cmpp_cond().expect("chain member is a compare");
            let action = if j == k { PredAction::AN } else { PredAction::AC };
            inserts.push((
                cmpp_pos[j] + 1,
                Op {
                    id: func.new_op_id(),
                    opcode: Opcode::Cmpp(cond),
                    dests: vec![Dest::Pred(q, action)],
                    srcs: orig.srcs.clone(),
                    guard: root,
                },
            ));
            stats.compares_inserted += 1;
        }
        // Re-guard branch k.
        let bid = chain.branches[k];
        let real = func.block_mut(block).ops.iter_mut().find(|o| o.id == bid);
        if let Some(br) = real {
            br.guard = Some(q);
        }
        stats.branches_accelerated += 1;
    }
    // Apply insertions from the highest position down.
    inserts.sort_by_key(|&(at, _)| std::cmp::Reverse(at));
    for (at, op) in inserts {
        func.block_mut(block).ops.insert(at, op);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_interp::{diff_test, run, Input};
    use epic_ir::{CmpCond, FunctionBuilder, Operand, Reg};

    fn chain(n: i64) -> (Function, Reg) {
        let mut fb = FunctionBuilder::new("chain");
        let sb = fb.block("sb");
        let exit = fb.block("exit");
        fb.switch_to(exit);
        fb.ret();
        fb.switch_to(sb);
        let a = fb.reg();
        let mut guard = None;
        for k in 0..n {
            fb.set_guard(None);
            let addr = fb.add(a.into(), Operand::Imm(k));
            fb.set_alias_class(Some(1));
            let v = fb.load(addr);
            fb.set_alias_class(None);
            fb.set_guard(guard);
            let (t, f_) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
            fb.branch_if(t, exit);
            fb.set_guard(Some(f_));
            let d = fb.add(addr.into(), Operand::Imm(64));
            fb.set_alias_class(Some(2));
            fb.store(d, v.into());
            fb.set_alias_class(None);
            guard = Some(f_);
        }
        fb.set_guard(None);
        fb.ret();
        (fb.finish(), a)
    }

    #[test]
    fn full_cpr_preserves_semantics_on_all_paths() {
        let (f, a) = chain(4);
        let train = Input::new().memory_size(256).with_memory(0, &[1, 2, 3, 4]).with_reg(a, 0);
        let profile = run(&f, &train).unwrap().profile;
        let mut g = f.clone();
        let stats = apply_full_cpr(&mut g, &profile, &CprConfig { min_entry_count: 0, ..Default::default() });
        assert_eq!(stats.branches_accelerated, 3, "{stats:?}");
        epic_ir::verify(&g).unwrap();
        for zero_at in 0..5usize {
            let mut image = vec![2i64; 8];
            if zero_at < 4 {
                image[zero_at] = 0;
            }
            let input = Input::new().memory_size(256).with_memory(0, &image).with_reg(a, 0);
            diff_test(&f, &g, &input).unwrap();
        }
    }

    #[test]
    fn compare_growth_is_quadratic() {
        for n in [3usize, 5, 7] {
            let (f, a) = chain(n as i64);
            let train = Input::new().memory_size(256).with_memory(0, &[1; 8]).with_reg(a, 0);
            let profile = run(&f, &train).unwrap().profile;
            let mut g = f.clone();
            let stats =
                apply_full_cpr(&mut g, &profile, &CprConfig { min_entry_count: 0, ..Default::default() });
            // Σ_{k=1..n-1} (k+1) = n(n+1)/2 − 1.
            assert_eq!(stats.compares_inserted, n * (n + 1) / 2 - 1, "n = {n}");
        }
    }

    #[test]
    fn accelerated_branches_are_pairwise_disjoint() {
        use epic_analysis::PredFacts;
        let (f, a) = chain(4);
        let train = Input::new().memory_size(256).with_memory(0, &[1, 2, 3, 4]).with_reg(a, 0);
        let profile = run(&f, &train).unwrap().profile;
        let mut g = f.clone();
        apply_full_cpr(&mut g, &profile, &CprConfig { min_entry_count: 0, ..Default::default() });
        let sb = g.entry();
        let ops = &g.block(sb).ops;
        let mut facts = PredFacts::compute(ops);
        let branches: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.opcode == Opcode::Branch)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(branches.len(), 4);
        for (i, &x) in branches.iter().enumerate() {
            for &y in &branches[i + 1..] {
                assert!(facts.guards_disjoint(x, y), "branches {x} and {y}\n{g}");
            }
        }
    }

    #[test]
    fn full_cpr_reduces_branch_height_but_not_op_count() {
        use epic_machine::Machine;
        use epic_sched::{schedule_function, SchedOptions};
        let (f, a) = chain(6);
        let train = Input::new().memory_size(256).with_memory(0, &[1; 8]).with_reg(a, 0);
        let before = run(&f, &train).unwrap();
        let mut g = f.clone();
        apply_full_cpr(&mut g, &before.profile, &CprConfig { min_entry_count: 0, ..Default::default() });
        let after = run(&g, &train).unwrap();
        // Redundant: dynamic op count grows (all the extra compares run).
        assert!(after.dynamic_ops > before.dynamic_ops);
        // But the branch chain is flattened: on the infinite machine the
        // block schedule is no longer serialised by branch order.
        let m = Machine::infinite();
        let sb = f.entry();
        let b = schedule_function(&f, &m, &SchedOptions::default()).block(sb).length;
        let o = schedule_function(&g, &m, &SchedOptions::default()).block(sb).length;
        assert!(o <= b, "height must not grow: {b} -> {o}");
    }
}

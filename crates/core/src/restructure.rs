//! The ICBM *restructure* phase (paper §5.3).
//!
//! For each non-trivial CPR block this phase:
//!
//! 1. allocates the on-trace and off-trace FRPs and inserts their
//!    initialization (on-trace = the block's root predicate, off-trace =
//!    false);
//! 2. inserts a *lookahead compare* after each original compare — same
//!    condition and sources, guarded by the root predicate, accumulating
//!    `AC` (wired-and of complemented conditions) into the on-trace FRP and
//!    `ON` (wired-or) into the off-trace FRP;
//! 3. inserts the *bypass branch* (prepare-to-branch + branch to a fresh
//!    compensation block, guarded by the off-trace FRP) after the block's
//!    final branch — or, for the **taken variation**, inverts the final
//!    lookahead's sense and re-guards the original final branch as the
//!    bypass;
//! 4. re-wires every use of the original compares' predicates in operations
//!    after the bypass to the on-trace FRP.
//!
//! Legality of the later off-trace motion is pre-checked here (no original
//! predicate may be live outside the hyperblock or read as data below the
//! first compare); if a check fails the CPR block is skipped with its
//! [`Skip`] reason, leaving the code unchanged — mirroring the paper's
//! policy of bailing out rather than generating the fully-general FRP
//! expression.

use epic_analysis::GlobalLiveness;
use epic_ir::{
    BlockId, Dest, Function, FxHashSet, Op, Opcode, Operand, PredAction, PredReg,
};

use crate::matching::CprBlock;
use crate::skip::Skip;

/// The artifacts of restructuring one CPR block, consumed by
/// [`off_trace_motion`](crate::off_trace_motion).
#[derive(Clone, Debug)]
pub struct Restructured {
    /// The hyperblock that was transformed.
    pub block: BlockId,
    /// The compensation block (fall-through variation: branch target of the
    /// bypass; taken variation: the layout successor holding off-trace
    /// code).
    pub comp: BlockId,
    /// The on-trace FRP.
    pub on_frp: PredReg,
    /// The off-trace FRP.
    pub off_frp: PredReg,
    /// The bypass branch (fall-through: the new branch; taken: the original
    /// final branch).
    pub bypass: epic_ir::OpId,
    /// The original compares of the CPR block (to be moved off-trace).
    pub compares: Vec<epic_ir::OpId>,
    /// The original branches to be moved off-trace (excludes the final
    /// branch in the taken variation).
    pub moved_branches: Vec<epic_ir::OpId>,
    /// Fall-through (`UC`) predicates of the block's compares: guards that
    /// may be rewritten to the on-trace FRP when splitting.
    pub internal_preds: FxHashSet<PredReg>,
    /// Taken variation only: the original (taken) guard of the final
    /// branch, which is exactly the on-trace condition there. `None` in
    /// the fall-through variation.
    pub final_taken: Option<PredReg>,
    /// The root predicate of the CPR block (`None` = `T`).
    pub root: Option<PredReg>,
    /// Whether the taken variation was applied.
    pub taken_variation: bool,
}

impl Restructured {
    /// The blocks whose ops restructure (and the subsequent off-trace
    /// motion) edit: exactly the transformed hyperblock and its compensation
    /// block. This is the set a [`GlobalLiveness`] context must
    /// [`repair`](GlobalLiveness::repair) after each phase.
    pub fn touched_blocks(&self) -> [BlockId; 2] {
        [self.block, self.comp]
    }
}

/// Applies the restructure step to one CPR block of `block`.
///
/// Returns the [`Skip`] reason (leaving the function unchanged) when the
/// block is trivial, names ops the hyperblock no longer holds, or fails a
/// legality pre-check.
pub fn restructure(
    func: &mut Function,
    block: BlockId,
    cpr: &CprBlock,
    live: &GlobalLiveness,
) -> Result<Restructured, Skip> {
    if !cpr.is_nontrivial() || cpr.compares.len() != cpr.branches.len() {
        return Err(Skip::Trivial);
    }
    let ops = &func.block(block).ops;
    // Resolve stable ids to current positions.
    let pos_of = |id: &epic_ir::OpId| ops.iter().position(|o| o.id == *id).ok_or(Skip::StaleOp);
    let branch_pos: Vec<usize> = cpr.branches.iter().map(pos_of).collect::<Result<_, _>>()?;
    let cmpp_pos: Vec<usize> = cpr.compares.iter().map(pos_of).collect::<Result<_, _>>()?;
    let last_branch = *branch_pos.last().expect("non-empty");

    // The whole FRP plan assumes the compares appear in *branch order*.
    if !cmpp_pos.windows(2).all(|w| w[0] <= w[1]) {
        return Err(Skip::OutOfOrderCompares);
    }

    let taken_variation = cpr.taken_variation;
    // The final branch's original guard (its taken predicate): the taken
    // variation re-guards the branch itself with the on-trace FRP, so
    // motion cannot recover this from the ops.
    let final_taken = if taken_variation { ops[last_branch].guard } else { None };

    // Root predicate: the *current* guard of the first compare (a previous
    // CPR block's restructure may have re-wired it to its on-trace FRP).
    let root = ops[cmpp_pos[0]].guard;

    // Predicates computed by the original compares.
    let mut original_preds: FxHashSet<PredReg> = FxHashSet::default();
    let mut internal_preds: FxHashSet<PredReg> = FxHashSet::default();
    let mut taken_guards: FxHashSet<PredReg> = FxHashSet::default();
    for (&c, &br) in cmpp_pos.iter().zip(&branch_pos) {
        let taken_guard = ops[br].guard.expect("conditional branch");
        taken_guards.insert(taken_guard);
        for d in &ops[c].dests {
            if let Dest::Pred(p, _) = *d {
                original_preds.insert(p);
                if p != taken_guard {
                    internal_preds.insert(p);
                }
            }
        }
    }

    // --- legality pre-checks ---
    // (a) No original predicate may be live outside this hyperblock.
    let live_out = &live.live_out_preds[&block];
    if original_preds.iter().any(|p| live_out.contains(p)) {
        return Err(Skip::PredLiveOut);
    }
    // (b) Guards reading an original predicate are split or moved below;
    // a *data* use of one in a non-compare op is not handled.
    {
        let mut pending = original_preds.clone();
        for (i, op) in ops.iter().enumerate() {
            if i > *cmpp_pos.first().expect("non-empty") {
                if !op.is_cmpp() && op.uses_preds().any(|p| pending.contains(&p)) {
                    return Err(Skip::PredUsedAsData);
                }
                // Redefinitions below the block retire names (but the
                // block's own compares keep theirs).
                if !cpr.compares.contains(&op.id) {
                    for d in op.defs_preds() {
                        pending.remove(&d);
                    }
                }
            }
        }
    }

    // --- allocate FRPs ---
    let on_frp = func.new_pred();
    let off_frp = func.new_pred();

    // --- build the insertion plan (positions refer to the *current* ops) ---
    // 1. FRP initialization just before the first compare.
    let mut init_ops: Vec<Op> = Vec::new();
    match root {
        None => {
            init_ops.push(Op {
                id: func.new_op_id(),
                opcode: Opcode::PredInit,
                dests: vec![
                    Dest::Pred(on_frp, PredAction::UN),
                    Dest::Pred(off_frp, PredAction::UN),
                ],
                srcs: vec![Operand::Imm(1), Operand::Imm(0)],
                guard: None,
            });
        }
        Some(r) => {
            // off = 0 unconditionally; on = root (cmpp.un of a true
            // condition under guard root writes root's value).
            init_ops.push(Op {
                id: func.new_op_id(),
                opcode: Opcode::PredInit,
                dests: vec![Dest::Pred(off_frp, PredAction::UN)],
                srcs: vec![Operand::Imm(0)],
                guard: None,
            });
            init_ops.push(Op {
                id: func.new_op_id(),
                opcode: Opcode::Cmpp(epic_ir::CmpCond::Eq),
                dests: vec![Dest::Pred(on_frp, PredAction::UN)],
                srcs: vec![Operand::Imm(0), Operand::Imm(0)],
                guard: Some(r),
            });
        }
    }

    // 2. Lookahead compares: one per original compare.
    let n = cmpp_pos.len();
    let mut lookaheads: Vec<(usize, Op)> = Vec::new(); // (insert after pos, op)
    for (k, (&c, &br)) in cmpp_pos.iter().zip(&branch_pos).enumerate() {
        let orig = func.block(block).ops[c].clone();
        let cond = orig.cmpp_cond().expect("compare");
        // The lookahead must accumulate the branch's *taken* condition. A
        // branch guarded by the compare's complement-sense (`UC`) output is
        // taken when the compare is false — e.g. both exits of a two-way
        // `cmpp.un.uc` dispatch — so its lookahead uses the inverted
        // condition.
        let taken_guard = func.block(block).ops[br].guard.expect("conditional branch");
        let uc_guarded = orig.dests.iter().any(|d| match d {
            Dest::Pred(p, a) => *p == taken_guard && a.sense == epic_ir::PredSense::Complement,
            Dest::Reg(_) => false,
        });
        let invert = (taken_variation && k == n - 1) ^ uc_guarded;
        let cond = if invert { cond.invert() } else { cond };
        lookaheads.push((
            c,
            Op {
                id: func.new_op_id(),
                opcode: Opcode::Cmpp(cond),
                dests: vec![
                    Dest::Pred(on_frp, PredAction::AC),
                    Dest::Pred(off_frp, PredAction::ON),
                ],
                srcs: orig.srcs.clone(),
                guard: root,
            },
        ));
    }

    // 3. Bypass branch (fall-through variation only).
    let comp = func.add_detached_block(format!("{}_cmp", func.block(block).name));
    let mut bypass_ops: Vec<Op> = Vec::new();
    let bypass_id;
    if taken_variation {
        // The original final branch becomes the bypass: re-guard with the
        // on-trace FRP. The compensation block is placed on its fall-through
        // path (immediately after the hyperblock in layout), and everything
        // after the final branch — the off-trace remainder of the
        // hyperblock, which only executes when the branch falls through —
        // moves into it ("the remainder of the hyperblock serves as the
        // compensation block", §5.3).
        bypass_id = func.block(block).ops[last_branch].id;
        func.insert_in_layout_after(comp, block);
        let remainder: Vec<Op> = func.block_mut(block).ops.split_off(last_branch + 1);
        func.block_mut(comp).ops = remainder;
    } else {
        let btr = func.new_reg();
        let pbr_id = func.new_op_id();
        bypass_id = func.new_op_id();
        bypass_ops.push(Op {
            id: pbr_id,
            opcode: Opcode::Pbr,
            dests: vec![Dest::Reg(btr)],
            srcs: vec![Operand::Label(comp)],
            guard: None,
        });
        bypass_ops.push(Op {
            id: bypass_id,
            opcode: Opcode::Branch,
            dests: vec![],
            srcs: vec![Operand::Reg(btr), Operand::Label(comp)],
            guard: Some(off_frp),
        });
        func.append_to_layout(comp);
        // Keep the function well-formed between restructure and motion: an
        // empty compensation block at the layout end must not fall off. The
        // ret is unreachable (pre-motion, the bypass never takes; post-
        // motion the moved branches provably cover every entry) and motion
        // re-creates it when it fills the block.
        let ret_id = func.new_op_id();
        func.block_mut(comp).ops.push(Op {
            id: ret_id,
            opcode: Opcode::Ret,
            dests: vec![],
            srcs: vec![],
            guard: None,
        });
    }

    // --- mutate the block ---
    {
        let ops = &mut func.block_mut(block).ops;
        // Insert from the bottom up so positions stay valid.
        for (k, op) in bypass_ops.into_iter().enumerate() {
            ops.insert(last_branch + 1 + k, op);
        }
        for (after, op) in lookaheads.into_iter().rev() {
            ops.insert(after + 1, op);
        }
        let first_cmpp = *cmpp_pos.first().expect("non-empty");
        for op in init_ops.into_iter().rev() {
            ops.insert(first_cmpp, op);
        }
    }

    // Taken variation: re-guard the (possibly shifted) final branch.
    if taken_variation {
        let ops = &mut func.block_mut(block).ops;
        let pos = ops.iter().position(|o| o.id == bypass_id).expect("bypass present");
        ops[pos].guard = Some(on_frp);
    }

    // --- re-wire uses after the bypass ---
    // Unrolled code reuses predicate registers across iterations, so a use
    // below the bypass only refers to a moved compare while the register
    // has not been *redefined* by a later operation. Walk in order and
    // retire names from the rewrite set at their next definition.
    {
        let ops = &mut func.block_mut(block).ops;
        let bypass_pos = ops.iter().position(|o| o.id == bypass_id).expect("bypass present");
        let mut pending = original_preds.clone();
        for op in &mut ops[bypass_pos + 1..] {
            if pending.is_empty() {
                break;
            }
            for &p in &pending {
                // Past the bypass, a fall-through (internal) predicate is
                // equivalent to the on-trace FRP — but a *taken* predicate
                // is false there (its branch did not take), and the
                // off-trace FRP is exactly false past the bypass, so taken
                // predicates rewire to it. Rewiring them to the on-trace
                // FRP would resurrect sequentially dead operations on the
                // fall-through path.
                let repl = if taken_guards.contains(&p) { off_frp } else { on_frp };
                op.replace_pred_use(p, repl);
            }
            for d in op.defs_preds() {
                pending.remove(&d);
            }
        }
    }

    let moved_branches: Vec<epic_ir::OpId> = if taken_variation {
        cpr.branches[..n - 1].to_vec()
    } else {
        cpr.branches.clone()
    };

    Ok(Restructured {
        block,
        comp,
        on_frp,
        off_frp,
        bypass: bypass_id,
        compares: cpr.compares.clone(),
        moved_branches,
        internal_preds,
        final_taken,
        root,
        taken_variation,
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::config::CprConfig;
    use crate::matching::match_cpr_blocks;
    use epic_ir::{CmpCond, FunctionBuilder, Profile};
    use epic_interp::{diff_test, Input};

    /// FRP-converted 3-branch chain with speculated (unguarded) loads.
    fn chain() -> (Function, epic_ir::Reg, BlockId) {
        let mut fb = FunctionBuilder::new("chain");
        let sb = fb.block("sb");
        let exit = fb.block("exit");
        fb.switch_to(exit);
        fb.ret();
        fb.switch_to(sb);
        let a = fb.reg();
        let mut guard = None;
        for k in 0..3i64 {
            fb.set_guard(None);
            let addr = fb.add(a.into(), Operand::Imm(k));
            fb.set_alias_class(Some(1));
            let v = fb.load(addr);
            fb.set_alias_class(Some(2));
            fb.set_guard(guard);
            let (t, f_) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
            fb.branch_if(t, exit);
            fb.set_guard(Some(f_));
            let d = fb.movi(20 + k);
            fb.store(d, v.into());
            guard = Some(f_);
        }
        fb.set_guard(None);
        fb.ret();
        (fb.finish(), a, sb)
    }

    fn transform(f: &mut Function, sb: BlockId) -> Restructured {
        let cfg = CprConfig { enable_taken_variation: false, ..CprConfig::uniform() };
        let blocks = match_cpr_blocks(&f.block(sb).ops, &Profile::new(), &cfg, f.mem_classes());
        assert_eq!(blocks.len(), 1);
        let live = GlobalLiveness::compute(f);
        restructure(f, sb, &blocks[0], &live).expect("restructures")
    }

    #[test]
    fn inserts_lookaheads_init_and_bypass() {
        let (mut f, _a, sb) = chain();
        let before_branches = f.block(sb).branch_count();
        let r = transform(&mut f, sb);
        epic_ir::verify(&f).unwrap();
        let ops = &f.block(sb).ops;
        // 3 lookahead cmpps guarded by T accumulating into the FRPs.
        let lookaheads: Vec<_> = ops
            .iter()
            .filter(|o| o.defines_pred(r.on_frp) && o.is_cmpp())
            .collect();
        assert_eq!(lookaheads.len(), 3);
        // Exactly one pinit initializing both FRPs.
        assert!(ops.iter().any(|o| o.opcode == Opcode::PredInit
            && o.defines_pred(r.on_frp)
            && o.defines_pred(r.off_frp)));
        // A new bypass branch to the compensation block exists.
        let bypass = ops.iter().find(|o| o.id == r.bypass).unwrap();
        assert_eq!(bypass.guard, Some(r.off_frp));
        assert_eq!(bypass.branch_target(), Some(r.comp));
        // Branch count grew by one (original branches not yet moved).
        assert_eq!(f.block(sb).branch_count(), before_branches + 1);
    }

    #[test]
    fn restructure_alone_preserves_semantics() {
        // Before motion the bypass never takes (off_frp true ⟹ an original
        // branch above it already took) — the paper notes the inserted
        // bypass is redundant. Semantics must be unchanged.
        let (f, a, sb) = chain();
        let mut g = f.clone();
        transform(&mut g, sb);
        for image in [vec![1i64, 2, 3], vec![0, 2, 3], vec![1, 0, 3], vec![1, 2, 0]] {
            let input = Input::new().memory_size(64).with_memory(0, &image).with_reg(a, 0);
            diff_test(&f, &g, &input).unwrap();
        }
    }

    #[test]
    fn rewires_downstream_uses() {
        let (mut f, _a, sb) = chain();
        // Add a downstream op guarded by the last fall-through FRP.
        let last_ft = {
            let ops = &f.block(sb).ops;
            let last_cmpp = ops.iter().rev().find(|o| o.is_cmpp()).unwrap();
            last_cmpp.defs_preds().nth(1).unwrap()
        };
        let ret_pos = f.block(sb).ops.len() - 1;
        let id = f.new_op_id();
        let d = f.new_reg();
        f.block_mut(sb).ops.insert(
            ret_pos,
            Op {
                id,
                opcode: Opcode::Mov,
                dests: vec![Dest::Reg(d)],
                srcs: vec![Operand::Imm(9)],
                guard: Some(last_ft),
            },
        );
        let r = transform(&mut f, sb);
        let op = f.block(sb).ops.iter().find(|o| o.id == id).unwrap();
        assert_eq!(op.guard, Some(r.on_frp), "downstream guard re-wired to on-trace FRP");
    }

    #[test]
    fn trivial_blocks_are_skipped() {
        let (mut f, _a, sb) = chain();
        let live = GlobalLiveness::compute(&f);
        let trivial = CprBlock {
            branches: vec![f.block(sb).ops[5].id],
            compares: vec![f.block(sb).ops[2].id],
            taken_variation: false,
        };
        assert_eq!(restructure(&mut f, sb, &trivial, &live).err(), Some(Skip::Trivial));
    }

    #[test]
    fn live_out_original_pred_blocks_transformation() {
        let (mut f, _a, sb) = chain();
        // Make one original predicate live in the exit block.
        let some_pred = f.block(sb).ops.iter().find(|o| o.is_cmpp()).unwrap().defs_preds().next().unwrap();
        let exit = *f.layout().iter().find(|&&b| b != sb).unwrap();
        let id = f.new_op_id();
        let d = f.new_reg();
        f.block_mut(exit).ops.insert(
            0,
            Op {
                id,
                opcode: Opcode::Mov,
                dests: vec![Dest::Reg(d)],
                srcs: vec![Operand::Pred(some_pred)],
                guard: None,
            },
        );
        let cfg = CprConfig { enable_taken_variation: false, ..CprConfig::uniform() };
        let blocks = match_cpr_blocks(&f.block(sb).ops, &Profile::new(), &cfg, f.mem_classes());
        let live = GlobalLiveness::compute(&f);
        assert_eq!(
            restructure(&mut f, sb, &blocks[0], &live).err(),
            Some(Skip::PredLiveOut),
            "live-out original predicate must veto the transformation"
        );
    }
}

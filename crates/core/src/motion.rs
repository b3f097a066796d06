//! The ICBM *off-trace motion* phase (paper §5.4).
//!
//! Moves the original compares and branches of a restructured CPR block —
//! plus everything data-dependent on them — into the compensation block, so
//! the on-trace path becomes irredundant. Three sets are identified, as in
//! the paper:
//!
//! * **set 1** — the compares/branches to be moved and their transitive
//!   data-dependence successors (flow through registers and predicates,
//!   plus store→load memory flow);
//! * **set 2** — the subset of set 1 whose effects are also needed on-trace
//!   (most commonly stores guarded by fall-through FRPs): these are *split*,
//!   leaving an on-trace copy re-guarded by the on-trace FRP;
//! * **set 3** — operations outside set 1 whose results are used only
//!   off-trace (e.g. the prepare-to-branch ops of moved branches): moving
//!   them benefits the on-trace path.
//!
//! Motion preserves the original program order inside the compensation
//! block, which is what keeps the off-trace path semantically equivalent
//! (stores interleave correctly with the moved exit branches).

use epic_analysis::{DepGraph, DepKind, DepOptions, GlobalLiveness, PredFacts};
use epic_ir::{Function, FxHashMap, FxHashSet, Op, OpId, Opcode, PredReg};

use crate::restructure::Restructured;
use crate::skip::Skip;

/// Applies off-trace motion for one restructured CPR block.
///
/// `global` must reflect `func` *after* [`restructure`](crate::restructure)
/// ran for `r` (the driver [`repair`](GlobalLiveness::repair)s its one
/// liveness context instead of recomputing liveness per CPR block).
///
/// Returns the [`Skip`] reason (leaving the function in its
/// restructured-but-unmoved — still correct — state) when a legality check
/// fails, e.g. a moved operation's inputs would be clobbered on-trace
/// before the bypass, or memory ordering between moved and unmoved
/// operations cannot be preserved.
pub fn off_trace_motion(
    func: &mut Function,
    r: &Restructured,
    global: &GlobalLiveness,
) -> Result<(), Skip> {
    // The legality checks only read the hyperblock; the motion below takes
    // its ops out to rebuild them.
    let ops = &func.block(r.block).ops;
    let n = ops.len();
    let index: FxHashMap<OpId, usize> = ops.iter().enumerate().map(|(i, o)| (o.id, i)).collect();
    let pos_of = |id: OpId| index.get(&id).copied();
    let bypass_pos = pos_of(r.bypass).ok_or(Skip::StaleOp)?;

    // --- seeds: compares, moved branches, and their pbrs ---
    let mut seeds: Vec<usize> = Vec::new();
    for &id in r.compares.iter().chain(&r.moved_branches) {
        seeds.push(pos_of(id).ok_or(Skip::StaleOp)?);
    }
    for &id in &r.moved_branches {
        let bpos = pos_of(id).expect("checked above");
        if let Some(btr) = ops[bpos].srcs.first().and_then(|s| s.as_reg()) {
            if let Some(def) = (0..bpos).rev().find(|&j| ops[j].defines_reg(btr)) {
                if ops[def].opcode == Opcode::Pbr {
                    seeds.push(def);
                }
            }
        }
    }

    // --- dependence graph for closure and legality ---
    let (mut facts, graph) = {
        let mut facts = {
            let _s = epic_obs::Span::enter("motion.facts", "icbm");
            PredFacts::compute(ops)
        };
        let _s = epic_obs::Span::enter("motion.deps", "icbm");
        let dep_opts = DepOptions::for_function(func);
        // Motion only follows flow/memory edges and checks anti/output
        // hazards; the data-only build skips the control construction.
        let graph = DepGraph::build_data(ops, &mut facts, &dep_opts);
        (facts, graph)
    };

    // set 1: flow closure over registers, predicates, and store→load memory
    // dependences.
    let mut set1: FxHashSet<usize> = seeds.iter().copied().collect();
    let mut work: Vec<usize> = seeds.clone();
    while let Some(i) = work.pop() {
        for e in graph.succs(i) {
            let follow = match e.kind {
                DepKind::Flow => true,
                DepKind::Mem => {
                    ops[e.from].opcode == Opcode::Store
                        && matches!(ops[e.to].opcode, Opcode::Load | Opcode::LoadS)
                }
                _ => false,
            };
            // Dependences that cross the bypass do not pull the consumer
            // off-trace: the consumer will read the *split on-trace copy*
            // of the producer (set 2 below) or, for producers that can only
            // execute off-trace, the untouched prior value — exactly as in
            // the original program.
            if follow && e.to < bypass_pos && set1.insert(e.to) {
                work.push(e.to);
            }
        }
    }
    // The bypass itself must never be considered moved.
    if set1.contains(&bypass_pos) {
        return Err(Skip::BypassMoved);
    }
    // Only the matched branches may leave the on-trace path.
    let branch_positions: Vec<usize> =
        r.moved_branches.iter().filter_map(|&id| pos_of(id)).collect();
    if set1.iter().any(|&i| ops[i].is_branch() && !branch_positions.contains(&i)) {
        return Err(Skip::UnmatchedBranchMoved);
    }
    // The bypass reads its guard FRP (and branch-target register) where it
    // stands, so no moved op may feed it.
    if graph
        .edges()
        .iter()
        .any(|e| e.kind == DepKind::Flow && e.to == bypass_pos && set1.contains(&e.from))
    {
        return Err(Skip::BypassReadsMoved);
    }
    // Moving the matched branches off-trace makes every *unmoved* op
    // between them execute on-trace even when a branch above it would
    // have been taken — implicit speculation, legal only for effects the
    // off-trace path cannot observe.
    // The off-trace path may reach a `ret`, so what a `ret` sees is live
    // there too.
    let mut off_trace_live_regs: FxHashSet<epic_ir::Reg> = global.at_ret().clone();
    let mut off_trace_live_preds: FxHashSet<PredReg> = FxHashSet::default();
    for &bp in &branch_positions {
        let (regs, preds) = global.at_exit(&ops[bp]);
        off_trace_live_regs.extend(regs);
        off_trace_live_preds.extend(preds);
    }
    for (j, op) in ops.iter().enumerate().take(bypass_pos) {
        if set1.contains(&j) {
            continue;
        }
        let observable = op.opcode == Opcode::Store
            || op.defs_regs().any(|d| off_trace_live_regs.contains(&d))
            || op.dests.iter().any(|d| match d {
                epic_ir::Dest::Pred(p, _) => off_trace_live_preds.contains(p),
                epic_ir::Dest::Reg(_) => false,
            });
        if !observable {
            continue;
        }
        let speculative = branch_positions
            .iter()
            .any(|&bp| bp < j && !facts.guards_disjoint(bp, j));
        if speculative {
            return Err(Skip::SpeculativeOnTrace);
        }
    }

    // --- legality: anti/output hazards between moved and unmoved ops ---
    for e in graph.edges() {
        let hazardous = match e.kind {
            DepKind::Anti | DepKind::Output => true,
            DepKind::Mem => !(ops[e.from].opcode == Opcode::Store
                && matches!(ops[e.to].opcode, Opcode::Load | Opcode::LoadS)),
            _ => false,
        };
        if !hazardous {
            continue;
        }
        if set1.contains(&e.from) && !set1.contains(&e.to) && e.to <= bypass_pos {
            return Err(Skip::Hazard);
        }
    }

    // An operation's effects are needed on-trace only if its guard can be
    // true on the on-trace path. The bypass guard encodes that path
    // exactly: in the taken variation it *is* the on-trace condition (the
    // re-guarded final branch takes), so the op must not be disjoint from
    // it; in the fall-through variation it is the off-trace condition, so
    // a guard implying it (e.g. a taken predicate) never fires on-trace.
    // Deciding this on the BDD facts rather than per-predicate matters for
    // the taken variation, where the final branch's *fall-through*
    // predicate is an off-trace-only guard even though its branch moved
    // nowhere.
    let executes_on_trace = |facts: &mut PredFacts, i: usize| -> bool {
        if r.taken_variation {
            !facts.guards_disjoint(i, bypass_pos)
        } else {
            !facts.guard_implies(i, bypass_pos)
        }
    };

    // Registers live at the on-trace continuations (layout successor and
    // targets of unmoved branches): values the on-trace path must still
    // produce. Every `ret` observes the live-outs, on-trace rets included;
    // treat them as live at every continuation.
    let mut live_on_trace: FxHashSet<epic_ir::Reg> = global.at_ret().clone();
    live_on_trace.extend(global.at_block_end(func, r.block).0);
    for (i, op) in ops.iter().enumerate() {
        if op.opcode == Opcode::Branch && !set1.contains(&i) && op.id != r.bypass {
            live_on_trace.extend(global.at_exit(op).0);
        }
    }
    if r.taken_variation {
        // In the taken variation the on-trace continuation is the bypass
        // branch's *target* (e.g. the loop head): whatever is live there
        // must still be produced on-trace.
        live_on_trace.extend(global.at_exit(&ops[bypass_pos]).0);
    }

    // set 2: moved ops whose effects are also needed on-trace.
    // The CPR block's own compares are replaced on-trace by the lookahead
    // compares and are never split; *other* moved compares (e.g.
    // if-conversion compares of a hyperblock) are ordinary producers and
    // split like any other operation.
    let own_compares: FxHashSet<usize> =
        r.compares.iter().filter_map(|&id| pos_of(id)).collect();
    let mut set2: FxHashSet<usize> = FxHashSet::default();
    for &i in &set1 {
        let op = &ops[i];
        if op.is_branch() || own_compares.contains(&i) {
            continue;
        }
        if !executes_on_trace(&mut facts, i) {
            continue;
        }
        if op.opcode == Opcode::Store {
            set2.insert(i);
            continue;
        }
        // Register/predicate producers: split when used by an unmoved op
        // later in the block or live at an on-trace continuation.
        let used_on_trace = graph
            .succs(i)
            .any(|e| e.kind == DepKind::Flow && !set1.contains(&e.to))
            || op.defs_regs().any(|d| live_on_trace.contains(&d));
        if used_on_trace {
            set2.insert(i);
        }
    }
    // Backward closure: the on-trace copy of a split op reads its inputs on
    // trace, so any moved producer of a split op that can execute on-trace
    // must itself be split (e.g. the address move feeding a split store).
    loop {
        let mut grew = false;
        for &i in &set1 {
            if set2.contains(&i) {
                continue;
            }
            let op = &ops[i];
            if op.is_branch() || own_compares.contains(&i) {
                continue;
            }
            if !executes_on_trace(&mut facts, i) {
                continue;
            }
            let feeds_split = graph
                .succs(i)
                .any(|e| e.kind == DepKind::Flow && set2.contains(&e.to));
            if feeds_split {
                set2.insert(i);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    // Decide each split copy's on-trace guard. Block-internal fall-through
    // FRPs rewire to the on-trace FRP, and so does the final branch's taken
    // predicate in the taken variation — it is exactly the on-trace
    // condition there (restructure's re-guarding of the branch itself rests
    // on the same fact), provided the guard really names that compare's
    // definition and not an earlier reuse of the register. Any other guard
    // is kept as-is, which is only sound when its definition stays visible
    // on-trace: either the defining op does not move, or it is itself split
    // (its on-trace copy precedes the consumer's — copies keep index
    // order). A guard whose definition moves without a copy would dangle
    // on-trace: refuse.
    let mut rewired_guards: FxHashSet<usize> = FxHashSet::default();
    for &i in &set2 {
        let Some(g) = ops[i].guard else {
            // An unguarded split op. In the fall-through variation the
            // copies sit *after* the bypass, which has already peeled off
            // the off-trace path, so the copy may stay unguarded. In the
            // taken variation the copies precede the bypass and execute on
            // both paths; an unguarded copy would fire even when control
            // falls through to the compensation block and a moved branch
            // then exits early — a path on which the original op never ran.
            // Re-guard the copy by the on-trace FRP, which is true exactly
            // when the bypass takes.
            if r.taken_variation {
                rewired_guards.insert(i);
            }
            continue;
        };
        let def = (0..i).rev().find(|&j| ops[j].defines_pred(g));
        if r.internal_preds.contains(&g)
            || (r.final_taken == Some(g) && matches!(def, Some(j) if own_compares.contains(&j)))
        {
            rewired_guards.insert(i);
            continue;
        }
        if matches!(def, Some(j) if set1.contains(&j) && !set2.contains(&j)) {
            return Err(Skip::SplitGuardMoved);
        }
        // Same taken-variation exposure for a kept external guard: sound
        // only when `g` implies the bypass condition.
        if r.taken_variation && !facts.guard_implies(i, bypass_pos) {
            return Err(Skip::SplitGuardOffTrace);
        }
    }

    // set 3: unmoved ops whose results are consumed only by moved ops.
    let mut set3: FxHashSet<usize> = FxHashSet::default();
    for i in (0..n).rev() {
        if set1.contains(&i) || i >= bypass_pos {
            continue;
        }
        let op = &ops[i];
        if op.opcode.has_side_effects() || op.is_cmpp() || op.opcode == Opcode::PredInit {
            continue;
        }
        if op.dests.is_empty() {
            continue;
        }
        if op.defs_regs().any(|d| live_on_trace.contains(&d)) {
            continue;
        }
        let mut all_uses_moved = true;
        let mut has_use = false;
        for e in graph.succs(i) {
            if e.kind == DepKind::Flow {
                has_use = true;
                // A consumer that is split (set 2) keeps an on-trace copy
                // which still reads this value on-trace: the producer must
                // stay.
                if set2.contains(&e.to)
                    || (!set1.contains(&e.to) && !set3.contains(&e.to))
                {
                    all_uses_moved = false;
                    break;
                }
            }
        }
        if has_use && all_uses_moved {
            set3.insert(i);
        }
    }

    // --- perform the motion ---
    let ops = std::mem::take(&mut func.block_mut(r.block).ops);
    let moved: FxHashSet<usize> = set1.union(&set3).copied().collect();
    let mut comp_ops: Vec<Op> = Vec::new();
    let mut on_trace_copies: Vec<Op> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if !moved.contains(&i) {
            continue;
        }
        comp_ops.push(op.clone());
        if set2.contains(&i) {
            let mut copy = func.clone_op(op);
            if rewired_guards.contains(&i) {
                copy.guard = Some(r.on_frp);
            }
            on_trace_copies.push(copy);
        }
    }

    // Rebuild the hyperblock: unmoved ops, with the split copies inserted
    // after the bypass (fall-through variation) or before it (taken
    // variation, where the bypass is the block's final branch).
    let mut new_ops: Vec<Op> = Vec::with_capacity(n - moved.len() + on_trace_copies.len());
    for (i, op) in ops.into_iter().enumerate() {
        if moved.contains(&i) {
            continue;
        }
        let is_bypass = op.id == r.bypass;
        if is_bypass && r.taken_variation {
            new_ops.append(&mut on_trace_copies);
        }
        new_ops.push(op);
        if is_bypass && !r.taken_variation {
            new_ops.append(&mut on_trace_copies);
        }
    }
    func.block_mut(r.block).ops = new_ops;

    // Fill the compensation block. The taken variation's comp already holds
    // the hyperblock remainder (placed by restructure); the moved ops run
    // before it, preserving original program order. For the fall-through
    // variation the moved branches provably cover every entry (the
    // off-trace FRP is exactly their disjunction), so the trailing `ret` is
    // an unreachable backstop that keeps the function well-formed.
    if r.taken_variation {
        let remainder = std::mem::take(&mut func.block_mut(r.comp).ops);
        comp_ops.extend(remainder);
    } else {
        comp_ops.push(Op {
            id: func.new_op_id(),
            opcode: Opcode::Ret,
            dests: vec![],
            srcs: vec![],
            guard: None,
        });
    }
    func.block_mut(r.comp).ops = comp_ops;
    Ok(())
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::config::CprConfig;
    use crate::matching::match_cpr_blocks;
    use crate::restructure::restructure;
    use epic_ir::{BlockId, CmpCond, FunctionBuilder, Operand, Profile};
    use epic_interp::{diff_test, run, Input};

    /// FRP-converted chain with speculated loads and guarded stores, ready
    /// for the full restructure+motion pipeline.
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

    fn full_pipeline(f: &mut Function, sb: BlockId) -> Restructured {
        let cfg = CprConfig { enable_taken_variation: false, ..CprConfig::uniform() };
        let blocks = match_cpr_blocks(&f.block(sb).ops, &Profile::new(), &cfg, f.mem_classes());
        let live = GlobalLiveness::compute(f);
        let r = restructure(f, sb, &blocks[0], &live).expect("restructures");
        let live = GlobalLiveness::compute(f);
        off_trace_motion(f, &r, &live).expect("motion must succeed");
        r
    }

    #[test]
    fn on_trace_is_irredundant() {
        let (mut f, _a, sb) = chain();
        let before = f.block(sb).ops.len();
        let before_branches = f.block(sb).branch_count();
        let r = full_pipeline(&mut f, sb);
        epic_ir::verify(&f).unwrap();
        let ops = &f.block(sb).ops;
        // All original branches replaced by the single bypass (plus the
        // trailing ret).
        assert_eq!(
            ops.iter().filter(|o| o.opcode == Opcode::Branch).count(),
            1,
            "single bypass branch on-trace:\n{f}"
        );
        assert!(before_branches > 1);
        // Original compares are gone from the on-trace path; lookaheads
        // remain (they write the FRPs).
        for &c in &r.compares {
            assert!(ops.iter().all(|o| o.id != c), "compare {c} moved off-trace");
        }
        // Fewer on-trace ops than before (irredundancy): n branches → 1,
        // stores split 1:1, compares replaced 1:1.
        assert!(ops.len() < before, "{} vs {before}", ops.len());
        // Compensation block holds the originals.
        let comp = f.block(r.comp);
        assert!(comp.ops.iter().any(|o| o.is_cmpp()));
        assert!(comp.ops.iter().filter(|o| o.opcode == Opcode::Branch).count() >= 3);
    }

    #[test]
    fn split_stores_appear_on_both_paths() {
        let (mut f, _a, sb) = chain();
        let r = full_pipeline(&mut f, sb);
        let on_stores: Vec<_> = f
            .block(sb)
            .ops
            .iter()
            .filter(|o| o.opcode == Opcode::Store)
            .cloned()
            .collect();
        let off_stores: Vec<_> = f
            .block(r.comp)
            .ops
            .iter()
            .filter(|o| o.opcode == Opcode::Store)
            .cloned()
            .collect();
        // Stores 1 and 2 sit between branches: they are split (a copy on
        // each path). Store 3 follows the final branch, so it only ever
        // executes on-trace and is simply re-guarded.
        assert_eq!(on_stores.len(), 3);
        assert_eq!(off_stores.len(), 2);
        // On-trace copies are re-guarded by the on-trace FRP.
        assert!(on_stores.iter().all(|o| o.guard == Some(r.on_frp)), "{on_stores:?}");
        // Off-trace copies keep their original FRP guards.
        assert!(off_stores.iter().all(|o| o.guard != Some(r.on_frp)));
    }

    #[test]
    fn transformation_preserves_semantics_exhaustively() {
        let (f, a, sb) = chain();
        let mut g = f.clone();
        full_pipeline(&mut g, sb);
        // All 16 combinations of zero/non-zero over 4 leading words.
        for bits in 0..16u32 {
            let image: Vec<i64> =
                (0..4).map(|k| if bits & (1 << k) != 0 { 0 } else { k as i64 + 1 }).collect();
            let input = Input::new().memory_size(64).with_memory(0, &image).with_reg(a, 0);
            diff_test(&f, &g, &input).unwrap();
        }
    }

    #[test]
    fn on_trace_executes_fewer_dynamic_ops() {
        let (f, a, sb) = chain();
        let mut g = f.clone();
        full_pipeline(&mut g, sb);
        // All fall through (no zeros): the transformed on-trace path must
        // fetch fewer operations.
        let input = Input::new()
            .memory_size(64)
            .with_memory(0, &[1, 2, 3, 4])
            .with_reg(a, 0);
        let base = run(&f, &input).unwrap();
        let opt = run(&g, &input).unwrap();
        assert!(
            opt.dynamic_ops < base.dynamic_ops,
            "irredundant: {} < {}",
            opt.dynamic_ops,
            base.dynamic_ops
        );
        assert!(opt.dynamic_branches < base.dynamic_branches);
    }

    #[test]
    fn pbrs_of_moved_branches_move_off_trace() {
        let (mut f, _a, sb) = chain();
        let r = full_pipeline(&mut f, sb);
        // On-trace keeps exactly one pbr (for the bypass).
        let on_pbrs = f.block(sb).ops.iter().filter(|o| o.opcode == Opcode::Pbr).count();
        assert_eq!(on_pbrs, 1, "\n{f}");
        let off_pbrs = f.block(r.comp).ops.iter().filter(|o| o.opcode == Opcode::Pbr).count();
        assert_eq!(off_pbrs, 3);
    }
}

//! Liveness analyses.
//!
//! Two flavors are provided:
//!
//! * [`GlobalLiveness`] — classic iterative backward dataflow over the CFG,
//!   computing may-live register and predicate sets per block. Used to seed
//!   region analyses with live-out information and by dead-code elimination.
//!   It is conservative with respect to predication: a guarded definition
//!   does not kill. It keeps the per-block summaries it was solved from, so
//!   one context serves a whole compile: a pass that edits some blocks
//!   [`repair`](GlobalLiveness::repair)s it instead of recomputing it.
//! * [`RegionLiveness`] — the predicate-aware *liveness expressions* of
//!   \[JS96\] that the paper's predicate speculation pass needs (§5.1): for
//!   every operation, the boolean condition (as a [`Bdd`] over the region's
//!   condition variables) under which each register is live just **below**
//!   the operation. Promoting an operation's guard from `p` to `true` is
//!   legal exactly when the promoted write cannot clobber a live value:
//!   `live_below(r) ∧ ¬p` must be unsatisfiable.
//!
//! # Exit liveness
//!
//! Every legality check of ICBM (speculation, DCE, off-trace motion) and
//! the schedule estimate ask one question: what is live where control
//! leaves a block? [`GlobalLiveness`] answers it once, with borrowed sets:
//!
//! * **at a `branch`** ([`at_exit`](GlobalLiveness::at_exit)): the live-in
//!   sets of its target;
//! * **at a `ret`** (also `at_exit`): the function's live-out registers,
//!   which the caller observes, and no predicate;
//! * **at a block's end** ([`at_block_end`](GlobalLiveness::at_block_end)):
//!   the live-in sets of the block's layout successor.
//!
//! The block-end answer is deliberately the layout successor's even after
//! an unconditional exit, where nothing is live. Predicate speculation and
//! the off-trace motion checks read it, and the tables depend on that
//! over-approximation: it only forbids promotions, but answering exactly
//! legalizes more of them and turns `cmp`'s Table 2 speedups into 1.00.
//! The exact block-end answer is
//! [`live_out_regs`](GlobalLiveness::live_out_regs)/`live_out_preds` —
//! the union over CFG successors, empty after an unconditional exit —
//! which DCE seeds from and ICBM's restructure checks. Unroll needs the
//! exact answer too, so it asks `at_block_end` only when the loop head can
//! fall through: the over-approximation would change which values it
//! renames.
//!
//! Internally the global analysis runs on dense [`BitSet`]s indexed by
//! register/predicate number and per-layout-position arrays, with each
//! block's position read from [`Function::position`] — the public
//! [`FxHashMap`]/[`FxHashSet`] result shape is materialized once at the
//! end. The pre-bitset implementation survives in
//! [`reference`](mod@reference) as the differential oracle (only its map
//! types follow the public result); the `liveness_matches_reference` tests
//! here and the workload-scale oracle tests in `epic-bench` compare the
//! two.

use std::hash::BuildHasherDefault;

use epic_ir::{Block, BlockId, Function, FxHashMap, FxHashSet, Op, Opcode, PredReg, Reg};

use crate::bdd::Bdd;
use crate::bitset::BitSet;
use crate::pred_facts::PredFacts;

/// Per-block may-live register and predicate sets, plus the per-block
/// summaries they were solved from.
///
/// [`compute`](GlobalLiveness::compute) does two very differently priced
/// things: the predicate-aware gen/kill summaries (BDD work proportional to
/// *every* op in the function) and the backward set fixpoint (cheap set
/// unions). A pass that edits a few blocks calls
/// [`repair`](GlobalLiveness::repair), which re-summarizes just those
/// blocks before re-solving the fixpoint. The result is always identical to
/// a from-scratch `compute`; the `incremental_liveness` property test in
/// `control-cpr` asserts this after every speculate, ICBM, DCE and unroll
/// step. Equality compares the solution only.
#[derive(Clone, Debug, Default)]
pub struct GlobalLiveness {
    /// Registers live on entry to each block.
    pub live_in_regs: FxHashMap<BlockId, FxHashSet<Reg>>,
    /// Registers live on exit from each block.
    pub live_out_regs: FxHashMap<BlockId, FxHashSet<Reg>>,
    /// Predicates live on entry to each block.
    pub live_in_preds: FxHashMap<BlockId, FxHashSet<PredReg>>,
    /// Predicates live on exit from each block.
    pub live_out_preds: FxHashMap<BlockId, FxHashSet<PredReg>>,
    /// The function's live-out registers: what every `ret` hands the caller.
    ret_regs: FxHashSet<Reg>,
    summaries: FxHashMap<BlockId, BlockSummary>,
}

/// One block's liveness summary, saved by
/// [`GlobalLiveness::save_summary`] before an edit that may be undone.
#[derive(Debug)]
pub struct SavedSummary {
    block: BlockId,
    summary: Option<BlockSummary>,
}

/// Registers and predicates live at one exit, borrowed from a
/// [`GlobalLiveness`].
pub type ExitSets<'a> = (&'a FxHashSet<Reg>, &'a FxHashSet<PredReg>);

/// What is live past an exit the solution knows no block for.
static NO_REGS: FxHashSet<Reg> = FxHashSet::with_hasher(BuildHasherDefault::new());
static NO_PREDS: FxHashSet<PredReg> = FxHashSet::with_hasher(BuildHasherDefault::new());

impl PartialEq for GlobalLiveness {
    fn eq(&self, o: &GlobalLiveness) -> bool {
        (&self.live_in_regs, &self.live_out_regs, &self.live_in_preds, &self.live_out_preds)
            == (&o.live_in_regs, &o.live_out_regs, &o.live_in_preds, &o.live_out_preds)
    }
}

impl Eq for GlobalLiveness {}

impl GlobalLiveness {
    /// Computes liveness for every block of `func` by iterating to a fixed
    /// point. Definitions kill only when unguarded (a guarded operation may
    /// be nullified, leaving the previous value live through it); `cmpp`
    /// unconditional destinations always write and therefore kill.
    pub fn compute(func: &Function) -> GlobalLiveness {
        let ret_regs: FxHashSet<Reg> = func.live_outs().iter().copied().collect();
        let summaries = func
            .blocks_in_layout()
            .map(|block| (block.id, BlockSummary::of(block, &ret_regs)))
            .collect();
        let mut live = GlobalLiveness { ret_regs, summaries, ..GlobalLiveness::default() };
        live.solve(func);
        live
    }

    /// Repairs the solution after the ops of `touched` blocks changed
    /// (blocks newly added to the layout are picked up whether listed or
    /// not, and summaries of blocks no longer in the layout are dropped).
    /// Only the touched/new blocks pay the expensive summary recomputation;
    /// the fixpoint is then re-solved from scratch, which is what keeps
    /// may-liveness exact in the presence of removed edges. The function's
    /// live-outs are re-read: [`at_ret`](GlobalLiveness::at_ret) and the
    /// re-summarized blocks' `ret`s see the current ones.
    pub fn repair(&mut self, func: &Function, touched: &[BlockId]) {
        self.ret_regs = func.live_outs().iter().copied().collect();
        self.summaries.retain(|&b, _| func.position(b).is_some());
        for b in touched {
            self.summaries.remove(b);
        }
        {
            let _s = epic_obs::Span::enter("liveness.summary", "analysis");
            for block in func.blocks_in_layout() {
                let summary = || BlockSummary::of(block, &self.ret_regs);
                self.summaries.entry(block.id).or_insert_with(summary);
            }
        }
        let _s = epic_obs::Span::enter("liveness.solve", "analysis");
        self.solve(func);
    }

    /// `block`'s current summary, to hand back to
    /// [`restore_summary`](GlobalLiveness::restore_summary) if an edit of
    /// the block is undone.
    pub fn save_summary(&self, block: BlockId) -> SavedSummary {
        SavedSummary { block, summary: self.summaries.get(&block).cloned() }
    }

    /// Repairs the solution after an edit was rolled back: the saved
    /// block's ops are again exactly those it had when
    /// [`save_summary`](GlobalLiveness::save_summary) ran, so its summary
    /// is put back instead of recomputed. Other blocks are handled as
    /// [`repair`](GlobalLiveness::repair) with nothing touched handles them
    /// (blocks that left the layout are dropped, new ones summarized), and
    /// the fixpoint is re-solved.
    pub fn restore_summary(&mut self, func: &Function, saved: SavedSummary) {
        match saved.summary {
            Some(summary) => self.summaries.insert(saved.block, summary),
            None => self.summaries.remove(&saved.block),
        };
        self.repair(func, &[]);
    }

    /// What is live where control leaves a block through `op`: at a
    /// `branch`, the live-in sets of its target; at a `ret`, the function's
    /// live-out registers and no predicate; past any other op, nothing.
    pub fn at_exit(&self, op: &Op) -> ExitSets<'_> {
        match op.opcode {
            Opcode::Ret => (self.at_ret(), &NO_PREDS),
            Opcode::Branch => op.branch_target().map_or((&NO_REGS, &NO_PREDS), |t| self.live_in(t)),
            _ => (&NO_REGS, &NO_PREDS),
        }
    }

    /// What is live at every `ret`: the function's live-out registers,
    /// which the caller observes.
    pub fn at_ret(&self) -> &FxHashSet<Reg> {
        &self.ret_regs
    }

    /// What is live when control runs off the end of `block`: the live-in
    /// sets of its layout successor, whether or not the block can fall
    /// through (see the module docs for who relies on that).
    pub fn at_block_end(&self, func: &Function, block: BlockId) -> ExitSets<'_> {
        func.fallthrough_of(block).map_or((&NO_REGS, &NO_PREDS), |ft| self.live_in(ft))
    }

    fn live_in(&self, b: BlockId) -> ExitSets<'_> {
        (
            self.live_in_regs.get(&b).unwrap_or(&NO_REGS),
            self.live_in_preds.get(&b).unwrap_or(&NO_PREDS),
        )
    }

    /// Whether both contexts hold the same per-block summaries. Equality
    /// compares only the solution, and a stale summary (say, the kill set
    /// of a pruned `cmpp` destination) may not move the solution until a
    /// later repair solves from it; the property tests check this too.
    #[doc(hidden)]
    pub fn same_summaries(&self, other: &GlobalLiveness) -> bool {
        self.summaries == other.summaries
    }

    /// The cheap half of liveness: the iterative backward fixpoint over the
    /// per-block summaries. Always solved from empty sets — a may-liveness
    /// restart from a stale solution is unsound because stale live bits can
    /// self-sustain around loop cycles.
    ///
    /// Runs entirely on per-layout-position [`BitSet`]s; the CFG shape
    /// (successor/fallthrough positions, exit routing) is resolved to dense
    /// indices once up front, through [`Function::position`], so each
    /// fixpoint pass is pure word-parallel set arithmetic.
    fn solve(&mut self, func: &Function) {
        let n = func.layout().len();

        struct BlockPlan<'a> {
            summary: &'a BlockSummary,
            succs: Vec<usize>,
            /// Fallthrough position, already gated on the block not ending with
            /// an unconditional exit.
            fallthrough: Option<usize>,
            /// `(target position, blocked regs, blocked preds)` per branch exit
            /// whose target is in the layout.
            exits: Vec<(usize, &'a BitSet, &'a BitSet)>,
        }

        let plans: Vec<BlockPlan> = func
            .layout()
            .iter()
            .map(|&b| {
                let summary = &self.summaries[&b];
                let succs = func
                    .successors(b)
                    .into_iter()
                    .filter_map(|s| func.position(s))
                    .collect();
                let fallthrough = if func.block(b).ends_with_unconditional_exit() {
                    None
                } else {
                    func.fallthrough_of(b).and_then(|ft| func.position(ft))
                };
                let exits = summary
                    .exits
                    .iter()
                    .filter_map(|e| {
                        func.position(e.target).map(|t| (t, &e.blocked_regs, &e.blocked_preds))
                    })
                    .collect();
                BlockPlan { summary, succs, fallthrough, exits }
            })
            .collect();

        let mut in_r = vec![BitSet::new(); n];
        let mut out_r = vec![BitSet::new(); n];
        let mut in_p = vec![BitSet::new(); n];
        let mut out_p = vec![BitSet::new(); n];
        let mut scratch = BitSet::new();

        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..n).rev() {
                let plan = &plans[bi];

                // out = ∪ live-in of successors.
                scratch.clear();
                for &s in &plan.succs {
                    scratch.union_with(&in_r[s]);
                }
                if scratch != out_r[bi] {
                    changed = true;
                    std::mem::swap(&mut out_r[bi], &mut scratch);
                }
                scratch.clear();
                for &s in &plan.succs {
                    scratch.union_with(&in_p[s]);
                }
                if scratch != out_p[bi] {
                    changed = true;
                    std::mem::swap(&mut out_p[bi], &mut scratch);
                }

                // Entry liveness is assembled per exit: each branch routes its
                // target's live-ins through that branch's own blocked sets, and
                // only the fallthrough edge is filtered by the whole-block kill
                // sets. Filtering everything through the block kills would
                // wrongly drop a value that a mid-block exit needs but a later
                // definition overwrites.
                scratch.clear();
                if let Some(ft) = plan.fallthrough {
                    scratch.union_with_difference(&in_r[ft], &plan.summary.kill_regs);
                }
                for &(t, blocked_regs, _) in &plan.exits {
                    scratch.union_with_difference(&in_r[t], blocked_regs);
                }
                scratch.union_with(&plan.summary.gen_regs);
                if scratch != in_r[bi] {
                    changed = true;
                    std::mem::swap(&mut in_r[bi], &mut scratch);
                }
                scratch.clear();
                if let Some(ft) = plan.fallthrough {
                    scratch.union_with_difference(&in_p[ft], &plan.summary.kill_preds);
                }
                for &(t, _, blocked_preds) in &plan.exits {
                    scratch.union_with_difference(&in_p[t], blocked_preds);
                }
                scratch.union_with(&plan.summary.gen_preds);
                if scratch != in_p[bi] {
                    changed = true;
                    std::mem::swap(&mut in_p[bi], &mut scratch);
                }
            }
        }

        let to_regs = |s: &BitSet| -> FxHashSet<Reg> { s.iter().map(Reg).collect() };
        let to_preds = |s: &BitSet| -> FxHashSet<PredReg> { s.iter().map(PredReg).collect() };
        let layout = || func.layout().iter().copied();
        self.live_in_regs = layout().zip(&in_r).map(|(b, s)| (b, to_regs(s))).collect();
        self.live_out_regs = layout().zip(&out_r).map(|(b, s)| (b, to_regs(s))).collect();
        self.live_in_preds = layout().zip(&in_p).map(|(b, s)| (b, to_preds(s))).collect();
        self.live_out_preds = layout().zip(&out_p).map(|(b, s)| (b, to_preds(s))).collect();
    }
}

/// Per-block gen (upward-exposed uses) and kill (definite defs) sets — the
/// expensive, predicate-aware half of [`GlobalLiveness::compute`]. A summary
/// depends only on the block's own ops, which is what makes incremental
/// repair sound: editing one block invalidates exactly that block's summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct BlockSummary {
    gen_regs: BitSet,
    kill_regs: BitSet,
    gen_preds: BitSet,
    kill_preds: BitSet,
    /// One entry per branch in the block, in program order. Mid-block exits
    /// must be modeled separately from the fallthrough: a value live at a
    /// branch target flows to block entry unless it is defined *before the
    /// branch*, so the whole-block kill sets (which include definitions
    /// after the branch) must not filter it.
    exits: Vec<ExitSummary>,
}

/// What a single branch exit blocks from flowing through to block entry:
/// everything whose accumulated definition condition at the branch covers
/// the branch's taken condition.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ExitSummary {
    target: BlockId,
    blocked_regs: BitSet,
    blocked_preds: BitSet,
}

/// A growable definition-condition table indexed by register number.
/// `None` means "never defined here" — distinct from a present-but-`false`
/// condition, which can block an exit whose taken condition is itself
/// unsatisfiable (matching the reference `HashMap` semantics exactly).
#[derive(Default)]
struct CondTable {
    conds: Vec<Option<Bdd>>,
}

impl CondTable {
    #[inline]
    fn get(&self, i: usize) -> Bdd {
        self.conds.get(i).copied().flatten().unwrap_or(Bdd::FALSE)
    }

    #[inline]
    fn set(&mut self, i: usize, d: Bdd) {
        if i >= self.conds.len() {
            self.conds.resize(i + 1, None);
        }
        self.conds[i] = Some(d);
    }

    fn entries(&self) -> impl Iterator<Item = (u32, Bdd)> + '_ {
        self.conds
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|d| (i as u32, d)))
    }
}

impl BlockSummary {
    /// Predicate-aware gen/kill in the style of [JS96]: a read is
    /// upward-exposed only if it can execute under conditions not covered by
    /// prior (possibly guarded) definitions, and a register is killed only
    /// when the accumulated definition condition is provably `true`. Without
    /// this, FRP-converted code (where *every* definition is guarded) would
    /// never kill anything and liveness would defeat predicate speculation.
    ///
    /// `ret_regs` is what is live at every `ret` — the set
    /// [`GlobalLiveness::at_ret`] returns, so the solver and every pass
    /// read one rule: the caller observes those registers, so they are
    /// upward-exposed at each return.
    fn of(block: &Block, ret_regs: &FxHashSet<Reg>) -> BlockSummary {
        if block.ops.iter().all(|o| o.guard.is_none()) {
            return BlockSummary::of_unpredicated(block, ret_regs);
        }
        let mut facts = crate::pred_facts::PredFacts::compute(&block.ops);
        let mut gr = BitSet::new();
        let mut kr = BitSet::new();
        let mut gp = BitSet::new();
        let mut kp = BitSet::new();
        let mut def_cond_r = CondTable::default();
        let mut def_cond_p = CondTable::default();
        let mut exits = Vec::new();
        for (i, op) in block.ops.iter().enumerate() {
            let g = facts.guard(i);
            if op.opcode == Opcode::Branch {
                if let Some(target) = op.branch_target() {
                    // A register reaches this exit's target unless its
                    // definition condition so far covers the branch's taken
                    // condition. (`g` may over-state takenness — it ignores
                    // earlier exits — which only shrinks the blocked sets:
                    // conservative for may-liveness.)
                    let mut blocked_regs = BitSet::new();
                    for (r, d) in def_cond_r.entries() {
                        if facts.manager().implies(g, d) {
                            blocked_regs.insert(r);
                        }
                    }
                    let mut blocked_preds = BitSet::new();
                    for (p, d) in def_cond_p.entries() {
                        if facts.manager().implies(g, d) {
                            blocked_preds.insert(p);
                        }
                    }
                    exits.push(ExitSummary { target, blocked_regs, blocked_preds });
                }
            }
            if op.opcode == Opcode::Ret {
                for &r in ret_regs {
                    let d = def_cond_r.get(r.index());
                    if !facts.manager().implies(g, d) {
                        gr.insert(r.0);
                    }
                }
            }
            for r in op.uses_regs() {
                let d = def_cond_r.get(r.index());
                if !facts.manager().implies(g, d) {
                    gr.insert(r.0);
                }
            }
            for p in op.uses_preds_with_guard() {
                let d = def_cond_p.get(p.index());
                if !facts.manager().implies(g, d) {
                    gp.insert(p.0);
                }
            }
            for r in op.defs_regs() {
                let d = def_cond_r.get(r.index());
                let nd = facts.manager().or(d, g);
                def_cond_r.set(r.index(), nd);
            }
            for dst in &op.dests {
                if let epic_ir::Dest::Pred(p, a) = dst {
                    // Unconditional cmpp destinations write regardless
                    // of the guard; other predicate writes are partial.
                    let cond = match (op.opcode, a.kind) {
                        (Opcode::Cmpp(_), epic_ir::PredActionKind::Uncond) => Bdd::TRUE,
                        (Opcode::PredInit, _) => g,
                        _ => Bdd::FALSE,
                    };
                    let d = def_cond_p.get(p.index());
                    let nd = facts.manager().or(d, cond);
                    def_cond_p.set(p.index(), nd);
                }
            }
        }
        for (r, d) in def_cond_r.entries() {
            if d.is_true() {
                kr.insert(r);
            }
        }
        for (p, d) in def_cond_p.entries() {
            if d.is_true() {
                kp.insert(p);
            }
        }
        BlockSummary { gen_regs: gr, kill_regs: kr, gen_preds: gp, kill_preds: kp, exits }
    }

    /// The guard-free special case of [`BlockSummary::of`], decided without
    /// building any [`PredFacts`]: with no guards every definition condition
    /// is a constant (`true` once defined, `false` otherwise), so the
    /// JS96-style condition algebra degenerates to classic bitset gen/kill.
    /// Baselines, off-trace stubs and most compensation-free blocks take
    /// this path; it must produce exactly what `of` would.
    fn of_unpredicated(block: &Block, ret_regs: &FxHashSet<Reg>) -> BlockSummary {
        let mut gr = BitSet::new();
        let mut gp = BitSet::new();
        let mut def_r = BitSet::new();
        let mut def_p = BitSet::new();
        let mut exits = Vec::new();
        for op in &block.ops {
            if op.opcode == Opcode::Branch {
                if let Some(target) = op.branch_target() {
                    // Blocked at this exit = defined before it (condition
                    // `true` trivially covers the taken condition `true`).
                    exits.push(ExitSummary {
                        target,
                        blocked_regs: def_r.clone(),
                        blocked_preds: def_p.clone(),
                    });
                }
            }
            if op.opcode == Opcode::Ret {
                for &r in ret_regs {
                    if !def_r.contains(r.0) {
                        gr.insert(r.0);
                    }
                }
            }
            for r in op.uses_regs() {
                if !def_r.contains(r.0) {
                    gr.insert(r.0);
                }
            }
            for p in op.uses_preds_with_guard() {
                if !def_p.contains(p.0) {
                    gp.insert(p.0);
                }
            }
            for r in op.defs_regs() {
                def_r.insert(r.0);
            }
            for dst in &op.dests {
                if let epic_ir::Dest::Pred(p, a) = dst {
                    // Mirrors `of`: unconditional cmpp destinations and
                    // (unguarded) pred_init definitely write; conditional
                    // cmpp actions may be nullified, so they never kill.
                    let definite = matches!(
                        (op.opcode, a.kind),
                        (Opcode::Cmpp(_), epic_ir::PredActionKind::Uncond)
                    ) || op.opcode == Opcode::PredInit;
                    if definite {
                        def_p.insert(p.0);
                    }
                }
            }
        }
        BlockSummary { gen_regs: gr, kill_regs: def_r, gen_preds: gp, kill_preds: def_p, exits }
    }
}

/// The pre-bitset `GlobalLiveness` implementation, kept verbatim as a
/// differential oracle for the dense solver above. Deliberately untouched
/// by performance work; only test code should call this.
#[doc(hidden)]
pub mod reference {
    use super::*;

    #[derive(Clone, Debug, Default)]
    struct BlockSummary {
        gen_regs: FxHashSet<Reg>,
        kill_regs: FxHashSet<Reg>,
        gen_preds: FxHashSet<PredReg>,
        kill_preds: FxHashSet<PredReg>,
        exits: Vec<ExitSummary>,
    }

    #[derive(Clone, Debug)]
    struct ExitSummary {
        target: BlockId,
        blocked_regs: FxHashSet<Reg>,
        blocked_preds: FxHashSet<PredReg>,
    }

    /// Reference semantics of [`GlobalLiveness::compute`].
    pub fn compute(func: &Function) -> GlobalLiveness {
        let summaries: FxHashMap<BlockId, BlockSummary> = func
            .blocks_in_layout()
            .map(|block| (block.id, summary_of(block, func.live_outs())))
            .collect();
        solve(func, &summaries)
    }

    fn summary_of(block: &Block, live_outs: &[Reg]) -> BlockSummary {
        let mut facts = crate::pred_facts::PredFacts::compute(&block.ops);
        let mut gr = FxHashSet::default();
        let mut kr = FxHashSet::default();
        let mut gp = FxHashSet::default();
        let mut kp = FxHashSet::default();
        let mut def_cond_r: FxHashMap<Reg, Bdd> = FxHashMap::default();
        let mut def_cond_p: FxHashMap<PredReg, Bdd> = FxHashMap::default();
        let mut exits = Vec::new();
        for (i, op) in block.ops.iter().enumerate() {
            let g = facts.guard(i);
            if op.opcode == Opcode::Branch {
                if let Some(target) = op.branch_target() {
                    let blocked_regs = def_cond_r
                        .iter()
                        .filter(|(_, d)| facts.manager().implies(g, **d))
                        .map(|(r, _)| *r)
                        .collect();
                    let blocked_preds = def_cond_p
                        .iter()
                        .filter(|(_, d)| facts.manager().implies(g, **d))
                        .map(|(p, _)| *p)
                        .collect();
                    exits.push(ExitSummary { target, blocked_regs, blocked_preds });
                }
            }
            if op.opcode == Opcode::Ret {
                for &r in live_outs {
                    let d = def_cond_r.get(&r).copied().unwrap_or(Bdd::FALSE);
                    if !facts.manager().implies(g, d) {
                        gr.insert(r);
                    }
                }
            }
            for r in op.uses_regs() {
                let d = def_cond_r.get(&r).copied().unwrap_or(Bdd::FALSE);
                if !facts.manager().implies(g, d) {
                    gr.insert(r);
                }
            }
            for p in op.uses_preds_with_guard() {
                let d = def_cond_p.get(&p).copied().unwrap_or(Bdd::FALSE);
                if !facts.manager().implies(g, d) {
                    gp.insert(p);
                }
            }
            for r in op.defs_regs() {
                let d = def_cond_r.get(&r).copied().unwrap_or(Bdd::FALSE);
                let nd = facts.manager().or(d, g);
                def_cond_r.insert(r, nd);
            }
            for dst in &op.dests {
                if let epic_ir::Dest::Pred(p, a) = dst {
                    let cond = match (op.opcode, a.kind) {
                        (Opcode::Cmpp(_), epic_ir::PredActionKind::Uncond) => Bdd::TRUE,
                        (Opcode::PredInit, _) => g,
                        _ => Bdd::FALSE,
                    };
                    let d = def_cond_p.get(p).copied().unwrap_or(Bdd::FALSE);
                    let nd = facts.manager().or(d, cond);
                    def_cond_p.insert(*p, nd);
                }
            }
        }
        for (r, d) in def_cond_r {
            if d.is_true() {
                kr.insert(r);
            }
        }
        for (p, d) in def_cond_p {
            if d.is_true() {
                kp.insert(p);
            }
        }
        BlockSummary { gen_regs: gr, kill_regs: kr, gen_preds: gp, kill_preds: kp, exits }
    }

    fn solve(func: &Function, summaries: &FxHashMap<BlockId, BlockSummary>) -> GlobalLiveness {
        let mut live_in_regs: FxHashMap<BlockId, FxHashSet<Reg>> = FxHashMap::default();
        let mut live_out_regs: FxHashMap<BlockId, FxHashSet<Reg>> = FxHashMap::default();
        let mut live_in_preds: FxHashMap<BlockId, FxHashSet<PredReg>> = FxHashMap::default();
        let mut live_out_preds: FxHashMap<BlockId, FxHashSet<PredReg>> = FxHashMap::default();
        for &b in func.layout() {
            live_in_regs.insert(b, FxHashSet::default());
            live_out_regs.insert(b, FxHashSet::default());
            live_in_preds.insert(b, FxHashSet::default());
            live_out_preds.insert(b, FxHashSet::default());
        }

        let mut changed = true;
        while changed {
            changed = false;
            for &b in func.layout().iter().rev() {
                let summary = &summaries[&b];
                let mut out_r: FxHashSet<Reg> = FxHashSet::default();
                let mut out_p: FxHashSet<PredReg> = FxHashSet::default();
                for s in func.successors(b) {
                    out_r.extend(live_in_regs[&s].iter().copied());
                    out_p.extend(live_in_preds[&s].iter().copied());
                }
                let mut in_r: FxHashSet<Reg> = FxHashSet::default();
                let mut in_p: FxHashSet<PredReg> = FxHashSet::default();
                if !func.block(b).ends_with_unconditional_exit() {
                    if let Some(ft) = func.fallthrough_of(b) {
                        in_r.extend(
                            live_in_regs[&ft].iter().filter(|r| !summary.kill_regs.contains(r)),
                        );
                        in_p.extend(
                            live_in_preds[&ft]
                                .iter()
                                .filter(|p| !summary.kill_preds.contains(p)),
                        );
                    }
                }
                for e in &summary.exits {
                    if let Some(t_r) = live_in_regs.get(&e.target) {
                        in_r.extend(t_r.iter().filter(|r| !e.blocked_regs.contains(r)));
                    }
                    if let Some(t_p) = live_in_preds.get(&e.target) {
                        in_p.extend(t_p.iter().filter(|p| !e.blocked_preds.contains(p)));
                    }
                }
                in_r.extend(summary.gen_regs.iter().copied());
                in_p.extend(summary.gen_preds.iter().copied());
                if in_r != live_in_regs[&b]
                    || out_r != live_out_regs[&b]
                    || in_p != live_in_preds[&b]
                    || out_p != live_out_preds[&b]
                {
                    changed = true;
                }
                live_in_regs.insert(b, in_r);
                live_out_regs.insert(b, out_r);
                live_in_preds.insert(b, in_p);
                live_out_preds.insert(b, out_p);
            }
        }

        GlobalLiveness {
            live_in_regs,
            live_out_regs,
            live_in_preds,
            live_out_preds,
            ret_regs: func.live_outs().iter().copied().collect(),
            ..GlobalLiveness::default()
        }
    }
}

/// Predicate-aware liveness expressions within one region.
pub struct RegionLiveness {
    /// `below[i]` maps each register to the condition under which it is live
    /// immediately below op `i` (absent = dead, i.e. `false`).
    below: Vec<FxHashMap<Reg, Bdd>>,
}

impl RegionLiveness {
    /// Computes liveness expressions for the ops of `block`, reading what
    /// is live at each exit from `live`: [`GlobalLiveness::at_exit`] at
    /// every `branch` and `ret`, [`GlobalLiveness::at_block_end`] below
    /// the last op.
    ///
    /// * `facts` — symbolic guards for the block's ops.
    pub fn compute(
        func: &Function,
        block: BlockId,
        facts: &mut PredFacts,
        live: &GlobalLiveness,
    ) -> RegionLiveness {
        let ops = &func.block(block).ops;
        let n = ops.len();
        let mut below: Vec<FxHashMap<Reg, Bdd>> = vec![FxHashMap::default(); n];
        // Live expression after the region: live at its end under all
        // conditions.
        let mut cur: FxHashMap<Reg, Bdd> =
            live.at_block_end(func, block).0.iter().map(|&r| (r, Bdd::TRUE)).collect();
        for i in (0..n).rev() {
            let op = &ops[i];
            // `cur` currently describes liveness below op i.
            below[i] = cur.clone();
            let g = facts.guard(i);
            // Exit: registers live where it leaves become live here under
            // the taken condition g.
            for &r in live.at_exit(op).0 {
                let old = cur.get(&r).copied().unwrap_or(Bdd::FALSE);
                let new = facts.manager().or(old, g);
                cur.insert(r, new);
            }
            // Defs kill under the guard condition.
            for r in op.defs_regs() {
                if let Some(old) = cur.get(&r).copied() {
                    let new = facts.manager().and_not(old, g);
                    if new.is_false() {
                        cur.remove(&r);
                    } else {
                        cur.insert(r, new);
                    }
                }
            }
            // Uses gen under the guard condition.
            for r in op.uses_regs() {
                let old = cur.get(&r).copied().unwrap_or(Bdd::FALSE);
                let new = facts.manager().or(old, g);
                cur.insert(r, new);
            }
        }
        RegionLiveness { below }
    }

    /// The condition under which `r` is live immediately below op `i`.
    pub fn live_below(&self, i: usize, r: Reg) -> Bdd {
        self.below[i].get(&r).copied().unwrap_or(Bdd::FALSE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::{CmpCond, FunctionBuilder, Operand};

    #[test]
    fn global_liveness_through_loop() {
        let mut b = FunctionBuilder::new("l");
        let head = b.block("head");
        let exit = b.block("exit");
        b.switch_to(head);
        let i = b.reg();
        let i2 = b.add(i.into(), Operand::Imm(1));
        b.mov_to(i, i2.into());
        let (t, _) = b.cmpp_un_uc(CmpCond::Lt, i.into(), Operand::Imm(10));
        b.branch_if(t, head);
        b.jump(exit);
        b.switch_to(exit);
        b.ret();
        let f = b.finish();
        let live = GlobalLiveness::compute(&f);
        // `i` is used before defined in head and live around the back edge.
        assert!(live.live_in_regs[&head].contains(&i));
        assert!(live.live_out_regs[&head].contains(&i));
        assert!(!live.live_in_regs[&exit].contains(&i));
        assert_eq!(live, reference::compute(&f));
    }

    #[test]
    fn guarded_def_does_not_kill() {
        let mut b = FunctionBuilder::new("g");
        let b0 = b.block("b0");
        let b1 = b.block("b1");
        b.switch_to(b0);
        let x = b.reg();
        let p = b.pred();
        b.set_guard(Some(p));
        b.mov_to(x, Operand::Imm(1)); // guarded def: may not execute
        b.set_guard(None);
        b.jump(b1);
        b.switch_to(b1);
        let a = b.movi(0);
        b.store(a, x.into()); // use of x
        b.ret();
        let f = b.finish();
        let live = GlobalLiveness::compute(&f);
        // x flows around the guarded def: live into b0.
        assert!(live.live_in_regs[&b0].contains(&x));
        assert_eq!(live, reference::compute(&f));
    }

    #[test]
    fn unguarded_def_kills() {
        let mut b = FunctionBuilder::new("k");
        let b0 = b.block("b0");
        let b1 = b.block("b1");
        b.switch_to(b0);
        let x = b.reg();
        b.mov_to(x, Operand::Imm(1));
        b.jump(b1);
        b.switch_to(b1);
        let a = b.movi(0);
        b.store(a, x.into());
        b.ret();
        let f = b.finish();
        let live = GlobalLiveness::compute(&f);
        assert!(!live.live_in_regs[&b0].contains(&x));
        assert!(live.live_out_regs[&b0].contains(&x));
        assert_eq!(live, reference::compute(&f));
    }

    #[test]
    fn live_outs_are_live_at_ret() {
        let mut b = FunctionBuilder::new("lo");
        let b0 = b.block("b0");
        let b1 = b.block("b1");
        b.switch_to(b0);
        let x = b.movi(5);
        b.jump(b1);
        b.switch_to(b1);
        b.ret();
        let mut f = b.finish();
        // Without designation, x is dead past its definition.
        let mut before = GlobalLiveness::compute(&f);
        assert!(!before.live_in_regs[&b1].contains(&x));
        // Designating x live-out makes it live through to the ret.
        f.mark_live_out(x);
        let live = GlobalLiveness::compute(&f);
        assert!(live.live_in_regs[&b1].contains(&x));
        assert!(live.live_out_regs[&b0].contains(&x));
        assert_eq!(live, reference::compute(&f));
        // Repairing the block whose `ret` now reads x agrees.
        before.repair(&f, &[b1]);
        assert_eq!(before, live);
    }

    #[test]
    fn region_liveness_promotion_oracle() {
        // r is defined under p and used under p. Promoting the def to true
        // is legal iff r is not live under ¬p below the def.
        let mut b = FunctionBuilder::new("r");
        let blk = b.block("b");
        b.switch_to(blk);
        let x = b.reg();
        let (p, _np) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
        let r = b.reg();
        b.set_guard(Some(p));
        b.mov_to(r, Operand::Imm(7)); // op 1: candidate for promotion
        let a = b.movi(0); // op 2 (guarded by p too)
        b.store(a, r.into()); // op 3
        b.set_guard(None);
        b.ret();
        let f = b.finish();
        let mut facts = PredFacts::compute(&f.block(blk).ops);
        let live = RegionLiveness::compute(&f, blk, &mut facts, &GlobalLiveness::compute(&f));
        // Below op 1 (the mov), r is live only under p (its only use is
        // guarded by p): live_below(1, r) ∧ ¬p == false → promotable.
        let lb = live.live_below(1, r);
        let g = facts.guard(1);
        let m = facts.manager();
        assert!(m.implies(lb, g), "r live only where the def executes");
    }

    #[test]
    fn region_liveness_sees_exit_uses() {
        // r is live at a branch target: below any op before the branch, r
        // must be live at least under the branch's taken condition.
        // `off` comes first in the layout, so nothing is live at `b`'s end.
        let mut b = FunctionBuilder::new("e");
        let off = b.block("off");
        let blk = b.block("b");
        b.switch_to(blk);
        let x = b.reg();
        let r = b.reg();
        let (t, _ft) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
        b.branch_if(t, off); // ops 1 (pbr), 2 (branch)
        b.ret();
        b.switch_to(off);
        let a = b.movi(0);
        b.store(a, r.into());
        b.ret();
        let f = b.finish();
        let ops = &f.block(blk).ops;
        let mut facts = PredFacts::compute(ops);
        let live = RegionLiveness::compute(&f, blk, &mut facts, &GlobalLiveness::compute(&f));
        // Below op 0 (the cmpp), r is live under the taken condition.
        let lb = live.live_below(0, r);
        assert!(!lb.is_false());
        // And r is dead below the branch itself.
        let branch_idx = ops.iter().position(|o| o.opcode == Opcode::Branch).unwrap();
        assert!(live.live_below(branch_idx, r).is_false());
    }

    #[test]
    fn exit_queries_answer_branch_ret_and_block_end() {
        // b0: branch to b2 if x == 0, else fall into b1, which returns y.
        // b2 stores z and jumps back to b1.
        let mut b = FunctionBuilder::new("x");
        let b0 = b.block("b0");
        let b1 = b.block("b1");
        let b2 = b.block("b2");
        b.switch_to(b0);
        let (x, y, z) = (b.reg(), b.reg(), b.reg());
        let (t, _) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
        b.branch_if(t, b2);
        b.switch_to(b1);
        b.ret();
        b.switch_to(b2);
        let a = b.movi(0);
        b.store(a, z.into());
        b.jump(b1);
        let mut f = b.finish();
        f.mark_live_out(y);
        let live = GlobalLiveness::compute(&f);
        let exit_of = |blk, opcode| f.block(blk).ops.iter().find(|o| o.opcode == opcode).unwrap();
        // At a branch: the target's live-in sets.
        let (regs, preds) = live.at_exit(exit_of(b0, Opcode::Branch));
        assert_eq!((regs, preds), (&live.live_in_regs[&b2], &live.live_in_preds[&b2]));
        assert!(regs.contains(&z) && regs.contains(&y));
        // At a `ret`: the function's live-outs, and no predicate.
        let (regs, preds) = live.at_exit(exit_of(b1, Opcode::Ret));
        assert_eq!(regs, &[y].into_iter().collect::<FxHashSet<Reg>>());
        assert!(preds.is_empty());
        // Past any other op: nothing.
        assert!(live.at_exit(&f.block(b2).ops[0]).0.is_empty());
        // At a block's end: the layout successor's live-in sets, even after
        // an unconditional exit (b1 ends with `ret`, b2 is next in layout);
        // the last block in the layout has none.
        assert_eq!(live.at_block_end(&f, b0).0, &live.live_in_regs[&b1]);
        assert_eq!(live.at_block_end(&f, b1).0, &live.live_in_regs[&b2]);
        assert!(live.live_out_regs[&b1].is_empty());
        assert!(live.at_block_end(&f, b2).0.is_empty());
    }
}

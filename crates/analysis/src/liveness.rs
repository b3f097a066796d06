//! Liveness analyses.
//!
//! Two flavors are provided:
//!
//! * [`GlobalLiveness`] — classic iterative backward dataflow over the CFG,
//!   computing may-live register and predicate sets per block. Used to seed
//!   region analyses with live-out information and by dead-code elimination.
//!   It is conservative with respect to predication: a guarded definition
//!   does not kill.
//! * [`RegionLiveness`] — the predicate-aware *liveness expressions* of
//!   \[JS96\] that the paper's predicate speculation pass needs (§5.1): for
//!   every operation, the boolean condition (as a [`Bdd`] over the region's
//!   condition variables) under which each register is live just **below**
//!   the operation. Promoting an operation's guard from `p` to `true` is
//!   legal exactly when the promoted write cannot clobber a live value:
//!   `live_below(r) ∧ ¬p` must be unsatisfiable.
//!
//! Internally the global analysis runs on dense [`BitSet`]s indexed by
//! register/predicate number and per-layout-position arrays — the public
//! `HashMap`/`HashSet` result shape is materialized once at the end. The
//! pre-bitset implementation survives verbatim in [`reference`](mod@reference) as the
//! differential oracle; the `liveness_matches_reference` tests here and the
//! workload-scale oracle tests in `epic-bench` compare the two.

use std::collections::{HashMap, HashSet};

use epic_ir::{Block, BlockId, Function, Op, Opcode, PredReg, Reg};

use crate::bdd::Bdd;
use crate::bitset::BitSet;
use crate::pred_facts::PredFacts;

/// Per-block may-live register and predicate sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalLiveness {
    /// Registers live on entry to each block.
    pub live_in_regs: HashMap<BlockId, HashSet<Reg>>,
    /// Registers live on exit from each block.
    pub live_out_regs: HashMap<BlockId, HashSet<Reg>>,
    /// Predicates live on entry to each block.
    pub live_in_preds: HashMap<BlockId, HashSet<PredReg>>,
    /// Predicates live on exit from each block.
    pub live_out_preds: HashMap<BlockId, HashSet<PredReg>>,
}

impl GlobalLiveness {
    /// Computes liveness for every block of `func` by iterating to a fixed
    /// point. Definitions kill only when unguarded (a guarded operation may
    /// be nullified, leaving the previous value live through it); `cmpp`
    /// unconditional destinations always write and therefore kill.
    pub fn compute(func: &Function) -> GlobalLiveness {
        let summaries: HashMap<BlockId, BlockSummary> = func
            .blocks_in_layout()
            .map(|block| (block.id, BlockSummary::of(block, func.live_outs())))
            .collect();
        solve(func, &summaries)
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
    /// `live_outs` are the function's designated live-out registers: every
    /// `ret` reads them (the caller observes their values), so they are
    /// upward-exposed at each return.
    fn of(block: &Block, live_outs: &[Reg]) -> BlockSummary {
        if block.ops.iter().all(|o| o.guard.is_none()) {
            return BlockSummary::of_unpredicated(block, live_outs);
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
                for &r in live_outs {
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
    fn of_unpredicated(block: &Block, live_outs: &[Reg]) -> BlockSummary {
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
                for &r in live_outs {
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

/// The cheap half of liveness: the iterative backward fixpoint over
/// precomputed per-block summaries. Always solved from empty sets — a
/// may-liveness restart from a stale solution is unsound because stale live
/// bits can self-sustain around loop cycles.
///
/// Runs entirely on per-layout-position [`BitSet`]s; the CFG shape
/// (successor/fallthrough positions, exit routing) is resolved to dense
/// indices once up front so each fixpoint pass is pure word-parallel set
/// arithmetic.
fn solve(func: &Function, summaries: &HashMap<BlockId, BlockSummary>) -> GlobalLiveness {
    let n = func.layout.len();
    let pos_of: HashMap<BlockId, usize> =
        func.layout.iter().enumerate().map(|(i, &b)| (b, i)).collect();

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
        .layout
        .iter()
        .map(|&b| {
            let summary = &summaries[&b];
            let succs = func
                .successors(b)
                .into_iter()
                .filter_map(|s| pos_of.get(&s).copied())
                .collect();
            let fallthrough = if func.block(b).ends_with_unconditional_exit() {
                None
            } else {
                func.fallthrough_of(b).and_then(|ft| pos_of.get(&ft).copied())
            };
            let exits = summary
                .exits
                .iter()
                .filter_map(|e| {
                    pos_of
                        .get(&e.target)
                        .map(|&t| (t, &e.blocked_regs, &e.blocked_preds))
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

    let to_regs = |s: &BitSet| -> HashSet<Reg> { s.iter().map(Reg).collect() };
    let to_preds = |s: &BitSet| -> HashSet<PredReg> { s.iter().map(PredReg).collect() };
    GlobalLiveness {
        live_in_regs: func.layout.iter().enumerate().map(|(i, &b)| (b, to_regs(&in_r[i]))).collect(),
        live_out_regs: func
            .layout
            .iter()
            .enumerate()
            .map(|(i, &b)| (b, to_regs(&out_r[i])))
            .collect(),
        live_in_preds: func
            .layout
            .iter()
            .enumerate()
            .map(|(i, &b)| (b, to_preds(&in_p[i])))
            .collect(),
        live_out_preds: func
            .layout
            .iter()
            .enumerate()
            .map(|(i, &b)| (b, to_preds(&out_p[i])))
            .collect(),
    }
}

/// A liveness cache that survives CFG edits.
///
/// [`GlobalLiveness::compute`] does two very differently priced things: the
/// predicate-aware gen/kill summaries (BDD work proportional to *every* op
/// in the function) and the backward set fixpoint (cheap set unions). The
/// ICBM driver edits only one or two blocks per CPR restructuring, so this
/// cache keeps the summaries and, on [`repair`](IncrementalLiveness::repair),
/// recomputes them for just the touched blocks before re-solving the cheap
/// fixpoint. The result is always identical to a from-scratch `compute` —
/// the `incremental_liveness` property test in `control-cpr` asserts this
/// after every ICBM mutation.
#[derive(Clone, Debug)]
pub struct IncrementalLiveness {
    summaries: HashMap<BlockId, BlockSummary>,
    /// The exact ops each cached summary was computed from. A "touched"
    /// block whose ops compare equal to its snapshot (the ICBM driver's
    /// rollback path restores the pre-restructure ops verbatim) keeps its
    /// summary instead of paying the BDD-heavy recomputation.
    ops_snapshot: HashMap<BlockId, Vec<Op>>,
    live: GlobalLiveness,
}

impl IncrementalLiveness {
    /// Computes liveness from scratch and caches the per-block summaries.
    pub fn new(func: &Function) -> IncrementalLiveness {
        let summaries: HashMap<BlockId, BlockSummary> = func
            .blocks_in_layout()
            .map(|block| (block.id, BlockSummary::of(block, func.live_outs())))
            .collect();
        let ops_snapshot = func
            .blocks_in_layout()
            .map(|block| (block.id, block.ops.clone()))
            .collect();
        let live = solve(func, &summaries);
        IncrementalLiveness { summaries, ops_snapshot, live }
    }

    /// The current (always up-to-date) liveness solution.
    pub fn live(&self) -> &GlobalLiveness {
        &self.live
    }

    /// Repairs the cache after the ops of `touched` blocks changed (blocks
    /// newly added to the layout are picked up whether listed or not, and
    /// summaries of blocks no longer in the layout are dropped). Only the
    /// touched/new blocks pay the expensive summary recomputation; the
    /// fixpoint is then re-solved from scratch, which is what keeps
    /// may-liveness exact in the presence of removed edges.
    pub fn repair(&mut self, func: &Function, touched: &[BlockId]) {
        let in_layout: HashSet<BlockId> = func.layout.iter().copied().collect();
        self.summaries.retain(|b, _| in_layout.contains(b));
        self.ops_snapshot.retain(|b, _| in_layout.contains(b));
        {
            let _s = epic_obs::Span::enter("liveness.summary", "analysis");
            for &b in touched {
                if in_layout.contains(&b) {
                    let block = func.block(b);
                    if self.ops_snapshot.get(&b).is_some_and(|ops| *ops == block.ops) {
                        continue;
                    }
                    self.summaries.insert(b, BlockSummary::of(block, func.live_outs()));
                    self.ops_snapshot.insert(b, block.ops.clone());
                }
            }
            for block in func.blocks_in_layout() {
                if let std::collections::hash_map::Entry::Vacant(e) =
                    self.summaries.entry(block.id)
                {
                    e.insert(BlockSummary::of(block, func.live_outs()));
                    self.ops_snapshot.insert(block.id, block.ops.clone());
                }
            }
        }
        let _s = epic_obs::Span::enter("liveness.solve", "analysis");
        self.live = solve(func, &self.summaries);
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
        gen_regs: HashSet<Reg>,
        kill_regs: HashSet<Reg>,
        gen_preds: HashSet<PredReg>,
        kill_preds: HashSet<PredReg>,
        exits: Vec<ExitSummary>,
    }

    #[derive(Clone, Debug)]
    struct ExitSummary {
        target: BlockId,
        blocked_regs: HashSet<Reg>,
        blocked_preds: HashSet<PredReg>,
    }

    /// Reference semantics of [`GlobalLiveness::compute`].
    pub fn compute(func: &Function) -> GlobalLiveness {
        let summaries: HashMap<BlockId, BlockSummary> = func
            .blocks_in_layout()
            .map(|block| (block.id, summary_of(block, func.live_outs())))
            .collect();
        solve(func, &summaries)
    }

    fn summary_of(block: &Block, live_outs: &[Reg]) -> BlockSummary {
        let mut facts = crate::pred_facts::PredFacts::compute(&block.ops);
        let mut gr = HashSet::new();
        let mut kr = HashSet::new();
        let mut gp = HashSet::new();
        let mut kp = HashSet::new();
        let mut def_cond_r: HashMap<Reg, Bdd> = HashMap::new();
        let mut def_cond_p: HashMap<PredReg, Bdd> = HashMap::new();
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

    fn solve(func: &Function, summaries: &HashMap<BlockId, BlockSummary>) -> GlobalLiveness {
        let mut live_in_regs: HashMap<BlockId, HashSet<Reg>> = HashMap::new();
        let mut live_out_regs: HashMap<BlockId, HashSet<Reg>> = HashMap::new();
        let mut live_in_preds: HashMap<BlockId, HashSet<PredReg>> = HashMap::new();
        let mut live_out_preds: HashMap<BlockId, HashSet<PredReg>> = HashMap::new();
        for &b in &func.layout {
            live_in_regs.insert(b, HashSet::new());
            live_out_regs.insert(b, HashSet::new());
            live_in_preds.insert(b, HashSet::new());
            live_out_preds.insert(b, HashSet::new());
        }

        let mut changed = true;
        while changed {
            changed = false;
            for &b in func.layout.iter().rev() {
                let summary = &summaries[&b];
                let mut out_r: HashSet<Reg> = HashSet::new();
                let mut out_p: HashSet<PredReg> = HashSet::new();
                for s in func.successors(b) {
                    out_r.extend(live_in_regs[&s].iter().copied());
                    out_p.extend(live_in_preds[&s].iter().copied());
                }
                let mut in_r: HashSet<Reg> = HashSet::new();
                let mut in_p: HashSet<PredReg> = HashSet::new();
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

        GlobalLiveness { live_in_regs, live_out_regs, live_in_preds, live_out_preds }
    }
}

/// Predicate-aware liveness expressions within one region.
pub struct RegionLiveness {
    /// `below[i]` maps each register to the condition under which it is live
    /// immediately below op `i` (absent = dead, i.e. `false`).
    below: Vec<HashMap<Reg, Bdd>>,
}

impl RegionLiveness {
    /// Computes liveness expressions for the ops of one region.
    ///
    /// * `facts` — symbolic guards for the same op slice.
    /// * `live_at_exit(i)` — registers live when the branch at index `i`
    ///   takes (live-in of its target block).
    /// * `live_at_end` — registers live when the region falls through.
    pub fn compute(
        ops: &[Op],
        facts: &mut PredFacts,
        live_at_exit: &dyn Fn(usize) -> HashSet<Reg>,
        live_at_end: &HashSet<Reg>,
    ) -> RegionLiveness {
        let n = ops.len();
        let mut below: Vec<HashMap<Reg, Bdd>> = vec![HashMap::new(); n];
        // Live expression after the region: live_at_end under all conditions.
        let mut cur: HashMap<Reg, Bdd> = live_at_end
            .iter()
            .map(|&r| (r, Bdd::TRUE))
            .collect();
        for i in (0..n).rev() {
            let op = &ops[i];
            // `cur` currently describes liveness below op i.
            below[i] = cur.clone();
            let g = facts.guard(i);
            // Branch: registers live at its target become live here under
            // the taken condition g.
            if op.opcode == Opcode::Branch || op.opcode == Opcode::Ret {
                for r in live_at_exit(i) {
                    let old = cur.get(&r).copied().unwrap_or(Bdd::FALSE);
                    let new = facts.manager().or(old, g);
                    cur.insert(r, new);
                }
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
        let live = GlobalLiveness::compute(&f);
        assert!(!live.live_in_regs[&b1].contains(&x));
        // Designating x live-out makes it live through to the ret.
        f.mark_live_out(x);
        let live = GlobalLiveness::compute(&f);
        assert!(live.live_in_regs[&b1].contains(&x));
        assert!(live.live_out_regs[&b0].contains(&x));
        assert_eq!(live, reference::compute(&f));
        // Incremental liveness agrees.
        let inc = IncrementalLiveness::new(&f);
        assert_eq!(inc.live(), &live);
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
        let ops = &f.block(blk).ops;
        let mut facts = PredFacts::compute(ops);
        let live = RegionLiveness::compute(
            ops,
            &mut facts,
            &|_| HashSet::new(),
            &HashSet::new(),
        );
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
        let mut b = FunctionBuilder::new("e");
        let blk = b.block("b");
        let off = b.block("off");
        b.switch_to(off);
        b.ret();
        b.switch_to(blk);
        let x = b.reg();
        let r = b.reg();
        let (t, _ft) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
        b.branch_if(t, off); // ops 1 (pbr), 2 (branch)
        b.ret();
        let f = b.finish();
        let ops = &f.block(blk).ops;
        let mut facts = PredFacts::compute(ops);
        let mut at_exit = HashSet::new();
        at_exit.insert(r);
        let live = RegionLiveness::compute(
            ops,
            &mut facts,
            &|i| if ops[i].opcode == Opcode::Branch { at_exit.clone() } else { HashSet::new() },
            &HashSet::new(),
        );
        // Below op 0 (the cmpp), r is live under the taken condition.
        let lb = live.live_below(0, r);
        assert!(!lb.is_false());
        // And r is dead below the branch itself.
        let branch_idx = ops.iter().position(|o| o.opcode == Opcode::Branch).unwrap();
        assert!(live.live_below(branch_idx, r).is_false());
    }
}

//! The ICBM *match* phase (paper §5.2, Figure 5).
//!
//! Partitions the branch chain of a hyperblock into *CPR blocks*: maximal
//! runs of consecutive branches that can be correctly and profitably
//! collapsed into one bypass branch. Four tests gate growth:
//!
//! * **Suitability** — guarantees that the schema's simplified off-trace
//!   FRP, `root ∧ (bc₁ ∨ … ∨ bcₙ)`, is true exactly when one of the block's
//!   branches takes. Implemented with the *suitable predicate set* (SP)
//!   induction from the paper, over unique reaching `cmpp` definitions.
//! * **Separability** — the compares that will move off-trace must have no
//!   dependence path to a lookahead compare that stays on-trace. Implemented
//!   over the region dependence graph, ignoring the chain-guard edges that
//!   the paper's `append-successors` ignores.
//! * **Exit-weight** — stop growing when the cumulative probability of
//!   leaving through the block exceeds a threshold.
//! * **Predict-taken** — a candidate branch that is predominantly taken
//!   joins the block as its final branch and flags the *taken variation*.

use epic_analysis::{DepGraph, DepKind, PredDef, PredReaching};
use epic_ir::{BlockId, Function, FxHashSet, Op, OpId, Opcode, PredActionKind, PredReg, Profile};

use crate::config::CprConfig;

/// The hyperblocks of `func` that CPR considers, in layout order: at least
/// two conditional branches and an entry count of at least
/// `cfg.min_entry_count`.
pub(crate) fn hot_hyperblocks(func: &Function, profile: &Profile, cfg: &CprConfig) -> Vec<BlockId> {
    let conditional_branches =
        |b| func.block(b).ops.iter().filter(|o| o.opcode == Opcode::Branch && o.guard.is_some());
    func.layout()
        .iter()
        .copied()
        .filter(|&b| {
            conditional_branches(b).count() >= 2 && profile.entry_count(b) >= cfg.min_entry_count
        })
        .collect()
}

/// One CPR block: a run of consecutive branches of a hyperblock, identified
/// by stable operation ids (positions shift as earlier blocks restructure).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CprBlock {
    /// The branches, in program order.
    pub branches: Vec<OpId>,
    /// The controlling compare of each branch (same length as `branches`).
    pub compares: Vec<OpId>,
    /// True when the final branch is predominantly taken and the block uses
    /// the taken variation of restructure.
    pub taken_variation: bool,
}

impl CprBlock {
    /// True for blocks the restructure phase will actually transform.
    /// Unit-length fall-through blocks are left unchanged (paper Figure 3).
    pub fn is_nontrivial(&self) -> bool {
        self.branches.len() >= 2
    }
}

/// A predicate *value*: register name plus defining op index (`None` =
/// defined outside the region / the constant `T`). Keying the suitable
/// predicate set by definition site keeps the induction sound when unrolled
/// code reuses predicate register names across iterations.
type PredKey = (Option<PredReg>, Option<usize>);

/// Per-branch info gathered before matching.
struct BranchInfo {
    /// Op index of the branch.
    pos: usize,
    /// Op index of its controlling compare (unique reaching def with an
    /// unconditional action), when suitable.
    cmpp: Option<usize>,
    /// The compare's guard as a (name, def-site) value; `(None, None)` = `T`.
    cmpp_guard: Option<PredKey>,
    /// The compare's UC complementary output, if present.
    fallthrough_pred: Option<PredReg>,
}

/// Runs the match phase over the ops of one hyperblock.
///
/// `ops` must be the current operations of the block; `profile` supplies
/// branch frequencies (ids must refer to these ops). Returns the CPR blocks
/// covering every conditional branch of the chain, in program order.
#[allow(clippy::disallowed_types)] // `mem_classes` is the IR's own table, borrowed
pub fn match_cpr_blocks(
    ops: &[Op],
    profile: &Profile,
    cfg: &CprConfig,
    mem_classes: &std::collections::HashMap<OpId, u32>,
) -> Vec<CprBlock> {
    // The candidate chain: conditional branches, in order. An unconditional
    // branch ends the chain (nothing beyond it executes on trace).
    let mut chain: Vec<usize> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if op.opcode == Opcode::Branch {
            if op.guard.is_none() {
                break;
            }
            chain.push(i);
        }
    }
    if chain.is_empty() {
        return Vec::new();
    }

    let reaching = PredReaching::compute(ops);
    let mut facts = epic_analysis::PredFacts::compute(ops);
    let dep_opts = epic_analysis::DepOptions {
        mem_classes: Some(mem_classes),
        ..epic_analysis::DepOptions::default()
    };
    // The separability closure follows flow/memory edges only; skip the
    // control half of the graph.
    let graph = DepGraph::build_data(ops, &mut facts, &dep_opts);

    let infos: Vec<BranchInfo> = chain
        .iter()
        .map(|&pos| branch_info(ops, &reaching, pos))
        .collect();

    let mut result: Vec<CprBlock> = Vec::new();
    let mut next = 0usize;
    while next < infos.len() {
        let seed = &infos[next];
        let mut block = CprBlock {
            branches: vec![ops[seed.pos].id],
            compares: Vec::new(),
            taken_variation: false,
        };
        // --- suitability init ---
        let mut sp: FxHashSet<PredKey> = FxHashSet::default();
        let mut suitable = false;
        if let (Some(cmpp), Some(guard)) = (seed.cmpp, seed.cmpp_guard) {
            suitable = true;
            block.compares.push(ops[cmpp].id);
            sp.insert(guard); // the root predicate
            if let Some(ft) = seed.fallthrough_pred {
                sp.insert((Some(ft), Some(cmpp)));
            }
        }
        // --- separability init ---
        let mut succ: FxHashSet<usize> = FxHashSet::default();
        if let Some(cmpp) = seed.cmpp {
            append_successors(ops, &graph, cmpp, &mut succ);
        }
        // Entry frequency of the CPR block: how often its seed branch was
        // reached.
        let entry = profile.executed_count(ops[seed.pos].id).max(1) as f64;
        let mut cum_exit = profile.taken_count(ops[seed.pos].id) as f64;

        let mut cur = next;
        while suitable && block.branches.len() < cfg.max_branches {
            let cand_idx = cur + 1;
            if cand_idx >= infos.len() {
                break;
            }
            let cand = &infos[cand_idx];
            // Suitability growth step.
            let (Some(c_cmpp), Some(c_guard)) = (cand.cmpp, cand.cmpp_guard) else { break };
            if !sp.contains(&c_guard) {
                break;
            }
            // Separability: the candidate's compare must not depend on any
            // compare already in the block.
            if succ.contains(&c_cmpp) {
                break;
            }
            // Predict-taken heuristic.
            let taken = profile.taken_count(ops[cand.pos].id) as f64;
            let mut is_taken_block = false;
            if cfg.enable_taken_variation && taken / entry >= cfg.predict_taken_threshold {
                is_taken_block = true;
            }
            // Exit-weight heuristic (skipped for a predicted-taken final).
            if !is_taken_block
                && (cum_exit + taken) / entry > cfg.exit_weight_threshold
            {
                break;
            }
            // Append the candidate.
            block.branches.push(ops[cand.pos].id);
            block.compares.push(ops[c_cmpp].id);
            if let Some(ft) = cand.fallthrough_pred {
                sp.insert((Some(ft), Some(c_cmpp)));
            }
            append_successors(ops, &graph, c_cmpp, &mut succ);
            cum_exit += taken;
            cur = cand_idx;
            if is_taken_block {
                block.taken_variation = true;
                break;
            }
        }
        if !suitable {
            block.compares.clear();
        }
        next = cur + 1;
        result.push(block);
    }
    result
}

fn branch_info(ops: &[Op], reaching: &PredReaching, pos: usize) -> BranchInfo {
    let mut info =
        BranchInfo { pos, cmpp: None, cmpp_guard: None, fallthrough_pred: None };
    let guard = ops[pos].guard.expect("conditional branch");
    let def = match reaching.guard_def(pos) {
        Some(PredDef::Op(j)) => j,
        _ => return info,
    };
    let cmpp = &ops[def];
    if !cmpp.is_cmpp() {
        return info;
    }
    // The compare's guard as a value: name plus its own reaching def site.
    let guard_key: PredKey = match cmpp.guard {
        None => (None, None),
        Some(g) => match reaching.guard_def(def) {
            Some(PredDef::Op(j)) => (Some(g), Some(j)),
            Some(PredDef::Entry) => (Some(g), None),
            _ => return info, // ambiguous guard definition: unsuitable
        },
    };
    // The branch guard must be computed with an unconditional action.
    let mut taken_uncond = false;
    let mut ft = None;
    for d in &cmpp.dests {
        if let epic_ir::Dest::Pred(p, a) = *d {
            if p == guard && a.kind == PredActionKind::Uncond {
                taken_uncond = true;
            } else if p != guard && a.kind == PredActionKind::Uncond {
                ft = Some(p);
            }
        }
    }
    if !taken_uncond {
        return info;
    }
    info.cmpp = Some(def);
    info.cmpp_guard = Some(guard_key);
    info.fallthrough_pred = ft;
    info
}

/// Accumulates the dependence successors of compare `cmpp` into `succ`,
/// ignoring the chain-guard edges: a flow edge from the compare to another
/// compare whose only dependence is using the fall-through predicate as its
/// guard (those guards are replaced by the root predicate in the lookahead
/// compares, so they impose no on-trace ordering).
fn append_successors(ops: &[Op], graph: &DepGraph, cmpp: usize, succ: &mut FxHashSet<usize>) {
    let mut work = vec![cmpp];
    let mut seen: FxHashSet<usize> = FxHashSet::default();
    while let Some(i) = work.pop() {
        for e in graph.succs(i) {
            if !matches!(e.kind, DepKind::Flow | DepKind::Mem) {
                continue;
            }
            let to = e.to;
            if seen.contains(&to) {
                continue;
            }
            // Chain-guard exemption, only for direct successors of the seed
            // compare: a cmpp whose *guard* is one of our outputs but which
            // has no data use of them.
            if i == cmpp && ops[to].is_cmpp() {
                let our_preds: FxHashSet<PredReg> = ops[cmpp].defs_preds().collect();
                let guard_only = ops[to]
                    .guard
                    .map(|g| our_preds.contains(&g))
                    .unwrap_or(false)
                    && !ops[to].uses_preds().any(|p| our_preds.contains(&p))
                    && !ops[to].uses_regs().any(|_| false);
                if guard_only {
                    continue;
                }
            }
            seen.insert(to);
            succ.insert(to);
            work.push(to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::{BlockId, CmpCond, FunctionBuilder, Function, Operand};
    use epic_interp::{run, Input};

    /// FRP-converted 4-branch chain with a biased profile; the final branch
    /// is a likely-taken back edge.
    fn loopish(fallthrough_bias: bool) -> (Function, epic_ir::Reg, BlockId) {
        let mut fb = FunctionBuilder::new("loopish");
        let sb = fb.block("sb");
        let exit = fb.block("exit");
        fb.switch_to(exit);
        fb.ret();
        fb.switch_to(sb);
        let a = fb.reg();
        let mut guard = None;
        for k in 0..3 {
            fb.set_guard(guard);
            let addr = fb.add(a.into(), Operand::Imm(k));
            let v = fb.load(addr);
            let (t, f_) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
            fb.branch_if(t, exit);
            guard = Some(f_);
        }
        fb.set_guard(guard);
        let a2 = fb.add(a.into(), Operand::Imm(3));
        fb.mov_to(a, a2.into());
        let v = fb.load(a);
        let (cont, _stop) = fb.cmpp_un_uc(CmpCond::Ne, v.into(), Operand::Imm(0));
        fb.branch_if(cont, sb);
        fb.set_guard(None);
        fb.ret();
        let f = fb.finish();
        // Make the loads unguarded so separability passes (predicate
        // speculation would do this; tests drive match directly).
        let mut f = f;
        for op in &mut f.block_mut(sb).ops {
            if matches!(op.opcode, Opcode::Load | Opcode::Add | Opcode::Mov | Opcode::Pbr) {
                op.guard = None;
            }
        }
        let _ = fallthrough_bias;
        (f, a, sb)
    }

    fn profiled(f: &Function, a: epic_ir::Reg) -> Profile {
        // A long run of non-zero words ending in 0: exits rare, back edge
        // hot.
        let mut image = vec![5i64; 120];
        image.push(0);
        let input = Input::new().memory_size(256).with_memory(0, &image).with_reg(a, 0);
        run(f, &input).unwrap().profile
    }

    #[test]
    fn forms_taken_variation_block_for_back_edge() {
        let (f, a, sb) = loopish(true);
        let profile = profiled(&f, a);
        let cfg = CprConfig { min_entry_count: 1, ..CprConfig::default() };
        let blocks = match_cpr_blocks(&f.block(sb).ops, &profile, &cfg, f.mem_classes());
        // All four branches covered.
        let total: usize = blocks.iter().map(|b| b.branches.len()).sum();
        assert_eq!(total, 4);
        // The last block ends with the likely-taken back edge.
        let last = blocks.last().unwrap();
        assert!(last.taken_variation, "{blocks:?}");
    }

    #[test]
    fn exit_weight_truncates_blocks() {
        let (f, a, sb) = loopish(true);
        let profile = profiled(&f, a);
        // Negative threshold: every block stops at one branch.
        let cfg = CprConfig {
            exit_weight_threshold: -1.0,
            predict_taken_threshold: 2.0, // never
            enable_taken_variation: false,
            ..CprConfig::default()
        };
        let blocks = match_cpr_blocks(&f.block(sb).ops, &profile, &cfg, f.mem_classes());
        assert!(blocks.iter().all(|b| b.branches.len() == 1), "{blocks:?}");
    }

    #[test]
    fn uniform_config_groups_everything() {
        let (f, a, sb) = loopish(true);
        let profile = profiled(&f, a);
        let cfg = CprConfig { enable_taken_variation: false, ..CprConfig::uniform() };
        let blocks = match_cpr_blocks(&f.block(sb).ops, &profile, &cfg, f.mem_classes());
        assert_eq!(blocks.len(), 1, "{blocks:?}");
        assert_eq!(blocks[0].branches.len(), 4);
    }

    #[test]
    fn separability_violation_splits_blocks() {
        // Branch 2's compare reads a value loaded from an address that
        // *depends on the first compare's output* — a dependence from a
        // to-be-moved compare to a lookahead compare. Growth must stop.
        let mut fb = FunctionBuilder::new("sep");
        let sb = fb.block("sb");
        let exit = fb.block("exit");
        fb.switch_to(exit);
        fb.ret();
        fb.switch_to(sb);
        let a = fb.reg();
        let v1 = fb.load(a);
        let (t1, f1) = fb.cmpp_un_uc(CmpCond::Eq, v1.into(), Operand::Imm(0));
        fb.branch_if(t1, exit);
        // f1 used as *data* to compute the next address: a real dependence
        // on the first compare that append-successors must not ignore.
        let addr = fb.add(a.into(), Operand::Pred(f1));
        let v2 = fb.load(addr);
        let (t2, _f2) = fb.cmpp_un_uc(CmpCond::Eq, v2.into(), Operand::Imm(0));
        fb.set_guard(Some(f1));
        fb.branch_if(t2, exit);
        fb.set_guard(None);
        fb.ret();
        let mut f = fb.finish();
        // cmpp2 must be guarded by f1 for suitability; keep it that way but
        // note its *sources* depend on cmpp1 = separability failure.
        let cmpp2_pos = f
            .block(sb)
            .ops
            .iter()
            .position(|o| o.is_cmpp() && o.uses_regs().any(|r| r == v2))
            .unwrap();
        f.block_mut(sb).ops[cmpp2_pos].guard = Some(f1);
        let profile = Profile::new();
        let cfg = CprConfig { enable_taken_variation: false, ..CprConfig::uniform() };
        let blocks = match_cpr_blocks(&f.block(sb).ops, &profile, &cfg, f.mem_classes());
        assert_eq!(blocks.len(), 2, "separability must split: {blocks:?}");
    }

    #[test]
    fn entry_guard_is_unsuitable_seed() {
        // A branch guarded by a predicate defined outside the block forms a
        // trivial (untransformable) CPR block.
        let mut fb = FunctionBuilder::new("entry");
        let sb = fb.block("sb");
        let exit = fb.block("exit");
        fb.switch_to(exit);
        fb.ret();
        fb.switch_to(sb);
        let p = fb.pred();
        fb.branch_if(p, exit);
        fb.ret();
        let f = fb.finish();
        let blocks = match_cpr_blocks(&f.block(sb).ops, &Profile::new(), &CprConfig::uniform(), f.mem_classes());
        assert_eq!(blocks.len(), 1);
        assert!(blocks[0].compares.is_empty());
        assert!(!blocks[0].is_nontrivial());
    }

    #[test]
    fn chain_guard_dependence_is_ignored() {
        // The classic FRP chain: cmpp2 guarded by cmpp1's UC output. That
        // guard dependence alone must NOT stop growth.
        let (f, a, sb) = loopish(true);
        let profile = profiled(&f, a);
        let cfg = CprConfig {
            exit_weight_threshold: 1.1,
            predict_taken_threshold: 2.0,
            enable_taken_variation: false,
            min_entry_count: 1,
            ..CprConfig::default()
        };
        let blocks = match_cpr_blocks(&f.block(sb).ops, &profile, &cfg, f.mem_classes());
        assert_eq!(blocks.len(), 1, "guard chaining alone must not split: {blocks:?}");
    }
}

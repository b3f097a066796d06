//! Instruction melding (full diamonds).
//!
//! Where [`if_convert`](crate::if_convert) handles *triangles* (one side
//! block, one fall-through path), melding targets the full diamond: a
//! branch whose taken side `S` and fall-through side `F` are both short
//! straight-line blocks that rejoin at the same block `J`. Both sides are
//! melded into one straight-line region under complementary predicates,
//! eliminating the branch and both side blocks' control transfers:
//!
//! ```text
//!   A:  ...                            A:  ...
//!       branch p -> S                      q = cmpp.un (p == 0)
//!   F:  f₁ ; f₂ ; jump J  ==becomes==>     s₁ if p
//!   S:  s₁ ; s₂ ; jump J                   s₂ if p
//!   J:  ...                            F:  f₁ if q
//!                                          f₂ if q ; jump J
//!                                      J:  ...
//! ```
//!
//! The complement predicate `q = ¬p` is materialized with a `cmpp` against
//! the *value* of `p` at the branch point, so melding never needs to know
//! how `p` was originally defined. Every melded operation executes exactly
//! when it executed in the original program (no speculation is involved),
//! so side-effecting operations — stores, divides — are safe in either
//! side. This is the alternative branch-elimination family to ICBM: CPR
//! collapses branch *height* along a trace, melding removes the branch
//! (and both its side blocks) outright.

use epic_ir::{BlockId, CmpCond, Dest, Function, Opcode, Operand, PredAction, Profile};

/// Heuristic bounds for melding.
#[derive(Clone, Copy, Debug)]
pub struct MeldConfig {
    /// Meld only branches whose taken probability is at least this
    /// (0.0 melds even never-taken branches).
    pub min_taken: f64,
    /// ... and at most this (1.0 melds even always-taken branches).
    /// Melding classically targets the unbiased middle, where both sides
    /// execute often enough that a misprediction would hurt either way.
    pub max_taken: f64,
    /// Maximum size of *each* side in operations (excluding its jump).
    pub max_ops: usize,
}

impl Default for MeldConfig {
    fn default() -> Self {
        MeldConfig { min_taken: 0.0, max_taken: 1.0, max_ops: 24 }
    }
}

/// Melds every matching diamond in `func`. Returns the number of branches
/// eliminated.
pub fn meld(func: &mut Function, profile: &Profile, cfg: &MeldConfig) -> usize {
    let mut melded = 0;
    while let Some(c) = find_candidate(func, profile, cfg) {
        apply(func, &c);
        melded += 1;
    }
    if melded > 0 {
        crate::remove_unreachable(func);
    }
    melded
}

/// One meldable diamond: the branch block, the position of its branch, and
/// the two sides.
struct Candidate {
    block: BlockId,
    branch_pos: usize,
    taken: BlockId,
    fall: BlockId,
}

/// Checks that `side` is a meldable diamond side: single predecessor
/// `from`, at most `max_ops` straight-line unguarded body operations, and
/// a trailing unconditional `pbr`/`branch` pair. Returns the join block it
/// jumps to.
fn side_join(
    func: &Function,
    preds: &[Vec<BlockId>],
    from: BlockId,
    side: BlockId,
    max_ops: usize,
) -> Option<BlockId> {
    if side == func.entry() {
        return None;
    }
    if preds.get(side.index()).map(Vec::as_slice) != Some(&[from]) {
        return None;
    }
    let sblk = func.try_block(side)?;
    let n = sblk.ops.len();
    if n < 2 || n > max_ops + 2 {
        return None;
    }
    let (body, tail) = sblk.ops.split_at(n - 2);
    let tail_ok = tail[0].opcode == Opcode::Pbr
        && tail[1].opcode == Opcode::Branch
        && tail[1].guard.is_none();
    if !tail_ok {
        return None;
    }
    if body
        .iter()
        .any(|o| o.guard.is_some() || o.is_branch() || o.opcode == Opcode::Pbr || o.is_cmpp())
    {
        return None;
    }
    tail[1].branch_target()
}

fn find_candidate(func: &Function, profile: &Profile, cfg: &MeldConfig) -> Option<Candidate> {
    let preds = func.predecessors();
    for block in func.blocks_in_layout() {
        for (pos, br) in block.branches() {
            if br.opcode != Opcode::Branch || br.guard.is_none() {
                continue;
            }
            let Some(taken) = br.branch_target() else { continue };
            if taken == block.id {
                continue; // back edge
            }
            // Profile gate: only branches in the configured taken-ratio
            // window (when the branch was observed at all).
            if let Some(r) = profile.taken_ratio(br.id) {
                if r < cfg.min_taken || r > cfg.max_taken {
                    continue;
                }
            }
            // The branch must be the block's last operation: anything after
            // it is implicitly guarded by ¬p and would need the same
            // re-guarding as the fall-through side.
            if pos + 1 != block.ops.len() {
                continue;
            }
            let Some(fall) = func.fallthrough_of(block.id) else { continue };
            if taken == fall {
                continue;
            }
            let Some(join_f) = side_join(func, &preds, block.id, fall, cfg.max_ops) else {
                continue;
            };
            let Some(join_s) = side_join(func, &preds, block.id, taken, cfg.max_ops) else {
                continue;
            };
            // Both sides must rejoin at the same third block.
            if join_f != join_s || join_f == taken || join_f == fall || join_f == block.id {
                continue;
            }
            return Some(Candidate { block: block.id, branch_pos: pos, taken, fall });
        }
    }
    None
}

fn apply(func: &mut Function, c: &Candidate) {
    let guard = func.block(c.block).ops[c.branch_pos].guard.expect("conditional");

    // Predicated copies of the taken side's body (minus its trailing jump).
    let taken_ops: Vec<epic_ir::Op> = {
        let sblk = func.block(c.taken);
        let n = sblk.ops.len();
        sblk.ops[..n - 2].to_vec()
    };
    let mut predicated = Vec::with_capacity(taken_ops.len() + 1);

    // Materialize the complement predicate from the *value* of the guard:
    // q = (p == 0). UN writes on both guard outcomes, but the op itself is
    // unguarded, so q is always exactly ¬p here.
    let q = func.new_pred();
    predicated.push(epic_ir::Op {
        id: func.new_op_id(),
        opcode: Opcode::Cmpp(CmpCond::Eq),
        dests: vec![Dest::Pred(q, PredAction::UN)],
        srcs: vec![Operand::Pred(guard), Operand::Imm(0)],
        guard: None,
    });
    for op in &taken_ops {
        let mut copy = func.clone_op(op);
        copy.guard = Some(guard);
        predicated.push(copy);
    }

    // Remove the branch (and its pbr when adjacent) and append the melded
    // taken side at the end of the branch block.
    let ops = &mut func.block_mut(c.block).ops;
    ops.remove(c.branch_pos);
    if c.branch_pos > 0 && ops[c.branch_pos - 1].opcode == Opcode::Pbr {
        let target_matches = ops[c.branch_pos - 1].branch_target() == Some(c.taken);
        if target_matches {
            ops.remove(c.branch_pos - 1);
        }
    }
    ops.extend(predicated);

    // Guard the fall-through side's body (its trailing jump to the join
    // stays unguarded, keeping the block's control shape). The two sides'
    // guards are complementary, so exactly one side's operations execute —
    // their relative order cannot matter.
    let fops = &mut func.block_mut(c.fall).ops;
    let n = fops.len();
    for op in &mut fops[..n - 2] {
        op.guard = Some(q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_interp::{diff_test, run, Input};
    use epic_ir::{FunctionBuilder, Reg};

    /// A diamond: store 1 to slot 9 when `mem[x] > 5`, otherwise store 2 to
    /// slot 10; both sides rejoin to store the loaded value at slot 8.
    fn diamond() -> (Function, Reg) {
        let mut fb = FunctionBuilder::new("dia");
        let a = fb.block("a");
        let fall = fb.block("fall");
        let side = fb.block("side");
        let join = fb.block("join");
        fb.switch_to(a);
        let x = fb.reg();
        let v = fb.load(x);
        let (t, _) = fb.cmpp_un_uc(CmpCond::Gt, v.into(), Operand::Imm(5));
        fb.branch_if(t, side);
        fb.switch_to(fall);
        let lo = fb.movi(10);
        fb.store(lo, Operand::Imm(2));
        fb.jump(join);
        fb.switch_to(side);
        let hi = fb.movi(9);
        fb.store(hi, Operand::Imm(1));
        fb.jump(join);
        fb.switch_to(join);
        let d = fb.movi(8);
        fb.store(d, v.into());
        fb.ret();
        (fb.finish(), x)
    }

    fn inputs(x: Reg) -> (Input, Input) {
        let hi = Input::new().memory_size(16).with_memory(0, &[7]).with_reg(x, 0);
        let lo = Input::new().memory_size(16).with_memory(0, &[3]).with_reg(x, 0);
        (hi, lo)
    }

    #[test]
    fn melds_diamond_and_preserves_semantics() {
        let (f, x) = diamond();
        let (input_hi, input_lo) = inputs(x);
        let profile = run(&f, &input_hi).unwrap().profile;
        let mut g = f.clone();
        let n = meld(&mut g, &profile, &MeldConfig::default());
        assert_eq!(n, 1);
        epic_ir::verify(&g).unwrap();
        // The conditional branch is gone, and so is the taken-side block.
        assert!(g
            .ops_in_layout()
            .all(|(_, o)| !(o.opcode == Opcode::Branch && o.guard.is_some())));
        assert_eq!(g.layout().len(), 3);
        diff_test(&f, &g, &input_hi).unwrap();
        diff_test(&f, &g, &input_lo).unwrap();
    }

    #[test]
    fn profile_window_gates_melding() {
        let (f, x) = diamond();
        let (input_hi, _) = inputs(x);
        let profile = run(&f, &input_hi).unwrap().profile; // branch 100% taken
        let mut g = f.clone();
        let cfg = MeldConfig { min_taken: 0.2, max_taken: 0.8, ..Default::default() };
        assert_eq!(meld(&mut g, &profile, &cfg), 0, "biased branch left alone");
    }

    #[test]
    fn size_limit_gates_melding() {
        let (f, x) = diamond();
        let (input_hi, _) = inputs(x);
        let profile = run(&f, &input_hi).unwrap().profile;
        let mut g = f.clone();
        let cfg = MeldConfig { max_ops: 0, ..Default::default() };
        assert_eq!(meld(&mut g, &profile, &cfg), 0);
    }

    #[test]
    fn triangle_is_left_to_if_conversion() {
        // A triangle (fall-through path *is* the join) has no second side
        // to meld; the pattern requires both sides to be distinct blocks
        // jumping to a shared join.
        let mut fb = FunctionBuilder::new("tri");
        let a = fb.block("a");
        let join = fb.block("join");
        let side = fb.block("side");
        fb.switch_to(a);
        let x = fb.reg();
        let v = fb.load(x);
        let (t, _) = fb.cmpp_un_uc(CmpCond::Gt, v.into(), Operand::Imm(5));
        fb.branch_if(t, side);
        fb.switch_to(join);
        fb.ret();
        fb.switch_to(side);
        let hi = fb.movi(9);
        fb.store(hi, Operand::Imm(1));
        fb.jump(join);
        let f = fb.finish();
        let mut g = f.clone();
        assert_eq!(meld(&mut g, &Profile::new(), &MeldConfig::default()), 0);
    }

    #[test]
    fn side_with_own_branch_is_rejected() {
        let mut fb = FunctionBuilder::new("nested");
        let a = fb.block("a");
        let fall = fb.block("fall");
        let side = fb.block("side");
        let join = fb.block("join");
        let deep = fb.block("deep");
        fb.switch_to(a);
        let x = fb.reg();
        let v = fb.load(x);
        let (t, _) = fb.cmpp_un_uc(CmpCond::Gt, v.into(), Operand::Imm(5));
        fb.branch_if(t, side);
        fb.switch_to(fall);
        let lo = fb.movi(10);
        fb.store(lo, Operand::Imm(2));
        fb.jump(join);
        fb.switch_to(side);
        let (u, _) = fb.cmpp_un_uc(CmpCond::Gt, v.into(), Operand::Imm(50));
        fb.branch_if(u, deep);
        fb.jump(join);
        fb.switch_to(join);
        fb.ret();
        fb.switch_to(deep);
        fb.ret();
        let f = fb.finish();
        let mut g = f.clone();
        assert_eq!(meld(&mut g, &Profile::new(), &MeldConfig::default()), 0);
    }

    #[test]
    fn sides_with_different_joins_are_rejected() {
        let mut fb = FunctionBuilder::new("split");
        let a = fb.block("a");
        let fall = fb.block("fall");
        let side = fb.block("side");
        let j1 = fb.block("j1");
        let j2 = fb.block("j2");
        fb.switch_to(a);
        let x = fb.reg();
        let v = fb.load(x);
        let (t, _) = fb.cmpp_un_uc(CmpCond::Gt, v.into(), Operand::Imm(5));
        fb.branch_if(t, side);
        fb.switch_to(fall);
        let lo = fb.movi(10);
        fb.store(lo, Operand::Imm(2));
        fb.jump(j1);
        fb.switch_to(side);
        let hi = fb.movi(9);
        fb.store(hi, Operand::Imm(1));
        fb.jump(j2);
        fb.switch_to(j1);
        fb.ret();
        fb.switch_to(j2);
        fb.ret();
        let f = fb.finish();
        let mut g = f.clone();
        assert_eq!(meld(&mut g, &Profile::new(), &MeldConfig::default()), 0);
    }

    #[test]
    fn branch_with_trailing_ops_is_rejected() {
        // Ops after the branch run only on the fall-through path; melding
        // would need to re-guard them too. The pass requires the branch to
        // be its block's last operation instead.
        let mut fb = FunctionBuilder::new("midblock");
        let a = fb.block("a");
        let fall = fb.block("fall");
        let side = fb.block("side");
        let join = fb.block("join");
        fb.switch_to(a);
        let x = fb.reg();
        let v = fb.load(x);
        let (t, _) = fb.cmpp_un_uc(CmpCond::Gt, v.into(), Operand::Imm(5));
        fb.branch_if(t, side);
        let d = fb.movi(11);
        fb.store(d, Operand::Imm(3)); // fall-through-only side effect
        fb.switch_to(fall);
        let lo = fb.movi(10);
        fb.store(lo, Operand::Imm(2));
        fb.jump(join);
        fb.switch_to(side);
        let hi = fb.movi(9);
        fb.store(hi, Operand::Imm(1));
        fb.jump(join);
        fb.switch_to(join);
        fb.ret();
        let f = fb.finish();
        let (input_hi, input_lo) = inputs(x);
        let profile = run(&f, &input_hi).unwrap().profile;
        let mut g = f.clone();
        meld(&mut g, &profile, &MeldConfig::default());
        diff_test(&f, &g, &input_hi).unwrap();
        diff_test(&f, &g, &input_lo).unwrap();
    }

    #[test]
    fn melded_sides_with_shared_destinations_stay_exclusive() {
        // Both sides write the same register with different values; only
        // the architecturally-executed side's write may survive.
        let mut fb = FunctionBuilder::new("shared");
        let a = fb.block("a");
        let fall = fb.block("fall");
        let side = fb.block("side");
        let join = fb.block("join");
        fb.switch_to(a);
        let x = fb.reg();
        let r = fb.reg();
        fb.mov_to(r, Operand::Imm(0));
        let v = fb.load(x);
        let (t, _) = fb.cmpp_un_uc(CmpCond::Gt, v.into(), Operand::Imm(5));
        fb.branch_if(t, side);
        fb.switch_to(fall);
        fb.mov_to(r, Operand::Imm(2));
        fb.jump(join);
        fb.switch_to(side);
        fb.mov_to(r, Operand::Imm(1));
        fb.jump(join);
        fb.switch_to(join);
        let d = fb.movi(8);
        fb.store(d, r.into());
        fb.ret();
        let f = fb.finish();
        let (input_hi, input_lo) = inputs(x);
        let profile = run(&f, &input_hi).unwrap().profile;
        let mut g = f.clone();
        assert_eq!(meld(&mut g, &profile, &MeldConfig::default()), 1);
        epic_ir::verify(&g).unwrap();
        diff_test(&f, &g, &input_hi).unwrap();
        diff_test(&f, &g, &input_lo).unwrap();
    }
}

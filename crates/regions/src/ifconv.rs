//! Traditional if-conversion (triangle hammocks).
//!
//! The paper's evaluation deliberately applies *no* traditional
//! if-conversion ("While these experiments apply FRP conversion to linear
//! superblocks, no traditional if-conversion has been applied. The compiler
//! could employ traditional if-conversion to eliminate many unbiased
//! branches and thus further improve the effectiveness of control CPR").
//! This pass implements that enhancement so the claim can be tested: it
//! predicates the side block of a triangle-shaped hammock, eliminating the
//! branch entirely. With the side block gone, the loop body loses its side
//! *entrance*, which in turn lets unrolling rename the loop induction
//! registers and lets ICBM chain CPR blocks across iterations.
//!
//! Pattern converted (S has exactly one predecessor and no branches of its
//! own):
//!
//! ```text
//!   A:  ...                          A:  ...
//!       branch p -> S                    s₁ if p
//!   J:  ...            ==becomes==>      s₂ if p
//!   ...                                  ...
//!   S:  s₁ ; s₂ ; jump J             J:  ...
//! ```

use epic_ir::{BlockId, Function, Opcode, Profile};

/// Heuristic bounds for if-conversion.
#[derive(Clone, Copy, Debug)]
pub struct IfConvertConfig {
    /// Convert only branches whose taken probability is at least this
    /// (0.0 converts even never-taken branches).
    pub min_taken: f64,
    /// ... and at most this (1.0 converts even always-taken branches).
    /// If-conversion classically targets the unbiased middle.
    pub max_taken: f64,
    /// Maximum side-block size in operations (excluding its jump).
    pub max_ops: usize,
}

impl Default for IfConvertConfig {
    fn default() -> Self {
        IfConvertConfig { min_taken: 0.0, max_taken: 1.0, max_ops: 24 }
    }
}

/// If-converts every matching triangle in `func`. Returns the number of
/// branches eliminated.
pub fn if_convert(func: &mut Function, profile: &Profile, cfg: &IfConvertConfig) -> usize {
    let mut converted = 0;
    while let Some((block, branch_pos, side)) = find_candidate(func, profile, cfg) {
        apply(func, block, branch_pos, side);
        converted += 1;
    }
    if converted > 0 {
        crate::remove_unreachable(func);
    }
    converted
}

fn find_candidate(
    func: &Function,
    profile: &Profile,
    cfg: &IfConvertConfig,
) -> Option<(BlockId, usize, BlockId)> {
    let preds = func.predecessors();
    for block in func.blocks_in_layout() {
        for (pos, br) in block.branches() {
            if br.opcode != Opcode::Branch || br.guard.is_none() {
                continue;
            }
            let Some(side) = br.branch_target() else { continue };
            if side == block.id {
                continue; // back edge
            }
            // Profile gate: only branches in the configured taken-ratio
            // window (when the branch was observed at all).
            if let Some(r) = profile.taken_ratio(br.id) {
                if r < cfg.min_taken || r > cfg.max_taken {
                    continue;
                }
            }
            // The side block: single predecessor, small, straight-line,
            // ending with an unconditional jump back to this block's
            // fall-through successor.
            let Some(join) = func.fallthrough_of(block.id) else { continue };
            if side == join {
                continue;
            }
            if preds.get(side.index()).map(Vec::as_slice) != Some(&[block.id]) {
                continue;
            }
            let sblk = func.block(side);
            if sblk.ops.len() > cfg.max_ops + 2 {
                continue;
            }
            // All ops unguarded and speculation-safe to predicate; the only
            // control transfer is the trailing jump to the join.
            let n = sblk.ops.len();
            if n < 2 {
                continue;
            }
            let (body, tail) = sblk.ops.split_at(n - 2);
            let tail_ok = tail[0].opcode == Opcode::Pbr
                && tail[1].opcode == Opcode::Branch
                && tail[1].guard.is_none()
                && tail[1].branch_target() == Some(join);
            if !tail_ok {
                continue;
            }
            if body.iter().any(|o| {
                o.guard.is_some() || o.is_branch() || o.opcode == Opcode::Pbr || o.is_cmpp()
            }) {
                continue;
            }
            // The branch must be the block's *last operation*. Anything
            // after it only executes on the fall-through path — i.e. it is
            // implicitly guarded by ¬p — so removing the branch would make
            // it (and the appended side body after it) run on both paths.
            if pos + 1 != block.ops.len() {
                continue;
            }
            return Some((block.id, pos, side));
        }
    }
    None
}

fn apply(func: &mut Function, block: BlockId, branch_pos: usize, side: BlockId) {
    let guard = func.block(block).ops[branch_pos].guard.expect("conditional");
    // Predicated copies of the side body (minus its trailing jump).
    let side_ops: Vec<epic_ir::Op> = {
        let sblk = func.block(side);
        let n = sblk.ops.len();
        sblk.ops[..n - 2].to_vec()
    };
    let mut predicated = Vec::with_capacity(side_ops.len());
    for op in &side_ops {
        let mut copy = func.clone_op(op);
        copy.guard = Some(guard);
        predicated.push(copy);
    }
    let ops = &mut func.block_mut(block).ops;
    // Remove the branch (and its pbr when adjacent).
    ops.remove(branch_pos);
    if branch_pos > 0 && ops[branch_pos - 1].opcode == Opcode::Pbr {
        let target_matches = ops[branch_pos - 1].branch_target() == Some(side);
        if target_matches {
            ops.remove(branch_pos - 1);
        }
    }
    // Insert the predicated side body where the branch was (position is now
    // whatever the removals left; append at the end of the block keeps
    // ordering with respect to the join, since nothing after the branch
    // branches away).
    let at = ops.len();
    for (k, op) in predicated.into_iter().enumerate() {
        ops.insert(at + k, op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_interp::{diff_test, run, Input};
    use epic_ir::{CmpCond, FunctionBuilder, Operand};

    /// A triangle: increment a counter on a data-dependent condition.
    fn triangle() -> (Function, epic_ir::Reg) {
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
        let d = fb.movi(8);
        fb.store(d, v.into());
        fb.ret();
        fb.switch_to(side);
        let big = fb.movi(9);
        fb.store(big, Operand::Imm(1));
        fb.jump(join);
        (fb.finish(), x)
    }

    #[test]
    fn converts_triangle_and_preserves_semantics() {
        let (f, x) = triangle();
        let input_hi = Input::new().memory_size(16).with_memory(0, &[7]).with_reg(x, 0);
        let input_lo = Input::new().memory_size(16).with_memory(0, &[3]).with_reg(x, 0);
        let profile = run(&f, &input_hi).unwrap().profile;
        let mut g = f.clone();
        let n = if_convert(&mut g, &profile, &IfConvertConfig::default());
        assert_eq!(n, 1);
        epic_ir::verify(&g).unwrap();
        // The conditional branch is gone.
        assert!(g
            .ops_in_layout()
            .all(|(_, o)| !(o.opcode == Opcode::Branch && o.guard.is_some())));
        diff_test(&f, &g, &input_hi).unwrap();
        diff_test(&f, &g, &input_lo).unwrap();
    }

    #[test]
    fn profile_window_gates_conversion() {
        let (f, x) = triangle();
        let input = Input::new().memory_size(16).with_memory(0, &[7]).with_reg(x, 0);
        let profile = run(&f, &input).unwrap().profile; // branch 100% taken
        let mut g = f.clone();
        let cfg = IfConvertConfig { min_taken: 0.2, max_taken: 0.8, ..Default::default() };
        assert_eq!(if_convert(&mut g, &profile, &cfg), 0, "biased branch left alone");
    }

    #[test]
    fn size_limit_gates_conversion() {
        let (f, x) = triangle();
        let input = Input::new().memory_size(16).with_memory(0, &[7]).with_reg(x, 0);
        let profile = run(&f, &input).unwrap().profile;
        let mut g = f.clone();
        let cfg = IfConvertConfig { max_ops: 0, ..Default::default() };
        assert_eq!(if_convert(&mut g, &profile, &cfg), 0);
    }

    #[test]
    fn branch_with_trailing_ops_is_rejected() {
        // A triangle whose branch is *not* the last op of its block: the
        // store after the branch only runs on the fall-through path, so
        // converting would execute it (and the appended side body) on both
        // paths. Historical bug: only trailing *branches* were checked.
        let mut fb = FunctionBuilder::new("midblock");
        let a = fb.block("a");
        let join = fb.block("join");
        let side = fb.block("side");
        fb.switch_to(a);
        let x = fb.reg();
        let v = fb.load(x);
        let (t, _) = fb.cmpp_un_uc(CmpCond::Gt, v.into(), Operand::Imm(5));
        fb.branch_if(t, side);
        let d = fb.movi(8);
        fb.store(d, Operand::Imm(2)); // fall-through-only side effect
        fb.switch_to(join);
        fb.ret();
        fb.switch_to(side);
        let big = fb.movi(9);
        fb.store(big, Operand::Imm(1));
        fb.jump(join);
        let f = fb.finish();
        let input_hi = Input::new().memory_size(16).with_memory(0, &[7]).with_reg(x, 0);
        let input_lo = Input::new().memory_size(16).with_memory(0, &[3]).with_reg(x, 0);
        let profile = run(&f, &input_hi).unwrap().profile;
        let mut g = f.clone();
        if_convert(&mut g, &profile, &IfConvertConfig::default());
        diff_test(&f, &g, &input_hi).unwrap();
        diff_test(&f, &g, &input_lo).unwrap();
    }

    #[test]
    fn side_with_own_branch_is_rejected() {
        let mut fb = FunctionBuilder::new("nested");
        let a = fb.block("a");
        let join = fb.block("join");
        let side = fb.block("side");
        let deep = fb.block("deep");
        fb.switch_to(a);
        let x = fb.reg();
        let v = fb.load(x);
        let (t, _) = fb.cmpp_un_uc(CmpCond::Gt, v.into(), Operand::Imm(5));
        fb.branch_if(t, side);
        fb.switch_to(join);
        fb.ret();
        fb.switch_to(side);
        let (u, _) = fb.cmpp_un_uc(CmpCond::Gt, v.into(), Operand::Imm(50));
        fb.branch_if(u, deep);
        fb.jump(join);
        fb.switch_to(deep);
        fb.ret();
        let f = fb.finish();
        let mut g = f.clone();
        assert_eq!(if_convert(&mut g, &Profile::new(), &IfConvertConfig::default()), 0);
    }

    #[test]
    fn workload_side_blocks_convert_and_match() {
        // wc's side block (newline counter) fits the triangle pattern.
        let w = epic_workloads_shim::wc();
        let profile = run(&w.0, &w.1).unwrap().profile;
        let mut g = w.0.clone();
        let n = if_convert(&mut g, &profile, &IfConvertConfig::default());
        assert!(n >= 1, "wc side block converts");
        diff_test(&w.0, &g, &w.1).unwrap();
    }

    /// Minimal local stand-in to avoid a cyclic dev-dependency on
    /// epic-workloads: a wc-like loop with a rare side block.
    mod epic_workloads_shim {
        use super::*;

        pub fn wc() -> (Function, Input) {
            let mut fb = FunctionBuilder::new("wcish");
            let loop_ = fb.block("loop");
            let adv = fb.block("adv");
            let exit = fb.block("exit");
            let side = fb.block("side");
            fb.switch_to(loop_);
            let ptr = fb.reg();
            let lines = fb.reg();
            let v = fb.load(ptr);
            let (z, _) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
            fb.branch_if(z, exit);
            let (nl, _) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(3));
            fb.branch_if(nl, side);
            fb.switch_to(adv);
            let p2 = fb.add(ptr.into(), Operand::Imm(1));
            fb.mov_to(ptr, p2.into());
            fb.jump(loop_);
            fb.switch_to(exit);
            let o = fb.movi(40);
            fb.store(o, lines.into());
            fb.ret();
            fb.switch_to(side);
            let l2 = fb.add(lines.into(), Operand::Imm(1));
            fb.mov_to(lines, l2.into());
            fb.jump(adv);
            let f = fb.finish();
            let input = Input::new()
                .memory_size(64)
                .with_memory(0, &[1, 1, 3, 1, 3, 1, 0])
                .with_reg(ptr, 0);
            (f, input)
        }
    }
}

//! Superblock loop unrolling with register renaming.
//!
//! Unrolling a loop whose body is one superblock produces exactly the shape
//! of the paper's Figure 6(b): intermediate copies of a conditional
//! back-edge branch are replaced by *exit* branches with inverted compare
//! conditions, and per-iteration values are *renamed* into fresh registers
//! (`r31`/`r32`/`r33` in the paper's strcpy) so that consecutive iterations
//! carry no false dependences — which is what lets predicate speculation
//! and the ICBM separability test see the unrolled compare chain as
//! independent.
//!
//! Registers and predicates that are live at the loop's exit targets keep
//! their architectural names in every copy (renaming them would leave exit
//! paths reading stale values); everything else gets a fresh name per copy,
//! with the final copy writing back to the original names so the back edge
//! re-enters the loop in a consistent state.

use std::collections::{HashMap, HashSet};

use epic_analysis::GlobalLiveness;
use epic_ir::{
    BlockId, CmpCond, Dest, Function, Op, Opcode, Operand, PredAction, PredReg, Reg,
};

/// Carries the per-copy renaming state.
struct Renamer {
    reg_map: HashMap<Reg, Reg>,
    pred_map: HashMap<PredReg, PredReg>,
    protected_regs: HashSet<Reg>,
    protected_preds: HashSet<PredReg>,
}

impl Renamer {
    fn new(func: &Function, head: BlockId, live: &GlobalLiveness) -> Renamer {
        // Values live at any exit (a side exit's target, a `ret`, or the
        // natural fall-through exit) must stay in their architectural
        // registers. Partially-written destinations (guarded register
        // defs, wired or guarded predicate writes) cannot be renamed
        // either: under a false guard the original keeps its previous
        // value, which a fresh name would not.
        let mut protected_regs: HashSet<Reg> = HashSet::new();
        let mut protected_preds: HashSet<PredReg> = HashSet::new();
        for op in &func.block(head).ops {
            let guarded = op.guard.is_some();
            for d in &op.dests {
                match *d {
                    Dest::Reg(r) if guarded => {
                        protected_regs.insert(r);
                    }
                    Dest::Pred(pr, a) => {
                        let partial = a.kind != epic_ir::PredActionKind::Uncond
                            || (guarded && !matches!(op.opcode, Opcode::Cmpp(_)));
                        if partial {
                            protected_preds.insert(pr);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut absorb = |(regs, preds): epic_analysis::ExitSets| {
            protected_regs.extend(regs);
            protected_preds.extend(preds);
        };
        for (_, br) in func.block(head).branches() {
            if br.branch_target() != Some(head) {
                absorb(live.at_exit(br));
            }
        }
        // The layout successor is an exit only when the head can fall
        // through: `at_block_end` alone over-approximates after an
        // unconditional exit, and protecting those values changes what
        // the copies rename.
        if !func.block(head).ends_with_unconditional_exit() {
            absorb(live.at_block_end(func, head));
        }
        Renamer {
            reg_map: HashMap::new(),
            pred_map: HashMap::new(),
            protected_regs,
            protected_preds,
        }
    }

    fn use_reg(&self, r: Reg) -> Reg {
        self.reg_map.get(&r).copied().unwrap_or(r)
    }

    fn use_pred(&self, p: PredReg) -> PredReg {
        self.pred_map.get(&p).copied().unwrap_or(p)
    }

    /// Rewrites one cloned op in place: uses through the current map, then
    /// destinations renamed (fresh in intermediate copies, original names in
    /// the final copy).
    fn apply(&mut self, func: &mut Function, op: &mut Op, final_copy: bool) {
        for s in &mut op.srcs {
            match *s {
                Operand::Reg(r) => *s = Operand::Reg(self.use_reg(r)),
                Operand::Pred(p) => *s = Operand::Pred(self.use_pred(p)),
                _ => {}
            }
        }
        if let Some(g) = op.guard {
            op.guard = Some(self.use_pred(g));
        }
        for d in &mut op.dests {
            match *d {
                Dest::Reg(r) => {
                    let new = if final_copy || self.protected_regs.contains(&r) {
                        r
                    } else {
                        func.new_reg()
                    };
                    self.reg_map.insert(r, new);
                    *d = Dest::Reg(new);
                }
                Dest::Pred(p, a) => {
                    let new = if final_copy || self.protected_preds.contains(&p) {
                        p
                    } else {
                        func.new_pred()
                    };
                    self.pred_map.insert(p, new);
                    *d = Dest::Pred(new, a);
                }
            }
        }
    }
}

/// Unrolls the self-loop at `head` by `factor` (total copies of the body).
///
/// Two loop forms are handled:
///
/// * **bottom-test** — the block ends with a conditional back-edge branch
///   whose guard is computed by a unique `cmpp` inside the block:
///   intermediate copies replace the back edge with an inverted-condition
///   exit branch;
/// * **top-test** — the block ends with an unconditional back edge and
///   exits from within the body: intermediate copies simply drop the back
///   edge.
///
/// `live` must be exact for `func`; unrolling edits only `head`, which the
/// caller then [`repair`](GlobalLiveness::repair)s.
///
/// Returns `true` when the loop was unrolled; `false` when the block does
/// not match either pattern.
pub fn unroll_loop(func: &mut Function, head: BlockId, factor: u32, live: &GlobalLiveness) -> bool {
    if factor < 2 {
        return true;
    }
    let Some(exit_target) = loop_exit(func, head) else { return false };
    let ops = func.block(head).ops.clone();
    let exit = match ops[ops.len() - 1].guard {
        Some(guard) => match back_edge_compare(&ops, guard) {
            Some((def_idx, cond, action)) => Some((def_idx, cond, action, exit_target)),
            None => return false,
        },
        // A top-test body must contain a conditional exit, otherwise the
        // loop is infinite and unrolling is pointless.
        None if ops.iter().any(|o| o.opcode == Opcode::Branch && o.guard.is_some()) => None,
        None => return false,
    };
    unroll_copies(func, head, factor, &ops, exit, live);
    true
}

/// The fall-through exit of `head` when it is a self-loop superblock: its
/// last op branches back to `head` and a block follows it in the layout.
fn loop_exit(func: &Function, head: BlockId) -> Option<BlockId> {
    let back = func.block(head).ops.last()?;
    let self_loop = back.opcode == Opcode::Branch && back.branch_target() == Some(head);
    func.fallthrough_of(head).filter(|_| self_loop)
}

/// The unique defining `cmpp` of the back-edge guard, with an
/// unconditional action: its index, condition and action.
fn back_edge_compare(ops: &[Op], guard: PredReg) -> Option<(usize, CmpCond, PredAction)> {
    let mut def: Option<(usize, CmpCond, PredAction)> = None;
    for (i, op) in ops.iter().enumerate() {
        for d in &op.dests {
            if let Dest::Pred(p, action) = *d {
                if p == guard {
                    match (op.opcode, def) {
                        (Opcode::Cmpp(c), None)
                            if action.kind == epic_ir::PredActionKind::Uncond =>
                        {
                            def = Some((i, c, action))
                        }
                        _ => return None, // multiple defs or non-cmpp def
                    }
                }
            }
        }
    }
    def
}

/// Replaces `head`'s ops with `factor` renamed copies of `ops`.
/// Intermediate copies drop the back edge; for a bottom-test loop, `exit`
/// (the back-edge compare's index, condition and action, and the exit
/// target) replaces it with an exit branch guarded by an inverted compare.
fn unroll_copies(
    func: &mut Function,
    head: BlockId,
    factor: u32,
    ops: &[Op],
    exit: Option<(usize, CmpCond, PredAction, BlockId)>,
    live: &GlobalLiveness,
) {
    let mut ren = Renamer::new(func, head, live);
    let mut new_ops: Vec<Op> = Vec::with_capacity(ops.len() * factor as usize);
    for copy in 0..factor {
        let last_copy = copy == factor - 1;
        let exit_pred = if last_copy || exit.is_none() { None } else { Some(func.new_pred()) };
        for (i, op) in ops.iter().enumerate() {
            // Drop the back-edge pbr in intermediate copies.
            if !last_copy && op.opcode == Opcode::Pbr && op.branch_target() == Some(head) {
                continue;
            }
            if !last_copy && i == ops.len() - 1 {
                if let Some((_, _, _, exit_target)) = exit {
                    // The back-edge branch becomes an exit branch guarded by
                    // the inverted condition.
                    let btr = func.new_reg();
                    new_ops.push(Op {
                        id: func.new_op_id(),
                        opcode: Opcode::Pbr,
                        dests: vec![Dest::Reg(btr)],
                        srcs: vec![Operand::Label(exit_target)],
                        guard: None,
                    });
                    new_ops.push(Op {
                        id: func.new_op_id(),
                        opcode: Opcode::Branch,
                        dests: vec![],
                        srcs: vec![Operand::Reg(btr), Operand::Label(exit_target)],
                        guard: exit_pred,
                    });
                }
                continue;
            }
            let mut cloned = func.clone_op(op);
            ren.apply(func, &mut cloned, last_copy);
            let inverted = match (exit_pred, exit) {
                // Inverted compare right after the defining cmpp, observing
                // the same (renamed) sources.
                (Some(p), Some((def_idx, cond, action, _))) if i == def_idx => Some(Op {
                    id: func.new_op_id(),
                    opcode: Opcode::Cmpp(match action.sense {
                        epic_ir::PredSense::Normal => cond.invert(),
                        epic_ir::PredSense::Complement => cond,
                    }),
                    dests: vec![Dest::Pred(p, PredAction::UN)],
                    srcs: cloned.srcs.clone(),
                    guard: cloned.guard,
                }),
                _ => None,
            };
            new_ops.push(cloned);
            new_ops.extend(inverted);
        }
    }
    func.block_mut(head).ops = new_ops;
}

/// Unrolls every hot self-loop superblock in `func` by `factor`.
///
/// A block qualifies when its entry count is at least `min_count` and it
/// matches the [`unroll_loop`] pattern. Returns the number of loops
/// unrolled.
///
/// `live` must be exact for `func`; it is repaired after every loop, so it
/// is still exact on return.
pub fn unroll_hot_loops(
    func: &mut Function,
    profile: &epic_ir::Profile,
    factor: u32,
    min_count: u64,
    live: &mut GlobalLiveness,
) -> usize {
    let candidates: Vec<BlockId> = func
        .layout()
        .iter()
        .copied()
        .filter(|&b| profile.entry_count(b) >= min_count)
        .collect();
    let mut n = 0;
    for b in candidates {
        if unroll_loop(func, b, factor, live) && factor >= 2 {
            // unroll_loop returns true for factor<2 too; only count real work
            if func.block(b).branch_count() >= factor as usize {
                crate::flatten_induction(func, b);
                n += 1;
            }
            live.repair(func, &[b]);
        }
    }
    n
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use epic_ir::FunctionBuilder;
    use epic_interp::{diff_test, run, Input};

    /// Unrolls the loop at `head` against a fresh liveness context.
    fn unroll(f: &mut Function, head: BlockId, factor: u32) -> bool {
        let live = GlobalLiveness::compute(f);
        unroll_loop(f, head, factor, &live)
    }

    /// strcpy-style loop: copy words from src (reg a) to dst (reg b2)
    /// until a zero terminator.
    fn strcpy_loop() -> (Function, epic_ir::Reg, epic_ir::Reg, BlockId) {
        let mut fb = FunctionBuilder::new("strcpy");
        let loop_ = fb.block("loop");
        let exit = fb.block("exit");
        fb.switch_to(loop_);
        let a = fb.reg();
        let d = fb.reg();
        let v = fb.load(a);
        fb.store(d, v.into());
        let a2 = fb.add(a.into(), Operand::Imm(1));
        fb.mov_to(a, a2.into());
        let d2 = fb.add(d.into(), Operand::Imm(1));
        fb.mov_to(d, d2.into());
        let (cont, _stop) = fb.cmpp_un_uc(CmpCond::Ne, v.into(), Operand::Imm(0));
        fb.branch_if(cont, loop_);
        fb.switch_to(exit);
        fb.ret();
        (fb.finish(), a, d, loop_)
    }

    fn strcpy_input(a: epic_ir::Reg, d: epic_ir::Reg) -> Input {
        Input::new()
            .memory_size(64)
            .with_memory(0, &[7, 7, 7, 5, 3, 2, 1, 0])
            .with_reg(a, 0)
            .with_reg(d, 32)
    }

    #[test]
    fn unroll_preserves_semantics() {
        for factor in [2u32, 4, 8] {
            let (f, a, d, head) = strcpy_loop();
            let mut u = f.clone();
            assert!(unroll(&mut u, head, factor), "factor {factor}");
            epic_ir::verify(&u).unwrap();
            diff_test(&f, &u, &strcpy_input(a, d)).unwrap();
            // Exactly `factor` branches in the unrolled body.
            assert_eq!(u.block(head).branch_count(), factor as usize, "\n{u}");
        }
    }

    #[test]
    fn unrolled_loop_executes_fewer_branch_fetches_per_element() {
        let (f, a, d, head) = strcpy_loop();
        let mut u = f.clone();
        unroll(&mut u, head, 4);
        let base = run(&f, &strcpy_input(a, d)).unwrap();
        let unrolled = run(&u, &strcpy_input(a, d)).unwrap();
        assert_eq!(
            base.memory, unrolled.memory,
            "same result"
        );
        // Unrolling reduces back-edge branch executions.
        assert!(unrolled.profile.entry_count(head) < base.profile.entry_count(head));
    }

    #[test]
    fn factor_one_is_identity() {
        let (f, _a, _d, head) = strcpy_loop();
        let mut u = f.clone();
        assert!(unroll(&mut u, head, 1));
        assert_eq!(u.block(head).ops.len(), f.block(head).ops.len());
    }

    #[test]
    fn non_loop_is_rejected() {
        let mut fb = FunctionBuilder::new("nl");
        let e = fb.block("e");
        fb.switch_to(e);
        fb.ret();
        let mut f = fb.finish();
        assert!(!unroll(&mut f, e, 4));
    }

    #[test]
    fn unroll_hot_loops_uses_profile() {
        let (f, a, d, head) = strcpy_loop();
        let profile = run(&f, &strcpy_input(a, d)).unwrap().profile;
        let mut u = f.clone();
        let mut live = GlobalLiveness::compute(&u);
        let n = unroll_hot_loops(&mut u, &profile, 4, 1, &mut live);
        assert_eq!(n, 1);
        diff_test(&f, &u, &strcpy_input(a, d)).unwrap();
        // With a sky-high threshold nothing unrolls.
        let mut u2 = f.clone();
        let mut live = GlobalLiveness::compute(&u2);
        assert_eq!(unroll_hot_loops(&mut u2, &profile, 4, u64::MAX, &mut live), 0);
        assert_eq!(live, GlobalLiveness::compute(&u2));
        assert_eq!(u2.block(head).ops.len(), f.block(head).ops.len());
    }
}

//! Predicate-aware dead code elimination (paper §5: "After ICBM, a pass of
//! dead code elimination removes any unnecessary operations, such as
//! operations that compute predicates which are not referenced.")
//!
//! Removes operations without side effects whose destinations are all dead,
//! and prunes dead destinations from multi-target `cmpp`s (the paper's
//! example removes the second destination of op 13 after the strcpy
//! transformation).

use epic_analysis::GlobalLiveness;
use epic_ir::{BlockId, Dest, Function, FxHashSet, Opcode, PredReg, Reg};

/// Runs dead code elimination to a fixed point. `live` must be exact for
/// `func`, and stays exact: see [`dce_pass`]. Returns the number of
/// operations removed (pruned destinations do not count).
pub fn dce(func: &mut Function, live: &mut GlobalLiveness) -> usize {
    let mut removed = 0;
    loop {
        let pass = dce_pass(func, live);
        if pass == 0 {
            return removed;
        }
        removed += pass;
    }
}

/// One backward sweep over every block: removes the dead operations and
/// prunes dead `cmpp` destinations that `live` shows, then repairs `live`
/// for the blocks it changed. Returns the number of operations removed.
pub fn dce_pass(func: &mut Function, live: &mut GlobalLiveness) -> usize {
    let mut removed = 0;
    let mut changed = Vec::new();
    let blocks: Vec<BlockId> = func.layout().to_vec();
    for b in blocks {
        let mut pruned = false;
        // Backward scan with running live sets seeded from the exact block
        // live-out (nothing after an unconditional exit).
        let mut live_regs: FxHashSet<Reg> = live.live_out_regs[&b].clone();
        let mut live_preds: FxHashSet<PredReg> = live.live_out_preds[&b].clone();
        let ops = &mut func.block_mut(b).ops;
        let mut keep: Vec<bool> = vec![true; ops.len()];
        for (i, op) in ops.iter_mut().enumerate().rev() {
            // An exit makes what is live where it leaves live here (a
            // `ret` hands the caller the live-outs): seeding only from block
            // live-out would let a later (post-branch) redefinition hide
            // values the taken edge needs.
            let (exit_regs, exit_preds) = live.at_exit(op);
            live_regs.extend(exit_regs);
            live_preds.extend(exit_preds);
            let has_live_dest = op.dests.iter().any(|d| match d {
                Dest::Reg(r) => live_regs.contains(r),
                Dest::Pred(p, _) => live_preds.contains(p),
            });
            let removable = !op.opcode.has_side_effects()
                && !op.dests.is_empty()
                && !has_live_dest;
            if removable {
                keep[i] = false;
                removed += 1;
                continue;
            }
            // Prune dead predicate destinations of live cmpps.
            if matches!(op.opcode, Opcode::Cmpp(_)) && op.dests.len() > 1 {
                let n = op.dests.len();
                op.dests.retain(|d| match d {
                    Dest::Pred(p, _) => live_preds.contains(p),
                    Dest::Reg(_) => true,
                });
                pruned |= op.dests.len() != n;
            }
            // Transfer: defs kill (only unguarded defs kill reliably, but
            // for DCE "possibly dead" must err towards live, so only
            // unguarded defs remove liveness), uses gen.
            if op.guard.is_none() {
                for r in op.defs_regs() {
                    live_regs.remove(&r);
                }
            }
            for d in &op.dests {
                if let Dest::Pred(p, a) = d {
                    if op.guard.is_none() && a.kind == epic_ir::PredActionKind::Uncond {
                        live_preds.remove(p);
                    }
                }
            }
            for r in op.uses_regs() {
                live_regs.insert(r);
            }
            for p in op.uses_preds_with_guard() {
                live_preds.insert(p);
            }
        }
        if pruned || keep.contains(&false) {
            changed.push(b);
        }
        let mut it = keep.iter();
        func.block_mut(b).ops.retain(|_| *it.next().expect("same length"));
    }
    if !changed.is_empty() {
        live.repair(func, &changed);
    }
    removed
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use epic_ir::{CmpCond, FunctionBuilder, Operand};
    use epic_interp::{diff_test, Input};

    /// Cleans `f` against a fresh liveness context.
    fn clean(f: &mut Function) -> usize {
        let mut live = GlobalLiveness::compute(f);
        dce(f, &mut live)
    }

    #[test]
    fn removes_dead_arithmetic() {
        let mut b = FunctionBuilder::new("d");
        let e = b.block("e");
        b.switch_to(e);
        let x = b.movi(1);
        let _dead = b.add(x.into(), Operand::Imm(2)); // unused
        let d = b.movi(0);
        b.store(d, x.into());
        b.ret();
        let mut f = b.finish();
        let n = clean(&mut f);
        assert_eq!(n, 1);
        assert!(f.block(e).ops.iter().all(|o| o.opcode != Opcode::Add));
    }

    #[test]
    fn removes_transitively_dead_chains() {
        let mut b = FunctionBuilder::new("d2");
        let e = b.block("e");
        b.switch_to(e);
        let x = b.movi(1);
        let y = b.add(x.into(), Operand::Imm(2));
        let _z = b.add(y.into(), Operand::Imm(3)); // chain only feeds itself
        b.ret();
        let mut f = b.finish();
        let n = clean(&mut f);
        assert_eq!(n, 3);
        assert_eq!(f.block(e).ops.len(), 1); // just ret
    }

    #[test]
    fn prunes_dead_cmpp_destination() {
        let mut b = FunctionBuilder::new("d3");
        let e = b.block("e");
        b.switch_to(e);
        let x = b.movi(1);
        let (t, _f_unused) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
        b.set_guard(Some(t));
        let d = b.movi(0);
        b.store(d, Operand::Imm(5));
        b.set_guard(None);
        b.ret();
        let mut f = b.finish();
        clean(&mut f);
        let cmpp = f.block(e).ops.iter().find(|o| o.is_cmpp()).unwrap();
        assert_eq!(cmpp.dests.len(), 1, "dead UC destination pruned");
    }

    #[test]
    fn keeps_stores_branches_and_guarded_defs() {
        let mut b = FunctionBuilder::new("d4");
        let e = b.block("e");
        let t = b.block("t");
        b.switch_to(t);
        b.ret();
        b.switch_to(e);
        let p = b.pred();
        let x = b.reg();
        b.set_guard(Some(p));
        b.mov_to(x, Operand::Imm(1)); // guarded def of a live reg
        b.set_guard(None);
        let d = b.movi(0);
        b.store(d, x.into());
        b.branch_if(p, t);
        b.ret();
        let mut f = b.finish();
        let before = f.static_op_count();
        clean(&mut f);
        assert_eq!(f.static_op_count(), before);
    }

    #[test]
    fn dce_preserves_semantics() {
        let mut b = FunctionBuilder::new("d5");
        let e = b.block("e");
        b.switch_to(e);
        let x = b.movi(3);
        let y = b.mul(x.into(), x.into());
        let _dead1 = b.add(y.into(), Operand::Imm(1));
        let _dead2 = b.shl(x.into(), Operand::Imm(2));
        let d = b.movi(0);
        b.store(d, y.into());
        b.ret();
        let f = b.finish();
        let mut g = f.clone();
        clean(&mut g);
        diff_test(&f, &g, &Input::new().memory_size(4)).unwrap();
        assert!(g.static_op_count() < f.static_op_count());
    }
}

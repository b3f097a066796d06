//! FRP conversion (paper §4.1, Figures 1 and 6(c)).
//!
//! Rewrites each superblock so that:
//!
//! * every conditional exit branch's guard is computed by a two-target
//!   `cmpp.un.uc` whose `UC` output is the *fall-through FRP* of the code
//!   below the branch, and
//! * every operation below a branch is guarded by that fall-through FRP
//!   instead of depending on the branch by control.
//!
//! After conversion, the branch FRPs in a chain are pairwise disjoint, so
//! the branches "may be reordered during scheduling and they may execute in
//! parallel" — chains of branch dependences become chains of data
//! dependences through the compares, which ICBM then height-reduces.

use epic_ir::{BlockId, Dest, Function, Opcode, PredReg};

/// FRP-converts every block of `func` in place. Returns the number of
/// branches converted.
///
/// Conversion is applied to the maximal prefix of each block's branch chain
/// that matches the convertible pattern; unguarded operations after a
/// converted branch are re-guarded by the branch's fall-through FRP, while
/// already-guarded operations are left untouched (their guards were defined
/// by converted compares upstream, so they already imply the block FRP — the
/// general hyperblock input case of §4.1).
pub fn frp_convert(func: &mut Function) -> usize {
    let blocks: Vec<BlockId> = func.layout().to_vec();
    let mut converted = 0;
    for b in blocks {
        converted += frp_convert_block(func, b);
    }
    converted
}

fn frp_convert_block(func: &mut Function, block: BlockId) -> usize {
    let nops = func.block(block).ops.len();
    // Current fall-through FRP: None = T (entry condition of the block).
    let mut current_frp: Option<PredReg> = None;
    // Index of the most recently converted branch. The next chain compare
    // must come *after* it: re-guarding a compare with the chain FRP is a
    // no-op on every executed path only when the compare itself is reached
    // exactly when the FRP is true, i.e. when it sits below every converted
    // branch so far. (The degenerate violation: one two-target cmpp feeding
    // two branches — converting the second would guard the cmpp with its
    // own output.)
    let mut last_converted: Option<usize> = None;
    let mut converted = 0;

    let mut i = 0;
    while i < nops {
        let op = &func.block(block).ops[i];
        let is_cond_branch = op.opcode == Opcode::Branch && op.guard.is_some();
        if !is_cond_branch {
            // Re-guard unguarded, non-branch ops by the current FRP.
            // (An unguarded branch is an unconditional jump: the region
            // ends; stop converting past it.)
            if op.opcode == Opcode::Branch && op.guard.is_none() {
                break;
            }
            if op.opcode == Opcode::Ret {
                i += 1;
                continue;
            }
            if func.block(block).ops[i].guard.is_none() {
                func.block_mut(block).ops[i].guard = current_frp;
            }
            i += 1;
            continue;
        }

        let guard = op.guard.expect("conditional branch has a guard");
        // Find the defining cmpp of the guard above the branch.
        let def_idx = (0..i).rev().find(|&j| {
            func.block(block).ops[j]
                .dests
                .iter()
                .any(|d| d.as_pred() == Some(guard))
        });
        let Some(def_idx) = def_idx else {
            // Guard defined outside the block: leave this branch (and the
            // rest of the chain) unconverted; subsequent ops keep their
            // guards. The FRP chain restarts fresh after it.
            current_frp = None;
            i += 1;
            continue;
        };
        let def = &func.block(block).ops[def_idx];
        if !def.is_cmpp() {
            current_frp = None;
            i += 1;
            continue;
        }
        // The compare must be in chain position: below every converted
        // branch, and either unguarded (we will chain it under the current
        // FRP) or already guarded by exactly the current FRP. A compare
        // above a converted branch, or one under an unrelated guard `q`,
        // does not compute the fall-through condition — its complementary
        // output is `q && !eff`, which is false (not "fall through") when
        // `q` is false — so converting would skip ops the original
        // executes.
        if last_converted.is_some_and(|lb| def_idx < lb)
            || (def.guard.is_some() && def.guard != current_frp)
        {
            current_frp = None;
            i += 1;
            continue;
        }
        // Locate or create the complementary (fall-through) output.
        let taken_action = def
            .dests
            .iter()
            .find_map(|d| match d {
                Dest::Pred(p, a) if *p == guard => Some(*a),
                _ => None,
            })
            .expect("guard among dests");
        if taken_action.kind != epic_ir::PredActionKind::Uncond {
            current_frp = None;
            i += 1;
            continue;
        }
        let complement = taken_action.complemented();
        let existing = def.dests.iter().find_map(|d| match d {
            Dest::Pred(p, a) if *p != guard && *a == complement => Some(*p),
            _ => None,
        });
        let fall_through = match existing {
            Some(p) => {
                // The complementary output is the FRP for everything below
                // the branch; a later redefinition would make those reads
                // observe the wrong value. (A freshly created output can
                // never be redefined.)
                let redefined = func.block(block).ops[def_idx + 1..]
                    .iter()
                    .any(|o| o.dests.iter().any(|d| d.as_pred() == Some(p)));
                if redefined {
                    current_frp = None;
                    i += 1;
                    continue;
                }
                p
            }
            None => {
                if def.dests.len() >= 2 {
                    // No room for a second destination: skip conversion.
                    current_frp = None;
                    i += 1;
                    continue;
                }
                let p = func.new_pred();
                func.block_mut(block).ops[def_idx]
                    .dests
                    .push(Dest::Pred(p, complement));
                p
            }
        };
        // Chain the compare itself under the current FRP if unguarded.
        if func.block(block).ops[def_idx].guard.is_none() {
            func.block_mut(block).ops[def_idx].guard = current_frp;
        }
        current_frp = Some(fall_through);
        last_converted = Some(i);
        converted += 1;
        i += 1;
    }
    converted
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_analysis::PredFacts;
    use epic_ir::{CmpCond, FunctionBuilder, Operand};
    use epic_interp::{diff_test, Input};

    /// A plain (unpredicated) superblock with three exit branches, like the
    /// paper's Figure 1(a): stores trapped between branches.
    fn plain_superblock() -> (epic_ir::Function, epic_ir::Reg, BlockId) {
        let mut fb = FunctionBuilder::new("sb");
        let sb = fb.block("sb");
        let e1 = fb.block("e1");
        let e2 = fb.block("e2");
        let e3 = fb.block("e3");
        for (k, e) in [e1, e2, e3].into_iter().enumerate() {
            fb.switch_to(e);
            let d = fb.movi(20 + k as i64);
            fb.store(d, Operand::Imm(1));
            fb.ret();
        }
        fb.switch_to(sb);
        let x = fb.reg();
        let v1 = fb.load(x);
        let t1 = fb.cmpp_un(CmpCond::Lt, v1.into(), Operand::Imm(0));
        fb.branch_if(t1, e1);
        let d1 = fb.movi(10);
        fb.store(d1, v1.into());
        let x2 = fb.add(x.into(), Operand::Imm(1));
        let v2 = fb.load(x2);
        let t2 = fb.cmpp_un(CmpCond::Lt, v2.into(), Operand::Imm(0));
        fb.branch_if(t2, e2);
        let d2 = fb.movi(11);
        fb.store(d2, v2.into());
        let x3 = fb.add(x.into(), Operand::Imm(2));
        let v3 = fb.load(x3);
        let t3 = fb.cmpp_un(CmpCond::Lt, v3.into(), Operand::Imm(0));
        fb.branch_if(t3, e3);
        let d3 = fb.movi(12);
        fb.store(d3, v3.into());
        fb.ret();
        (fb.finish(), x, sb)
    }

    #[test]
    fn converts_all_branches() {
        let (mut f, _x, sb) = plain_superblock();
        let n = frp_convert(&mut f);
        assert_eq!(n, 3);
        epic_ir::verify(&f).unwrap();
        // Every op after the first branch is now guarded.
        let ops = &f.block(sb).ops;
        let first_branch = ops.iter().position(|o| o.opcode == Opcode::Branch).unwrap();
        for op in &ops[first_branch + 1..] {
            if op.opcode == Opcode::Ret {
                continue;
            }
            assert!(op.guard.is_some(), "op {op} should be guarded");
        }
    }

    #[test]
    fn conversion_preserves_semantics() {
        let (f, x, _sb) = plain_superblock();
        let mut g = f.clone();
        frp_convert(&mut g);
        for image in [
            vec![1, 2, 3],
            vec![-1, 2, 3],
            vec![1, -2, 3],
            vec![1, 2, -3],
            vec![-1, -2, -3],
        ] {
            let input = Input::new().memory_size(32).with_memory(0, &image).with_reg(x, 0);
            diff_test(&f, &g, &input).unwrap();
        }
    }

    #[test]
    fn branch_frps_become_disjoint() {
        let (mut f, _x, sb) = plain_superblock();
        frp_convert(&mut f);
        let ops = &f.block(sb).ops;
        let mut facts = PredFacts::compute(ops);
        let branches: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.opcode == Opcode::Branch)
            .map(|(i, _)| i)
            .collect();
        for (a, &i) in branches.iter().enumerate() {
            for &j in &branches[a + 1..] {
                assert!(facts.guards_disjoint(i, j));
            }
        }
    }

    #[test]
    fn already_guarded_ops_are_untouched() {
        let (mut f, _x, sb) = plain_superblock();
        // Pre-guard one op (simulating prior if-conversion).
        let pre = f.new_pred();
        let idx = f.block(sb).ops.len() - 2; // the final store
        f.block_mut(sb).ops[idx].guard = Some(pre);
        frp_convert(&mut f);
        assert_eq!(f.block(sb).ops[idx].guard, Some(pre));
    }

    #[test]
    fn entry_defined_guard_stops_chain() {
        // A branch guarded by a region-entry predicate cannot be converted.
        let mut fb = FunctionBuilder::new("entry_guard");
        let sb = fb.block("sb");
        let out = fb.block("out");
        fb.switch_to(out);
        fb.ret();
        fb.switch_to(sb);
        let p = fb.pred();
        fb.branch_if(p, out);
        fb.movi(1);
        fb.ret();
        let mut f = fb.finish();
        assert_eq!(frp_convert(&mut f), 0);
        // The op after the unconverted branch must stay unguarded.
        let ops = &f.block(sb).ops;
        let mov = ops.iter().find(|o| o.opcode == Opcode::Mov).unwrap();
        assert_eq!(mov.guard, None);
    }
}

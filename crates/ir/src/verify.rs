//! IR well-formedness checking.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use crate::func::Function;
use crate::ids::{BlockId, OpId};
use crate::op::{Dest, Operand};
use crate::opcode::Opcode;

/// An IR well-formedness violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The function has no blocks.
    EmptyFunction,
    /// A block id appears more than once in the layout.
    DuplicateLayoutBlock(BlockId),
    /// The final layout block can fall through off the end of the function.
    FallthroughOffEnd(BlockId),
    /// A branch targets a block that is not in the layout.
    BranchTargetNotInLayout(OpId, BlockId),
    /// An operation id appears more than once.
    DuplicateOpId(OpId),
    /// An operation has the wrong number or kind of destinations.
    BadDests(OpId, &'static str),
    /// An operation has the wrong number or kind of sources.
    BadSrcs(OpId, &'static str),
    /// A register or predicate index is out of the allocated range.
    UnallocatedId(OpId, &'static str),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::EmptyFunction => write!(f, "function has no blocks"),
            VerifyError::DuplicateLayoutBlock(b) => {
                write!(f, "block {b} appears twice in the layout")
            }
            VerifyError::FallthroughOffEnd(b) => {
                write!(f, "final block {b} can fall through off the end of the function")
            }
            VerifyError::BranchTargetNotInLayout(op, b) => {
                write!(f, "{op} branches to {b} which is not in the layout")
            }
            VerifyError::DuplicateOpId(op) => write!(f, "operation id {op} is duplicated"),
            VerifyError::BadDests(op, what) => write!(f, "{op}: bad destinations: {what}"),
            VerifyError::BadSrcs(op, what) => write!(f, "{op}: bad sources: {what}"),
            VerifyError::UnallocatedId(op, what) => {
                write!(f, "{op}: references unallocated {what}")
            }
        }
    }
}

impl Error for VerifyError {}

/// Checks structural well-formedness of a function.
///
/// # Errors
///
/// Returns the first violation found; see [`VerifyError`] for the checks
/// performed.
pub fn verify(func: &Function) -> Result<(), VerifyError> {
    if func.layout().is_empty() {
        return Err(VerifyError::EmptyFunction);
    }
    let mut seen_blocks = HashSet::new();
    for &b in func.layout() {
        if !seen_blocks.insert(b) {
            return Err(VerifyError::DuplicateLayoutBlock(b));
        }
    }
    let last = *func.layout().last().expect("layout non-empty");
    if !func.block(last).ends_with_unconditional_exit() {
        return Err(VerifyError::FallthroughOffEnd(last));
    }

    let mut seen_ops = HashSet::new();
    for block in func.blocks_in_layout() {
        for op in &block.ops {
            if !seen_ops.insert(op.id) {
                return Err(VerifyError::DuplicateOpId(op.id));
            }
            verify_op_shape(func, op, &seen_blocks)?;
            verify_allocation(func, op)?;
        }
    }
    Ok(())
}

fn verify_op_shape(
    _func: &Function,
    op: &crate::op::Op,
    layout_blocks: &HashSet<BlockId>,
) -> Result<(), VerifyError> {
    use Opcode::*;
    match op.opcode {
        Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | FAdd | FSub | FMul | FDiv => {
            if op.dests.len() != 1 || op.dests[0].as_reg().is_none() {
                return Err(VerifyError::BadDests(op.id, "binary op needs one register dest"));
            }
            if op.srcs.len() != 2 {
                return Err(VerifyError::BadSrcs(op.id, "binary op needs two sources"));
            }
        }
        Mov => {
            if op.dests.len() != 1 || op.dests[0].as_reg().is_none() {
                return Err(VerifyError::BadDests(op.id, "mov needs one register dest"));
            }
            if op.srcs.len() != 1 {
                return Err(VerifyError::BadSrcs(op.id, "mov needs one source"));
            }
        }
        Load | LoadS => {
            if op.dests.len() != 1 || op.dests[0].as_reg().is_none() {
                return Err(VerifyError::BadDests(op.id, "load needs one register dest"));
            }
            if op.srcs.len() != 1 || op.srcs[0].as_reg().is_none() {
                return Err(VerifyError::BadSrcs(op.id, "load needs one register address"));
            }
        }
        Store => {
            if !op.dests.is_empty() {
                return Err(VerifyError::BadDests(op.id, "store has no destinations"));
            }
            if op.srcs.len() != 2 || op.srcs[0].as_reg().is_none() {
                return Err(VerifyError::BadSrcs(op.id, "store needs address and value"));
            }
        }
        Cmpp(_) => {
            if op.dests.is_empty() || op.dests.len() > 2 {
                return Err(VerifyError::BadDests(op.id, "cmpp needs 1 or 2 predicate dests"));
            }
            if op.dests.iter().any(|d| d.as_pred().is_none()) {
                return Err(VerifyError::BadDests(op.id, "cmpp dests must be predicates"));
            }
            if op.srcs.len() != 2 {
                return Err(VerifyError::BadSrcs(op.id, "cmpp needs two sources"));
            }
        }
        PredInit => {
            if op.dests.is_empty() || op.dests.iter().any(|d| d.as_pred().is_none()) {
                return Err(VerifyError::BadDests(op.id, "pinit dests must be predicates"));
            }
            if op.srcs.len() != op.dests.len() {
                return Err(VerifyError::BadSrcs(op.id, "pinit needs one constant per dest"));
            }
            if op
                .srcs
                .iter()
                .any(|s| !matches!(s, Operand::Imm(0) | Operand::Imm(1)))
            {
                return Err(VerifyError::BadSrcs(op.id, "pinit constants must be 0 or 1"));
            }
        }
        Pbr => {
            if op.dests.len() != 1 || op.dests[0].as_reg().is_none() {
                return Err(VerifyError::BadDests(op.id, "pbr needs one btr register dest"));
            }
            match op.branch_target() {
                Some(t) if layout_blocks.contains(&t) => {}
                Some(t) => return Err(VerifyError::BranchTargetNotInLayout(op.id, t)),
                None => return Err(VerifyError::BadSrcs(op.id, "pbr needs a target label")),
            }
        }
        Branch => {
            if !op.dests.is_empty() {
                return Err(VerifyError::BadDests(op.id, "branch has no destinations"));
            }
            if op.srcs.first().and_then(|s| s.as_reg()).is_none() {
                return Err(VerifyError::BadSrcs(op.id, "branch needs a btr register"));
            }
            match op.branch_target() {
                Some(t) if layout_blocks.contains(&t) => {}
                Some(t) => return Err(VerifyError::BranchTargetNotInLayout(op.id, t)),
                None => return Err(VerifyError::BadSrcs(op.id, "branch needs a target label")),
            }
        }
        Ret => {
            if !op.dests.is_empty() || !op.srcs.is_empty() {
                return Err(VerifyError::BadSrcs(op.id, "ret takes nothing"));
            }
        }
    }
    // Non-cmpp, non-pinit ops must not write predicates.
    if !matches!(op.opcode, Cmpp(_) | PredInit)
        && op.dests.iter().any(|d| matches!(d, Dest::Pred(..)))
    {
        return Err(VerifyError::BadDests(op.id, "only cmpp/pinit may write predicates"));
    }
    Ok(())
}

fn verify_allocation(func: &Function, op: &crate::op::Op) -> Result<(), VerifyError> {
    let reg_ok = |r: crate::Reg| r.index() < func.reg_count();
    let pred_ok = |p: crate::PredReg| p.index() < func.pred_count();
    if op.uses_regs().chain(op.defs_regs()).any(|r| !reg_ok(r)) {
        return Err(VerifyError::UnallocatedId(op.id, "register"));
    }
    if op
        .uses_preds_with_guard()
        .chain(op.defs_preds())
        .any(|p| !pred_ok(p))
    {
        return Err(VerifyError::UnallocatedId(op.id, "predicate"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ids::{PredReg, Reg};
    use crate::op::Op;
    use crate::opcode::CmpCond;

    fn valid_function() -> Function {
        let mut b = FunctionBuilder::new("v");
        let blk = b.block("entry");
        b.switch_to(blk);
        let x = b.movi(0);
        let (t, _f) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
        b.branch_if(t, blk);
        b.ret();
        b.finish()
    }

    #[test]
    fn accepts_valid_function() {
        verify(&valid_function()).expect("valid");
    }

    #[test]
    fn rejects_empty_function() {
        let f = Function::new("e");
        assert_eq!(verify(&f), Err(VerifyError::EmptyFunction));
    }

    #[test]
    fn rejects_fallthrough_off_end() {
        let mut f = valid_function();
        let entry = f.entry();
        f.block_mut(entry).ops.pop(); // remove ret
        assert!(matches!(verify(&f), Err(VerifyError::FallthroughOffEnd(_))));
    }

    #[test]
    fn rejects_duplicate_op_ids() {
        let mut f = valid_function();
        let entry = f.entry();
        let dup = f.block(entry).ops[0].clone();
        f.block_mut(entry).ops.insert(0, dup);
        assert!(matches!(verify(&f), Err(VerifyError::DuplicateOpId(_))));
    }

    #[test]
    fn rejects_branch_to_unknown_block() {
        let mut f = valid_function();
        let entry = f.entry();
        for op in &mut f.block_mut(entry).ops {
            if op.opcode == Opcode::Branch {
                op.set_branch_target(BlockId(99));
            }
        }
        assert!(matches!(
            verify(&f),
            Err(VerifyError::BranchTargetNotInLayout(_, BlockId(99)))
        ));
    }

    #[test]
    fn rejects_unallocated_register() {
        let mut f = valid_function();
        let entry = f.entry();
        let id = f.new_op_id();
        f.block_mut(entry).ops.insert(
            0,
            Op {
                id,
                opcode: Opcode::Mov,
                dests: vec![Dest::Reg(Reg(1000))],
                srcs: vec![Operand::Imm(0)],
                guard: None,
            },
        );
        assert!(matches!(verify(&f), Err(VerifyError::UnallocatedId(_, "register"))));
    }

    #[test]
    fn rejects_non_cmpp_pred_write() {
        let mut f = valid_function();
        let entry = f.entry();
        let id = f.new_op_id();
        let p = f.new_pred();
        f.block_mut(entry).ops.insert(
            0,
            Op {
                id,
                opcode: Opcode::Mov,
                dests: vec![Dest::Pred(p, crate::PredAction::UN)],
                srcs: vec![Operand::Imm(0)],
                guard: None,
            },
        );
        assert!(matches!(verify(&f), Err(VerifyError::BadDests(..))));
    }

    #[test]
    fn rejects_bad_pinit_constant() {
        let mut f = valid_function();
        let entry = f.entry();
        let id = f.new_op_id();
        let p = f.new_pred();
        f.block_mut(entry).ops.insert(
            0,
            Op {
                id,
                opcode: Opcode::PredInit,
                dests: vec![Dest::Pred(p, crate::PredAction::UN)],
                srcs: vec![Operand::Imm(3)],
                guard: None,
            },
        );
        assert!(matches!(verify(&f), Err(VerifyError::BadSrcs(..))));
    }

    #[test]
    fn error_display_is_nonempty() {
        let errs = [
            VerifyError::EmptyFunction,
            VerifyError::DuplicateLayoutBlock(BlockId(1)),
            VerifyError::FallthroughOffEnd(BlockId(2)),
            VerifyError::BranchTargetNotInLayout(crate::OpId(3), BlockId(4)),
            VerifyError::DuplicateOpId(crate::OpId(5)),
            VerifyError::BadDests(crate::OpId(6), "x"),
            VerifyError::BadSrcs(crate::OpId(7), "y"),
            VerifyError::UnallocatedId(crate::OpId(8), "register"),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
        let _ = PredReg(0);
    }
}

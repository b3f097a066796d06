//! Reaching definitions of predicate registers within a region.
//!
//! The ICBM *match* phase (paper §5.2) performs "reaching-definition
//! analysis ... on predicate variables: for every branch or compare
//! operation, this analysis identifies the unique compare-to-predicate
//! operation that computes the guarding predicate, if such an operation
//! exists within the region."

use epic_ir::{FxHashMap, Op, PredReg};

/// Where a predicate value read by an operation was defined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredDef {
    /// Defined by the op at this index in the region (the *unique* reaching
    /// definition).
    Op(usize),
    /// Live into the region (never defined above the reader).
    Entry,
    /// More than one definition reaches (e.g. wired-or/and accumulation).
    Multiple,
}

/// Reaching predicate definitions for each operation of a region.
#[derive(Clone, Debug)]
pub struct PredReaching {
    /// `guard_def[i]` describes where op `i`'s guard predicate was defined
    /// (`None` when the op is unguarded).
    guard_def: Vec<Option<PredDef>>,
}

impl PredReaching {
    /// Analyzes the ops of one region in program order.
    pub fn compute(ops: &[Op]) -> PredReaching {
        // For each predicate: the definition state so far.
        let mut state: FxHashMap<PredReg, PredDef> = FxHashMap::default();
        let mut guard_def = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            guard_def.push(op.guard.map(|p| *state.get(&p).unwrap_or(&PredDef::Entry)));
            for d in &op.dests {
                if let epic_ir::Dest::Pred(preg, action) = *d {
                    // Unconditional cmpp destinations always write (even
                    // under a false guard), so they *kill*: the write is the
                    // unique reaching definition for later readers. An
                    // unguarded PredInit also kills. Wired destinations and
                    // guarded PredInits write partially: later readers see
                    // an ambiguous definition.
                    let total_write = match op.opcode {
                        epic_ir::Opcode::Cmpp(_) => {
                            action.kind == epic_ir::PredActionKind::Uncond
                        }
                        epic_ir::Opcode::PredInit => op.guard.is_none(),
                        _ => false,
                    };
                    let new =
                        if total_write { PredDef::Op(i) } else { PredDef::Multiple };
                    state.insert(preg, new);
                }
            }
        }
        PredReaching { guard_def }
    }

    /// The reaching definition of op `i`'s guard (`None` for unguarded ops).
    pub fn guard_def(&self, i: usize) -> Option<PredDef> {
        self.guard_def[i]
    }

    /// Convenience: the defining op index when the guard has a unique
    /// in-region definition.
    pub fn unique_guard_def(&self, i: usize) -> Option<usize> {
        match self.guard_def[i] {
            Some(PredDef::Op(j)) => Some(j),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::{CmpCond, FunctionBuilder, Operand, PredAction};

    #[test]
    fn unique_definition_found() {
        let mut b = FunctionBuilder::new("r");
        let blk = b.block("b");
        b.switch_to(blk);
        let x = b.reg();
        let (t, f_) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0)); // op 0
        b.set_guard(Some(t));
        b.movi(1); // op 1
        b.set_guard(Some(f_));
        b.movi(2); // op 2
        b.set_guard(None);
        b.ret();
        let f = b.finish();
        let ops = &f.block(blk).ops;
        let r = PredReaching::compute(ops);
        assert_eq!(r.guard_def(0), None);
        assert_eq!(r.guard_def(1), Some(PredDef::Op(0)));
        assert_eq!(r.unique_guard_def(2), Some(0));
    }

    #[test]
    fn entry_definition() {
        let mut b = FunctionBuilder::new("e");
        let blk = b.block("b");
        b.switch_to(blk);
        let p = b.pred();
        b.set_guard(Some(p));
        b.movi(1); // op 0: guard defined outside the region
        b.set_guard(None);
        b.ret();
        let f = b.finish();
        let ops = &f.block(blk).ops;
        let r = PredReaching::compute(ops);
        assert_eq!(r.guard_def(0), Some(PredDef::Entry));
        assert_eq!(r.unique_guard_def(0), None);
    }

    #[test]
    fn multiple_definitions_detected() {
        let mut b = FunctionBuilder::new("m");
        let blk = b.block("b");
        b.switch_to(blk);
        let x = b.reg();
        let p = b.pred();
        b.pred_init(&[(p, false)]); // op 0: first def
        b.cmpp(CmpCond::Eq, vec![(p, PredAction::ON)], x.into(), Operand::Imm(0)); // op 1: second
        b.set_guard(Some(p));
        b.movi(1); // op 2
        b.set_guard(None);
        b.ret();
        let f = b.finish();
        let ops = &f.block(blk).ops;
        let r = PredReaching::compute(ops);
        assert_eq!(r.guard_def(2), Some(PredDef::Multiple));
        assert_eq!(r.unique_guard_def(2), None);
    }
}

//! Symbolic predicate analysis of a linear region.
//!
//! Walks the operations of a hyperblock once, in program order, and computes
//! for every operation the exact boolean function of its guard (and of every
//! predicate value it writes) over a set of *condition variables* — one per
//! distinct comparison of distinct register versions. Two `cmpp` operations
//! that compare the same register values with the same (or complementary)
//! condition share a variable, which is what lets the analysis prove that an
//! ICBM lookahead compare computes a predicate related to the original
//! compare's.
//!
//! The resulting [`PredFacts`] answers the queries the rest of the pipeline
//! needs: *are the guards of two operations disjoint* (branch overlap,
//! output/anti dependence relaxation), and *does one guard imply another*
//! (predicate speculation correctness).

use epic_ir::FxHashMap;

use epic_ir::{CmpCond, Dest, Op, Opcode, Operand, PredReg, Reg};

use crate::bdd::{Bdd, BddManager};

/// A value identity: a register at a specific definition version, or a
/// constant. Conditions over identical value identities share BDD variables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum ValKey {
    Reg(Reg, u32),
    Pred(PredReg, u32),
    Imm(i64),
    Label(u32),
}

/// Canonical key for a comparison; `Ne`, `Ge`, `Gt` map onto the negation of
/// `Eq`, `Lt`, `Le` so complementary compares share a variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct CondKey {
    cond: CmpCond,
    a: ValKey,
    b: ValKey,
}

/// Per-operation symbolic predicate information for one region.
pub struct PredFacts {
    manager: BddManager,
    /// For each op index: the symbolic value of the guard when the op is
    /// reached.
    guards: Vec<Bdd>,
    /// For each op index: the symbolic value of each predicate destination
    /// *after* the op writes it.
    dest_values: Vec<Vec<(PredReg, Bdd)>>,
    /// Symbolic value of every predicate at the end of the region.
    final_preds: FxHashMap<PredReg, Bdd>,
}

impl PredFacts {
    /// Analyzes a region (the ops of one hyperblock) in program order.
    pub fn compute(ops: &[Op]) -> PredFacts {
        let mut m = BddManager::new();
        let mut next_var = 0u32;
        let fresh = |m: &mut BddManager, next: &mut u32| -> Bdd {
            let v = *next;
            *next += 1;
            m.var(v)
        };

        // Dense, grow-on-demand tables indexed by register / predicate
        // number (IR ids are allocated contiguously from zero).
        let mut reg_version = VersionTable::default();
        let mut pred_version = VersionTable::default();
        let mut pred_state: Vec<Option<Bdd>> = Vec::new();
        let mut cond_vars: FxHashMap<CondKey, Bdd> = FxHashMap::default();

        let state_of = |p: PredReg, pred_state: &mut Vec<Option<Bdd>>,
                            m: &mut BddManager,
                            next_var: &mut u32|
         -> Bdd {
            if p.index() >= pred_state.len() {
                pred_state.resize(p.index() + 1, None);
            }
            *pred_state[p.index()].get_or_insert_with(|| fresh(m, next_var))
        };

        let mut guards = Vec::with_capacity(ops.len());
        let mut dest_values = Vec::with_capacity(ops.len());

        for op in ops {
            // Guard value at this point. An unseen predicate gets a fresh
            // variable (unknown region-entry value).
            let guard = match op.guard {
                None => Bdd::TRUE,
                Some(p) => state_of(p, &mut pred_state, &mut m, &mut next_var),
            };
            guards.push(guard);

            let mut written: Vec<(PredReg, Bdd)> = Vec::new();
            match op.opcode {
                Opcode::Cmpp(cond) => {
                    let cond_bdd = condition_bdd(
                        &mut m,
                        &mut next_var,
                        &mut cond_vars,
                        cond,
                        op.srcs[0],
                        op.srcs[1],
                        &reg_version,
                        &pred_version,
                    );
                    for d in &op.dests {
                        if let Dest::Pred(p, action) = *d {
                            let old = state_of(p, &mut pred_state, &mut m, &mut next_var);
                            let eff = match action.sense {
                                epic_ir::PredSense::Normal => cond_bdd,
                                epic_ir::PredSense::Complement => m.not(cond_bdd),
                            };
                            let new = match action.kind {
                                epic_ir::PredActionKind::Uncond => m.and(guard, eff),
                                epic_ir::PredActionKind::Or => {
                                    let term = m.and(guard, eff);
                                    m.or(old, term)
                                }
                                epic_ir::PredActionKind::And => {
                                    // writes false when guard ∧ ¬eff
                                    let keep = {
                                        let ng = m.not(guard);
                                        m.or(ng, eff)
                                    };
                                    m.and(old, keep)
                                }
                            };
                            pred_state[p.index()] = Some(new);
                            pred_version.bump(p.index());
                            written.push((p, new));
                        }
                    }
                }
                Opcode::PredInit => {
                    for (d, s) in op.dests.iter().zip(&op.srcs) {
                        if let Dest::Pred(p, _) = *d {
                            let old = state_of(p, &mut pred_state, &mut m, &mut next_var);
                            let constant = matches!(s, Operand::Imm(1));
                            let new = if guard.is_true() {
                                if constant {
                                    Bdd::TRUE
                                } else {
                                    Bdd::FALSE
                                }
                            } else if constant {
                                m.or(old, guard)
                            } else {
                                m.and_not(old, guard)
                            };
                            pred_state[p.index()] = Some(new);
                            pred_version.bump(p.index());
                            written.push((p, new));
                        }
                    }
                }
                _ => {
                    for r in op.defs_regs() {
                        reg_version.bump(r.index());
                    }
                }
            }
            dest_values.push(written);
        }

        let final_preds = pred_state
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|b| (PredReg(i as u32), b)))
            .collect();
        PredFacts { manager: m, guards, dest_values, final_preds }
    }

    /// The symbolic guard of op `i` (indices into the analyzed slice).
    pub fn guard(&self, i: usize) -> Bdd {
        self.guards[i]
    }

    /// The symbolic value each predicate destination of op `i` holds after
    /// the op executes.
    pub fn dest_values(&self, i: usize) -> &[(PredReg, Bdd)] {
        &self.dest_values[i]
    }

    /// The symbolic value of predicate `p` at the end of the region, if the
    /// region ever mentioned it.
    pub fn final_pred(&self, p: PredReg) -> Option<Bdd> {
        self.final_preds.get(&p).copied()
    }

    /// True when the guards of ops `i` and `j` can never both be true —
    /// the condition under which branches may overlap and output/anti
    /// dependences may be discarded.
    pub fn guards_disjoint(&mut self, i: usize, j: usize) -> bool {
        let (a, b) = (self.guards[i], self.guards[j]);
        self.manager.disjoint(a, b)
    }

    /// True when the guard of op `i` implies the guard of op `j`.
    pub fn guard_implies(&mut self, i: usize, j: usize) -> bool {
        let (a, b) = (self.guards[i], self.guards[j]);
        self.manager.implies(a, b)
    }

    /// Access to the underlying manager for further boolean queries.
    pub fn manager(&mut self) -> &mut BddManager {
        &mut self.manager
    }
}

/// A grow-on-demand definition-version table indexed by register /
/// predicate number; absent entries are version 0.
#[derive(Default)]
struct VersionTable {
    versions: Vec<u32>,
}

impl VersionTable {
    #[inline]
    fn get(&self, i: usize) -> u32 {
        self.versions.get(i).copied().unwrap_or(0)
    }

    fn bump(&mut self, i: usize) {
        if i >= self.versions.len() {
            self.versions.resize(i + 1, 0);
        }
        self.versions[i] += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn condition_bdd(
    m: &mut BddManager,
    next_var: &mut u32,
    cond_vars: &mut FxHashMap<CondKey, Bdd>,
    cond: CmpCond,
    a: Operand,
    b: Operand,
    reg_version: &VersionTable,
    pred_version: &VersionTable,
) -> Bdd {
    let key_of = |s: Operand| -> ValKey {
        match s {
            Operand::Reg(r) => ValKey::Reg(r, reg_version.get(r.index())),
            Operand::Pred(p) => ValKey::Pred(p, pred_version.get(p.index())),
            Operand::Imm(i) => ValKey::Imm(i),
            Operand::Label(l) => ValKey::Label(l.0),
        }
    };
    // Canonicalize: Ne/Ge/Gt are complements of Eq/Lt/Le.
    let (canon, negate) = match cond {
        CmpCond::Eq => (CmpCond::Eq, false),
        CmpCond::Ne => (CmpCond::Eq, true),
        CmpCond::Lt => (CmpCond::Lt, false),
        CmpCond::Ge => (CmpCond::Lt, true),
        CmpCond::Le => (CmpCond::Le, false),
        CmpCond::Gt => (CmpCond::Le, true),
    };
    let key = CondKey { cond: canon, a: key_of(a), b: key_of(b) };
    let var = *cond_vars.entry(key).or_insert_with(|| {
        let v = *next_var;
        *next_var += 1;
        m.var(v)
    });
    if negate {
        m.not(var)
    } else {
        var
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::{FunctionBuilder, Operand};

    /// Builds an FRP-converted three-branch chain and returns the ops.
    fn frp_chain() -> (epic_ir::Function, epic_ir::BlockId) {
        let mut b = FunctionBuilder::new("chain");
        let blk = b.block("hb");
        let e1 = b.block("e1");
        let e2 = b.block("e2");
        let e3 = b.block("e3");
        for e in [e1, e2, e3] {
            b.switch_to(e);
            b.ret();
        }
        b.switch_to(blk);
        let x1 = b.reg();
        let x2 = b.reg();
        let x3 = b.reg();
        let (t1, f1) = b.cmpp_un_uc(CmpCond::Eq, x1.into(), Operand::Imm(0));
        b.set_guard(Some(t1));
        b.branch_if(t1, e1);
        b.set_guard(Some(f1));
        let (t2, f2) = b.cmpp_un_uc(CmpCond::Eq, x2.into(), Operand::Imm(0));
        b.branch_if(t2, e2);
        b.set_guard(Some(f2));
        let (t3, _f3) = b.cmpp_un_uc(CmpCond::Eq, x3.into(), Operand::Imm(0));
        b.branch_if(t3, e3);
        b.set_guard(None);
        b.ret();
        (b.finish(), blk)
    }

    #[test]
    fn branch_frps_are_pairwise_disjoint() {
        let (f, blk) = frp_chain();
        let ops = &f.block(blk).ops;
        let mut facts = PredFacts::compute(ops);
        // Find branch op indices (branch, not pbr, not ret).
        let branches: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.opcode == Opcode::Branch)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(branches.len(), 3);
        for (k, &i) in branches.iter().enumerate() {
            for &j in &branches[k + 1..] {
                assert!(facts.guards_disjoint(i, j), "branches {i} and {j}");
            }
        }
    }

    #[test]
    fn nested_guard_implies_outer() {
        let (f, blk) = frp_chain();
        let ops = &f.block(blk).ops;
        let mut facts = PredFacts::compute(ops);
        // The cmpp defining (t3,f3) is guarded by f2; the cmpp defining
        // (t2,f2) is guarded by f1; guard(t3's cmpp) implies guard(t2's cmpp).
        let cmpps: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_cmpp())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(cmpps.len(), 3);
        assert!(facts.guard_implies(cmpps[2], cmpps[1]));
        assert!(!facts.guard_implies(cmpps[1], cmpps[2]));
    }

    #[test]
    fn same_condition_shares_variable() {
        // Two cmpps on the same register version with the same condition
        // produce identical predicate functions.
        let mut b = FunctionBuilder::new("share");
        let blk = b.block("b");
        b.switch_to(blk);
        let x = b.reg();
        let p1 = b.cmpp_un(CmpCond::Eq, x.into(), Operand::Imm(0));
        let p2 = b.cmpp_un(CmpCond::Eq, x.into(), Operand::Imm(0));
        let p3 = b.cmpp_un(CmpCond::Ne, x.into(), Operand::Imm(0));
        b.ret();
        let f = b.finish();
        let ops = &f.block(blk).ops;
        let facts = PredFacts::compute(ops);
        let v1 = facts.dest_values(0)[0];
        let v2 = facts.dest_values(1)[0];
        let v3 = facts.dest_values(2)[0];
        assert_eq!(v1.0, p1);
        assert_eq!(v1.1, v2.1, "same condition, same version: same function");
        assert_ne!(v1.1, v3.1);
        let _ = (p2, p3);
        // And Ne is exactly the complement of Eq:
        let mut facts = facts;
        let m = facts.manager();
        assert_eq!(m.not(v1.1), v3.1);
    }

    #[test]
    fn redefinition_gets_new_variable() {
        // After x is redefined, eq(x,0) is a *different* condition.
        let mut b = FunctionBuilder::new("ver");
        let blk = b.block("b");
        b.switch_to(blk);
        let x = b.reg();
        b.cmpp_un(CmpCond::Eq, x.into(), Operand::Imm(0));
        let x2 = b.add(x.into(), Operand::Imm(1));
        b.mov_to(x, x2.into());
        b.cmpp_un(CmpCond::Eq, x.into(), Operand::Imm(0));
        b.ret();
        let f = b.finish();
        let ops = &f.block(blk).ops;
        let facts = PredFacts::compute(ops);
        assert_ne!(facts.dest_values(0)[0].1, facts.dest_values(3)[0].1);
    }

    #[test]
    fn wired_or_accumulates_disjunction() {
        use epic_ir::PredAction;
        let mut b = FunctionBuilder::new("wor");
        let blk = b.block("b");
        b.switch_to(blk);
        let x = b.reg();
        let y = b.reg();
        let p = b.pred();
        b.pred_init(&[(p, false)]);
        b.cmpp(CmpCond::Eq, vec![(p, PredAction::ON)], x.into(), Operand::Imm(0));
        b.cmpp(CmpCond::Eq, vec![(p, PredAction::ON)], y.into(), Operand::Imm(0));
        // q = x==0 computed directly: q implies p.
        let q = b.cmpp_un(CmpCond::Eq, x.into(), Operand::Imm(0));
        b.ret();
        let f = b.finish();
        let ops = &f.block(blk).ops;
        let mut facts = PredFacts::compute(ops);
        let p_final = facts.final_pred(p).unwrap();
        let q_final = facts.final_pred(q).unwrap();
        let m = facts.manager();
        assert!(m.implies(q_final, p_final));
        assert!(!m.implies(p_final, q_final));
    }

    #[test]
    fn pred_init_under_guard() {
        // pinit p=1 under guard g: p becomes (old ∨ g); with old=0, p == g.
        let mut b = FunctionBuilder::new("pi");
        let blk = b.block("b");
        b.switch_to(blk);
        let x = b.reg();
        let g = b.cmpp_un(CmpCond::Lt, x.into(), Operand::Imm(5));
        let p = b.pred();
        b.pred_init(&[(p, false)]);
        b.set_guard(Some(g));
        b.pred_init(&[(p, true)]);
        b.set_guard(None);
        b.ret();
        let f = b.finish();
        let ops = &f.block(blk).ops;
        let mut facts = PredFacts::compute(ops);
        // After the guarded pinit (op index 2), p's value equals g's value.
        let p_after = facts.dest_values(2)[0].1;
        let g_val = facts.dest_values(0)[0].1;
        let m = facts.manager();
        assert!(m.implies(p_after, g_val) && m.implies(g_val, p_after));
    }
}

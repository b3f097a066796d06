//! A convenience builder for constructing IR functions.

use crate::func::Function;
use crate::ids::{BlockId, PredReg, Reg};
use crate::op::{Dest, Op, Operand};
use crate::opcode::{CmpCond, Opcode, PredAction};

/// Incrementally builds a [`Function`].
///
/// The builder keeps a *current block* (set with [`switch_to`]) and a
/// *current guard* (set with [`set_guard`]); emitted operations are appended
/// to the current block under the current guard.
///
/// ```
/// use epic_ir::{FunctionBuilder, CmpCond, Operand};
///
/// let mut b = FunctionBuilder::new("abs");
/// let entry = b.block("entry");
/// let done = b.block("done");
/// b.switch_to(entry);
/// let x = b.reg();
/// let (neg, _) = b.cmpp_un_uc(CmpCond::Lt, x.into(), Operand::Imm(0));
/// b.set_guard(Some(neg));
/// let zero = b.movi(0);
/// b.sub(zero.into(), x.into());
/// b.set_guard(None);
/// b.jump(done);
/// b.switch_to(done);
/// b.ret();
/// let f = b.finish();
/// assert_eq!(f.layout().len(), 2);
/// ```
///
/// [`switch_to`]: FunctionBuilder::switch_to
/// [`set_guard`]: FunctionBuilder::set_guard
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: Option<BlockId>,
    guard: Option<PredReg>,
    alias_class: Option<u32>,
}

impl FunctionBuilder {
    /// Creates a builder for a new, empty function.
    pub fn new(name: impl Into<String>) -> FunctionBuilder {
        FunctionBuilder { func: Function::new(name), current: None, guard: None, alias_class: None }
    }

    /// Creates a new block at the end of the layout.
    pub fn block(&mut self, name: impl Into<String>) -> BlockId {
        self.func.add_block(name)
    }

    /// Makes `block` the current insertion point.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = Some(block);
    }

    /// Sets the guard applied to subsequently emitted operations
    /// (`None` = the constant guard `T`).
    pub fn set_guard(&mut self, guard: Option<PredReg>) {
        self.guard = guard;
    }

    /// Sets the alias class recorded for subsequently emitted memory
    /// operations (`None` = may alias anything). Two memory operations in
    /// different classes are promised never to touch the same location.
    pub fn set_alias_class(&mut self, class: Option<u32>) {
        self.alias_class = class;
    }

    /// Allocates a fresh general register.
    pub fn reg(&mut self) -> Reg {
        self.func.new_reg()
    }

    /// Allocates a fresh predicate register.
    pub fn pred(&mut self) -> PredReg {
        self.func.new_pred()
    }

    /// Emits a raw operation into the current block.
    ///
    /// # Panics
    ///
    /// Panics if no current block is set.
    pub fn emit(&mut self, opcode: Opcode, dests: Vec<Dest>, srcs: Vec<Operand>) -> &mut Op {
        let id = self.func.new_op_id();
        let guard = self.guard;
        if matches!(opcode, Opcode::Load | Opcode::LoadS | Opcode::Store) {
            if let Some(c) = self.alias_class {
                self.func.set_mem_class(id, c);
            }
        }
        let block = self.current.expect("no current block; call switch_to first");
        let ops = &mut self.func.block_mut(block).ops;
        ops.push(Op { id, opcode, dests, srcs, guard });
        ops.last_mut().expect("just pushed")
    }

    fn emit_binary(&mut self, opcode: Opcode, a: Operand, b: Operand) -> Reg {
        let d = self.reg();
        self.emit(opcode, vec![Dest::Reg(d)], vec![a, b]);
        d
    }

    /// `d = add(a, b)`.
    pub fn add(&mut self, a: Operand, b: Operand) -> Reg {
        self.emit_binary(Opcode::Add, a, b)
    }

    /// `d = sub(a, b)`.
    pub fn sub(&mut self, a: Operand, b: Operand) -> Reg {
        self.emit_binary(Opcode::Sub, a, b)
    }

    /// `d = mul(a, b)`.
    pub fn mul(&mut self, a: Operand, b: Operand) -> Reg {
        self.emit_binary(Opcode::Mul, a, b)
    }

    /// `d = div(a, b)`.
    pub fn div(&mut self, a: Operand, b: Operand) -> Reg {
        self.emit_binary(Opcode::Div, a, b)
    }

    /// `d = rem(a, b)`.
    pub fn rem(&mut self, a: Operand, b: Operand) -> Reg {
        self.emit_binary(Opcode::Rem, a, b)
    }

    /// `d = and(a, b)`.
    pub fn and(&mut self, a: Operand, b: Operand) -> Reg {
        self.emit_binary(Opcode::And, a, b)
    }

    /// `d = or(a, b)`.
    pub fn or(&mut self, a: Operand, b: Operand) -> Reg {
        self.emit_binary(Opcode::Or, a, b)
    }

    /// `d = xor(a, b)`.
    pub fn xor(&mut self, a: Operand, b: Operand) -> Reg {
        self.emit_binary(Opcode::Xor, a, b)
    }

    /// `d = shl(a, b)`.
    pub fn shl(&mut self, a: Operand, b: Operand) -> Reg {
        self.emit_binary(Opcode::Shl, a, b)
    }

    /// `d = shr(a, b)`.
    pub fn shr(&mut self, a: Operand, b: Operand) -> Reg {
        self.emit_binary(Opcode::Shr, a, b)
    }

    /// Floating-point add (`fadd`).
    pub fn fadd(&mut self, a: Operand, b: Operand) -> Reg {
        self.emit_binary(Opcode::FAdd, a, b)
    }

    /// Floating-point subtract (`fsub`).
    pub fn fsub(&mut self, a: Operand, b: Operand) -> Reg {
        self.emit_binary(Opcode::FSub, a, b)
    }

    /// Floating-point multiply (`fmul`).
    pub fn fmul(&mut self, a: Operand, b: Operand) -> Reg {
        self.emit_binary(Opcode::FMul, a, b)
    }

    /// Floating-point divide (`fdiv`).
    pub fn fdiv(&mut self, a: Operand, b: Operand) -> Reg {
        self.emit_binary(Opcode::FDiv, a, b)
    }

    /// `d = mov(src)`.
    pub fn mov(&mut self, src: Operand) -> Reg {
        let d = self.reg();
        self.emit(Opcode::Mov, vec![Dest::Reg(d)], vec![src]);
        d
    }

    /// `d = mov(imm)`.
    pub fn movi(&mut self, imm: i64) -> Reg {
        self.mov(Operand::Imm(imm))
    }

    /// Moves `src` into an existing register `dst`.
    pub fn mov_to(&mut self, dst: Reg, src: Operand) {
        self.emit(Opcode::Mov, vec![Dest::Reg(dst)], vec![src]);
    }

    /// `d = load(addr)`.
    pub fn load(&mut self, addr: Reg) -> Reg {
        let d = self.reg();
        self.emit(Opcode::Load, vec![Dest::Reg(d)], vec![Operand::Reg(addr)]);
        d
    }

    /// `store(addr, value)`.
    pub fn store(&mut self, addr: Reg, value: Operand) {
        self.emit(Opcode::Store, vec![], vec![Operand::Reg(addr), value]);
    }

    /// Two-target compare: `t, f = cmpp.un.uc cond(a, b)`.
    ///
    /// Returns `(taken, fallthrough)` predicates — the form FRP conversion
    /// produces for each branch (paper Figure 6(c)).
    pub fn cmpp_un_uc(&mut self, cond: CmpCond, a: Operand, b: Operand) -> (PredReg, PredReg) {
        let t = self.pred();
        let f = self.pred();
        self.emit(
            Opcode::Cmpp(cond),
            vec![Dest::Pred(t, PredAction::UN), Dest::Pred(f, PredAction::UC)],
            vec![a, b],
        );
        (t, f)
    }

    /// Single-target unconditional compare: `t = cmpp.un cond(a, b)`.
    pub fn cmpp_un(&mut self, cond: CmpCond, a: Operand, b: Operand) -> PredReg {
        let t = self.pred();
        self.emit(Opcode::Cmpp(cond), vec![Dest::Pred(t, PredAction::UN)], vec![a, b]);
        t
    }

    /// General compare with explicit destinations and actions.
    pub fn cmpp(
        &mut self,
        cond: CmpCond,
        dests: Vec<(PredReg, PredAction)>,
        a: Operand,
        b: Operand,
    ) {
        let dests = dests.into_iter().map(|(p, act)| Dest::Pred(p, act)).collect();
        self.emit(Opcode::Cmpp(cond), dests, vec![a, b]);
    }

    /// Predicate initialization pseudo-op: `p0 = v0, p1 = v1, ...`.
    pub fn pred_init(&mut self, inits: &[(PredReg, bool)]) {
        let dests = inits.iter().map(|&(p, _)| Dest::Pred(p, PredAction::UN)).collect();
        let srcs = inits.iter().map(|&(_, v)| Operand::Imm(v as i64)).collect();
        self.emit(Opcode::PredInit, dests, srcs);
    }

    /// Emits a `pbr`/`branch` pair that branches to `target` when `pred` is
    /// true. Returns the branch-target register.
    pub fn branch_if(&mut self, pred: PredReg, target: BlockId) -> Reg {
        let btr = self.reg();
        self.emit(Opcode::Pbr, vec![Dest::Reg(btr)], vec![Operand::Label(target)]);
        let saved = self.guard;
        self.guard = Some(pred);
        self.emit(Opcode::Branch, vec![], vec![Operand::Reg(btr), Operand::Label(target)]);
        self.guard = saved;
        btr
    }

    /// Emits an unconditional `pbr`/`branch` pair to `target`.
    pub fn jump(&mut self, target: BlockId) -> Reg {
        let btr = self.reg();
        self.emit(Opcode::Pbr, vec![Dest::Reg(btr)], vec![Operand::Label(target)]);
        let saved = self.guard;
        self.guard = None;
        self.emit(Opcode::Branch, vec![], vec![Operand::Reg(btr), Operand::Label(target)]);
        self.guard = saved;
        btr
    }

    /// Emits a `ret`.
    pub fn ret(&mut self) {
        let saved = self.guard;
        self.guard = None;
        self.emit(Opcode::Ret, vec![], vec![]);
        self.guard = saved;
    }

    /// Marks `r` as live-out (observable by the caller after `ret`).
    pub fn mark_live_out(&mut self, r: Reg) {
        self.func.mark_live_out(r);
    }

    /// Read-only access to the function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }

    /// Finishes construction and returns the function.
    pub fn finish(self) -> Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify;

    #[test]
    fn builds_a_verifiable_loop() {
        let mut b = FunctionBuilder::new("loop");
        let head = b.block("head");
        let exit = b.block("exit");
        b.switch_to(head);
        let i = b.movi(0);
        let i2 = b.add(i.into(), Operand::Imm(1));
        let (t, _f) = b.cmpp_un_uc(CmpCond::Lt, i2.into(), Operand::Imm(10));
        b.branch_if(t, head);
        b.jump(exit);
        b.switch_to(exit);
        b.ret();
        let f = b.finish();
        verify(&f).expect("verifies");
        assert_eq!(f.static_branch_count(), 3); // two branches + ret
    }

    #[test]
    fn guard_applies_to_emitted_ops() {
        let mut b = FunctionBuilder::new("g");
        let blk = b.block("b");
        b.switch_to(blk);
        let p = b.pred();
        b.set_guard(Some(p));
        let r = b.movi(1);
        b.set_guard(None);
        let r2 = b.movi(2);
        b.ret();
        let f = b.finish();
        let ops = &f.block(blk).ops;
        assert_eq!(ops[0].guard, Some(p));
        assert_eq!(ops[1].guard, None);
        let _ = (r, r2);
    }

    #[test]
    fn branch_if_restores_guard() {
        let mut b = FunctionBuilder::new("g");
        let blk = b.block("b");
        let tgt = b.block("t");
        b.switch_to(blk);
        let p = b.pred();
        let q = b.pred();
        b.set_guard(Some(p));
        b.branch_if(q, tgt);
        let r = b.movi(3);
        b.ret();
        b.switch_to(tgt);
        b.ret();
        let f = b.finish();
        let ops = &f.block(blk).ops;
        // pbr inherits the ambient guard; branch uses q; following op uses p.
        assert_eq!(ops[0].guard, Some(p));
        assert_eq!(ops[1].guard, Some(q));
        assert_eq!(ops[2].guard, Some(p));
        let _ = r;
    }

    #[test]
    fn cmpp_forms() {
        let mut b = FunctionBuilder::new("c");
        let blk = b.block("b");
        b.switch_to(blk);
        let x = b.movi(1);
        let (t, f_) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
        assert_ne!(t, f_);
        let u = b.cmpp_un(CmpCond::Ne, x.into(), Operand::Imm(0));
        assert_ne!(u, t);
        b.ret();
        let f = b.finish();
        assert_eq!(f.block(blk).ops[1].dests.len(), 2);
        assert_eq!(f.block(blk).ops[2].dests.len(), 1);
    }
}

//! The RISC-lite → PlayDoh IR translator.
//!
//! Block discovery is the classic leader scan: instruction 0, every label
//! target, and every instruction following a control transfer start a
//! block; blocks follow the instruction stream in program order, so the
//! ISA's fall-through structure maps directly onto the IR's layout
//! fall-through.
//!
//! Each instruction lowers to the obvious IR form; the interesting case is
//! the compare-and-branch, which becomes the materialized-guard shape FRP
//! conversion produces (paper Figure 6(c)): a two-target
//! `cmpp.un.uc` computing taken/fall-through predicates, then a
//! `pbr`/`branch` pair guarded by the taken predicate. That makes
//! translated programs immediately legal inputs to the whole staged
//! pipeline — if-conversion, melding, superblock formation, unrolling,
//! FRP, and ICBM — with no special casing.
//!
//! Architectural register `rN` is IR register `Reg(N)` (the translator
//! allocates the 32 architectural registers before any temporary), so one
//! [`epic_interp::Input`] drives both the RISC-lite interpreter and the
//! translated function. Every architectural register the program writes is
//! marked live-out: the final register file is the ISA's observable state,
//! and marking it live-out obliges every downstream transformation to
//! preserve it.

use epic_ir::{Dest, Function, FunctionBuilder, Opcode, Operand, Reg};

use crate::isa::{AluOp, Inst, RReg, RVal, RiscProgram, NUM_REGS};

fn opcode_of(op: AluOp) -> Opcode {
    match op {
        AluOp::Add => Opcode::Add,
        AluOp::Sub => Opcode::Sub,
        AluOp::Mul => Opcode::Mul,
        AluOp::Div => Opcode::Div,
        AluOp::Rem => Opcode::Rem,
        AluOp::And => Opcode::And,
        AluOp::Or => Opcode::Or,
        AluOp::Xor => Opcode::Xor,
        AluOp::Shl => Opcode::Shl,
        AluOp::Shr => Opcode::Shr,
    }
}

fn operand(regs: &[Reg], v: RVal) -> Operand {
    match v {
        RVal::Reg(r) => Operand::Reg(regs[r.0 as usize]),
        RVal::Imm(i) => Operand::Imm(i),
    }
}

/// Translates an assembled program into a PlayDoh IR function.
///
/// The output is deterministic (a pure function of the program), passes
/// the IR verifier by construction, and its observable state under
/// `epic_interp::run` matches the RISC-lite interpreter's on every input —
/// the conformance suite enforces all three.
pub fn translate(prog: &RiscProgram) -> Function {
    let mut b = FunctionBuilder::new(prog.name.clone());

    // Architectural registers first, so rN == Reg(N).
    let regs: Vec<Reg> = (0..NUM_REGS).map(|_| b.reg()).collect();

    // Leader scan.
    let n = prog.insts.len();
    let mut leader = vec![false; n];
    leader[0] = true;
    for l in &prog.labels {
        leader[l.pos as usize] = true;
    }
    for (i, inst) in prog.insts.iter().enumerate() {
        if inst.is_control() && i + 1 < n {
            leader[i + 1] = true;
        }
    }

    // One IR block per leader, in program order. A leader carrying a label
    // keeps its (first) label name; anonymous leaders get a positional one.
    let mut block_of = vec![None; n];
    let mut current = None;
    for i in 0..n {
        if leader[i] {
            let name = prog
                .labels
                .iter()
                .find(|l| l.pos as usize == i)
                .map_or_else(|| format!("L{i}"), |l| l.name.clone());
            current = Some(b.block(name));
        }
        block_of[i] = current;
    }

    for (i, inst) in prog.insts.iter().enumerate() {
        if leader[i] {
            b.switch_to(block_of[i].expect("every instruction is covered by a leader"));
        }
        match inst {
            Inst::Alu { op, rd, rs1, rhs } => {
                b.emit(
                    opcode_of(*op),
                    vec![Dest::Reg(regs[rd.0 as usize])],
                    vec![Operand::Reg(regs[rs1.0 as usize]), operand(&regs, *rhs)],
                );
            }
            Inst::Li { rd, imm } => b.mov_to(regs[rd.0 as usize], Operand::Imm(*imm)),
            Inst::Mv { rd, rs } => {
                b.mov_to(regs[rd.0 as usize], Operand::Reg(regs[rs.0 as usize]));
            }
            Inst::Lw { rd, base, offset, class } => {
                let addr = if *offset == 0 {
                    regs[base.0 as usize]
                } else {
                    b.add(Operand::Reg(regs[base.0 as usize]), Operand::Imm(*offset))
                };
                b.set_alias_class(*class);
                b.emit(Opcode::Load, vec![Dest::Reg(regs[rd.0 as usize])], vec![Operand::Reg(addr)]);
                b.set_alias_class(None);
            }
            Inst::Sw { src, base, offset, class } => {
                let addr = if *offset == 0 {
                    regs[base.0 as usize]
                } else {
                    b.add(Operand::Reg(regs[base.0 as usize]), Operand::Imm(*offset))
                };
                b.set_alias_class(*class);
                b.store(addr, Operand::Reg(regs[src.0 as usize]));
                b.set_alias_class(None);
            }
            Inst::B { cond, rs1, rhs, target } => {
                let (taken, _fall) = b.cmpp_un_uc(
                    *cond,
                    Operand::Reg(regs[rs1.0 as usize]),
                    operand(&regs, *rhs),
                );
                let tb = block_of[prog.label_pos(*target) as usize]
                    .expect("branch targets resolve to a leader");
                b.branch_if(taken, tb);
            }
            Inst::J { target } => {
                let tb = block_of[prog.label_pos(*target) as usize]
                    .expect("jump targets resolve to a leader");
                b.jump(tb);
            }
            Inst::Halt => b.ret(),
        }
    }

    // The ISA's observable state is the architectural register file (plus
    // memory): every register the program writes must survive to `ret`.
    for (r, &reg) in regs.iter().enumerate().take(NUM_REGS) {
        let arch = RReg(u8::try_from(r).expect("r < 32"));
        if prog.insts.iter().any(|inst| inst.dest() == Some(arch)) {
            b.mark_live_out(reg);
        }
    }

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use epic_interp::{run, Input};

    const SUM: &str = "\
    li r2, 0
loop:
    lw r3, 0(r0)
    add r2, r2, r3
    add r0, r0, 1
    sub r1, r1, 1
    bgt r1, 0, loop
    sw r2, 7(r4)
    halt
";

    #[test]
    fn translated_sum_verifies_and_matches() {
        let p = assemble("sum", SUM).unwrap();
        let f = translate(&p);
        epic_ir::verify(&f).expect("verifies");
        // Block structure: entry (li), loop body, post-branch tail.
        assert_eq!(f.layout().len(), 3);
        let input = Input::new()
            .memory_size(16)
            .with_memory(0, &[5, 6, 7])
            .with_reg(Reg(1), 3);
        let out = run(&f, &input).expect("runs");
        assert_eq!(out.memory[7], 18);
        assert_eq!(out.regs[2], 18);
    }

    #[test]
    fn translation_is_deterministic() {
        let p = assemble("sum", SUM).unwrap();
        let a = translate(&p);
        let b = translate(&p);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn written_regs_are_live_out() {
        let p = assemble("sum", SUM).unwrap();
        let f = translate(&p);
        let outs = f.live_outs();
        // r0, r1, r2, r3 are written; r4 is only read; r5.. untouched.
        for r in [0u32, 1, 2, 3] {
            assert!(outs.contains(&Reg(r)), "r{r} should be live-out");
        }
        assert!(!outs.contains(&Reg(4)));
    }
}

//! The original direct-IR interpreter, kept verbatim as a differential
//! oracle for the pre-decoded hot path in `crate::decode`.
//!
//! This walks the [`Function`] structure op by op exactly as the
//! interpreter did before pre-decoding existed: `Operand` matching per
//! read, `HashMap` profile recording per fetch, label lookup per
//! fallthrough. It is deliberately untouched by performance work — its
//! only job is to define the semantics the fast path must reproduce
//! bit-for-bit. Property tests in this crate and the workload/fuzz-corpus
//! oracle tests in `epic-bench` compare the two on every observable.
//!
//! Not part of the stable API; only test code should call this.

use epic_ir::{Dest, Function, Opcode, Operand, Profile};

use crate::exec::{Input, Outcome, TraceEvent};
use crate::trap::Trap;

/// Reference semantics of [`crate::run`].
///
/// # Errors
///
/// Same trap conditions as [`crate::run`].
pub fn run(func: &Function, input: &Input) -> Result<Outcome, Trap> {
    run_events(func, input, |_| {})
}

/// Reference semantics of [`crate::run_traced`].
///
/// # Errors
///
/// Same trap conditions as [`crate::run`].
pub fn run_traced(
    func: &Function,
    input: &Input,
    mut on_block: impl FnMut(epic_ir::BlockId),
) -> Result<Outcome, Trap> {
    run_events(func, input, |e| {
        if let TraceEvent::Enter(b) = e {
            on_block(b);
        }
    })
}

/// Reference semantics of [`crate::run_events`].
///
/// # Errors
///
/// Same trap conditions as [`crate::run`].
pub fn run_events(
    func: &Function,
    input: &Input,
    mut on_event: impl FnMut(TraceEvent),
) -> Result<Outcome, Trap> {
    let mut regs = vec![0i64; func.reg_count()];
    let mut preds = vec![false; func.pred_count()];
    let mut memory = input.initial_memory().to_vec();
    for &(r, v) in input.initial_regs() {
        regs[r.index()] = v;
    }

    let mut profile = Profile::new();
    let mut dynamic_ops = 0u64;
    let mut dynamic_branches = 0u64;
    let mut fuel = input.fuel_budget();

    let layout_pos: std::collections::HashMap<_, _> =
        func.layout.iter().enumerate().map(|(i, &b)| (b, i)).collect();

    let mut block = func.entry();
    'outer: loop {
        profile.record_block_entry(block);
        on_event(TraceEvent::Enter(block));
        let ops = &func.block(block).ops;
        let mut i = 0;
        while i < ops.len() {
            let op = &ops[i];
            i += 1;
            if fuel == 0 {
                return Err(Trap::OutOfFuel);
            }
            fuel -= 1;
            dynamic_ops += 1;
            profile.record_op(op.id);
            if op.is_branch() {
                dynamic_branches += 1;
            }

            let guard = match op.guard {
                Some(p) => preds[p.index()],
                None => true,
            };

            let val = |s: Operand, regs: &[i64], preds: &[bool]| -> i64 {
                match s {
                    Operand::Reg(r) => regs[r.index()],
                    Operand::Pred(p) => preds[p.index()] as i64,
                    Operand::Imm(v) => v,
                    Operand::Label(b) => b.0 as i64,
                }
            };

            match op.opcode {
                Opcode::Cmpp(cond) => {
                    // Unconditional destinations write even under a false
                    // guard, so cmpp is handled before the guard check.
                    let a = val(op.srcs[0], &regs, &preds);
                    let b = val(op.srcs[1], &regs, &preds);
                    let cmp = cond.eval(a, b);
                    for d in &op.dests {
                        if let Dest::Pred(p, action) = d {
                            if let Some(v) = action.apply(guard, cmp) {
                                preds[p.index()] = v;
                            }
                        }
                    }
                    continue;
                }
                Opcode::PredInit => {
                    if guard {
                        for (d, s) in op.dests.iter().zip(&op.srcs) {
                            if let Dest::Pred(p, _) = d {
                                preds[p.index()] = matches!(s, Operand::Imm(1));
                            }
                        }
                    }
                    continue;
                }
                _ => {}
            }

            if !guard {
                continue;
            }

            match op.opcode {
                Opcode::Add | Opcode::FAdd => binary(op, &mut regs, &preds, |a, b| a.wrapping_add(b)),
                Opcode::Sub | Opcode::FSub => binary(op, &mut regs, &preds, |a, b| a.wrapping_sub(b)),
                Opcode::Mul | Opcode::FMul => binary(op, &mut regs, &preds, |a, b| a.wrapping_mul(b)),
                Opcode::Div | Opcode::FDiv => {
                    let b = val(op.srcs[1], &regs, &preds);
                    if b == 0 {
                        return Err(Trap::DivideByZero { op: op.id });
                    }
                    binary(op, &mut regs, &preds, |a, b| a.wrapping_div(b));
                }
                Opcode::Rem => {
                    let b = val(op.srcs[1], &regs, &preds);
                    if b == 0 {
                        return Err(Trap::DivideByZero { op: op.id });
                    }
                    binary(op, &mut regs, &preds, |a, b| a.wrapping_rem(b));
                }
                Opcode::And => binary(op, &mut regs, &preds, |a, b| a & b),
                Opcode::Or => binary(op, &mut regs, &preds, |a, b| a | b),
                Opcode::Xor => binary(op, &mut regs, &preds, |a, b| a ^ b),
                Opcode::Shl => binary(op, &mut regs, &preds, |a, b| a.wrapping_shl(b as u32)),
                Opcode::Shr => binary(op, &mut regs, &preds, |a, b| a.wrapping_shr(b as u32)),
                Opcode::Mov => {
                    let v = val(op.srcs[0], &regs, &preds);
                    set_dest(op, &mut regs, v);
                }
                Opcode::Load => {
                    let addr = val(op.srcs[0], &regs, &preds);
                    let v = *memory
                        .get(usize::try_from(addr).ok().filter(|&a| a < memory.len()).ok_or(
                            Trap::MemoryOutOfBounds { op: op.id, addr, size: memory.len() },
                        )?)
                        .expect("bounds checked");
                    set_dest(op, &mut regs, v);
                }
                Opcode::LoadS => {
                    // Dismissible load: faults are silently squashed to 0.
                    let addr = val(op.srcs[0], &regs, &preds);
                    let v = usize::try_from(addr)
                        .ok()
                        .and_then(|a| memory.get(a).copied())
                        .unwrap_or(0);
                    set_dest(op, &mut regs, v);
                }
                Opcode::Store => {
                    let addr = val(op.srcs[0], &regs, &preds);
                    let v = val(op.srcs[1], &regs, &preds);
                    let idx = usize::try_from(addr)
                        .ok()
                        .filter(|&a| a < memory.len())
                        .ok_or(Trap::MemoryOutOfBounds { op: op.id, addr, size: memory.len() })?;
                    memory[idx] = v;
                }
                Opcode::Pbr => {
                    let target = op.branch_target().expect("verified pbr has target");
                    set_dest(op, &mut regs, target.0 as i64);
                }
                Opcode::Branch => {
                    profile.record_taken(op.id);
                    on_event(TraceEvent::Taken(op.id));
                    let target = op.branch_target().expect("verified branch has target");
                    let btr_value = val(op.srcs[0], &regs, &preds);
                    if btr_value != target.0 as i64 {
                        return Err(Trap::BranchTargetMismatch {
                            op: op.id,
                            btr_value,
                            expected: target.0,
                        });
                    }
                    block = target;
                    continue 'outer;
                }
                Opcode::Ret => {
                    profile.record_taken(op.id);
                    on_event(TraceEvent::Taken(op.id));
                    return Ok(Outcome { memory, regs, profile, dynamic_ops, dynamic_branches });
                }
                Opcode::Cmpp(_) | Opcode::PredInit => unreachable!("handled above"),
            }
        }
        // Fell through the end of the block: continue with the layout
        // successor. The verifier guarantees the last block cannot fall
        // through, so the successor exists.
        let pos = layout_pos[&block];
        block = func.layout[pos + 1];
    }
}

#[inline]
fn binary(op: &epic_ir::Op, regs: &mut [i64], preds: &[bool], f: impl Fn(i64, i64) -> i64) {
    let v = |s: Operand| -> i64 {
        match s {
            Operand::Reg(r) => regs[r.index()],
            Operand::Pred(p) => preds[p.index()] as i64,
            Operand::Imm(x) => x,
            Operand::Label(b) => b.0 as i64,
        }
    };
    let result = f(v(op.srcs[0]), v(op.srcs[1]));
    set_dest(op, regs, result);
}

#[inline]
fn set_dest(op: &epic_ir::Op, regs: &mut [i64], value: i64) {
    if let Some(Dest::Reg(r)) = op.dests.first() {
        regs[r.index()] = value;
    }
}

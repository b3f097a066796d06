//! Pre-decoded execution: the interpreter hot path.
//!
//! [`run`](crate::run) used to walk the IR directly: every fetched
//! operation re-matched `Operand` enums, looked its id up in a `HashMap`
//! profile, and every taken branch re-resolved its target through a
//! per-run label map. Profiling runs dominated pipeline wall clock (the
//! four `profile:*` stages were ~50–60% of most workloads' compile time
//! before pre-decoding), so the interpreter now decodes a [`Function`] once
//! into a flat, cache-friendly [`DecodedProgram`] — dense operation
//! records in layout order, branch targets resolved to layout positions,
//! operands lowered to register/predicate indices or immediates — and the
//! dispatch loop runs over that, counting profile events in dense arrays
//! indexed by operation/block id.
//!
//! Mutable run state (register file, predicate file, memory image, and
//! the dense profile counters) lives in a reusable [`ExecState`], pooled
//! per thread by [`run`](crate::run) so repeated profiling runs reuse
//! their allocations instead of paying first-touch page faults each time
//! (the source of an early `strcpy` `profile:baseline` timing anomaly).
//!
//! Semantics are bit-for-bit those of the direct interpreter, which is
//! kept as [`crate::reference`] and pinned by differential tests.

use std::time::Instant;

use epic_ir::{BlockId, Dest, Function, Opcode, Operand, PredAction, Profile};

use crate::exec::{Input, Outcome, TraceEvent};
use crate::trap::Trap;
use crate::{obs_decode_ns, obs_steps};

/// A decoded operand: a register slot, a predicate slot, or an immediate.
/// `Operand::Label(b)` is lowered to `Imm(b.0)` at decode time, matching
/// the direct interpreter's numeric reading of labels.
#[derive(Clone, Copy, Debug)]
enum Src {
    Reg(u32),
    Pred(u32),
    Imm(i64),
}

impl Src {
    #[inline]
    fn of(operand: Operand) -> Src {
        match operand {
            Operand::Reg(r) => Src::Reg(r.0),
            Operand::Pred(p) => Src::Pred(p.0),
            Operand::Imm(v) => Src::Imm(v),
            Operand::Label(b) => Src::Imm(b.0 as i64),
        }
    }

    #[inline(always)]
    fn read(self, regs: &[i64], preds: &[bool]) -> i64 {
        match self {
            Src::Reg(r) => regs[r as usize],
            Src::Pred(p) => preds[p as usize] as i64,
            Src::Imm(v) => v,
        }
    }
}

/// Sentinel for "no guard" / "no destination" / "no target" slots.
const NONE: u32 = u32::MAX;

/// One decoded operation.
#[derive(Clone, Debug)]
struct DOp {
    opcode: Opcode,
    /// Raw [`epic_ir::OpId`] index, for dense profile counters.
    op_id: u32,
    /// Guarding predicate slot, or [`NONE`] when unguarded.
    guard: u32,
    /// First and second source operands (unused slots hold `Imm(0)`).
    a: Src,
    b: Src,
    /// First register destination slot, or [`NONE`] (the direct
    /// interpreter writes only a leading `Dest::Reg`).
    dest: u32,
    /// `Cmpp`/`PredInit`: slice `[aux, aux + aux_len)` of the program's
    /// predicate-write table. `Branch`: layout position of the target
    /// block, or [`NONE`] when the target is not in the layout.
    aux: u32,
    aux_len: u32,
    /// `Branch`/`Pbr`: raw target [`BlockId`] index, or [`NONE`] when the
    /// operation has no syntactic target (executing it is a verifier-level
    /// bug, reported exactly like the direct interpreter's `expect`).
    target_id: u32,
}

/// One decoded (layout) block: a range of the flat op array.
#[derive(Clone, Copy, Debug)]
struct DBlock {
    /// Raw [`BlockId`] index.
    id: u32,
    start: u32,
    end: u32,
}

/// A [`Function`] lowered to a flat, position-resolved form that the
/// dispatch loop can execute without hashing or label resolution.
#[derive(Clone, Debug)]
pub struct DecodedProgram {
    blocks: Vec<DBlock>,
    ops: Vec<DOp>,
    /// Decoded `cmpp` predicate destinations: `(predicate slot, action)`.
    cmpp_writes: Vec<(u32, PredAction)>,
    /// Decoded `pinit` predicate destinations: `(predicate slot, value)`.
    pinit_writes: Vec<(u32, bool)>,
    reg_count: usize,
    pred_count: usize,
    /// Dense size of the per-op profile counters (`op_id_count`).
    op_id_count: usize,
}

impl DecodedProgram {
    /// Decodes `func` into flat form. Cost is linear in the static
    /// operation count and is reported on the `interp.decode_ns` counter.
    pub fn decode(func: &Function) -> DecodedProgram {
        let start = Instant::now();
        let mut layout_pos = vec![NONE; func.layout.iter().map(|b| b.0 as usize + 1).max().unwrap_or(0)];
        for (i, &b) in func.layout.iter().enumerate() {
            layout_pos[b.index()] = i as u32;
        }
        let pos_of = |b: BlockId| layout_pos.get(b.index()).copied().unwrap_or(NONE);

        let mut blocks = Vec::with_capacity(func.layout.len());
        let mut ops = Vec::with_capacity(func.static_op_count());
        let mut cmpp_writes = Vec::new();
        let mut pinit_writes = Vec::new();
        for block in func.blocks_in_layout() {
            let start_idx = ops.len() as u32;
            for op in &block.ops {
                let src = |i: usize| op.srcs.get(i).copied().map_or(Src::Imm(0), Src::of);
                let mut d = DOp {
                    opcode: op.opcode,
                    op_id: op.id.0,
                    guard: op.guard.map_or(NONE, |p| p.0),
                    a: src(0),
                    b: src(1),
                    dest: match op.dests.first() {
                        Some(Dest::Reg(r)) => r.0,
                        _ => NONE,
                    },
                    aux: 0,
                    aux_len: 0,
                    target_id: NONE,
                };
                match op.opcode {
                    Opcode::Cmpp(_) => {
                        d.aux = cmpp_writes.len() as u32;
                        for dst in &op.dests {
                            if let Dest::Pred(p, action) = dst {
                                cmpp_writes.push((p.0, *action));
                            }
                        }
                        d.aux_len = cmpp_writes.len() as u32 - d.aux;
                    }
                    Opcode::PredInit => {
                        d.aux = pinit_writes.len() as u32;
                        for (dst, s) in op.dests.iter().zip(&op.srcs) {
                            if let Dest::Pred(p, _) = dst {
                                pinit_writes.push((p.0, matches!(s, Operand::Imm(1))));
                            }
                        }
                        d.aux_len = pinit_writes.len() as u32 - d.aux;
                    }
                    Opcode::Branch | Opcode::Pbr => {
                        if let Some(t) = op.branch_target() {
                            d.target_id = t.0;
                            if op.opcode == Opcode::Branch {
                                d.aux = pos_of(t);
                            }
                        }
                    }
                    _ => {}
                }
                ops.push(d);
            }
            blocks.push(DBlock { id: block.id.0, start: start_idx, end: ops.len() as u32 });
        }
        let prog = DecodedProgram {
            blocks,
            ops,
            cmpp_writes,
            pinit_writes,
            reg_count: func.reg_count(),
            pred_count: func.pred_count(),
            op_id_count: func.op_id_count(),
        };
        obs_decode_ns().add(start.elapsed().as_nanos() as u64);
        prog
    }

    /// Executes the decoded program on `input`, reusing `state`'s
    /// allocations. Semantics are identical to [`crate::run`] (which is a
    /// thin wrapper around this).
    ///
    /// # Errors
    ///
    /// Same trap conditions as [`crate::run`].
    pub fn run(
        &self,
        input: &Input,
        state: &mut ExecState,
        mut on_event: impl FnMut(TraceEvent),
    ) -> Result<Outcome, Trap> {
        assert!(!self.blocks.is_empty(), "function has no blocks");
        state.reset(self, input);
        let ExecState { regs, preds, memory, op_counts, blk_counts, taken_counts } = state;
        let regs = &mut regs[..];
        let preds = &mut preds[..];

        let mut dynamic_ops = 0u64;
        let mut dynamic_branches = 0u64;
        let mut fuel = input.fuel_budget();

        let result: Result<(), Trap> = 'run: {
            let mut bi = 0usize;
            'blocks: loop {
                let block = self.blocks[bi];
                blk_counts[bi] += 1;
                on_event(TraceEvent::Enter(BlockId(block.id)));
                let mut i = block.start as usize;
                let end = block.end as usize;
                while i < end {
                    let op = &self.ops[i];
                    i += 1;
                    if fuel == 0 {
                        break 'run Err(Trap::OutOfFuel);
                    }
                    fuel -= 1;
                    dynamic_ops += 1;
                    op_counts[op.op_id as usize] += 1;
                    if matches!(op.opcode, Opcode::Branch | Opcode::Ret) {
                        dynamic_branches += 1;
                    }

                    let guard = op.guard == NONE || preds[op.guard as usize];

                    macro_rules! binary {
                        ($f:expr) => {{
                            if guard {
                                let f = $f;
                                let v = f(op.a.read(regs, preds), op.b.read(regs, preds));
                                if op.dest != NONE {
                                    regs[op.dest as usize] = v;
                                }
                            }
                        }};
                    }

                    match op.opcode {
                        Opcode::Cmpp(cond) => {
                            // Unconditional destinations write even under a
                            // false guard, so cmpp ignores the guard skip.
                            let cmp =
                                cond.eval(op.a.read(regs, preds), op.b.read(regs, preds));
                            let writes = &self.cmpp_writes
                                [op.aux as usize..(op.aux + op.aux_len) as usize];
                            for &(p, action) in writes {
                                if let Some(v) = action.apply(guard, cmp) {
                                    preds[p as usize] = v;
                                }
                            }
                        }
                        Opcode::PredInit => {
                            if guard {
                                let writes = &self.pinit_writes
                                    [op.aux as usize..(op.aux + op.aux_len) as usize];
                                for &(p, v) in writes {
                                    preds[p as usize] = v;
                                }
                            }
                        }
                        Opcode::Add | Opcode::FAdd => binary!(i64::wrapping_add),
                        Opcode::Sub | Opcode::FSub => binary!(i64::wrapping_sub),
                        Opcode::Mul | Opcode::FMul => binary!(i64::wrapping_mul),
                        Opcode::Div | Opcode::FDiv => {
                            if guard {
                                let b = op.b.read(regs, preds);
                                if b == 0 {
                                    break 'run Err(Trap::DivideByZero {
                                        op: epic_ir::OpId(op.op_id),
                                    });
                                }
                                let v = op.a.read(regs, preds).wrapping_div(b);
                                if op.dest != NONE {
                                    regs[op.dest as usize] = v;
                                }
                            }
                        }
                        Opcode::Rem => {
                            if guard {
                                let b = op.b.read(regs, preds);
                                if b == 0 {
                                    break 'run Err(Trap::DivideByZero {
                                        op: epic_ir::OpId(op.op_id),
                                    });
                                }
                                let v = op.a.read(regs, preds).wrapping_rem(b);
                                if op.dest != NONE {
                                    regs[op.dest as usize] = v;
                                }
                            }
                        }
                        Opcode::And => binary!(|a: i64, b: i64| a & b),
                        Opcode::Or => binary!(|a: i64, b: i64| a | b),
                        Opcode::Xor => binary!(|a: i64, b: i64| a ^ b),
                        Opcode::Shl => binary!(|a: i64, b: i64| a.wrapping_shl(b as u32)),
                        Opcode::Shr => binary!(|a: i64, b: i64| a.wrapping_shr(b as u32)),
                        Opcode::Mov => {
                            if guard {
                                let v = op.a.read(regs, preds);
                                if op.dest != NONE {
                                    regs[op.dest as usize] = v;
                                }
                            }
                        }
                        Opcode::Load => {
                            if guard {
                                let addr = op.a.read(regs, preds);
                                let Some(&v) = usize::try_from(addr)
                                    .ok()
                                    .and_then(|a| memory.get(a))
                                else {
                                    break 'run Err(Trap::MemoryOutOfBounds {
                                        op: epic_ir::OpId(op.op_id),
                                        addr,
                                        size: memory.len(),
                                    });
                                };
                                if op.dest != NONE {
                                    regs[op.dest as usize] = v;
                                }
                            }
                        }
                        Opcode::LoadS => {
                            // Dismissible load: faults squash to 0.
                            if guard {
                                let addr = op.a.read(regs, preds);
                                let v = usize::try_from(addr)
                                    .ok()
                                    .and_then(|a| memory.get(a).copied())
                                    .unwrap_or(0);
                                if op.dest != NONE {
                                    regs[op.dest as usize] = v;
                                }
                            }
                        }
                        Opcode::Store => {
                            if guard {
                                let addr = op.a.read(regs, preds);
                                let v = op.b.read(regs, preds);
                                let size = memory.len();
                                let Some(slot) = usize::try_from(addr)
                                    .ok()
                                    .and_then(|a| memory.get_mut(a))
                                else {
                                    break 'run Err(Trap::MemoryOutOfBounds {
                                        op: epic_ir::OpId(op.op_id),
                                        addr,
                                        size,
                                    });
                                };
                                *slot = v;
                            }
                        }
                        Opcode::Pbr => {
                            if guard {
                                assert!(op.target_id != NONE, "verified pbr has target");
                                if op.dest != NONE {
                                    regs[op.dest as usize] = op.target_id as i64;
                                }
                            }
                        }
                        Opcode::Branch => {
                            if guard {
                                taken_counts[op.op_id as usize] += 1;
                                on_event(TraceEvent::Taken(epic_ir::OpId(op.op_id)));
                                assert!(op.target_id != NONE, "verified branch has target");
                                let btr_value = op.a.read(regs, preds);
                                if btr_value != op.target_id as i64 {
                                    break 'run Err(Trap::BranchTargetMismatch {
                                        op: epic_ir::OpId(op.op_id),
                                        btr_value,
                                        expected: op.target_id,
                                    });
                                }
                                assert!(
                                    op.aux != NONE,
                                    "branch target b{} is not in the layout",
                                    op.target_id
                                );
                                bi = op.aux as usize;
                                continue 'blocks;
                            }
                        }
                        Opcode::Ret => {
                            if guard {
                                taken_counts[op.op_id as usize] += 1;
                                on_event(TraceEvent::Taken(epic_ir::OpId(op.op_id)));
                                break 'run Ok(());
                            }
                        }
                    }
                }
                // Fell through the end of the block: continue with the
                // layout successor. The verifier guarantees the last block
                // cannot fall through, so the successor exists.
                bi += 1;
                assert!(bi < self.blocks.len(), "fell through the last layout block");
            }
        };

        obs_steps().add(dynamic_ops);
        result.map(|()| Outcome {
            memory: memory.clone(),
            regs: regs.to_vec(),
            profile: state_profile(self, op_counts, blk_counts, taken_counts),
            dynamic_ops,
            dynamic_branches,
        })
    }
}

/// Converts the dense per-run counters into the sparse [`Profile`]
/// representation, skipping zero entries so the result is `==` to what the
/// direct interpreter's `HashMap` recording produces.
fn state_profile(
    prog: &DecodedProgram,
    op_counts: &[u64],
    blk_counts: &[u64],
    taken_counts: &[u64],
) -> Profile {
    let mut profile = Profile::new();
    for (i, &n) in blk_counts.iter().enumerate() {
        if n != 0 {
            *profile.block_entries.entry(BlockId(prog.blocks[i].id)).or_insert(0) += n;
        }
    }
    for (i, &n) in op_counts.iter().enumerate() {
        if n != 0 {
            profile.op_executed.insert(epic_ir::OpId(i as u32), n);
        }
    }
    for (i, &n) in taken_counts.iter().enumerate() {
        if n != 0 {
            profile.branch_taken.insert(epic_ir::OpId(i as u32), n);
        }
    }
    profile
}

/// Reusable mutable execution state: register file, predicate file, memory
/// image, and dense profile counters. Reusing one `ExecState` across runs
/// (as [`run`](crate::run) does through a thread-local pool) keeps the
/// backing allocations warm instead of re-faulting fresh pages on every
/// profiling run.
#[derive(Debug, Default)]
pub struct ExecState {
    regs: Vec<i64>,
    preds: Vec<bool>,
    memory: Vec<i64>,
    op_counts: Vec<u64>,
    blk_counts: Vec<u64>,
    taken_counts: Vec<u64>,
}

impl ExecState {
    /// An empty state; buffers grow on first use.
    pub fn new() -> ExecState {
        ExecState::default()
    }

    /// Sizes and zeroes every buffer for one run of `prog` on `input`.
    fn reset(&mut self, prog: &DecodedProgram, input: &Input) {
        resize_fill(&mut self.regs, prog.reg_count, 0);
        resize_fill(&mut self.preds, prog.pred_count, false);
        self.memory.clear();
        self.memory.extend_from_slice(input.initial_memory());
        resize_fill(&mut self.op_counts, prog.op_id_count, 0);
        resize_fill(&mut self.blk_counts, prog.blocks.len(), 0);
        resize_fill(&mut self.taken_counts, prog.op_id_count, 0);
        for &(r, v) in input.initial_regs() {
            self.regs[r.index()] = v;
        }
    }
}

fn resize_fill<T: Copy>(v: &mut Vec<T>, len: usize, fill: T) {
    v.clear();
    v.resize(len, fill);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use epic_ir::{CmpCond, FunctionBuilder, Operand};

    /// Decode + pooled execution must agree with the direct reference
    /// interpreter on every observable: outcome fields, profile, and the
    /// full trace-event stream.
    fn assert_matches_reference(func: &Function, input: &Input) {
        let mut ref_events = Vec::new();
        let expect = reference::run_events(func, input, |e| ref_events.push(e));
        let prog = DecodedProgram::decode(func);
        let mut state = ExecState::new();
        let mut events = Vec::new();
        let got = prog.run(input, &mut state, |e| events.push(e));
        match (expect, got) {
            (Ok(e), Ok(g)) => {
                assert_eq!(e.memory, g.memory);
                assert_eq!(e.regs, g.regs);
                assert_eq!(e.profile, g.profile);
                assert_eq!(e.dynamic_ops, g.dynamic_ops);
                assert_eq!(e.dynamic_branches, g.dynamic_branches);
                assert_eq!(ref_events, events);
            }
            (Err(e), Err(g)) => assert_eq!(e, g),
            (e, g) => panic!("reference {e:?} but decoded {g:?}"),
        }
    }

    #[test]
    fn state_reuse_is_clean_across_runs() {
        // Two different programs through one ExecState: no state leaks.
        let mut b = FunctionBuilder::new("a");
        let e = b.block("e");
        b.switch_to(e);
        let x = b.movi(3);
        let m = b.movi(0);
        b.store(m, x.into());
        b.ret();
        let f1 = b.finish();

        let mut b = FunctionBuilder::new("b");
        let e = b.block("e");
        b.switch_to(e);
        let y = b.reg(); // never written: must read 0, not f1's residue
        let m = b.movi(1);
        b.store(m, y.into());
        b.ret();
        let f2 = b.finish();

        let mut state = ExecState::new();
        let p1 = DecodedProgram::decode(&f1);
        let p2 = DecodedProgram::decode(&f2);
        let input = Input::new().memory_size(2);
        let o1 = p1.run(&input, &mut state, |_| {}).unwrap();
        assert_eq!(o1.memory[0], 3);
        let o2 = p2.run(&input, &mut state, |_| {}).unwrap();
        assert_eq!(o2.memory[1], 0, "stale register value leaked across runs");
        // And a rerun of p1 still matches a fresh state.
        assert_matches_reference(&f1, &input);
    }

    #[test]
    fn decoded_traces_blocks_in_execution_order() {
        let mut b = FunctionBuilder::new("loop");
        let head = b.block("head");
        let exit = b.block("exit");
        b.switch_to(head);
        let i = b.reg();
        let i2 = b.add(i.into(), Operand::Imm(1));
        b.mov_to(i, i2.into());
        let (t, _) = b.cmpp_un_uc(CmpCond::Lt, i.into(), Operand::Imm(3));
        b.branch_if(t, head);
        b.jump(exit);
        b.switch_to(exit);
        b.ret();
        let f = b.finish();
        let prog = DecodedProgram::decode(&f);
        let mut order = Vec::new();
        prog.run(&Input::new(), &mut ExecState::new(), |e| {
            if let TraceEvent::Enter(blk) = e {
                order.push(blk);
            }
        })
        .unwrap();
        let mut ref_order = Vec::new();
        reference::run_traced(&f, &Input::new(), |blk| ref_order.push(blk)).unwrap();
        assert_eq!(order, ref_order);
        assert_eq!(order.iter().filter(|&&blk| blk == head).count(), 3);
    }

    #[test]
    fn traps_match_reference() {
        // Out of fuel.
        let mut b = FunctionBuilder::new("inf");
        let e = b.block("e");
        b.switch_to(e);
        b.jump(e);
        let f = b.finish();
        assert_matches_reference(&f, &Input::new().fuel(100));

        // Memory out of bounds.
        let mut b = FunctionBuilder::new("oob");
        let e = b.block("e");
        b.switch_to(e);
        let a = b.movi(100);
        b.store(a, Operand::Imm(1));
        b.ret();
        let f = b.finish();
        assert_matches_reference(&f, &Input::new().memory_size(4));

        // Executed divide by zero.
        let mut b = FunctionBuilder::new("div");
        let e = b.block("e");
        b.switch_to(e);
        let x = b.movi(1);
        let z = b.movi(0);
        b.div(x.into(), z.into());
        b.ret();
        let f = b.finish();
        assert_matches_reference(&f, &Input::new());
    }
}

//! Pre-decoded execution: the interpreter hot path.
//!
//! A [`Function`] is decoded once into a flat [`DecodedProgram`]: operation
//! records in layout order, branch targets resolved to layout positions
//! (read from [`Function::position`], so a block listed twice resolves to
//! its first occurrence), and every operand, guard and destination lowered
//! to a slot of one value file, a single `Vec<i64>` laid out as
//!
//! | slots | holds |
//! |---|---|
//! | `0..R` | the general registers |
//! | `R..R+P` | the predicates, as 0/1 |
//! | `R+P` | the constant 1: the guard of every unguarded operation |
//! | `R+P+1` | a write-only sink: the destination of operations without a register destination |
//! | `R+P+2..` | the program's immediates and labels, deduplicated |
//!
//! `R` and `P` cover the largest register and predicate index the function
//! names, so no fetch can leave the file. Reading an operand is one load
//! whatever its kind, a guard is a load compared with zero, and a write is
//! one store; the dispatch loop tests no operand kind, no missing guard and
//! no missing destination.
//!
//! Nothing is counted per operation. Fuel is checked once at block entry:
//! a block the remaining fuel covers runs unchecked, and only a block
//! longer than the remaining fuel runs a bounded tail that traps
//! [`Trap::OutOfFuel`] at the very fetch a per-operation check would. The
//! loop records block entries and taken counts (by decoded position, so
//! duplicate operation ids aggregate exactly as the profile keys them);
//! `dynamic_ops` is the fuel spent, and per-operation fetch counts and
//! `dynamic_branches` are derived after the run: an operation is fetched
//! by every entry of its block that no earlier taken branch left.
//!
//! Mutable run state (the value file, the memory image and the counters)
//! lives in a reusable [`ExecState`], pooled per thread by
//! [`run`](crate::run) and [`run_profile`](crate::run_profile) so repeated
//! profiling runs reuse their allocations instead of paying first-touch
//! page faults each time.
//!
//! Semantics are bit-for-bit those of the direct interpreter, which is
//! kept as [`crate::reference`] and pinned by differential tests.

use std::time::Instant;

use epic_ir::{BlockId, Dest, Function, FxHashMap, OpId, Opcode, Operand, PredAction, Profile};

use crate::exec::{Input, Outcome, ProfileRun, TraceEvent};
use crate::trap::Trap;
use crate::{obs_decode_ns, obs_steps};

/// Sentinel for "no target" / "target not in the layout".
const NONE: u32 = u32::MAX;

/// One decoded operation. Every `u32` but `aux`, `aux_len` and
/// `target_id` is a value-file slot.
#[derive(Clone, Debug)]
struct DOp {
    opcode: Opcode,
    /// The guarding predicate, or the constant-1 slot when unguarded.
    guard: u32,
    /// First and second source operands (a missing one reads constant 0).
    a: u32,
    b: u32,
    /// The leading register destination (the direct interpreter writes
    /// only a leading `Dest::Reg`), or the sink.
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
    /// Raw [`OpId`] of each decoded operation, by position: read only by
    /// traps and by the profile derived after a run.
    op_ids: Vec<u32>,
    /// Decoded `cmpp` predicate destinations: `(predicate slot, action)`.
    cmpp_writes: Vec<(u32, PredAction)>,
    /// Decoded `pinit` predicate destinations: `(predicate slot, value)`.
    pinit_writes: Vec<(u32, i64)>,
    /// The value file every run starts from: zeroed registers and
    /// predicates, the constant 1, the sink, then the constants.
    init: Vec<i64>,
    /// `Function::reg_count`: the length of [`Outcome::regs`].
    reg_count: usize,
}

/// How control left a block's body.
enum Exit {
    /// Ran off the end of the ops it was allowed to fetch.
    FallThrough,
    /// A taken branch to the block at this layout position.
    Jump(usize),
    /// An executed `ret`.
    Ret,
    Trap(Trap),
}

impl DecodedProgram {
    /// Decodes `func` into flat form. Cost is linear in the static
    /// operation count and is reported on the `interp.decode_ns` counter.
    pub fn decode(func: &Function) -> DecodedProgram {
        let start = Instant::now();
        // Size the register and predicate parts to every index named.
        let (mut regs, mut preds) = (func.reg_count(), func.pred_count());
        for (_, op) in func.ops_in_layout() {
            let reads = op.srcs.iter().map(|&s| match s {
                Operand::Reg(r) => (r.index() + 1, 0),
                Operand::Pred(p) => (0, p.index() + 1),
                Operand::Imm(_) | Operand::Label(_) => (0, 0),
            });
            let writes = op.dests.iter().map(|&d| match d {
                Dest::Reg(r) => (r.index() + 1, 0),
                Dest::Pred(p, _) => (0, p.index() + 1),
            });
            let guard = op.guard.map(|p| (0, p.index() + 1));
            for (r, p) in reads.chain(writes).chain(guard) {
                regs = regs.max(r);
                preds = preds.max(p);
            }
        }
        let one = (regs + preds) as u32;
        let sink = one + 1;
        let mut init = vec![0; regs + preds + 2];
        init[one as usize] = 1;
        let mut consts: FxHashMap<i64, u32> = FxHashMap::default();
        let mut slot = |operand: Option<&Operand>| -> u32 {
            let v = match operand.copied().unwrap_or(Operand::Imm(0)) {
                Operand::Reg(r) => return r.0,
                Operand::Pred(p) => return regs as u32 + p.0,
                Operand::Imm(v) => v,
                Operand::Label(b) => b.0 as i64,
            };
            *consts.entry(v).or_insert_with(|| {
                init.push(v);
                init.len() as u32 - 1
            })
        };
        let pred_slot = |p: epic_ir::PredReg| regs as u32 + p.0;

        let mut blocks = Vec::with_capacity(func.layout().len());
        let mut ops = Vec::with_capacity(func.static_op_count());
        let mut op_ids = Vec::with_capacity(func.static_op_count());
        let mut cmpp_writes = Vec::new();
        let mut pinit_writes = Vec::new();
        for block in func.blocks_in_layout() {
            let start_idx = ops.len() as u32;
            for op in &block.ops {
                let mut d = DOp {
                    opcode: op.opcode,
                    guard: op.guard.map_or(one, pred_slot),
                    a: slot(op.srcs.first()),
                    b: slot(op.srcs.get(1)),
                    dest: match op.dests.first() {
                        Some(Dest::Reg(r)) => r.0,
                        _ => sink,
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
                                cmpp_writes.push((pred_slot(*p), *action));
                            }
                        }
                        d.aux_len = cmpp_writes.len() as u32 - d.aux;
                    }
                    Opcode::PredInit => {
                        d.aux = pinit_writes.len() as u32;
                        for (dst, s) in op.dests.iter().zip(&op.srcs) {
                            if let Dest::Pred(p, _) = dst {
                                pinit_writes
                                    .push((pred_slot(*p), matches!(s, Operand::Imm(1)) as i64));
                            }
                        }
                        d.aux_len = pinit_writes.len() as u32 - d.aux;
                    }
                    Opcode::Branch | Opcode::Pbr => {
                        if let Some(t) = op.branch_target() {
                            d.target_id = t.0;
                            if op.opcode == Opcode::Branch {
                                d.aux = func.position(t).map_or(NONE, |p| p as u32);
                            }
                        }
                    }
                    _ => {}
                }
                ops.push(d);
                op_ids.push(op.id.0);
            }
            blocks.push(DBlock {
                id: block.id.0,
                start: start_idx,
                end: ops.len() as u32,
            });
        }
        let prog = DecodedProgram {
            blocks,
            ops,
            op_ids,
            cmpp_writes,
            pinit_writes,
            init,
            reg_count: func.reg_count(),
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
        on_event: impl FnMut(TraceEvent),
    ) -> Result<Outcome, Trap> {
        let dynamic_ops = self.execute(input, state, on_event)?;
        let (profile, dynamic_branches) = self.derive_profile(state);
        Ok(Outcome {
            memory: state.memory.clone(),
            regs: state.vals[..self.reg_count].to_vec(),
            profile,
            dynamic_ops,
            dynamic_branches,
        })
    }

    /// Like [`DecodedProgram::run`], but keeps only the profile and the
    /// dynamic counts: the final memory and registers are not copied out.
    ///
    /// # Errors
    ///
    /// Same trap conditions as [`crate::run`].
    pub(crate) fn run_profile(
        &self,
        input: &Input,
        state: &mut ExecState,
    ) -> Result<ProfileRun, Trap> {
        let dynamic_ops = self.execute(input, state, |_| {})?;
        let (profile, dynamic_branches) = self.derive_profile(state);
        Ok(ProfileRun {
            profile,
            dynamic_ops,
            dynamic_branches,
        })
    }

    /// The dispatch loop. Leaves the final value file, memory, block
    /// entries and taken counts in `state`, adds the operations fetched
    /// (a trapping one included) to `interp.steps`, and returns that
    /// count.
    fn execute(
        &self,
        input: &Input,
        state: &mut ExecState,
        mut on_event: impl FnMut(TraceEvent),
    ) -> Result<u64, Trap> {
        assert!(!self.blocks.is_empty(), "function has no blocks");
        state.reset(self, input);
        let ExecState {
            vals,
            memory,
            entries,
            taken,
        } = state;
        let vals = &mut vals[..];
        let budget = input.fuel_budget();
        let mut fuel = budget;

        let mut bi = 0usize;
        let result = loop {
            let block = self.blocks[bi];
            entries[bi] += 1;
            on_event(TraceEvent::Enter(BlockId(block.id)));
            let start = block.start as usize;
            // Charge the whole block up front; when the fuel left is
            // shorter, run only the ops it pays for.
            let len = u64::from(block.end - block.start);
            let paid = len.min(fuel);
            fuel -= paid;
            let body = &self.ops[start..start + paid as usize];

            let (fetched, exit) = 'body: {
                for (k, op) in body.iter().enumerate() {
                    let guard = vals[op.guard as usize] != 0;
                    let op_id = || OpId(self.op_ids[start + k]);

                    macro_rules! binary {
                        (|$a:ident, $b:ident| $value:expr) => {
                            if guard {
                                let ($a, $b) = (vals[op.a as usize], vals[op.b as usize]);
                                vals[op.dest as usize] = $value;
                            }
                        };
                    }
                    macro_rules! divide {
                        ($f:expr) => {
                            if guard {
                                let b = vals[op.b as usize];
                                if b == 0 {
                                    break 'body (
                                        k + 1,
                                        Exit::Trap(Trap::DivideByZero { op: op_id() }),
                                    );
                                }
                                vals[op.dest as usize] = $f(vals[op.a as usize], b);
                            }
                        };
                    }

                    match op.opcode {
                        Opcode::Cmpp(cond) => {
                            // Unconditional destinations write even under a
                            // false guard, so cmpp ignores the guard skip.
                            let cmp = cond.eval(vals[op.a as usize], vals[op.b as usize]);
                            let writes =
                                &self.cmpp_writes[op.aux as usize..(op.aux + op.aux_len) as usize];
                            for &(p, action) in writes {
                                if let Some(v) = action.apply(guard, cmp) {
                                    vals[p as usize] = v as i64;
                                }
                            }
                        }
                        Opcode::PredInit => {
                            if guard {
                                let writes = &self.pinit_writes
                                    [op.aux as usize..(op.aux + op.aux_len) as usize];
                                for &(p, v) in writes {
                                    vals[p as usize] = v;
                                }
                            }
                        }
                        Opcode::Add | Opcode::FAdd => binary!(|a, b| a.wrapping_add(b)),
                        Opcode::Sub | Opcode::FSub => binary!(|a, b| a.wrapping_sub(b)),
                        Opcode::Mul | Opcode::FMul => binary!(|a, b| a.wrapping_mul(b)),
                        Opcode::Div | Opcode::FDiv => divide!(i64::wrapping_div),
                        Opcode::Rem => divide!(i64::wrapping_rem),
                        Opcode::And => binary!(|a, b| a & b),
                        Opcode::Or => binary!(|a, b| a | b),
                        Opcode::Xor => binary!(|a, b| a ^ b),
                        Opcode::Shl => binary!(|a, b| a.wrapping_shl(b as u32)),
                        Opcode::Shr => binary!(|a, b| a.wrapping_shr(b as u32)),
                        Opcode::Mov => {
                            if guard {
                                vals[op.dest as usize] = vals[op.a as usize];
                            }
                        }
                        Opcode::Load => {
                            if guard {
                                let addr = vals[op.a as usize];
                                let Some(&v) =
                                    usize::try_from(addr).ok().and_then(|a| memory.get(a))
                                else {
                                    let size = memory.len();
                                    break 'body (
                                        k + 1,
                                        Exit::Trap(Trap::MemoryOutOfBounds {
                                            op: op_id(),
                                            addr,
                                            size,
                                        }),
                                    );
                                };
                                vals[op.dest as usize] = v;
                            }
                        }
                        Opcode::LoadS => {
                            // Dismissible load: faults squash to 0.
                            if guard {
                                let addr = vals[op.a as usize];
                                vals[op.dest as usize] = usize::try_from(addr)
                                    .ok()
                                    .and_then(|a| memory.get(a).copied())
                                    .unwrap_or(0);
                            }
                        }
                        Opcode::Store => {
                            if guard {
                                let addr = vals[op.a as usize];
                                let size = memory.len();
                                let Some(slot) =
                                    usize::try_from(addr).ok().and_then(|a| memory.get_mut(a))
                                else {
                                    break 'body (
                                        k + 1,
                                        Exit::Trap(Trap::MemoryOutOfBounds {
                                            op: op_id(),
                                            addr,
                                            size,
                                        }),
                                    );
                                };
                                *slot = vals[op.b as usize];
                            }
                        }
                        Opcode::Pbr => {
                            if guard {
                                assert!(op.target_id != NONE, "verified pbr has target");
                                vals[op.dest as usize] = op.target_id as i64;
                            }
                        }
                        Opcode::Branch => {
                            if guard {
                                taken[start + k] += 1;
                                on_event(TraceEvent::Taken(op_id()));
                                assert!(op.target_id != NONE, "verified branch has target");
                                let btr_value = vals[op.a as usize];
                                if btr_value != op.target_id as i64 {
                                    let mismatch = Trap::BranchTargetMismatch {
                                        op: op_id(),
                                        btr_value,
                                        expected: op.target_id,
                                    };
                                    break 'body (k + 1, Exit::Trap(mismatch));
                                }
                                assert!(
                                    op.aux != NONE,
                                    "branch target b{} is not in the layout",
                                    op.target_id
                                );
                                break 'body (k + 1, Exit::Jump(op.aux as usize));
                            }
                        }
                        Opcode::Ret => {
                            if guard {
                                taken[start + k] += 1;
                                on_event(TraceEvent::Taken(op_id()));
                                break 'body (k + 1, Exit::Ret);
                            }
                        }
                    }
                }
                (body.len(), Exit::FallThrough)
            };
            // Refund the ops an early exit did not fetch (the exiting or
            // trapping op itself was fetched).
            fuel += paid - fetched as u64;

            match exit {
                Exit::Jump(pos) => bi = pos,
                Exit::Ret => break Ok(()),
                Exit::Trap(trap) => break Err(trap),
                Exit::FallThrough if paid < len => break Err(Trap::OutOfFuel),
                Exit::FallThrough => {
                    // Continue with the layout successor. The verifier
                    // guarantees the last block cannot fall through, so
                    // the successor exists.
                    bi += 1;
                    assert!(bi < self.blocks.len(), "fell through the last layout block");
                }
            }
        };

        let dynamic_ops = budget - fuel;
        obs_steps().add(dynamic_ops);
        result.map(|()| dynamic_ops)
    }

    /// The profile and dynamic branch count of the run `state` holds,
    /// derived from its block entries and taken counts: an operation is
    /// fetched once per entry of its block minus the entries that left
    /// through an earlier taken branch. Zero counts are left out, so the
    /// result is `==` to the direct interpreter's recording.
    fn derive_profile(&self, state: &ExecState) -> (Profile, u64) {
        let mut profile = Profile::new();
        let mut dynamic_branches = 0;
        for (block, &entries) in self.blocks.iter().zip(&state.entries) {
            if entries == 0 {
                continue;
            }
            *profile.block_entries.entry(BlockId(block.id)).or_insert(0) += entries;
            let mut reached = entries;
            for i in block.start as usize..block.end as usize {
                if reached == 0 {
                    break;
                }
                let id = OpId(self.op_ids[i]);
                *profile.op_executed.entry(id).or_insert(0) += reached;
                if matches!(self.ops[i].opcode, Opcode::Branch | Opcode::Ret) {
                    dynamic_branches += reached;
                }
                let taken = state.taken[i];
                if taken != 0 {
                    *profile.branch_taken.entry(id).or_insert(0) += taken;
                    reached -= taken;
                }
            }
        }
        (profile, dynamic_branches)
    }
}

/// Reusable mutable execution state: the value file, the memory image,
/// and the per-run block-entry and taken counters. Reusing one
/// `ExecState` across runs (as [`run`](crate::run) and
/// [`run_profile`](crate::run_profile) do through one thread-local pool)
/// keeps the backing allocations warm instead of re-faulting fresh pages
/// on every profiling run.
#[derive(Debug, Default)]
pub struct ExecState {
    /// Registers, predicates (0/1), the constant 1, the sink and the
    /// constants, as laid out by [`DecodedProgram`].
    vals: Vec<i64>,
    memory: Vec<i64>,
    /// Entries per layout block.
    entries: Vec<u64>,
    /// Taken count per decoded operation position (`branch` and `ret`).
    taken: Vec<u64>,
}

impl ExecState {
    /// An empty state; buffers grow on first use.
    pub fn new() -> ExecState {
        ExecState::default()
    }

    /// Sizes and initializes every buffer for one run of `prog` on `input`.
    fn reset(&mut self, prog: &DecodedProgram, input: &Input) {
        self.vals.clear();
        self.vals.extend_from_slice(&prog.init);
        for &(r, v) in input.initial_regs() {
            self.vals[..prog.reg_count][r.index()] = v;
        }
        self.memory.clear();
        self.memory.extend_from_slice(input.initial_memory());
        resize_fill(&mut self.entries, prog.blocks.len());
        resize_fill(&mut self.taken, prog.ops.len());
    }
}

fn resize_fill(v: &mut Vec<u64>, len: usize) {
    v.clear();
    v.resize(len, 0);
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

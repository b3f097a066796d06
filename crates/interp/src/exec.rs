//! Execution inputs/outcomes and the public `run` entry points.
//!
//! The dispatch loop itself lives in [`crate::decode`]; `run`/`run_traced`
//! decode the function and execute it through a pooled [`ExecState`].

use epic_ir::{Function, Profile, Reg};

use crate::decode::{DecodedProgram, ExecState};
use crate::trap::Trap;

/// Input to an execution: initial memory, initial registers, and a fuel
/// budget.
#[derive(Clone, Debug)]
pub struct Input {
    memory: Vec<i64>,
    regs: Vec<(Reg, i64)>,
    fuel: u64,
}

impl Default for Input {
    fn default() -> Self {
        Input { memory: Vec::new(), regs: Vec::new(), fuel: 50_000_000 }
    }
}

impl Input {
    /// Creates an empty input with the default fuel budget.
    pub fn new() -> Input {
        Input::default()
    }

    /// Sets the memory image size (words, zero-initialized).
    pub fn memory_size(mut self, words: usize) -> Input {
        self.memory.resize(words, 0);
        self
    }

    /// Writes `values` into memory starting at word `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the values do not fit in the current image.
    pub fn with_memory(mut self, addr: usize, values: &[i64]) -> Input {
        assert!(addr + values.len() <= self.memory.len(), "initial values exceed image");
        self.memory[addr..addr + values.len()].copy_from_slice(values);
        self
    }

    /// Sets the initial value of a register (function argument).
    pub fn with_reg(mut self, reg: Reg, value: i64) -> Input {
        self.regs.push((reg, value));
        self
    }

    /// Overrides the fuel budget (maximum fetched operations).
    pub fn fuel(mut self, fuel: u64) -> Input {
        self.fuel = fuel;
        self
    }

    /// The current fuel budget.
    pub fn fuel_budget(&self) -> u64 {
        self.fuel
    }

    /// The initial memory image.
    ///
    /// Public so alternative executors (e.g. the RISC-lite reference
    /// interpreter in `epic-riscfe`) can consume the same `Input` type and
    /// be differentially compared against [`run`].
    pub fn initial_memory(&self) -> &[i64] {
        &self.memory
    }

    /// The initial register assignments (see [`Input::initial_memory`]).
    pub fn initial_regs(&self) -> &[(Reg, i64)] {
        &self.regs
    }

    /// A stable content hash of this input (memory image, initial
    /// registers, fuel budget), suitable for cache keys: two inputs with
    /// the same hash drive a deterministic program to the same profile and
    /// observable outcome.
    pub fn content_hash(&self) -> u64 {
        let mut h = epic_ir::Fnv64::new();
        h.write_usize(self.memory.len());
        for &v in &self.memory {
            h.write_i64(v);
        }
        h.write_usize(self.regs.len());
        for &(r, v) in &self.regs {
            h.write_u64(r.0 as u64);
            h.write_i64(v);
        }
        h.write_u64(self.fuel);
        h.finish()
    }
}

/// The result of a completed execution.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Final memory image.
    pub memory: Vec<i64>,
    /// Final general-register file.
    pub regs: Vec<i64>,
    /// Execution profile: block entries, op fetch counts, branch takens.
    pub profile: Profile,
    /// Total operations fetched (the paper's dynamic operation count; a
    /// nullified operation still occupies an issue slot and is counted).
    pub dynamic_ops: u64,
    /// Total branch operations fetched (`branch` and `ret`).
    pub dynamic_branches: u64,
}

/// One observable control event of an execution, in execution order.
///
/// `Enter` fires once per dynamic block entry — the same events
/// [`Profile::record_block_entry`] counts. `Taken` fires once per taken
/// control transfer (a taken guarded `branch`, or an executed `ret`) — the
/// same events [`Profile::record_taken`] counts. The schedule replay
/// oracle (`epic-schedcheck`) re-derives cycle counts from this stream:
/// `Enter` charges a block's schedule/fetch cost, `Taken` charges the
/// front-end redirect penalty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Control entered a block.
    Enter(epic_ir::BlockId),
    /// A control transfer took (taken `branch` or executed `ret`).
    Taken(epic_ir::OpId),
}

/// Runs `func` to completion on `input`.
///
/// Internally the function is pre-decoded into a [`DecodedProgram`] and
/// executed through a thread-local [`ExecState`] pool, so repeated
/// profiling runs reuse their register/predicate/memory allocations. See
/// `crate::decode` for the hot-path layout.
///
/// # Errors
///
/// Returns a [`Trap`] on out-of-bounds memory access, divide-by-zero on an
/// executed divide, fuel exhaustion, or a branch whose target register
/// disagrees with its syntactic label (which would indicate a miscompiled
/// transformation).
pub fn run(func: &Function, input: &Input) -> Result<Outcome, Trap> {
    run_events(func, input, |_| {})
}

/// Like [`run`], but invokes `on_block` once per dynamic block entry, in
/// execution order — the [`TraceEvent::Enter`] subset of [`run_events`].
///
/// # Errors
///
/// Same as [`run`].
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

/// Like [`run`], but invokes `on_event` for every [`TraceEvent`], in
/// execution order.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_events(
    func: &Function,
    input: &Input,
    on_event: impl FnMut(TraceEvent),
) -> Result<Outcome, Trap> {
    thread_local! {
        static STATE: std::cell::RefCell<ExecState> = std::cell::RefCell::new(ExecState::new());
    }
    let prog = DecodedProgram::decode(func);
    STATE.with(|state| prog.run(input, &mut state.borrow_mut(), on_event))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::{CmpCond, FunctionBuilder, Opcode, Operand};

    #[test]
    fn straight_line_arithmetic() {
        let mut b = FunctionBuilder::new("t");
        let e = b.block("e");
        b.switch_to(e);
        let x = b.movi(6);
        let y = b.movi(7);
        let z = b.mul(x.into(), y.into());
        let a = b.movi(0);
        b.store(a, z.into());
        b.ret();
        let f = b.finish();
        let out = run(&f, &Input::new().memory_size(1)).unwrap();
        assert_eq!(out.memory[0], 42);
        assert_eq!(out.dynamic_ops, 6);
        assert_eq!(out.dynamic_branches, 1); // ret
    }

    #[test]
    fn loop_with_counter() {
        // sum 1..=10 into memory[0]
        let mut b = FunctionBuilder::new("sum");
        let head = b.block("head");
        let exit = b.block("exit");
        b.switch_to(head);
        let i = b.reg();
        let acc = b.reg();
        let i2 = b.add(i.into(), Operand::Imm(1));
        b.mov_to(i, i2.into());
        let acc2 = b.add(acc.into(), i.into());
        b.mov_to(acc, acc2.into());
        let (t, _) = b.cmpp_un_uc(CmpCond::Lt, i.into(), Operand::Imm(10));
        b.branch_if(t, head);
        let a = b.movi(0);
        b.store(a, acc.into());
        b.jump(exit);
        b.switch_to(exit);
        b.ret();
        let f = b.finish();
        let out = run(&f, &Input::new().memory_size(1)).unwrap();
        assert_eq!(out.memory[0], 55);
        assert_eq!(out.profile.entry_count(head), 10);
        assert_eq!(out.profile.taken_count(f.block(head).ops[6].id), 9);
    }

    #[test]
    fn predication_nullifies() {
        let mut b = FunctionBuilder::new("p");
        let e = b.block("e");
        b.switch_to(e);
        let x = b.movi(5);
        let (t, f_) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(5));
        let a = b.movi(0);
        b.set_guard(Some(t));
        b.store(a, Operand::Imm(1));
        b.set_guard(Some(f_));
        b.store(a, Operand::Imm(2));
        b.set_guard(None);
        b.ret();
        let f = b.finish();
        let out = run(&f, &Input::new().memory_size(1)).unwrap();
        assert_eq!(out.memory[0], 1);
    }

    #[test]
    fn out_of_fuel() {
        let mut b = FunctionBuilder::new("inf");
        let e = b.block("e");
        b.switch_to(e);
        b.jump(e);
        let f = b.finish();
        assert!(matches!(run(&f, &Input::new().fuel(100)), Err(Trap::OutOfFuel)));
    }

    #[test]
    fn memory_bounds_trap() {
        let mut b = FunctionBuilder::new("oob");
        let e = b.block("e");
        b.switch_to(e);
        let a = b.movi(100);
        b.store(a, Operand::Imm(1));
        b.ret();
        let f = b.finish();
        assert!(matches!(
            run(&f, &Input::new().memory_size(4)),
            Err(Trap::MemoryOutOfBounds { addr: 100, .. })
        ));
    }

    #[test]
    fn divide_by_zero_traps_only_when_executed() {
        let mut b = FunctionBuilder::new("div");
        let e = b.block("e");
        b.switch_to(e);
        let x = b.movi(1);
        let zero = b.movi(0);
        let (never, _) = b.cmpp_un_uc(CmpCond::Ne, x.into(), x.into());
        b.set_guard(Some(never));
        b.div(x.into(), zero.into());
        b.set_guard(None);
        b.ret();
        let f = b.finish();
        // guard is false: the divide is nullified and must not trap.
        run(&f, &Input::new().memory_size(1)).unwrap();

        let mut b = FunctionBuilder::new("div2");
        let e = b.block("e");
        b.switch_to(e);
        let x = b.movi(1);
        let zero = b.movi(0);
        b.div(x.into(), zero.into());
        b.ret();
        let f = b.finish();
        assert!(matches!(
            run(&f, &Input::new().memory_size(1)),
            Err(Trap::DivideByZero { .. })
        ));
    }

    #[test]
    fn initial_registers_and_memory() {
        let mut b = FunctionBuilder::new("arg");
        let e = b.block("e");
        b.switch_to(e);
        let arg = b.reg();
        let v = b.load(arg);
        let d = b.movi(1);
        b.store(d, v.into());
        b.ret();
        let f = b.finish();
        let out = run(
            &f,
            &Input::new().memory_size(2).with_memory(0, &[99]).with_reg(arg, 0),
        )
        .unwrap();
        assert_eq!(out.memory[1], 99);
    }

    #[test]
    fn branch_target_mismatch_traps() {
        // Build a branch whose btr register holds the wrong value.
        let mut b = FunctionBuilder::new("bad");
        let e = b.block("e");
        let t = b.block("t");
        b.switch_to(e);
        let btr = b.movi(12345);
        b.emit(Opcode::Branch, vec![], vec![Operand::Reg(btr), Operand::Label(t)]);
        b.ret();
        b.switch_to(t);
        b.ret();
        let f = b.finish();
        assert!(matches!(
            run(&f, &Input::new()),
            Err(Trap::BranchTargetMismatch { .. })
        ));
    }

    #[test]
    fn wired_or_accumulation() {
        // p = (x == 1) || (y == 2), via ON compares after clearing p.
        use epic_ir::PredAction;
        let mut b = FunctionBuilder::new("or");
        let e = b.block("e");
        b.switch_to(e);
        let x = b.movi(0);
        let y = b.movi(2);
        let p = b.pred();
        b.pred_init(&[(p, false)]);
        b.cmpp(CmpCond::Eq, vec![(p, PredAction::ON)], x.into(), Operand::Imm(1));
        b.cmpp(CmpCond::Eq, vec![(p, PredAction::ON)], y.into(), Operand::Imm(2));
        let a = b.movi(0);
        b.set_guard(Some(p));
        b.store(a, Operand::Imm(77));
        b.set_guard(None);
        b.ret();
        let f = b.finish();
        let out = run(&f, &Input::new().memory_size(1)).unwrap();
        assert_eq!(out.memory[0], 77);
    }
}

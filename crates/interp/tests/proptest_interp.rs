//! Property tests of the interpreter: determinism, fuel monotonicity, and
//! predication semantics on randomly generated straight-line programs, and
//! agreement with the reference interpreter on every observable (events
//! and every fuel budget included) on randomly generated multi-block
//! programs.

use epic_interp::{reference, run, run_events, Input, TraceEvent};
use epic_ir::{CmpCond, FunctionBuilder, Opcode, Operand, PredAction};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[derive(Clone, Debug)]
enum GenOp {
    Binary(u8, i64),
    Load(u8),
    StoreImm(u8, i64),
    GuardedStore(u8, i64, i64),
}

fn op_strategy() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (0u8..8, -9i64..10).prop_map(|(k, imm)| GenOp::Binary(k, imm)),
        (0u8..16).prop_map(GenOp::Load),
        (0u8..16, -9i64..10).prop_map(|(a, v)| GenOp::StoreImm(a, v)),
        (0u8..16, -9i64..10, -4i64..5).prop_map(|(a, v, t)| GenOp::GuardedStore(a, v, t)),
    ]
}

fn build(ops: &[GenOp]) -> epic_ir::Function {
    let mut fb = FunctionBuilder::new("gen");
    let b = fb.block("b");
    fb.switch_to(b);
    let mut acc = fb.movi(1);
    for g in ops {
        acc = emit_straight(&mut fb, acc.into(), g).unwrap_or(acc);
    }
    let out = fb.movi(30);
    fb.store(out, acc.into());
    fb.ret();
    fb.finish()
}

/// Emits `g` reading the accumulator `acc`; returns the new accumulator,
/// if `g` computes one.
fn emit_straight(fb: &mut FunctionBuilder, acc: Operand, g: &GenOp) -> Option<epic_ir::Reg> {
    Some(match g {
        GenOp::Binary(k, imm) => {
            let s = Operand::Imm(*imm);
            match k % 8 {
                0 => fb.add(acc, s),
                1 => fb.sub(acc, s),
                2 => fb.mul(acc, s),
                3 => fb.and(acc, s),
                4 => fb.or(acc, s),
                5 => fb.xor(acc, s),
                6 => fb.shl(acc, Operand::Imm(imm.rem_euclid(8))),
                _ => fb.shr(acc, Operand::Imm(imm.rem_euclid(8))),
            }
        }
        GenOp::Load(a) => {
            let addr = fb.movi(*a as i64);
            let v = fb.load(addr);
            fb.add(acc, v.into())
        }
        GenOp::StoreImm(a, v) => {
            let addr = fb.movi(*a as i64);
            fb.store(addr, Operand::Imm(*v));
            return None;
        }
        GenOp::GuardedStore(a, v, t) => {
            let p = fb.cmpp_un(CmpCond::Gt, acc, Operand::Imm(*t));
            let addr = fb.movi(*a as i64);
            fb.set_guard(Some(p));
            fb.store(addr, Operand::Imm(*v));
            fb.set_guard(None);
            return None;
        }
    })
}

/// One operation of a generated multi-block program.
#[derive(Clone, Debug)]
enum BlockOp {
    Straight(GenOp),
    /// `acc += (acc > t)`, the predicate read as a value operand.
    PredValue(i64),
    /// `acc = acc / d` under `acc > t`; `d` may be 0, so a true guard traps
    /// and a false one must not.
    GuardedDiv(i64, i64),
    /// `ret` under `acc > t`, in the middle of a block.
    GuardedRet(i64),
    /// A branch to block `target % blocks`, taken while the trip counter
    /// (bumped at every branch site) is below `limit` and `acc > t`. It can
    /// stand anywhere in a block and jump backwards, so programs loop, yet
    /// at most `limit` branches take.
    Branch(u8, i64, i64),
}

fn block_op_strategy() -> impl Strategy<Value = BlockOp> {
    prop_oneof![
        op_strategy().prop_map(BlockOp::Straight),
        (-4i64..5).prop_map(BlockOp::PredValue),
        (-4i64..5, -2i64..3).prop_map(|(t, d)| BlockOp::GuardedDiv(t, d)),
        (-4i64..12).prop_map(BlockOp::GuardedRet),
        (0u8..8, 0i64..12, -4i64..5).prop_map(|(b, l, t)| BlockOp::Branch(b, l, t)),
    ]
}

fn blocks_strategy() -> impl Strategy<Value = Vec<Vec<BlockOp>>> {
    prop::collection::vec(prop::collection::vec(block_op_strategy(), 0..8), 1..5)
}

fn build_blocks(blocks: &[Vec<BlockOp>]) -> epic_ir::Function {
    let mut fb = FunctionBuilder::new("gen_blocks");
    let ids: Vec<_> = (0..blocks.len())
        .map(|i| fb.block(format!("b{i}")))
        .collect();
    let acc = fb.reg();
    let trips = fb.reg();
    for (i, ops) in blocks.iter().enumerate() {
        fb.switch_to(ids[i]);
        if i == 0 {
            fb.mov_to(acc, Operand::Imm(1));
        }
        for op in ops {
            match *op {
                BlockOp::Straight(ref g) => {
                    if let Some(v) = emit_straight(&mut fb, acc.into(), g) {
                        fb.mov_to(acc, v.into());
                    }
                }
                BlockOp::PredValue(t) => {
                    let p = fb.cmpp_un(CmpCond::Gt, acc.into(), Operand::Imm(t));
                    let v = fb.add(acc.into(), Operand::Pred(p));
                    fb.mov_to(acc, v.into());
                }
                BlockOp::GuardedDiv(t, d) => {
                    let p = fb.cmpp_un(CmpCond::Gt, acc.into(), Operand::Imm(t));
                    fb.set_guard(Some(p));
                    fb.emit(
                        Opcode::Div,
                        vec![epic_ir::Dest::Reg(acc)],
                        vec![acc.into(), Operand::Imm(d)],
                    );
                    fb.set_guard(None);
                }
                BlockOp::GuardedRet(t) => {
                    let p = fb.cmpp_un(CmpCond::Gt, acc.into(), Operand::Imm(t));
                    fb.set_guard(Some(p));
                    fb.emit(Opcode::Ret, vec![], vec![]);
                    fb.set_guard(None);
                }
                BlockOp::Branch(target, limit, t) => {
                    let bumped = fb.add(trips.into(), Operand::Imm(1));
                    fb.mov_to(trips, bumped.into());
                    let p = fb.cmpp_un(CmpCond::Le, trips.into(), Operand::Imm(limit));
                    fb.cmpp(
                        CmpCond::Gt,
                        vec![(p, PredAction::AN)],
                        acc.into(),
                        Operand::Imm(t),
                    );
                    fb.branch_if(p, ids[target as usize % blocks.len()]);
                }
            }
        }
    }
    let out = fb.movi(30);
    fb.store(out, acc.into());
    fb.ret();
    fb.finish()
}

/// Runs `f` on both interpreters and requires the same trap, or the same
/// outcome on every field; either way the same event stream.
fn same_as_reference(f: &epic_ir::Function, input: &Input) -> Result<(), TestCaseError> {
    let (mut fast_events, mut slow_events) = (Vec::<TraceEvent>::new(), Vec::new());
    let fast = run_events(f, input, |e| fast_events.push(e));
    let slow = reference::run_events(f, input, |e| slow_events.push(e));
    match (fast, slow) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.memory, b.memory);
            prop_assert_eq!(a.regs, b.regs);
            prop_assert_eq!(a.profile, b.profile);
            prop_assert_eq!(a.dynamic_ops, b.dynamic_ops);
            prop_assert_eq!(a.dynamic_branches, b.dynamic_branches);
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        (a, b) => prop_assert!(false, "decoded {:?} but reference {:?}", a, b),
    }
    prop_assert_eq!(fast_events, slow_events);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Multi-block programs (loops, taken branches mid-block, a guarded
    /// `ret`, predicates read as values, divides under false guards) run
    /// exactly as the reference interpreter runs them.
    #[test]
    fn multi_block_matches_reference(blocks in blocks_strategy()) {
        let f = build_blocks(&blocks);
        epic_ir::verify(&f).expect("generated programs verify");
        same_as_reference(&f, &Input::new().memory_size(32))?;
    }

    /// Fuel is checked per block: every budget from 0 to one past the
    /// run's dynamic op count traps or finishes exactly as the reference.
    #[test]
    fn multi_block_matches_reference_at_every_fuel(blocks in blocks_strategy()) {
        let f = build_blocks(&blocks);
        let input = Input::new().memory_size(32);
        let n = reference::run(&f, &input).map_or(64, |o| o.dynamic_ops);
        for fuel in 0..=n + 1 {
            same_as_reference(&f, &input.clone().fuel(fuel))?;
        }
    }

}

proptest! {
    /// Execution is deterministic.
    #[test]
    fn deterministic(ops in prop::collection::vec(op_strategy(), 0..24)) {
        let f = build(&ops);
        epic_ir::verify(&f).expect("generated programs verify");
        let input = Input::new().memory_size(32);
        let a = run(&f, &input).expect("runs");
        let b = run(&f, &input).expect("runs");
        prop_assert_eq!(a.memory, b.memory);
        prop_assert_eq!(a.dynamic_ops, b.dynamic_ops);
    }

    /// Dynamic op count equals static op count for straight-line code, and
    /// every op was fetched exactly once.
    #[test]
    fn straight_line_fetch_counts(ops in prop::collection::vec(op_strategy(), 0..24)) {
        let f = build(&ops);
        let out = run(&f, &Input::new().memory_size(32)).expect("runs");
        prop_assert_eq!(out.dynamic_ops as usize, f.static_op_count());
        for (_, op) in f.ops_in_layout() {
            prop_assert_eq!(out.profile.executed_count(op.id), 1);
        }
    }

    /// A guarded store under a false guard never writes; under a true guard
    /// it always writes (checked against a reference simulation).
    #[test]
    fn guarded_store_semantics(acc0 in -5i64..6, t in -4i64..5, v in -9i64..10) {
        let mut fb = FunctionBuilder::new("g");
        let b = fb.block("b");
        fb.switch_to(b);
        let x = fb.movi(acc0);
        let p = fb.cmpp_un(CmpCond::Gt, x.into(), Operand::Imm(t));
        let addr = fb.movi(0);
        fb.set_guard(Some(p));
        fb.store(addr, Operand::Imm(v));
        fb.set_guard(None);
        fb.ret();
        let f = fb.finish();
        let out = run(&f, &Input::new().memory_size(4)).expect("runs");
        let expected = if acc0 > t { v } else { 0 };
        prop_assert_eq!(out.memory[0], expected);
    }

    /// Fuel exhaustion is the only effect of lowering fuel: with fuel at
    /// least the dynamic op count, results are identical.
    #[test]
    fn fuel_monotonic(ops in prop::collection::vec(op_strategy(), 0..16)) {
        let f = build(&ops);
        let full = run(&f, &Input::new().memory_size(32)).expect("runs");
        let tight = run(&f, &Input::new().memory_size(32).fuel(full.dynamic_ops)).expect("exact fuel");
        prop_assert_eq!(full.memory, tight.memory);
        if full.dynamic_ops > 0 {
            let starved = run(&f, &Input::new().memory_size(32).fuel(full.dynamic_ops - 1));
            prop_assert!(starved.is_err(), "one less fuel must trap");
        }
    }
}

/// `load.s` dismisses out-of-bounds accesses rather than trapping.
#[test]
fn speculative_load_dismisses() {
    let mut fb = FunctionBuilder::new("ls");
    let b = fb.block("b");
    fb.switch_to(b);
    let addr = fb.movi(9999);
    let d = fb.reg();
    fb.emit(Opcode::LoadS, vec![epic_ir::Dest::Reg(d)], vec![Operand::Reg(addr)]);
    let out = fb.movi(0);
    fb.store(out, d.into());
    fb.ret();
    let f = fb.finish();
    let outcome = run(&f, &Input::new().memory_size(4)).expect("dismissible");
    assert_eq!(outcome.memory[0], 0);
}

/// The multi-block generator is not vacuous: over the cases the property
/// tests sample, programs loop, take branches in the middle of a block,
/// return from the middle of a block, trap on a divide, and fetch a
/// divide by zero under a false guard without trapping.
#[test]
fn multi_block_generator_reaches_every_feature() {
    let (mut looped, mut mid_branch, mut mid_ret, mut div_trap, mut div_nullified) =
        (0, 0, 0, 0, 0);
    let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig::with_cases(256));
    runner
        .run(&(blocks_strategy(),), |(blocks,)| {
            let f = build_blocks(&blocks);
            let mut events = Vec::new();
            let out = run_events(&f, &Input::new().memory_size(32), |e| events.push(e));
            let mut entries = std::collections::HashMap::new();
            for e in &events {
                match *e {
                    TraceEvent::Enter(b) => *entries.entry(b).or_insert(0) += 1,
                    TraceEvent::Taken(id) => {
                        let (b, op) = f.ops_in_layout().find(|(_, op)| op.id == id).unwrap();
                        let last = f.block(b).ops.last().unwrap().id == id;
                        match op.opcode {
                            Opcode::Branch if !last => mid_branch += 1,
                            Opcode::Ret if !last => mid_ret += 1,
                            _ => {}
                        }
                    }
                }
            }
            looped += usize::from(entries.values().any(|&n| n > 1));
            match out {
                Err(epic_interp::Trap::DivideByZero { .. }) => div_trap += 1,
                Err(t) => panic!("generated programs trap only on a divide: {t}"),
                Ok(o) => {
                    let zero_div = f.ops_in_layout().any(|(_, op)| {
                        op.opcode == Opcode::Div
                            && op.srcs[1] == Operand::Imm(0)
                            && o.profile.executed_count(op.id) > 0
                    });
                    div_nullified += usize::from(zero_div);
                }
            }
            Ok(())
        })
        .unwrap();
    let seen = [looped, mid_branch, mid_ret, div_trap, div_nullified];
    assert!(
        seen.iter().all(|&n| n >= 8),
        "loop, mid-block branch, mid-block ret, divide trap, nullified divide: {seen:?}"
    );
}

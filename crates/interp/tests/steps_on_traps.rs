//! `interp.steps` counts every fetched operation, the trapping one
//! included, on every trap path (perfbench's `interp.ns_per_step` divides
//! by it). The counter is process-wide, so this file is its own test
//! binary with a single test: no parallel test can move the counter.

use epic_interp::{run, Input, Trap};
use epic_ir::{CmpCond, Function, FunctionBuilder, Opcode, Operand};

/// Runs `f` and returns its result with the `interp.steps` delta.
fn steps_of(f: &Function, input: &Input) -> (Result<u64, Trap>, u64) {
    let steps = epic_obs::MetricsRegistry::global().counter("interp.steps");
    let before = steps.value();
    let out = run(f, input).map(|o| o.dynamic_ops);
    (out, steps.value() - before)
}

#[test]
fn steps_count_the_fetched_ops_on_every_trap_path() {
    // Out of fuel: `pbr; branch` back to itself, 7 fetches allowed.
    let mut b = FunctionBuilder::new("spin");
    let e = b.block("e");
    b.switch_to(e);
    b.jump(e);
    let f = b.finish();
    assert_eq!(
        steps_of(&f, &Input::new().fuel(7)),
        (Err(Trap::OutOfFuel), 7)
    );

    // Divide by zero: two moves, then the divide (3 fetches).
    let mut b = FunctionBuilder::new("div");
    let e = b.block("e");
    b.switch_to(e);
    let x = b.movi(1);
    let z = b.movi(0);
    b.div(x.into(), z.into());
    b.ret();
    let f = b.finish();
    let (out, steps) = steps_of(&f, &Input::new());
    assert!(matches!(out, Err(Trap::DivideByZero { .. })), "{out:?}");
    assert_eq!(steps, 3);

    // A store out of bounds in the middle of the second block: a move and
    // a compare in the first block, then a move and the store (4
    // fetches); the guarded add and the `ret` after it are never fetched.
    let mut b = FunctionBuilder::new("oob");
    let first = b.block("first");
    let second = b.block("second");
    b.switch_to(first);
    let one = b.movi(1);
    let (never, _) = b.cmpp_un_uc(CmpCond::Ne, one.into(), one.into());
    b.switch_to(second);
    let a = b.movi(100);
    b.store(a, Operand::Imm(1));
    b.set_guard(Some(never));
    b.add(one.into(), one.into());
    b.set_guard(None);
    b.ret();
    let f = b.finish();
    let (out, steps) = steps_of(&f, &Input::new().memory_size(4));
    assert!(
        matches!(out, Err(Trap::MemoryOutOfBounds { addr: 100, .. })),
        "{out:?}"
    );
    assert_eq!(steps, 4);

    // Branch-target mismatch: a move, then the branch (2 fetches).
    let mut b = FunctionBuilder::new("bad");
    let e = b.block("e");
    let t = b.block("t");
    b.switch_to(e);
    let btr = b.movi(12345);
    b.emit(
        Opcode::Branch,
        vec![],
        vec![Operand::Reg(btr), Operand::Label(t)],
    );
    b.ret();
    b.switch_to(t);
    b.ret();
    let f = b.finish();
    let (out, steps) = steps_of(&f, &Input::new());
    assert!(
        matches!(
            out,
            Err(Trap::BranchTargetMismatch {
                btr_value: 12345,
                ..
            })
        ),
        "{out:?}"
    );
    assert_eq!(steps, 2);

    // A completed run adds exactly its dynamic op count.
    let mut b = FunctionBuilder::new("ok");
    let e = b.block("e");
    b.switch_to(e);
    let a = b.movi(0);
    b.store(a, Operand::Imm(5));
    b.ret();
    let f = b.finish();
    assert_eq!(steps_of(&f, &Input::new().memory_size(1)), (Ok(3), 3));
}

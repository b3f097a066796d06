//! Hand-minimized negative cases: one per violation kind, asserting
//! stable error rendering.

use epic_ir::{BlockId, Function, FunctionBuilder, Operand};
use epic_machine::{Latencies, Machine, Widths};
use epic_sched::{schedule_function, SchedOptions, Schedule, ScheduledFunction};
use epic_schedcheck::check_function;

fn sched_of(cycles: Vec<i64>, length: i64) -> Schedule {
    Schedule { cycles, length }
}

fn single(func: &Function, machine: &Machine, sched: &ScheduledFunction) -> String {
    let vs = check_function(func, machine, sched, &SchedOptions::default());
    assert_eq!(vs.len(), 1, "expected exactly one violation, got {vs:?}");
    vs[0].to_string()
}

/// entry block with just a `ret`.
fn ret_only() -> (Function, BlockId) {
    let mut b = FunctionBuilder::new("t");
    let e = b.block("e");
    b.switch_to(e);
    b.ret();
    (b.finish(), e)
}

#[test]
fn missing_block() {
    let (f, _) = ret_only();
    let msg = single(&f, &Machine::wide(), &ScheduledFunction::new());
    assert_eq!(msg, "block b0 `e`: no schedule for a block in the layout");
}

#[test]
fn extra_block() {
    let (f, _) = ret_only();
    let mut sched = schedule_function(&f, &Machine::wide(), &SchedOptions::default());
    sched.set_block(BlockId(99), Schedule::empty());
    let msg = single(&f, &Machine::wide(), &sched);
    assert_eq!(msg, "schedule names block b99, which is not in the layout");
}

#[test]
fn op_count_mismatch() {
    let mut b = FunctionBuilder::new("t");
    let e = b.block("e");
    b.switch_to(e);
    b.movi(1);
    b.ret();
    let f = b.finish();
    let mut sched = ScheduledFunction::new();
    sched.set_block(e, sched_of(vec![0], 1));
    let msg = single(&f, &Machine::wide(), &sched);
    assert_eq!(msg, "block b0 `e`: 2 ops but 1 scheduled cycles");
}

#[test]
fn unscheduled_op() {
    let (f, e) = ret_only();
    let mut sched = ScheduledFunction::new();
    sched.set_block(e, sched_of(vec![-1], 1));
    let msg = single(&f, &Machine::wide(), &sched);
    assert_eq!(msg, "block b0 `e`: op 0 has negative issue cycle -1");
}

#[test]
fn length_mismatch() {
    let (f, e) = ret_only();
    let mut sched = ScheduledFunction::new();
    sched.set_block(e, sched_of(vec![0], 5));
    let msg = single(&f, &Machine::wide(), &sched);
    assert_eq!(msg, "block b0 `e`: declared length 5 but issue cycles imply 1");
}

#[test]
fn flow_edge_violated() {
    let mut b = FunctionBuilder::new("t");
    let e = b.block("e");
    b.switch_to(e);
    let x = b.movi(1); // op 0
    let _ = b.add(x.into(), Operand::Imm(1)); // op 1, needs cycle(mov)+1
    b.ret(); // op 2
    let f = b.finish();
    let mut sched = ScheduledFunction::new();
    sched.set_block(e, sched_of(vec![0, 0, 0], 1));
    let msg = single(&f, &Machine::wide(), &sched);
    assert_eq!(msg, "block b0 `e`: flow edge 0->1 (latency 1) violated: cycles 0 -> 0");
}

#[test]
fn mem_edge_violated() {
    let mut b = FunctionBuilder::new("t");
    let e = b.block("e");
    b.switch_to(e);
    let a = b.movi(0); // op 0
    b.store(a, Operand::Imm(1)); // op 1
    let _ = b.load(a); // op 2, must wait out the store (latency 1)
    b.ret(); // op 3
    let f = b.finish();
    let mut sched = ScheduledFunction::new();
    sched.set_block(e, sched_of(vec![0, 1, 1, 1], 3));
    let msg = single(&f, &Machine::wide(), &sched);
    assert_eq!(msg, "block b0 `e`: mem edge 1->2 (latency 1) violated: cycles 1 -> 1");
}

#[test]
fn anti_edge_violated() {
    let mut b = FunctionBuilder::new("t");
    let e = b.block("e");
    b.switch_to(e);
    let r = b.reg();
    let _ = b.add(r.into(), Operand::Imm(1)); // op 0 reads r
    b.mov_to(r, Operand::Imm(5)); // op 1 rewrites r: anti 0->1, latency 0
    b.ret(); // op 2
    let f = b.finish();
    let mut sched = ScheduledFunction::new();
    sched.set_block(e, sched_of(vec![1, 0, 1], 2));
    let msg = single(&f, &Machine::wide(), &sched);
    assert_eq!(msg, "block b0 `e`: anti edge 0->1 (latency 0) violated: cycles 1 -> 0");
}

#[test]
fn output_edge_violated() {
    let mut b = FunctionBuilder::new("t");
    let e = b.block("e");
    b.switch_to(e);
    let r = b.reg();
    b.mov_to(r, Operand::Imm(1)); // op 0
    b.mov_to(r, Operand::Imm(2)); // op 1: output 0->1, latency 1
    b.ret(); // op 2
    let f = b.finish();
    let mut sched = ScheduledFunction::new();
    sched.set_block(e, sched_of(vec![0, 0, 0], 1));
    let msg = single(&f, &Machine::wide(), &sched);
    assert_eq!(msg, "block b0 `e`: output edge 0->1 (latency 1) violated: cycles 0 -> 0");
}

#[test]
fn sequential_issue_overflow() {
    let mut b = FunctionBuilder::new("t");
    let e = b.block("e");
    b.switch_to(e);
    b.movi(1); // op 0
    b.movi(2); // op 1
    b.ret(); // op 2
    let f = b.finish();
    let mut sched = ScheduledFunction::new();
    sched.set_block(e, sched_of(vec![0, 0, 1], 2));
    let msg = single(&f, &Machine::sequential(), &sched);
    assert_eq!(msg, "block b0 `e`: cycle 0 issues 2 ops on the sequential machine");
}

#[test]
fn class_issue_overflow() {
    let mut b = FunctionBuilder::new("t");
    let e = b.block("e");
    b.switch_to(e);
    b.movi(1); // ops 0..3: three int ops on a 2-int machine
    b.movi(2);
    b.movi(3);
    b.ret(); // op 3
    let f = b.finish();
    let machine = Machine::new(
        "twoint",
        Some(Widths { int: 2, float: 1, mem: 1, branch: 1 }),
        Latencies::default(),
    );
    let mut sched = ScheduledFunction::new();
    sched.set_block(e, sched_of(vec![0, 0, 0, 1], 2));
    let msg = single(&f, &machine, &sched);
    assert_eq!(msg, "block b0 `e`: cycle 0 issues 3 int ops but the machine has 2 int units");
}

#[test]
fn branch_order_violated() {
    let mut b = FunctionBuilder::new("t");
    let e = b.block("e");
    let out = b.block("out");
    b.switch_to(out);
    b.ret();
    b.switch_to(e);
    b.jump(out); // ops 0 (pbr) and 1 (branch)
    b.jump(out); // ops 2 (pbr) and 3 (branch): must trail branch 1 by blat
    let f = b.finish();
    let mut sched = ScheduledFunction::new();
    sched.set_block(e, sched_of(vec![0, 1, 0, 1], 2));
    sched.set_block(out, sched_of(vec![0], 1));
    let msg = single(&f, &Machine::wide(), &sched);
    assert_eq!(
        msg,
        "block b0 `e`: branch 3 (cycle 1) in the shadow of branch 1 (cycle 1): needs gap 1"
    );
}

#[test]
fn exit_availability_violated() {
    let mut b = FunctionBuilder::new("t");
    let e = b.block("e");
    let out = b.block("out");
    b.switch_to(out);
    let d = b.movi(9);
    b.switch_to(e);
    let a = b.movi(0); // op 0
    let v = b.load(a); // op 1: latency 2, live at `out`
    b.jump(out); // ops 2 (pbr) and 3 (branch)
    b.switch_to(out);
    b.store(d, v.into());
    b.ret();
    let f = b.finish();
    let mut sched = ScheduledFunction::new();
    // Branch takes in cycle 1 but the load completes in cycle 3: the value
    // live at the target is not available (needs branch cycle >= 2).
    sched.set_block(e, sched_of(vec![0, 1, 0, 1], 3));
    sched.set_block(out, sched_of(vec![0, 1, 2], 3));
    let msg = single(&f, &Machine::wide(), &sched);
    assert_eq!(
        msg,
        "block b0 `e`: op 1 (cycle 1) not available at exit branch 3 (cycle 1): branch needs cycle >= 2"
    );
}

#[test]
fn ret_before_live_out_is_available() {
    // A `ret` is an exit too: the function's live-outs must be available
    // when it leaves.
    let mut b = FunctionBuilder::new("t");
    let e = b.block("e");
    b.switch_to(e);
    let a = b.movi(0); // op 0
    let v = b.load(a); // op 1: latency 2
    let out = b.mul(v.into(), Operand::Imm(3)); // op 2: latency 3, live-out
    b.ret(); // op 3
    b.mark_live_out(out);
    let f = b.finish();
    let mut sched = ScheduledFunction::new();
    // `ret` in cycle 0 while the multiply completes in cycle 6.
    sched.set_block(e, sched_of(vec![0, 1, 3, 0], 6));
    let msg = single(&f, &Machine::wide(), &sched);
    assert_eq!(
        msg,
        "block b0 `e`: op 2 (cycle 3) not available at exit branch 3 (cycle 0): branch needs cycle >= 5"
    );
}

#[test]
fn tags_are_stable() {
    let (f, _) = ret_only();
    let vs = check_function(&f, &Machine::wide(), &ScheduledFunction::new(), &SchedOptions::default());
    assert_eq!(vs[0].tag(), "missing-block");
}

#[test]
fn valid_schedules_have_no_violations() {
    let (f, _) = ret_only();
    for machine in Machine::paper_suite() {
        let sched = schedule_function(&f, &machine, &SchedOptions::default());
        assert!(check_function(&f, &machine, &sched, &SchedOptions::default()).is_empty());
    }
}

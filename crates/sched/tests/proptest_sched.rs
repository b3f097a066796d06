//! Property tests of the list scheduler: every schedule it emits must
//! respect all dependence-edge latencies and never oversubscribe any
//! functional unit in any cycle, on randomly generated predicated programs.

use epic_analysis::{DepGraph, DepOptions, PredFacts};
use epic_ir::{CmpCond, FunctionBuilder, FxHashMap, Opcode, Operand, UnitClass};
use epic_machine::Machine;
use epic_sched::schedule_block;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum GenOp {
    Arith(u8, i64),
    Float(u8),
    Load(u8),
    Store(u8),
    CmppAndGuarded(i64),
    BranchOut,
}

fn op_strategy() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        4 => (0u8..4, -5i64..6).prop_map(|(k, i)| GenOp::Arith(k, i)),
        1 => (0u8..2).prop_map(GenOp::Float),
        2 => (0u8..8).prop_map(GenOp::Load),
        2 => (0u8..8).prop_map(GenOp::Store),
        2 => (-3i64..4).prop_map(GenOp::CmppAndGuarded),
        1 => Just(GenOp::BranchOut),
    ]
}

fn build(ops: &[GenOp]) -> (epic_ir::Function, epic_ir::BlockId) {
    let mut fb = FunctionBuilder::new("gen");
    let b = fb.block("b");
    let out = fb.block("out");
    fb.switch_to(out);
    fb.ret();
    fb.switch_to(b);
    let mut acc = fb.movi(3);
    for g in ops {
        match g {
            GenOp::Arith(k, i) => {
                let s = Operand::Imm(*i);
                acc = match k % 4 {
                    0 => fb.add(acc.into(), s),
                    1 => fb.sub(acc.into(), s),
                    2 => fb.mul(acc.into(), s),
                    _ => fb.xor(acc.into(), s),
                };
            }
            GenOp::Float(k) => {
                acc = if k % 2 == 0 {
                    fb.fadd(acc.into(), Operand::Imm(2))
                } else {
                    fb.fmul(acc.into(), Operand::Imm(2))
                };
            }
            GenOp::Load(a) => {
                let addr = fb.movi(*a as i64);
                let v = fb.load(addr);
                acc = fb.add(acc.into(), v.into());
            }
            GenOp::Store(a) => {
                let addr = fb.movi(*a as i64);
                fb.store(addr, acc.into());
            }
            GenOp::CmppAndGuarded(t) => {
                let p = fb.cmpp_un(CmpCond::Gt, acc.into(), Operand::Imm(*t));
                let d = fb.movi(20);
                fb.set_guard(Some(p));
                fb.store(d, acc.into());
                fb.set_guard(None);
            }
            GenOp::BranchOut => {
                let (tk, _) = fb.cmpp_un_uc(CmpCond::Lt, acc.into(), Operand::Imm(0));
                fb.branch_if(tk, out);
            }
        }
    }
    fb.ret();
    (fb.finish(), b)
}

fn validate(machine: &Machine, ops: &[epic_ir::Op]) -> Result<(), TestCaseError> {
    let mut facts = PredFacts::compute(ops);
    let latency = |o: &epic_ir::Op| machine.latency_of(o);
    let dep_opts = DepOptions {
        branch_latency: machine.branch_latency() as i32,
        ..DepOptions::default()
    };
    let graph = DepGraph::build(ops, &mut facts, &latency, &dep_opts, None);
    let s = schedule_block(ops, &graph, machine);

    // 1. All ops scheduled at non-negative cycles.
    prop_assert_eq!(s.cycles.len(), ops.len());
    prop_assert!(s.cycles.iter().all(|&c| c >= 0));

    // 2. Every dependence edge's latency is honored.
    for e in graph.edges() {
        prop_assert!(
            s.cycles[e.to] >= s.cycles[e.from] + e.latency as i64,
            "edge {:?} violated: {} -> {}",
            e,
            s.cycles[e.from],
            s.cycles[e.to]
        );
    }

    // 3. No unit class is oversubscribed in any cycle.
    let mut usage: FxHashMap<(i64, Option<UnitClass>), u32> = FxHashMap::default();
    for (i, op) in ops.iter().enumerate() {
        match machine.widths() {
            None => *usage.entry((s.cycles[i], None)).or_insert(0) += 1,
            Some(_) => {
                *usage.entry((s.cycles[i], Some(op.opcode.unit_class()))).or_insert(0) += 1
            }
        }
    }
    for ((cycle, class), n) in usage {
        let limit = match (machine.widths(), class) {
            (None, _) => 1,
            (Some(w), Some(c)) => w.of(c),
            (Some(_), None) => unreachable!("class recorded for wide machines"),
        };
        prop_assert!(n <= limit, "cycle {cycle} class {class:?}: {n} > {limit}");
    }

    // 4. Length covers every op's completion.
    for (i, op) in ops.iter().enumerate() {
        prop_assert!(s.length >= s.cycles[i] + machine.latency_of(op) as i64);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Schedules are valid on every machine model, including one with
    /// exposed branch latency 3.
    #[test]
    fn schedules_are_valid(gen in prop::collection::vec(op_strategy(), 1..40)) {
        let (f, b) = build(&gen);
        epic_ir::verify(&f).expect("generated program verifies");
        let ops = &f.block(b).ops;
        for m in Machine::paper_suite() {
            validate(&m, ops)?;
        }
        validate(&Machine::medium().with_branch_latency(3), ops)?;
    }

    /// Wider machines never produce longer schedules for the same block.
    #[test]
    fn width_monotonicity(gen in prop::collection::vec(op_strategy(), 1..32)) {
        let (f, b) = build(&gen);
        let ops = &f.block(b).ops;
        let mut lengths = Vec::new();
        for m in [Machine::sequential(), Machine::narrow(), Machine::medium(), Machine::wide(), Machine::infinite()] {
            let mut facts = PredFacts::compute(ops);
            let latency = |o: &epic_ir::Op| m.latency_of(o);
            let graph = DepGraph::build(ops, &mut facts, &latency, &DepOptions::default(), None);
            lengths.push(schedule_block(ops, &graph, &m).length);
        }
        // sequential >= narrow >= medium >= wide >= infinite (list
        // scheduling is greedy, but with identical priorities and a DAG the
        // monotone resource axes hold for these nested machines).
        for w in lengths.windows(2) {
            prop_assert!(w[0] >= w[1], "{lengths:?}");
        }
    }

    /// The branch chain dominates on the infinite machine: k dependent
    /// branches need at least k cycles.
    #[test]
    fn branch_chain_lower_bound(k in 1usize..8) {
        let mut fb = FunctionBuilder::new("chain");
        let b = fb.block("b");
        let out = fb.block("out");
        fb.switch_to(out);
        fb.ret();
        fb.switch_to(b);
        let x = fb.movi(1);
        for i in 0..k {
            let p = fb.cmpp_un(CmpCond::Eq, x.into(), Operand::Imm(i as i64));
            fb.branch_if(p, out);
        }
        fb.ret();
        let f = fb.finish();
        let ops = &f.block(b).ops;
        let m = Machine::infinite();
        let mut facts = PredFacts::compute(ops);
        let latency = |o: &epic_ir::Op| m.latency_of(o);
        let graph = DepGraph::build(ops, &mut facts, &latency, &DepOptions::default(), None);
        let s = schedule_block(ops, &graph, &m);
        let branch_cycles: Vec<i64> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.opcode == Opcode::Branch)
            .map(|(i, _)| s.cycles[i])
            .collect();
        // Unpredicated (mutually non-disjoint) branches are serialized.
        for w in branch_cycles.windows(2) {
            prop_assert!(w[1] > w[0], "{branch_cycles:?}");
        }
    }
}

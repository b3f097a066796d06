//! Property test: printing a random function and parsing it back yields a
//! structurally identical, semantically equivalent program.

use epic_ir::{parse_function, CmpCond, FunctionBuilder, Operand};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum GenOp {
    Arith(u8, i64),
    Mem(u8),
    Cmpp(u8, i64),
    GuardedMov(i64),
    Exit,
}

fn op_strategy() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (0u8..10, -20i64..21).prop_map(|(k, i)| GenOp::Arith(k, i)),
        (0u8..8).prop_map(GenOp::Mem),
        (0u8..6, -5i64..6).prop_map(|(c, t)| GenOp::Cmpp(c, t)),
        (-9i64..10).prop_map(GenOp::GuardedMov),
        Just(GenOp::Exit),
    ]
}

fn build(gen: &[GenOp]) -> epic_ir::Function {
    let mut fb = FunctionBuilder::new("roundtrip");
    let entry = fb.block("entry");
    let side = fb.block("side");
    fb.switch_to(side);
    fb.ret();
    fb.switch_to(entry);
    let mut acc = fb.movi(2);
    let mut last_pred = None;
    for g in gen {
        match g {
            GenOp::Arith(k, i) => {
                let s = Operand::Imm(*i);
                acc = match k % 5 {
                    0 => fb.add(acc.into(), s),
                    1 => fb.sub(acc.into(), s),
                    2 => fb.mul(acc.into(), s),
                    3 => fb.and(acc.into(), s),
                    _ => fb.xor(acc.into(), s),
                };
            }
            GenOp::Mem(a) => {
                let addr = fb.movi(*a as i64);
                fb.store(addr, acc.into());
                let v = fb.load(addr);
                acc = fb.add(acc.into(), v.into());
            }
            GenOp::Cmpp(c, t) => {
                let cond = [
                    CmpCond::Eq,
                    CmpCond::Ne,
                    CmpCond::Lt,
                    CmpCond::Le,
                    CmpCond::Gt,
                    CmpCond::Ge,
                ][(*c % 6) as usize];
                let (tk, _fl) = fb.cmpp_un_uc(cond, acc.into(), Operand::Imm(*t));
                last_pred = Some(tk);
            }
            GenOp::GuardedMov(v) => {
                if let Some(p) = last_pred {
                    fb.set_guard(Some(p));
                    acc = fb.movi(*v);
                    fb.set_guard(None);
                }
            }
            GenOp::Exit => {
                if let Some(p) = last_pred {
                    fb.branch_if(p, side);
                }
            }
        }
    }
    fb.ret();
    fb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// print → parse preserves structure and semantics.
    #[test]
    fn print_parse_roundtrip(gen in prop::collection::vec(op_strategy(), 0..24)) {
        let f = build(&gen);
        epic_ir::verify(&f).expect("generated function verifies");
        let text = f.to_string();
        let g = parse_function(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
        epic_ir::verify(&g).map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;

        // Structure: same layout, same opcodes, same guards, same operands.
        prop_assert_eq!(g.layout().len(), f.layout().len());
        let fo: Vec<_> = f.ops_in_layout().map(|(_, o)| (o.opcode, o.guard, o.srcs.clone(), o.dests.clone())).collect();
        let go: Vec<_> = g.ops_in_layout().map(|(_, o)| (o.opcode, o.guard, o.srcs.clone(), o.dests.clone())).collect();
        prop_assert_eq!(fo, go);

        // Semantics: both execute to the same memory image.
        let input = epic_interp::Input::new().memory_size(32);
        let a = epic_interp::run(&f, &input).expect("original runs");
        let b = epic_interp::run(&g, &input).expect("parsed runs");
        prop_assert_eq!(a.memory, b.memory);
    }
}

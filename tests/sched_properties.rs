//! Property tests for the list scheduler, checked through the independent
//! `epic-schedcheck` machinery:
//!
//! - **determinism** — the same function schedules byte-identically across
//!   repeated runs and under rayon parallelism (the tables depend on it);
//! - **critical path** — no block is ever scheduled shorter than the
//!   dependence height of its independently rebuilt graph, and on a
//!   machine with effectively unbounded issue widths the greedy scheduler
//!   achieves the height exactly.

use epic_analysis::{DepGraph, DepOptions, GlobalLiveness, PredFacts};
use epic_bench::{compile, PipelineConfig};
use epic_ir::{CmpCond, Function, FunctionBuilder, Operand};
use epic_machine::{Latencies, Machine, Widths};
use epic_sched::{schedule_function, SchedOptions};
use epic_schedcheck::check_function;
use proptest::prelude::*;
use rayon::prelude::*;

/// Dependence height of every block of `func` on `machine`, using the same
/// graph construction the scheduler and checker share.
fn block_heights(func: &Function, machine: &Machine, opts: &SchedOptions) -> Vec<(String, i64)> {
    let live = GlobalLiveness::compute(func);
    let dep_opts = DepOptions {
        branch_latency: machine.branch_latency() as i32,
        pred_relaxation: opts.pred_relaxation,
        mem_classes: Some(func.mem_classes()),
    };
    func.blocks_in_layout()
        .map(|block| {
            let mut facts = PredFacts::compute(&block.ops);
            let latency = |op: &epic_ir::Op| machine.latency_of(op);
            let graph = DepGraph::build(&block.ops, &mut facts, &latency, &dep_opts, Some(&live));
            (block.name.clone(), graph.height(&block.ops, &latency))
        })
        .collect()
}

/// A machine wide enough that resource constraints never bind, so the
/// greedy scheduler degenerates to ASAP placement on the dependence graph.
fn unbounded() -> Machine {
    Machine::new(
        "unbounded",
        Some(Widths { int: 1024, float: 1024, mem: 1024, branch: 1024 }),
        Latencies::default(),
    )
}

/// Scheduling is deterministic: repeated runs and rayon-parallel runs of
/// the same compile produce identical `ScheduledFunction`s.
#[test]
fn scheduling_is_deterministic() {
    let cfg = PipelineConfig::default();
    let opts = SchedOptions::default();
    for name in ["strcpy", "wc", "lex", "126.gcc"] {
        let w = epic_workloads::by_name(name).unwrap();
        let c = compile(&w, &cfg).unwrap();
        for m in [Machine::wide(), Machine::sequential(), Machine::medium()] {
            for func in [&c.baseline, &c.optimized] {
                let reference = schedule_function(func, &m, &opts);
                assert_eq!(
                    reference,
                    schedule_function(func, &m, &opts),
                    "{name} on {}: rescheduling diverged",
                    m.name()
                );
                let runs: Vec<i32> = (0..8).collect();
                let parallel = runs.par_iter().map(|_| schedule_function(func, &m, &opts));
                for s in parallel.collect::<Vec<_>>() {
                    assert_eq!(reference, s, "{name} on {}: parallel run diverged", m.name());
                }
            }
        }
    }
}

/// On the unbounded machine the greedy scheduler achieves exactly the
/// dependence height of every block of every compiled function.
#[test]
fn unbounded_schedule_length_equals_dependence_height() {
    let cfg = PipelineConfig::default();
    let opts = SchedOptions::default();
    let m = unbounded();
    for w in epic_workloads::all() {
        let c = compile(&w, &cfg).unwrap();
        for (what, func) in [("baseline", &c.baseline), ("optimized", &c.optimized)] {
            let sched = schedule_function(func, &m, &opts);
            assert!(check_function(func, &m, &sched, &opts).is_empty());
            for (block, (bname, height)) in
                func.blocks_in_layout().zip(block_heights(func, &m, &opts))
            {
                let s = sched.try_block(block.id).unwrap();
                assert_eq!(
                    s.length,
                    height.max(1),
                    "{} {what} `{bname}`: length {} vs dependence height {}",
                    w.name,
                    s.length,
                    height
                );
            }
        }
    }
}

/// One generated link of a superblock-shaped chain (no interpretation
/// here, so the shape only needs to verify and exercise the scheduler).
#[derive(Clone, Debug)]
struct Link {
    offset: i64,
    extra: u8,
    exit: bool,
    store: bool,
}

fn link_strategy() -> impl Strategy<Value = Link> {
    (0..8i64, 0..4u8, any::<bool>(), any::<bool>())
        .prop_map(|(offset, extra, exit, store)| Link { offset, extra, exit, store })
}

fn build(links: &[Link]) -> Function {
    let mut fb = FunctionBuilder::new("prop");
    let sb = fb.block("sb");
    let out = fb.block("out");
    fb.switch_to(out);
    fb.ret();
    fb.switch_to(sb);
    let base = fb.reg();
    let mut guard = None;
    for link in links {
        fb.set_guard(None);
        let addr = fb.add(base.into(), Operand::Imm(link.offset));
        let v = fb.load(addr);
        let mut x = v;
        for e in 0..link.extra {
            x = match e % 3 {
                0 => fb.add(x.into(), Operand::Imm(1)),
                1 => fb.xor(x.into(), Operand::Imm(5)),
                _ => fb.shl(x.into(), Operand::Imm(1)),
            };
        }
        fb.set_guard(guard);
        if link.exit {
            let (t, f_) = fb.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
            fb.branch_if(t, out);
            fb.set_guard(Some(f_));
            guard = Some(f_);
        }
        if link.store {
            fb.store(addr, x.into());
        }
    }
    fb.set_guard(None);
    fb.ret();
    fb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On every paper machine, every block's schedule is at least as long
    /// as the dependence height of the independently rebuilt graph (the
    /// critical-path lower bound), and the checker accepts it.
    #[test]
    fn schedule_never_beats_the_critical_path(
        links in prop::collection::vec(link_strategy(), 1..8),
    ) {
        let func = build(&links);
        epic_ir::verify(&func).expect("generated program verifies");
        let opts = SchedOptions::default();
        let mut machines = Machine::paper_suite();
        machines.push(unbounded());
        for m in &machines {
            let sched = schedule_function(&func, m, &opts);
            let violations = check_function(&func, m, &sched, &opts);
            prop_assert!(violations.is_empty(), "{}: {}", m.name(), violations[0]);
            for (block, (bname, height)) in
                func.blocks_in_layout().zip(block_heights(&func, m, &opts))
            {
                let s = sched.try_block(block.id).unwrap();
                prop_assert!(
                    s.length >= height.max(1),
                    "{} `{bname}`: length {} below dependence height {}",
                    m.name(),
                    s.length,
                    height
                );
            }
        }
    }
}

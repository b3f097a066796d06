//! # epic-sched
//!
//! A cycle-based EPIC list scheduler, standing in for the Elcor
//! superblock/hyperblock scheduler the paper uses (§5.4, §7).
//!
//! Each block (superblock / hyperblock / compensation block) is scheduled
//! independently against a [`Machine`] description.
//! Dependence information comes from [`epic_analysis::DepGraph`], which the
//! scheduler builds over a whole-function [`GlobalLiveness`]: each exit
//! reads what is live there through [`GlobalLiveness::at_exit`] (a branch's
//! target live-ins, a `ret`'s function live-outs), the rule every ICBM pass
//! reads too, so no exit issues before the values it hands on are
//! available. All of the paper's predicate-aware freedoms —
//! reordering and overlapping of disjointly-guarded branches, commutative
//! wired-and/wired-or accumulation — are inherited from the dependence
//! graph; the scheduler itself only enforces resources and edge latencies.
//!
//! ```
//! use epic_ir::{FunctionBuilder, Operand};
//! use epic_machine::Machine;
//! use epic_sched::{schedule_function, SchedOptions};
//!
//! let mut b = FunctionBuilder::new("f");
//! let e = b.block("e");
//! b.switch_to(e);
//! let x = b.movi(1);
//! let y = b.movi(2);
//! let _ = b.add(x.into(), y.into());
//! b.ret();
//! let f = b.finish();
//! let sched = schedule_function(&f, &Machine::wide(), &SchedOptions::default());
//! // movs issue in cycle 0 together; add in cycle 1; ret can overlap.
//! assert!(sched.block(e).length <= 3);
//! ```

mod list;

pub use list::{schedule_block, Schedule};

use epic_analysis::{DepGraph, DepOptions, GlobalLiveness, PredFacts};
use epic_ir::{BlockId, Function, FxHashMap};
use epic_machine::Machine;

/// Options for function scheduling.
#[derive(Clone, Copy, Debug)]
pub struct SchedOptions {
    /// Enable predicate-based dependence relaxation (on by default;
    /// disabling models a predicate-unaware scheduler, for ablations).
    pub pred_relaxation: bool,
}

impl Default for SchedOptions {
    fn default() -> Self {
        SchedOptions { pred_relaxation: true }
    }
}

/// Schedules for every block of a function.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduledFunction {
    schedules: FxHashMap<BlockId, Schedule>,
}

impl ScheduledFunction {
    /// Creates an empty schedule set (no blocks).
    pub fn new() -> ScheduledFunction {
        ScheduledFunction::default()
    }

    /// The schedule of one block.
    ///
    /// # Panics
    ///
    /// Panics if `block` was not part of the scheduled layout. Prefer
    /// [`ScheduledFunction::try_block`] when the block may be absent.
    pub fn block(&self, block: BlockId) -> &Schedule {
        &self.schedules[&block]
    }

    /// The schedule of one block, or `None` when `block` was not part of
    /// the scheduled layout (e.g. a detached compensation block).
    pub fn try_block(&self, block: BlockId) -> Option<&Schedule> {
        self.schedules.get(&block)
    }

    /// Inserts or replaces the schedule of one block.
    pub fn set_block(&mut self, block: BlockId, schedule: Schedule) {
        self.schedules.insert(block, schedule);
    }

    /// Removes the schedule of one block, returning it if present.
    pub fn remove_block(&mut self, block: BlockId) -> Option<Schedule> {
        self.schedules.remove(&block)
    }

    /// Iterates over `(block, schedule)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &Schedule)> + '_ {
        self.schedules.iter().map(|(&b, s)| (b, s))
    }
}

/// Schedules every block of `func` for `machine`.
///
/// Exit liveness (what must be available when each exit takes) is read
/// from a whole-function liveness analysis, so values only used off-trace
/// do not constrain the on-trace schedule more than necessary.
pub fn schedule_function(
    func: &Function,
    machine: &Machine,
    opts: &SchedOptions,
) -> ScheduledFunction {
    schedule_function_suite(func, std::slice::from_ref(machine), opts)
        .pop()
        .expect("one machine in, one schedule out")
}

/// Schedules every block of `func` for each machine in `machines`, sharing
/// the machine-independent analyses across the whole suite.
///
/// Global liveness (which every block's graph borrows its exit sets from)
/// and per-block [`PredFacts`] depend only on the function; only the
/// dependence graph (latencies, branch shadow) and the list schedule itself
/// depend on the machine. Table 2
/// schedules every function on five machine models, so hoisting the shared
/// work out of the per-machine loop removes ~80% of its analysis cost. The
/// result at index `i` is identical to `schedule_function(func,
/// &machines[i], opts)`.
pub fn schedule_function_suite(
    func: &Function,
    machines: &[Machine],
    opts: &SchedOptions,
) -> Vec<ScheduledFunction> {
    let live = GlobalLiveness::compute(func);
    let dep_opts: Vec<DepOptions> = machines
        .iter()
        .map(|m| DepOptions {
            branch_latency: m.branch_latency() as i32,
            pred_relaxation: opts.pred_relaxation,
            mem_classes: Some(func.mem_classes()),
        })
        .collect();
    let lat_fns: Vec<_> =
        machines.iter().map(|m| move |op: &epic_ir::Op| m.latency_of(op)).collect();
    let lat_refs: Vec<&dyn Fn(&epic_ir::Op) -> u32> =
        lat_fns.iter().map(|f| f as &dyn Fn(&epic_ir::Op) -> u32).collect();
    let mut out = vec![ScheduledFunction::new(); machines.len()];
    for block in func.blocks_in_layout() {
        let ops = &block.ops;
        let mut facts = PredFacts::compute(ops);
        let graphs = DepGraph::build_suite(ops, &mut facts, &lat_refs, &dep_opts, Some(&live));
        for ((mi, machine), graph) in machines.iter().enumerate().zip(&graphs) {
            out[mi].set_block(block.id, schedule_block(ops, graph, machine));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::{CmpCond, FunctionBuilder, Opcode, Operand};

    #[test]
    fn ret_waits_for_the_live_outs_it_returns() {
        let mut b = FunctionBuilder::new("r");
        let e = b.block("e");
        b.switch_to(e);
        let a = b.movi(0);
        let v = b.load(a);
        let out = b.mul(v.into(), Operand::Imm(3));
        b.ret();
        b.mark_live_out(out);
        let f = b.finish();
        for m in [Machine::wide(), Machine::medium(), Machine::sequential()] {
            let sched = schedule_function(&f, &m, &SchedOptions::default());
            let s = sched.block(e);
            // The multiply issues in cycle 3 and completes in cycle 6.
            assert!(s.cycles[3] >= 5, "{}: ret in cycle {}", m.name(), s.cycles[3]);
            assert_eq!(s.length, 6, "{}", m.name());
        }
    }

    #[test]
    fn sequential_machine_is_one_op_per_cycle() {
        let mut b = FunctionBuilder::new("s");
        let e = b.block("e");
        b.switch_to(e);
        let x = b.movi(1);
        let y = b.movi(2);
        let _ = b.add(x.into(), y.into());
        b.ret();
        let f = b.finish();
        let sched = schedule_function(&f, &Machine::sequential(), &SchedOptions::default());
        // 4 ops, one per cycle: issue cycles are a permutation of 0..4.
        let s = sched.block(e);
        let mut cycles: Vec<i64> = s.cycles.clone();
        cycles.sort_unstable();
        assert_eq!(cycles, vec![0, 1, 2, 3]);
    }

    #[test]
    fn wide_machine_packs_independent_ops() {
        let mut b = FunctionBuilder::new("w");
        let e = b.block("e");
        b.switch_to(e);
        for _ in 0..8 {
            b.movi(1);
        }
        b.ret();
        let f = b.finish();
        let sched = schedule_function(&f, &Machine::wide(), &SchedOptions::default());
        let s = sched.block(e);
        // 8 independent int ops on an 8-wide int machine: all in cycle 0.
        assert!(s.cycles[..8].iter().all(|&c| c == 0), "{:?}", s.cycles);
    }

    #[test]
    fn narrow_machine_serializes_by_class() {
        let mut b = FunctionBuilder::new("n");
        let e = b.block("e");
        b.switch_to(e);
        for _ in 0..4 {
            b.movi(1);
        }
        b.ret();
        let f = b.finish();
        let sched = schedule_function(&f, &Machine::narrow(), &SchedOptions::default());
        let s = sched.block(e);
        // 4 int ops on a 2-int machine need at least 2 cycles.
        let max = s.cycles[..4].iter().max().unwrap();
        assert!(*max >= 1);
    }

    #[test]
    fn dependent_branch_chain_is_serialized_without_frps() {
        // Unpredicated branch chain: each branch control-depends on the
        // previous, so they occupy consecutive cycles at least.
        let mut b = FunctionBuilder::new("chain");
        let blk = b.block("hb");
        let out = b.block("out");
        b.switch_to(out);
        b.ret();
        b.switch_to(blk);
        let x = b.reg();
        let p1 = b.cmpp_un(CmpCond::Eq, x.into(), Operand::Imm(0));
        b.branch_if(p1, out);
        let p2 = b.cmpp_un(CmpCond::Eq, x.into(), Operand::Imm(1));
        b.branch_if(p2, out);
        let p3 = b.cmpp_un(CmpCond::Eq, x.into(), Operand::Imm(2));
        b.branch_if(p3, out);
        b.ret();
        let f = b.finish();
        let sched = schedule_function(&f, &Machine::infinite(), &SchedOptions::default());
        let s = sched.block(blk);
        let ops = &f.block(blk).ops;
        let branch_cycles: Vec<i64> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.opcode == Opcode::Branch)
            .map(|(i, _)| s.cycles[i])
            .collect();
        assert_eq!(branch_cycles.len(), 3);
        assert!(branch_cycles[1] > branch_cycles[0]);
        assert!(branch_cycles[2] > branch_cycles[1]);
    }

    #[test]
    fn frp_branches_overlap_on_wide_branch_machine() {
        // FRP-converted chain on the infinite machine (25 branch units):
        // disjoint branches may share a cycle.
        let mut b = FunctionBuilder::new("frp");
        let blk = b.block("hb");
        let out = b.block("out");
        b.switch_to(out);
        b.ret();
        b.switch_to(blk);
        let x = b.reg();
        let y = b.reg();
        let (t1, f1) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
        b.branch_if(t1, out);
        b.set_guard(Some(f1));
        let (t2, _) = b.cmpp_un_uc(CmpCond::Eq, y.into(), Operand::Imm(0));
        b.branch_if(t2, out);
        b.set_guard(None);
        b.ret();
        let f = b.finish();
        let sched = schedule_function(&f, &Machine::infinite(), &SchedOptions::default());
        let s = sched.block(blk);
        let ops = &f.block(blk).ops;
        let bc: Vec<i64> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.opcode == Opcode::Branch)
            .map(|(i, _)| s.cycles[i])
            .collect();
        // Branch 2's guard needs cmpp2 which needs cmpp1 (flow through f1);
        // but the two *branches* are not mutually ordered. The second branch
        // is limited by data height (2 cmpps), not by branch ordering:
        // cmpp1@0, cmpp2@1, branch1@1, branch2@2.
        assert!(bc[1] - bc[0] <= 1, "branches {:?} should overlap or nearly", bc);
    }

    #[test]
    fn schedule_respects_latency() {
        let mut b = FunctionBuilder::new("lat");
        let e = b.block("e");
        b.switch_to(e);
        let a0 = b.movi(0);
        let v = b.load(a0); // latency 2
        let _ = b.add(v.into(), Operand::Imm(1));
        b.ret();
        let f = b.finish();
        let sched = schedule_function(&f, &Machine::wide(), &SchedOptions::default());
        let s = sched.block(e);
        assert!(s.cycles[2] >= s.cycles[1] + 2, "{:?}", s.cycles);
    }
}

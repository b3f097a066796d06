//! The independent schedule checker.

use std::collections::BTreeMap;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use epic_analysis::{DepGraph, DepKind, DepOptions, GlobalLiveness, PredFacts};
use epic_ir::{Block, BlockId, Function, UnitClass};
use epic_machine::Machine;
use epic_obs::{Counter, MetricsRegistry, Span};
use epic_sched::{SchedOptions, Schedule, ScheduledFunction};

use crate::violation::{ScheduleViolation, ViolationKind};

fn blocks_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| MetricsRegistry::global().counter("schedcheck_blocks_total"))
}

fn violations_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| MetricsRegistry::global().counter("schedcheck_violations_total"))
}

/// Validates `sched` against `func` on `machine`, re-deriving liveness,
/// predicate facts, and the dependence graph from scratch (the checker
/// never looks at the scheduler's internal state).
///
/// `opts` must be the options the schedule was produced with: disabling
/// `pred_relaxation` makes the checker reject overlaps only a
/// predicate-aware schedule may use.
///
/// Returns every violation found; an empty vector means the schedule is
/// valid. Checks per block, in layout order:
///
/// 1. **completeness** — a schedule exists, has exactly one issue cycle
///    per op, and no op carries the "never scheduled" sentinel;
/// 2. **length** — the declared length equals `max(issue + latency)`
///    recomputed from the issue cycles (so perf estimates cannot drift);
/// 3. **resources** — no cycle exceeds the machine's per-class issue
///    widths (or one op per cycle on the sequential machine);
/// 4. **dependences** — every edge of the rebuilt predicate-aware graph
///    satisfies `cycle(to) >= cycle(from) + latency`; control edges into
///    exit branches are reported as branch-order / exit-availability
///    violations for precise diagnostics.
///
/// Guards are positional: a schedule only permutes issue cycles, so guard
/// preservation is implied by completeness (checked op-for-op counts).
pub fn check_function(
    func: &Function,
    machine: &Machine,
    sched: &ScheduledFunction,
    opts: &SchedOptions,
) -> Vec<ScheduleViolation> {
    let _span = Span::enter("schedcheck.validate", "schedcheck");
    let mut violations = Vec::new();

    // Blocks the schedule names that the layout does not.
    let layout: HashSet<BlockId> = func.layout().iter().copied().collect();
    let mut extras: Vec<BlockId> =
        sched.iter().map(|(b, _)| b).filter(|b| !layout.contains(b)).collect();
    extras.sort_by_key(|b| b.0);
    for b in extras {
        violations.push(ScheduleViolation {
            block: b,
            block_name: func.try_block(b).map_or_else(|| "?".to_string(), |bl| bl.name.clone()),
            kind: ViolationKind::ExtraBlock,
        });
    }

    let live = GlobalLiveness::compute(func);
    let dep_opts = DepOptions {
        branch_latency: machine.branch_latency() as i32,
        pred_relaxation: opts.pred_relaxation,
        mem_classes: Some(func.mem_classes()),
    };
    for block in func.blocks_in_layout() {
        blocks_counter().inc();
        match sched.try_block(block.id) {
            None => violations.push(ScheduleViolation {
                block: block.id,
                block_name: block.name.clone(),
                kind: ViolationKind::MissingBlock,
            }),
            Some(s) => check_block(block, s, machine, &live, &dep_opts, &mut violations),
        }
    }
    violations_counter().add(violations.len() as u64);
    violations
}

fn check_block(
    block: &Block,
    s: &Schedule,
    machine: &Machine,
    live: &GlobalLiveness,
    dep_opts: &DepOptions,
    violations: &mut Vec<ScheduleViolation>,
) {
    let ops = &block.ops;
    let fail = |kind: ViolationKind| ScheduleViolation {
        block: block.id,
        block_name: block.name.clone(),
        kind,
    };

    // 1. Completeness: one issue cycle per op, none negative.
    if s.cycles.len() != ops.len() {
        violations.push(fail(ViolationKind::OpCountMismatch {
            ops: ops.len(),
            scheduled: s.cycles.len(),
        }));
        return;
    }
    let mut incomplete = false;
    for (i, &c) in s.cycles.iter().enumerate() {
        if c < 0 {
            violations.push(fail(ViolationKind::UnscheduledOp { op: i, cycle: c }));
            incomplete = true;
        }
    }
    if incomplete {
        return;
    }

    // 2. Declared length vs. recomputed length.
    let computed = if ops.is_empty() {
        0
    } else {
        (0..ops.len())
            .map(|i| s.cycles[i] + machine.latency_of(&ops[i]) as i64)
            .max()
            .unwrap_or(0)
            .max(1)
    };
    if s.length != computed {
        violations.push(fail(ViolationKind::LengthMismatch { declared: s.length, computed }));
    }

    // 3. Resource feasibility per cycle.
    let classes = [UnitClass::Int, UnitClass::Float, UnitClass::Mem, UnitClass::Branch];
    let mut by_cycle: BTreeMap<i64, [u32; 4]> = BTreeMap::new();
    for (i, &c) in s.cycles.iter().enumerate() {
        let ci = classes
            .iter()
            .position(|&x| x == ops[i].opcode.unit_class())
            .expect("all classes");
        by_cycle.entry(c).or_default()[ci] += 1;
    }
    match machine.widths() {
        None => {
            for (&c, counts) in &by_cycle {
                let total: u32 = counts.iter().sum();
                if total > 1 {
                    violations.push(fail(ViolationKind::IssueOverflow {
                        cycle: c,
                        class: None,
                        used: total,
                        width: 1,
                    }));
                }
            }
        }
        Some(w) => {
            for (&c, counts) in &by_cycle {
                for (ci, &class) in classes.iter().enumerate() {
                    if counts[ci] > w.of(class) {
                        violations.push(fail(ViolationKind::IssueOverflow {
                            cycle: c,
                            class: Some(class),
                            used: counts[ci],
                            width: w.of(class),
                        }));
                    }
                }
            }
        }
    }

    // 4. Dependence-edge latencies over the independently rebuilt graph.
    let mut facts = PredFacts::compute(ops);
    let latency = |op: &epic_ir::Op| machine.latency_of(op);
    let graph = DepGraph::build(ops, &mut facts, &latency, dep_opts, Some(live));
    for e in graph.edges() {
        let (from_cycle, to_cycle) = (s.cycles[e.from], s.cycles[e.to]);
        if to_cycle >= from_cycle + e.latency as i64 {
            continue;
        }
        // Control edges into an exit branch are the scheduler's branch
        // ordering and exit availability constraints: name them precisely.
        let kind = if e.kind == DepKind::Control && ops[e.to].is_branch() {
            if ops[e.from].is_branch() {
                ViolationKind::BranchOrder {
                    first: e.from,
                    second: e.to,
                    first_cycle: from_cycle,
                    second_cycle: to_cycle,
                    gap: e.latency,
                }
            } else {
                ViolationKind::ExitAvailability {
                    def: e.from,
                    branch: e.to,
                    def_cycle: from_cycle,
                    branch_cycle: to_cycle,
                    needed: from_cycle + e.latency as i64,
                }
            }
        } else {
            ViolationKind::DepViolation {
                dep: e.kind,
                from: e.from,
                to: e.to,
                latency: e.latency,
                from_cycle,
                to_cycle,
            }
        };
        violations.push(fail(kind));
    }
}

//! Seeded schedule mutations: the checker's sensitivity harness.
//!
//! Each mutation is built from a site where it provably breaks a
//! constraint the checker enforces (an edge with positive latency, a cycle
//! that overflows when merged, …), so a surviving mutant is always checker
//! insensitivity, never a vacuous mutation.

use std::sync::{Arc, OnceLock};

use epic_analysis::{DepGraph, DepKind, DepOptions, GlobalLiveness, PredFacts};
use epic_ir::{BlockId, Function, UnitClass};
use epic_machine::Machine;
use epic_obs::{Counter, MetricsRegistry, Span};
use epic_sched::{schedule_function, SchedOptions, Schedule, ScheduledFunction};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::check::check_function;

fn mutants_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| MetricsRegistry::global().counter("schedcheck_mutants_total"))
}

fn killed_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| MetricsRegistry::global().counter("schedcheck_mutants_killed_total"))
}

/// The five seeded schedule mutations of the sensitivity harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationKind {
    /// Swap the issue cycles of the two endpoints of a positive-latency
    /// dependence edge.
    SwapAcrossEdge,
    /// Merge one occupied cycle into an earlier one past the issue width.
    CompressCycle,
    /// Drop the last op's issue-cycle entry.
    DropOp,
    /// Move one op into a cycle whose unit slot is already full.
    OverfillSlot,
    /// Swap the issue cycles of two ordered exit branches.
    ReorderExits,
}

impl MutationKind {
    /// All kinds, in rotation order.
    pub const ALL: [MutationKind; 5] = [
        MutationKind::SwapAcrossEdge,
        MutationKind::CompressCycle,
        MutationKind::DropOp,
        MutationKind::OverfillSlot,
        MutationKind::ReorderExits,
    ];

    /// A stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            MutationKind::SwapAcrossEdge => "swap-across-edge",
            MutationKind::CompressCycle => "compress-cycle",
            MutationKind::DropOp => "drop-op",
            MutationKind::OverfillSlot => "overfill-slot",
            MutationKind::ReorderExits => "reorder-exits",
        }
    }
}

/// One mutated schedule.
#[derive(Clone, Debug)]
pub struct Mutant {
    /// The mutation applied.
    pub kind: MutationKind,
    /// The block it was applied in.
    pub block: BlockId,
    /// Human-readable description of the mutated site.
    pub detail: String,
    /// The full schedule with the mutated block substituted.
    pub sched: ScheduledFunction,
}

/// A candidate mutation site: the mutated block schedule plus provenance.
struct Candidate {
    block: BlockId,
    schedule: Schedule,
    detail: String,
}

/// Applies one seeded mutation to `sched`, or returns `None` when no
/// mutation kind has an applicable site (e.g. an empty function).
///
/// The mutation kind rotates from `seed`, so a spread of seeds exercises
/// every kind that applies to the program.
pub fn mutate(
    func: &Function,
    machine: &Machine,
    opts: &SchedOptions,
    sched: &ScheduledFunction,
    seed: u64,
) -> Option<Mutant> {
    let mut candidates: [Vec<Candidate>; 5] = Default::default();
    let kind_index = |k: MutationKind| MutationKind::ALL.iter().position(|&x| x == k).unwrap();

    let live = GlobalLiveness::compute(func);
    let dep_opts = DepOptions {
        branch_latency: machine.branch_latency() as i32,
        pred_relaxation: opts.pred_relaxation,
        mem_classes: Some(func.mem_classes()),
    };
    let classes = [UnitClass::Int, UnitClass::Float, UnitClass::Mem, UnitClass::Branch];
    let class_of =
        |op: &epic_ir::Op| classes.iter().position(|&x| x == op.opcode.unit_class()).unwrap();

    for block in func.blocks_in_layout() {
        let Some(s) = sched.try_block(block.id) else { continue };
        let ops = &block.ops;
        if ops.is_empty() || s.cycles.len() != ops.len() {
            continue;
        }

        // DropOp: always applicable on a non-empty block.
        let mut dropped = s.clone();
        dropped.cycles.pop();
        candidates[kind_index(MutationKind::DropOp)].push(Candidate {
            block: block.id,
            schedule: dropped,
            detail: format!("dropped issue cycle of op {}", ops.len() - 1),
        });

        // Edge swaps need the same graph the checker rebuilds.
        let mut facts = PredFacts::compute(ops);
        let latency = |op: &epic_ir::Op| machine.latency_of(op);
        let graph = DepGraph::build(ops, &mut facts, &latency, &dep_opts, Some(&live));
        for e in graph.edges() {
            if e.latency < 1 || s.cycles[e.from] == s.cycles[e.to] {
                continue;
            }
            let both_branches =
                e.kind == DepKind::Control && ops[e.from].is_branch() && ops[e.to].is_branch();
            let kind =
                if both_branches { MutationKind::ReorderExits } else { MutationKind::SwapAcrossEdge };
            let mut swapped = s.clone();
            swapped.cycles.swap(e.from, e.to);
            candidates[kind_index(kind)].push(Candidate {
                block: block.id,
                schedule: swapped,
                detail: format!(
                    "swapped cycles of ops {} and {} across a latency-{} edge",
                    e.from, e.to, e.latency
                ),
            });
        }

        // Occupancy per cycle, ordered, for the resource mutations.
        let mut occupied: Vec<(i64, [u32; 4])> = Vec::new();
        for (i, &c) in s.cycles.iter().enumerate() {
            match occupied.iter_mut().find(|(oc, _)| *oc == c) {
                Some((_, counts)) => counts[class_of(&ops[i])] += 1,
                None => {
                    let mut counts = [0u32; 4];
                    counts[class_of(&ops[i])] += 1;
                    occupied.push((c, counts));
                }
            }
        }
        occupied.sort_by_key(|&(c, _)| c);
        let overflows = |counts: &[u32; 4]| match machine.widths() {
            None => counts.iter().sum::<u32>() > 1,
            Some(w) => classes.iter().enumerate().any(|(ci, &cl)| counts[ci] > w.of(cl)),
        };

        // CompressCycle: merge a later cycle into an earlier one so the
        // union overflows.
        for (ai, &(c1, counts1)) in occupied.iter().enumerate() {
            for &(c2, counts2) in &occupied[ai + 1..] {
                let mut merged = counts1;
                for (m, c) in merged.iter_mut().zip(counts2.iter()) {
                    *m += c;
                }
                if !overflows(&merged) {
                    continue;
                }
                let mut compressed = s.clone();
                for c in compressed.cycles.iter_mut() {
                    if *c == c2 {
                        *c = c1;
                    }
                }
                candidates[kind_index(MutationKind::CompressCycle)].push(Candidate {
                    block: block.id,
                    schedule: compressed,
                    detail: format!("merged cycle {c2} into cycle {c1}"),
                });
            }
        }

        // OverfillSlot: move a single op into a cycle whose slot for its
        // class is already at capacity.
        for (i, &ci) in s.cycles.iter().enumerate() {
            let k = class_of(&ops[i]);
            for &(c, counts) in &occupied {
                if c == ci {
                    continue;
                }
                let full = match machine.widths() {
                    None => counts.iter().sum::<u32>() >= 1,
                    Some(w) => counts[k] >= w.of(classes[k]),
                };
                if !full {
                    continue;
                }
                let mut moved = s.clone();
                moved.cycles[i] = c;
                candidates[kind_index(MutationKind::OverfillSlot)].push(Candidate {
                    block: block.id,
                    schedule: moved,
                    detail: format!("moved op {i} into full cycle {c}"),
                });
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let start = (seed % MutationKind::ALL.len() as u64) as usize;
    for k in 0..MutationKind::ALL.len() {
        let kind = MutationKind::ALL[(start + k) % MutationKind::ALL.len()];
        let pool = &candidates[kind_index(kind)];
        if pool.is_empty() {
            continue;
        }
        let pick = &pool[rng.gen_range(0..pool.len())];
        let mut mutated = sched.clone();
        mutated.set_block(pick.block, pick.schedule.clone());
        return Some(Mutant {
            kind,
            block: pick.block,
            detail: pick.detail.clone(),
            sched: mutated,
        });
    }
    None
}

/// Result of a mutation kill-rate run.
#[derive(Clone, Debug)]
pub struct MutationReport {
    /// Whether the unmutated schedule passed the checker (it must).
    pub base_valid: bool,
    /// Seeds tried.
    pub attempted: u64,
    /// Seeds that produced an applicable mutant.
    pub applied: u64,
    /// Mutants the checker rejected.
    pub killed: u64,
    /// Descriptions of surviving mutants (empty at a 100% kill rate).
    pub survivors: Vec<String>,
}

impl MutationReport {
    /// True when the base schedule validated and every applied mutant was
    /// rejected.
    pub fn perfect(&self) -> bool {
        self.base_valid && self.applied > 0 && self.survivors.is_empty()
    }
}

/// Schedules `func`, then applies `tries` seeded mutations and counts how
/// many the checker rejects.
pub fn mutation_kill_rate(
    func: &Function,
    machine: &Machine,
    opts: &SchedOptions,
    tries: u64,
    base_seed: u64,
) -> MutationReport {
    let _span = Span::enter("schedcheck.mutate", "schedcheck");
    let sched = schedule_function(func, machine, opts);
    let base_valid = check_function(func, machine, &sched, opts).is_empty();
    let mut report = MutationReport {
        base_valid,
        attempted: 0,
        applied: 0,
        killed: 0,
        survivors: Vec::new(),
    };
    for t in 0..tries {
        report.attempted += 1;
        let Some(m) = mutate(func, machine, opts, &sched, base_seed.wrapping_add(t)) else {
            continue;
        };
        report.applied += 1;
        mutants_counter().inc();
        if check_function(func, machine, &m.sched, opts).is_empty() {
            report.survivors.push(format!(
                "{} in block b{} ({}) survived",
                m.kind.name(),
                m.block.0,
                m.detail
            ));
        } else {
            report.killed += 1;
            killed_counter().inc();
        }
    }
    report
}

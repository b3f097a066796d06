//! # epic-schedcheck
//!
//! Translation validation for EPIC schedules. Every number the
//! reproduction reports is `schedule length × profile weight`, so the
//! list scheduler (`epic-sched`) and estimator (`epic-perf`) are the
//! trusted computing base. This crate removes them from it:
//!
//! - [`check_function`] independently re-derives liveness, predicate
//!   facts, and the predicate-aware dependence graph for each block and
//!   validates a [`ScheduledFunction`](epic_sched::ScheduledFunction)
//!   against dependence latencies, per-class issue widths, exit-branch
//!   ordering / availability, and completeness, returning structured
//!   [`ScheduleViolation`]s instead of panicking.
//! - [`check_replay`] walks the interpreter's dynamic block trace through
//!   the per-block schedules (cycle-accurate scheduled replay) and proves
//!   the `epic-perf` estimate equals the replayed cycle count.
//! - [`mutation_kill_rate`] applies seeded schedule mutations — swap two
//!   ops across a latency edge, compress a cycle past the issue width,
//!   drop an op, overfill a unit slot, reorder exit branches — and
//!   demands the checker reject every one (a 100% mutant kill rate).
//!
//! The checker's work is observable through `schedcheck.*` spans and the
//! `schedcheck_*` counters of `epic-obs`.
//!
//! ```
//! use epic_ir::{FunctionBuilder, Operand};
//! use epic_machine::Machine;
//! use epic_sched::{schedule_function, SchedOptions};
//! use epic_schedcheck::check_function;
//!
//! let mut b = FunctionBuilder::new("f");
//! let e = b.block("e");
//! b.switch_to(e);
//! let x = b.movi(1);
//! let _ = b.add(x.into(), Operand::Imm(2));
//! b.ret();
//! let f = b.finish();
//! let opts = SchedOptions::default();
//! let sched = schedule_function(&f, &Machine::wide(), &opts);
//! assert!(check_function(&f, &Machine::wide(), &sched, &opts).is_empty());
//! ```

mod check;
mod mutate;
mod replay;
mod violation;

pub use check::check_function;
pub use mutate::{mutate, mutation_kill_rate, Mutant, MutationKind, MutationReport};
pub use replay::{check_replay, replay_cycles, replay_cycles_with, ReplayError};
pub use violation::{ScheduleViolation, ViolationKind};

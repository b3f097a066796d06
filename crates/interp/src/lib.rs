//! # epic-interp
//!
//! An architectural interpreter for the PlayDoh-style IR of [`epic_ir`].
//!
//! The interpreter serves three roles in the Control CPR reproduction:
//!
//! 1. **Profiling** — it executes workload programs on training inputs and
//!    records the branch taken/not-taken frequencies and block entry counts
//!    that drive the ICBM *exit-weight* and *predict-taken* heuristics and
//!    the paper's schedule-length × frequency performance estimate (§7).
//! 2. **Dynamic operation counts** — Table 3 of the paper reports the ratio
//!    of dynamic operations (total and branches) after/before control CPR;
//!    the interpreter measures exactly those counts ([`Outcome::dynamic_ops`],
//!    [`Outcome::dynamic_branches`]).
//! 3. **Differential testing** — every transformation in the pipeline is
//!    validated by running the original and transformed programs on the same
//!    inputs and comparing final memory images ([`diff_test`]).
//!
//! Execution is *architectural*: operations run in program order, a taken
//! branch transfers control immediately, and predication follows the PlayDoh
//! semantics of [`epic_ir::PredAction`]. Latency and issue width are modeled
//! by the scheduler (`epic-sched`), not here.
//!
//! ```
//! use epic_ir::{FunctionBuilder, Operand};
//! use epic_interp::{run, Input};
//!
//! let mut b = FunctionBuilder::new("store42");
//! let e = b.block("entry");
//! b.switch_to(e);
//! let addr = b.movi(0);
//! b.store(addr, Operand::Imm(42));
//! b.ret();
//! let f = b.finish();
//! let out = run(&f, &Input::new().memory_size(4))?;
//! assert_eq!(out.memory[0], 42);
//! # Ok::<(), epic_interp::Trap>(())
//! ```

mod decode;
mod diff;
mod exec;
#[doc(hidden)]
pub mod reference;
mod trap;

pub use decode::{DecodedProgram, ExecState};
pub use diff::{diff_test, DiffError};
pub use exec::{run, run_events, run_profile, run_traced, Input, Outcome, ProfileRun, TraceEvent};
pub use trap::Trap;

use std::sync::{Arc, OnceLock};

/// Process-wide `interp.steps` counter: total operations fetched across
/// all runs, a trapping operation included. Updated once per run (a
/// single relaxed add), not per step.
pub(crate) fn obs_steps() -> &'static Arc<epic_obs::Counter> {
    static C: OnceLock<Arc<epic_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| epic_obs::MetricsRegistry::global().counter("interp.steps"))
}

/// Process-wide `interp.decode_ns` counter: nanoseconds spent pre-decoding
/// functions into [`DecodedProgram`] form.
pub(crate) fn obs_decode_ns() -> &'static Arc<epic_obs::Counter> {
    static C: OnceLock<Arc<epic_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| epic_obs::MetricsRegistry::global().counter("interp.decode_ns"))
}

//! # control-cpr
//!
//! The **Irredundant Consecutive Branch Method (ICBM)** — an implementation
//! of control critical-path reduction for EPIC architectures, reproducing
//! Schlansker, Mahlke & Johnson, *"Control CPR: A Branch Height Reduction
//! Optimization for EPIC Architectures"* (PLDI 1999).
//!
//! Control CPR collapses a chain of consecutive exit branches in a
//! superblock/hyperblock into a single *bypass branch*. The bypass branch is
//! guarded by an *off-trace FRP* — the disjunction of the original branch
//! conditions — computed in a height-reduced way with PlayDoh wired-or
//! compares, while an *on-trace FRP* (the conjunction of the fall-through
//! conditions, via wired-and) re-guards the code below. The original
//! compares, branches, and everything dependent on them move to an
//! off-trace *compensation block*, so the common path executes strictly
//! fewer operations ("irredundant") and its branch dependence height drops
//! from `O(n)` to `O(1)`.
//!
//! The transformation follows the paper's four phases (§5):
//!
//! 1. [`speculate`] — predicate speculation: guard promotion and selective
//!    demotion, which removes the dependences that would otherwise make
//!    every block inseparable.
//! 2. [`match_cpr_blocks`] — partitions each hyperblock's branch chain into
//!    *CPR blocks* using the suitability and separability correctness tests
//!    and the exit-weight and predict-taken profile heuristics.
//! 3. [`restructure`] — inserts the lookahead compares, FRP initialization,
//!    and bypass branch (fall-through variation), or re-wires the final
//!    branch as the bypass (taken variation), and re-guards downstream uses.
//! 4. [`off_trace_motion`] — moves the now-redundant compares/branches and
//!    their dependence successors to the compensation block, splitting
//!    operations whose effects are needed on both paths.
//!
//! followed by predicate-aware [`dce`]. The one-call driver is
//! [`apply_icbm`]. The *redundant* full-CPR scheme of \[SK95\] that the paper
//! contrasts ICBM against is also provided ([`apply_full_cpr`]) so the
//! operation-count/height trade-off can be measured.
//!
//! ```
//! use epic_ir::{CmpCond, FunctionBuilder, Operand};
//! use control_cpr::{apply_icbm, CprConfig};
//!
//! # fn profile_of(f: &epic_ir::Function) -> epic_ir::Profile { epic_ir::Profile::new() }
//! let mut b = FunctionBuilder::new("example");
//! // ... build an FRP-converted superblock ...
//! # let blk = b.block("b"); b.switch_to(blk); b.ret();
//! let mut f = b.finish();
//! let profile = profile_of(&f);
//! let stats = apply_icbm(&mut f, &profile, &CprConfig::default());
//! println!("collapsed {} branches", stats.branches_collapsed);
//! ```

mod config;
mod dce;
mod driver;
mod fullcpr;
mod matching;
mod motion;
mod restructure;
mod speculate;

pub use config::CprConfig;
pub use dce::dce;
pub use driver::{apply_icbm, IcbmStats};
pub use fullcpr::{apply_full_cpr, FullCprStats};
pub use matching::{match_cpr_blocks, CprBlock};
pub use motion::off_trace_motion;
pub use restructure::{restructure, Restructured};
pub use speculate::{speculate, SpeculationStats};

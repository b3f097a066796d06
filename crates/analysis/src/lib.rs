//! # epic-analysis
//!
//! Predicate-cognizant program analyses for the Control CPR reproduction —
//! the Rust counterpart of Elcor's analysis infrastructure that the paper
//! (§5) says the ICBM modules rely on: "classic tools for data-flow analysis
//! and dependence edge construction have been upgraded to analyze predicated
//! code in a conservative yet reasonably accurate manner. Without these
//! enhancements, the benefits of predicate-based control CPR would not be
//! realized."
//!
//! The crate provides:
//!
//! * [`bdd`] — an exact ROBDD engine over branch-condition variables,
//!   replacing the predicate query system of \[JS96\].
//! * [`pred_facts::PredFacts`] — symbolic per-operation guard values and
//!   predicate definitions for one region, with disjointness / implication
//!   queries.
//! * [`liveness`] — classic CFG liveness plus the predicate-aware liveness
//!   *expressions* needed by predicate speculation.
//! * [`reaching::PredReaching`] — unique reaching definitions of predicate
//!   guards, used by the ICBM suitability test.
//! * [`depgraph::DepGraph`] — the region dependence graph consumed by the
//!   EPIC scheduler and by the ICBM separability test and off-trace motion.

pub mod bdd;
pub mod bitset;
pub mod depgraph;
pub mod liveness;
pub mod pred_facts;
pub mod reaching;

pub use bdd::{Bdd, BddManager};
pub use bitset::BitSet;
pub use depgraph::{DepEdge, DepGraph, DepKind, DepOptions};
pub use liveness::{ExitSets, GlobalLiveness, RegionLiveness, SavedSummary};
pub use pred_facts::PredFacts;
pub use reaching::{PredDef, PredReaching};

use std::sync::{Arc, OnceLock};

/// Process-wide `bdd.nodes` counter: BDD nodes created (constants excluded)
/// by every [`BddManager`] dropped so far.
pub(crate) fn obs_bdd_nodes() -> &'static Arc<epic_obs::Counter> {
    static C: OnceLock<Arc<epic_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| epic_obs::MetricsRegistry::global().counter("bdd.nodes"))
}

/// Process-wide `bdd.memo_hits` counter: disjoint/implies queries answered
/// from a [`BddManager`] query memo. Managers flush their tallies on drop.
pub(crate) fn obs_bdd_memo_hits() -> &'static Arc<epic_obs::Counter> {
    static C: OnceLock<Arc<epic_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| epic_obs::MetricsRegistry::global().counter("bdd.memo_hits"))
}

/// Process-wide `bdd.memo_misses` counter: disjoint/implies queries that had
/// to run the BDD apply recursion.
pub(crate) fn obs_bdd_memo_misses() -> &'static Arc<epic_obs::Counter> {
    static C: OnceLock<Arc<epic_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| epic_obs::MetricsRegistry::global().counter("bdd.memo_misses"))
}

//! Why ICBM leaves a CPR block untransformed.
//!
//! The paper bails out of a CPR block rather than generate the fully
//! general FRP expression (§5.3–5.4). Each bail-out site of
//! [`restructure`](crate::restructure) and
//! [`off_trace_motion`](crate::off_trace_motion) returns its own [`Skip`],
//! and the driver counts it under `icbm.skipped{reason="<name>"}` in the
//! process-wide [`epic_obs::MetricsRegistry`].

use std::sync::Arc;

use epic_obs::{metric_name, Counter, MetricsRegistry};

/// One refusal site of restructure or off-trace motion. A restructure
/// refusal leaves the function unchanged; a motion refusal makes the driver
/// roll the restructure back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Skip {
    /// Restructure: the block has fewer than two branches, or not one
    /// compare per branch.
    Trivial,
    /// A compare or branch the CPR block (or the restructured block) names
    /// is no longer in the hyperblock.
    StaleOp,
    /// Restructure: the compares do not appear in branch order. Predicate
    /// reuse can pair a later branch with an earlier compare; the bottom-up
    /// insertion plan (pinit above the first lookahead, one lookahead right
    /// after each compare, prefix-conjunction fall-through guards) and the
    /// split re-guarding rules both assume branch order. Equal positions
    /// are fine: one two-output compare may feed two branches.
    OutOfOrderCompares,
    /// Restructure: a predicate of an original compare is live outside the
    /// hyperblock. The compares move off-trace and downstream uses are
    /// re-wired to the on-trace FRP, which is only valid inside the block.
    PredLiveOut,
    /// Restructure: a non-compare op below the first compare reads an
    /// original predicate as a data operand (before a redefinition retires
    /// the name). Only guards are re-wired or split, so such a use is not
    /// handled.
    PredUsedAsData,
    /// Motion: the bypass branch fell into the moved set. It reads the
    /// off-trace FRP from the lookaheads, never the original compares, so
    /// it must stay on-trace.
    BypassMoved,
    /// Motion: a branch other than the matched ones fell into the moved set
    /// through a guard dependence on a moved compare. The bypass FRP is the
    /// disjunction of the *matched* branches' taken conditions only, so
    /// moving it would lose an on-trace exit.
    UnmatchedBranchMoved,
    /// Motion: the bypass reads a value a moved op produces, e.g. a
    /// lookahead accumulator pulled into the closure because its source is
    /// a moved load. Split copies land after the bypass in the
    /// fall-through variation, so the bypass would read stale FRPs.
    BypassReadsMoved,
    /// Motion: an unmoved op between the matched branches would become
    /// speculative on-trace. Moving the branches off-trace makes it run
    /// even when a branch above it would have been taken; that is only
    /// legal when the effect is invisible off-trace: no store, and no
    /// register or predicate live where a moved branch resumes (or a
    /// designated live-out), unless its guard is provably disjoint from
    /// every earlier moved branch's taken condition (as fall-through FRPs
    /// are).
    SpeculativeOnTrace,
    /// Motion: an anti, output or memory dependence runs from a moved op
    /// to an unmoved op at or before the bypass. The moved op would observe
    /// an overwritten input, or a re-ordered memory state, when the
    /// compensation block runs.
    Hazard,
    /// Motion: a split op keeps an external guard whose definition moves
    /// off-trace without an on-trace copy, so the on-trace copy's guard
    /// would dangle.
    SplitGuardMoved,
    /// Motion, taken variation: a split op keeps an external guard that
    /// does not imply the bypass condition. Its on-trace copy precedes the
    /// bypass and would fire on the fall-through into the compensation
    /// block, where a moved branch may then exit early.
    SplitGuardOffTrace,
}

impl Skip {
    /// Every reason, in declaration order.
    pub const ALL: [Skip; 12] = [
        Skip::Trivial,
        Skip::StaleOp,
        Skip::OutOfOrderCompares,
        Skip::PredLiveOut,
        Skip::PredUsedAsData,
        Skip::BypassMoved,
        Skip::UnmatchedBranchMoved,
        Skip::BypassReadsMoved,
        Skip::SpeculativeOnTrace,
        Skip::Hazard,
        Skip::SplitGuardMoved,
        Skip::SplitGuardOffTrace,
    ];

    /// The reason's stable name: the `reason` label of its counter.
    pub fn name(self) -> &'static str {
        match self {
            Skip::Trivial => "trivial",
            Skip::StaleOp => "stale-op",
            Skip::OutOfOrderCompares => "out-of-order-compares",
            Skip::PredLiveOut => "pred-live-out",
            Skip::PredUsedAsData => "pred-used-as-data",
            Skip::BypassMoved => "bypass-moved",
            Skip::UnmatchedBranchMoved => "unmatched-branch-moved",
            Skip::BypassReadsMoved => "bypass-reads-moved",
            Skip::SpeculativeOnTrace => "speculative-on-trace",
            Skip::Hazard => "hazard",
            Skip::SplitGuardMoved => "split-guard-moved",
            Skip::SplitGuardOffTrace => "split-guard-off-trace",
        }
    }

    /// The process-wide `icbm.skipped{reason="<name>"}` counter: CPR blocks
    /// ICBM skipped for this reason, counted per ICBM run (a compile served
    /// from a cache runs no ICBM and adds nothing).
    pub fn counter(self) -> Arc<Counter> {
        MetricsRegistry::global().counter(&metric_name("icbm.skipped", &[("reason", self.name())]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reason_has_its_own_name_and_counter() {
        let names: epic_ir::FxHashSet<&str> = Skip::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Skip::ALL.len());
        assert!(Arc::ptr_eq(&Skip::Hazard.counter(), &Skip::Hazard.counter()));
        assert!(!Arc::ptr_eq(&Skip::Hazard.counter(), &Skip::StaleOp.counter()));
    }
}

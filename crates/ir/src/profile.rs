//! Branch and block execution profiles.
//!
//! The paper's ICBM heuristics (exit-weight and predict-taken, §5.2) and the
//! performance-estimation methodology (§7) are driven by profile data:
//! per-branch taken / not-taken frequencies and per-block entry frequencies.
//! Profiles are produced by the `epic-interp` interpreter and keyed by
//! operation / block ids, which remain stable for untouched operations
//! across transformations.

use std::collections::HashMap;

use crate::ids::{BlockId, OpId};

/// Execution-frequency profile of a function.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// How many times control entered each block.
    pub block_entries: HashMap<BlockId, u64>,
    /// How many times each operation was fetched (its guard evaluated).
    pub op_executed: HashMap<OpId, u64>,
    /// How many times each branch operation actually took.
    pub branch_taken: HashMap<OpId, u64>,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Records one entry into `block`.
    pub fn record_block_entry(&mut self, block: BlockId) {
        *self.block_entries.entry(block).or_insert(0) += 1;
    }

    /// Records one fetch of operation `op`.
    pub fn record_op(&mut self, op: OpId) {
        *self.op_executed.entry(op).or_insert(0) += 1;
    }

    /// Records that branch `op` took.
    pub fn record_taken(&mut self, op: OpId) {
        *self.branch_taken.entry(op).or_insert(0) += 1;
    }

    /// Times control entered `block` (0 if never observed).
    pub fn entry_count(&self, block: BlockId) -> u64 {
        self.block_entries.get(&block).copied().unwrap_or(0)
    }

    /// Times `op` was fetched (0 if never observed).
    pub fn executed_count(&self, op: OpId) -> u64 {
        self.op_executed.get(&op).copied().unwrap_or(0)
    }

    /// Times branch `op` took (0 if never observed).
    pub fn taken_count(&self, op: OpId) -> u64 {
        self.branch_taken.get(&op).copied().unwrap_or(0)
    }

    /// Fraction of fetches of branch `op` that took, or `None` when the
    /// branch was never reached.
    pub fn taken_ratio(&self, op: OpId) -> Option<f64> {
        let executed = self.executed_count(op);
        if executed == 0 {
            return None;
        }
        Some(self.taken_count(op) as f64 / executed as f64)
    }

    /// Merges another profile into this one (e.g. profiles from several
    /// training inputs; the paper cites \[FF92\] for profile stability across
    /// data sets).
    pub fn merge(&mut self, other: &Profile) {
        for (&b, &n) in &other.block_entries {
            *self.block_entries.entry(b).or_insert(0) += n;
        }
        for (&o, &n) in &other.op_executed {
            *self.op_executed.entry(o).or_insert(0) += n;
        }
        for (&o, &n) in &other.branch_taken {
            *self.branch_taken.entry(o).or_insert(0) += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut p = Profile::new();
        p.record_block_entry(BlockId(0));
        p.record_block_entry(BlockId(0));
        p.record_op(OpId(3));
        p.record_op(OpId(3));
        p.record_op(OpId(3));
        p.record_taken(OpId(3));
        assert_eq!(p.entry_count(BlockId(0)), 2);
        assert_eq!(p.entry_count(BlockId(1)), 0);
        assert_eq!(p.executed_count(OpId(3)), 3);
        assert_eq!(p.taken_count(OpId(3)), 1);
        assert!((p.taken_ratio(OpId(3)).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.taken_ratio(OpId(4)), None);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Profile::new();
        a.record_op(OpId(1));
        let mut b = Profile::new();
        b.record_op(OpId(1));
        b.record_taken(OpId(1));
        b.record_block_entry(BlockId(2));
        a.merge(&b);
        assert_eq!(a.executed_count(OpId(1)), 2);
        assert_eq!(a.taken_count(OpId(1)), 1);
        assert_eq!(a.entry_count(BlockId(2)), 1);
    }
}

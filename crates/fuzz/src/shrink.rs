//! Failure minimization.
//!
//! Greedy op-deletion to a fixpoint: repeatedly try deleting one operation
//! at a time, keeping a candidate only when it still verifies, still runs
//! trap-free, and still fails **at the same stage** as the original
//! failure. The result is the checked-in reproducer material: small enough
//! to read, printed in the IR text format so it round-trips through
//! `parse_function` into a regression test.

use epic_ir::Function;

use crate::generator::GenCase;
use crate::harness::{check_from, Failure};

/// True when `cand` (with the case's inputs and configs) still fails at
/// `stage`.
fn fails_at(cand: &Function, case: &GenCase, stage: &str) -> bool {
    matches!(check_from(cand, case), Err(f) if f.stage == stage)
}

/// Minimizes the generated program of `case` while preserving failure at
/// `failure.stage`. Returns the smallest program found (the original if no
/// deletion preserves the failure).
pub fn shrink_case(case: &GenCase, failure: &Failure) -> Function {
    let mut best = case.func.clone();
    loop {
        let mut improved = false;
        for b in best.layout().to_vec() {
            let mut i = 0;
            while i < best.block(b).ops.len() {
                let mut cand = best.clone();
                cand.block_mut(b).ops.remove(i);
                // `check_from` re-verifies and re-runs the reference, so
                // candidates that break well-formedness or trap are
                // rejected here (they fail at "generate", a different
                // stage name).
                if fails_at(&cand, case, failure.stage) {
                    best = cand;
                    improved = true;
                } else {
                    i += 1;
                }
            }
        }
        if !improved {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::harness::check_case;

    #[test]
    fn shrinking_a_passing_case_returns_it_unchanged() {
        let case = generate(0);
        assert!(check_case(&case).is_ok(), "seed 0 must be green for this test");
        let fake = Failure {
            stage: "superblock",
            detail: "not a real failure".into(),
            before: case.func.clone(),
        };
        let min = shrink_case(&case, &fake);
        assert_eq!(min.to_string(), case.func.to_string());
    }
}

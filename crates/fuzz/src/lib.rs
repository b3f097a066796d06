//! # epic-fuzz
//!
//! Randomized differential testing of the whole compilation pipeline.
//!
//! The crate has three parts:
//!
//! * [`generate`] — a seed-deterministic generator of verifier-clean,
//!   trap-free, terminating predicated programs with superblock-formable
//!   control shape (counted loops, biased side exits, two-target compare
//!   chains) plus the inputs and randomized pipeline configuration each
//!   program is exercised with;
//! * [`check_case`] — a per-stage harness that runs every pipeline stage
//!   (if-conversion, superblock formation, unrolling, DCE, FRP conversion,
//!   then ICBM through the shipped driver, observed after speculate, every
//!   restructure, every motion or rollback, and the final DCE) and, after
//!   each stage, verifies the output and differentially tests it against
//!   the stage's input on several inputs, so a failure names the guilty
//!   stage. [`GenCase::from_workload`] feeds a suite workload through the
//!   same checks (the `inspect` binary);
//! * [`shrink_case`] — greedy op-deletion minimization that preserves the
//!   failing stage, producing reproducers small enough to check in.
//!
//! The deterministic entry point used by `just fuzz-smoke` and the tier-1
//! smoke test is [`run_fuzz`]; `FUZZ_SEED` / `FUZZ_CASES` override the
//! corpus via [`env_u64`].

// A Failure deliberately carries the whole stage-input program (the
// reproducer); these Results live on the cold path of a fuzzing harness.
#![allow(clippy::result_large_err)]

mod generator;
mod harness;
mod riscfe_stage;
mod shrink;

pub use generator::{generate, GenCase, MEM_WORDS};
pub use harness::{check_case, check_from, Failure};
pub use riscfe_stage::{fuzz_riscfe_one, riscfe_case, run_riscfe_fuzz};
pub use shrink::shrink_case;

/// One fully processed fuzz failure: stage, detail, and the minimized
/// reproducer in IR text form.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// The seed that produced the failing program.
    pub seed: u64,
    /// The pipeline stage whose output diverged.
    pub stage: &'static str,
    /// Description of the divergence (for the minimized program when the
    /// shrink preserved it, otherwise for the original).
    pub detail: String,
    /// The minimized failing program, printed in IR text format.
    pub minimized: String,
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "seed {}: stage `{}`: {}\nminimized reproducer:\n{}",
            self.seed, self.stage, self.detail, self.minimized
        )
    }
}

/// Generates, checks, and (on failure) shrinks one case.
pub fn fuzz_one(seed: u64) -> Option<FailureReport> {
    let case = generate(seed);
    let failure = match check_case(&case) {
        Ok(()) => return None,
        Err(f) => f,
    };
    let min = shrink_case(&case, &failure);
    // Prefer the minimized program's own failure detail; fall back to the
    // original if shrinking somehow lost the failure.
    let detail = match check_from(&min, &case) {
        Err(f) if f.stage == failure.stage => f.detail,
        _ => failure.detail.clone(),
    };
    Some(FailureReport { seed, stage: failure.stage, detail, minimized: min.to_string() })
}

/// Runs `cases` consecutive seeds starting at `base_seed`, returning every
/// failure found. Deterministic for a fixed `(base_seed, cases)` pair.
pub fn run_fuzz(base_seed: u64, cases: u64) -> Vec<FailureReport> {
    (0..cases).filter_map(|i| fuzz_one(base_seed.wrapping_add(i))).collect()
}

/// Reads a decimal `u64` from the environment, falling back to `default`
/// when the variable is unset or unparsable.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_u64_falls_back() {
        assert_eq!(env_u64("EPIC_FUZZ_UNSET_VAR_FOR_TEST", 7), 7);
    }

    #[test]
    fn report_display_includes_seed_and_stage() {
        let r = FailureReport {
            seed: 99,
            stage: "motion",
            detail: "divergence on input 0".into(),
            minimized: "function f {\n}".into(),
        };
        let s = r.to_string();
        assert!(s.contains("seed 99") && s.contains("motion"), "{s}");
    }
}

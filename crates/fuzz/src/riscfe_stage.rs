//! The RISC-lite frontend differential stage.
//!
//! A seeded corpus program (a few hundred RISC-lite instructions — small
//! enough to fuzz by the thousands, large enough to carry real control
//! structure) is pushed through three layers of checking:
//!
//! 1. **Translation conformance** — the RISC-lite reference interpreter
//!    and the translated IR under `epic_interp::run` must agree on all
//!    observable state, on every input. A divergence here is a frontend
//!    miscompile, reported at stage `"riscfe-translate"`.
//! 2. **The full per-stage pipeline** — the translated function then runs
//!    through [`check_from`](crate::check_from): every pipeline stage is
//!    verified, differentially tested against its input, and schedule
//!    validated, exactly as for natively generated fuzz programs.
//! 3. **Shrinking** — pipeline-stage failures reuse the existing IR-level
//!    shrinker, so reproducers come out checked-in sized.
//!
//! The stage draws from an RNG stream independent of [`crate::generate`]'s
//! (seeds are offset and the corpus generator hashes its own seed), so
//! adding it cannot perturb the byte-stability of the existing fuzz
//! corpus.

use epic_riscfe::corpus::generate_corpus;
use epic_riscfe::{conformance_check, translate, CorpusProgram, CorpusStyle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::generator::sample_config;
use crate::{check_from, shrink_and_report, FailureReport, GenCase};

/// Builds the RISC-lite fuzz case for `seed`: a small corpus program plus
/// the translated function and a sampled pipeline configuration, packaged
/// as a [`GenCase`] so the standard harness and shrinker apply.
pub fn riscfe_case(seed: u64) -> (CorpusProgram, GenCase) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5249_5343); // "RISC"
    let style = [CorpusStyle::Chains, CorpusStyle::Diamonds, CorpusStyle::Loops, CorpusStyle::Mixed]
        [rng.gen_range(0usize..4)];
    let target_ops = rng.gen_range(60usize..=240);
    let cp = generate_corpus(&format!("riscfuzz_{seed}"), seed, target_ops, style);
    let func = translate(&cp.prog);

    let (cfg, unroll) = sample_config(&mut rng);
    let case = GenCase { seed, func, inputs: cp.inputs.clone(), cfg, unroll };
    (cp, case)
}

/// Generates, checks, and (on pipeline failures) shrinks one RISC-lite
/// case. Returns `None` when everything conforms.
pub fn fuzz_riscfe_one(seed: u64) -> Option<FailureReport> {
    let (cp, case) = riscfe_case(seed);

    // Layer 1: frontend conformance, source semantics vs translated IR.
    for (k, input) in cp.inputs.iter().enumerate() {
        if let Err(e) = conformance_check(&cp.prog, &case.func, input) {
            return Some(FailureReport {
                seed,
                stage: "riscfe-translate",
                detail: format!("RISC-lite vs translated IR diverged on input {k}: {e}"),
                minimized: cp.text.clone(),
            });
        }
    }

    // Layer 2: the full staged pipeline over the translated function.
    let failure = check_from(&case.func, &case).err()?;
    Some(shrink_and_report(&case, failure))
}

/// Runs `cases` consecutive RISC-lite seeds starting at `base_seed`.
/// Deterministic for a fixed `(base_seed, cases)` pair.
pub fn run_riscfe_fuzz(base_seed: u64, cases: u64) -> Vec<FailureReport> {
    (0..cases).filter_map(|i| fuzz_riscfe_one(base_seed.wrapping_add(i))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn riscfe_case_is_deterministic() {
        let (cp_a, a) = riscfe_case(7);
        let (cp_b, b) = riscfe_case(7);
        assert_eq!(cp_a.text, cp_b.text);
        assert_eq!(a.func.fingerprint(), b.func.fingerprint());
        assert_eq!(a.unroll, b.unroll);
        assert_eq!(a.cfg.config_hash(), b.cfg.config_hash());
    }

    #[test]
    fn a_handful_of_seeds_pass_end_to_end() {
        for seed in 0..4 {
            if let Some(f) = fuzz_riscfe_one(seed) {
                panic!("seed {seed}: {f}");
            }
        }
    }

    #[test]
    fn corpus_inputs_drive_both_interpreters() {
        let (cp, case) = riscfe_case(11);
        assert_eq!(cp.inputs.len(), case.inputs.len());
    }
}

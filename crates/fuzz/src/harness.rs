//! The per-stage differential harness.
//!
//! A program is pushed through the same stage sequence as the bench
//! pipeline (`Pipeline::run` in `crates/bench/src/pipeline.rs`), but with
//! the verifier and the differential oracle run after **every** stage
//! against that stage's own input program, so a failure names the guilty
//! stage instead of surfacing as an end-to-end mystery. ICBM runs through
//! the one driver the pipeline ships, [`apply_icbm_observed`], whose
//! observer checks each phase — speculate, every restructure, every motion
//! or rollback, and the final DCE — so a divergence is pinned to a phase
//! of exactly the code that ships.

use control_cpr::{apply_icbm_observed, dce, IcbmPhase};
use epic_analysis::GlobalLiveness;
use epic_interp::{diff_test, run, Input};
use epic_ir::{verify, Function, Profile};
use epic_machine::Machine;
use epic_perf::profile_and_count;
use epic_regions::{
    form_superblocks, frp_convert, if_convert, meld, unroll_hot_loops, IfConvertConfig,
};
use epic_sched::{schedule_function, SchedOptions};
use epic_schedcheck::{check_function, replay_cycles};

use crate::generator::GenCase;

/// A divergence (or verifier violation) pinned to one pipeline stage.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The stage whose output diverged from its input.
    pub stage: &'static str,
    /// Human-readable description of the divergence.
    pub detail: String,
    /// The program that was fed *into* the guilty stage — re-running the
    /// stage on this function reproduces the failure.
    pub before: Function,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stage `{}`: {}", self.stage, self.detail)
    }
}

/// Verifies `after` and diffs it against `before` on every input; on
/// success the stage output becomes the next stage's input.
fn checked(
    stage: &'static str,
    before: &Function,
    after: Function,
    inputs: &[Input],
) -> Result<Function, Failure> {
    if let Err(e) = verify(&after) {
        return Err(Failure {
            stage,
            detail: format!("verifier rejected stage output: {e}"),
            before: before.clone(),
        });
    }
    for (k, input) in inputs.iter().enumerate() {
        if let Err(e) = diff_test(before, &after, input) {
            return Err(Failure {
                stage,
                detail: format!("divergence on input {k}: {e}"),
                before: before.clone(),
            });
        }
    }
    sched_validated(stage, &after, inputs)?;
    Ok(after)
}

/// The `sched` fuzz stage: schedules `func` under both the widest and the
/// sequential machine, runs the independent schedule validator, and
/// cross-checks the perf estimate against a cycle-accurate replay of the
/// training input. Failures carry the stage name `"sched"` (so they shrink
/// and triage like miscompiles) and name the pipeline stage whose output
/// was being scheduled.
fn sched_validated(stage: &'static str, func: &Function, inputs: &[Input]) -> Result<(), Failure> {
    let opts = SchedOptions::default();
    for machine in [Machine::wide(), Machine::sequential()] {
        let sched = schedule_function(func, &machine, &opts);
        let violations = check_function(func, &machine, &sched, &opts);
        if let Some(v) = violations.first() {
            return Err(Failure {
                stage: "sched",
                detail: format!(
                    "schedule of `{stage}` output invalid on {}: {v} ({} violations)",
                    machine.name(),
                    violations.len()
                ),
                before: func.clone(),
            });
        }
        if let Some(input) = inputs.first() {
            if let Err(e) = replay_cycles(func, input, &sched) {
                return Err(Failure {
                    stage: "sched",
                    detail: format!(
                        "replay of `{stage}` output on {}: {e}",
                        machine.name()
                    ),
                    before: func.clone(),
                });
            }
        }
    }
    Ok(())
}

fn profiled(f: &Function, input: &Input, stage: &'static str) -> Result<Profile, Failure> {
    profile_and_count(f, input).map(|(p, _)| p).map_err(|t| Failure {
        stage,
        detail: format!("profiling run trapped: {t}"),
        before: f.clone(),
    })
}

/// Runs the staged pipeline over `case`'s generated program.
///
/// # Errors
///
/// Returns the first per-stage [`Failure`].
pub fn check_case(case: &GenCase) -> Result<(), Failure> {
    check_from(&case.func, case)
}

/// Like [`check_case`] but starting from `src` instead of the generated
/// program — the shrinker re-checks its smaller candidates through this.
///
/// # Errors
///
/// Returns the first per-stage [`Failure`].
pub fn check_from(src: &Function, case: &GenCase) -> Result<(), Failure> {
    // Stage 0: the generator's own promises. A violation here is a bug in
    // the generator (or a shrink candidate to reject), not in the pipeline.
    if let Err(e) = verify(src) {
        return Err(Failure {
            stage: "generate",
            detail: format!("generated program does not verify: {e}"),
            before: src.clone(),
        });
    }
    for (k, input) in case.inputs.iter().enumerate() {
        if let Err(t) = run(src, input) {
            return Err(Failure {
                stage: "generate",
                detail: format!("reference run trapped on input {k}: {t}"),
                before: src.clone(),
            });
        }
    }

    sched_validated("generate", src, &case.inputs)?;

    let training = &case.inputs[0];
    let mut cur = src.clone();

    if case.use_if_convert {
        let profile = profiled(&cur, training, "if-convert")?;
        let mut next = cur.clone();
        if_convert(&mut next, &profile, &IfConvertConfig::default());
        cur = checked("if-convert", &cur, next, &case.inputs)?;
    }

    if let Some(mc) = &case.meld {
        let profile = profiled(&cur, training, "meld")?;
        let mut next = cur.clone();
        meld(&mut next, &profile, mc);
        cur = checked("meld", &cur, next, &case.inputs)?;
    }

    let profile = profiled(&cur, training, "superblock")?;
    let next = form_superblocks(&cur, &profile, &case.trace);
    cur = checked("superblock", &cur, next, &case.inputs)?;

    let profile = profiled(&cur, training, "unroll")?;
    // DCE takes the context unroll repaired, as the pipeline does, so the
    // stage runs on the same repaired context the shipped baseline does.
    let mut next = cur.clone();
    let mut live = GlobalLiveness::compute(&next);
    unroll_hot_loops(&mut next, &profile, case.unroll_factor, case.trace.min_count, &mut live);
    cur = checked("unroll", &cur, next, &case.inputs)?;

    let mut next = cur.clone();
    dce(&mut next, &mut live);
    cur = checked("dce", &cur, next, &case.inputs)?;

    let mut next = cur.clone();
    frp_convert(&mut next);
    cur = checked("frp-convert", &cur, next, &case.inputs)?;

    // The ICBM heuristics are profile-driven but must preserve semantics
    // under any profile; FRP conversion preserves block/branch ids, so the
    // post-FRP profile is also the one the real pipeline would use.
    let profile = profiled(&cur, training, "icbm")?;
    let mut prev = cur.clone();
    apply_icbm_observed(&mut cur, &profile, &case.cpr, |phase, f| {
        prev = checked(phase.name(), &prev, f.clone(), &case.inputs).map_err(|mut e| {
            if let IcbmPhase::Rollback(skip) = phase {
                e.detail = format!("{} (motion refused: {})", e.detail, skip.name());
            }
            e
        })?;
        Ok(())
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;

    #[test]
    fn failure_display_names_the_stage() {
        let case = generate(0);
        let f = Failure {
            stage: "unroll",
            detail: "divergence on input 1: memory differs".into(),
            before: case.func,
        };
        let s = f.to_string();
        assert!(s.contains("unroll") && s.contains("input 1"), "{s}");
    }

    #[test]
    fn rejects_a_trapping_source_as_generator_bug() {
        // A program that traps (unmasked OOB store) must be reported at the
        // "generate" stage, not blamed on a pipeline pass.
        let mut case = generate(3);
        let mut b = epic_ir::FunctionBuilder::new("oob");
        let e = b.block("e");
        b.switch_to(e);
        let a = b.movi(crate::generator::MEM_WORDS as i64 + 7);
        b.store(a, epic_ir::Operand::Imm(1));
        b.ret();
        case.func = b.finish();
        // The generated inputs reference registers of the replaced
        // function; swap in inputs that only size the memory image.
        case.inputs = vec![Input::new().memory_size(crate::generator::MEM_WORDS)];
        let err = check_case(&case).unwrap_err();
        assert_eq!(err.stage, "generate");
    }
}

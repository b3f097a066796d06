//! The per-stage differential harness.
//!
//! A program is compiled by the bench pipeline itself, and the harness
//! observes it ([`Pipeline::run_observed`]): the verifier, the
//! differential oracle and the schedule validator run after **every**
//! stage against that stage's own input program, so a failure names the
//! guilty stage instead of surfacing as an end-to-end mystery. The
//! observer also sees each ICBM phase — speculate, every restructure,
//! every motion or rollback, and the final DCE — so a divergence is pinned
//! to a phase of exactly the code that ships.

use control_cpr::IcbmPhase;
use epic_bench::{stage, validated_schedule, CompileError, Compiled, Pipeline, Step};
use epic_interp::{diff_test, run, Input};
use epic_ir::{verify, Function};
use epic_machine::Machine;
use epic_schedcheck::replay_cycles;

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

/// Why the observed compile stopped: a stage failed its checks, or the
/// pipeline itself failed (a profiling run trapped).
enum Halt {
    Failed(Failure),
    Pipeline(CompileError),
}

impl From<CompileError> for Halt {
    fn from(e: CompileError) -> Halt {
        Halt::Pipeline(e)
    }
}

/// Verifies `after` and diffs it against `before` on every input, then
/// validates its schedules.
fn checked(
    stage: &'static str,
    before: &Function,
    after: &Function,
    inputs: &[Input],
) -> Result<(), Failure> {
    let fail = |detail: String| Failure { stage, detail, before: before.clone() };
    verify(after).map_err(|e| fail(format!("verifier rejected stage output: {e}")))?;
    for (k, input) in inputs.iter().enumerate() {
        diff_test(before, after, input)
            .map_err(|e| fail(format!("divergence on input {k}: {e}")))?;
    }
    sched_validated(stage, after, inputs)
}

/// The `sched` fuzz stage: schedules `func` under both the widest and the
/// sequential machine, runs the independent schedule validator, and
/// cross-checks the perf estimate against a cycle-accurate replay of the
/// training input. Failures carry the stage name `"sched"` (so they shrink
/// and triage like miscompiles) and name the pipeline stage whose output
/// was being scheduled.
fn sched_validated(stage: &'static str, func: &Function, inputs: &[Input]) -> Result<(), Failure> {
    let fail = |detail: String| Failure { stage: "sched", detail, before: func.clone() };
    for machine in [Machine::wide(), Machine::sequential()] {
        let sched = validated_schedule(func, &machine)
            .map_err(|e| fail(format!("schedule of `{stage}` output invalid {e}")))?;
        if let Some(input) = inputs.first() {
            replay_cycles(func, input, &sched).map_err(|e| {
                fail(format!("replay of `{stage}` output on {}: {e}", machine.name()))
            })?;
        }
    }
    Ok(())
}

/// The stage whose input a pipeline profiling run measures; a trap there
/// is reported against that stage.
fn profiled_for(profile_stage: &'static str) -> &'static str {
    match profile_stage {
        stage::PROFILE_IF_CONVERT => stage::IF_CONVERT,
        stage::PROFILE_MELD => stage::MELD,
        stage::PROFILE_TRACE => stage::SUPERBLOCK,
        stage::PROFILE_UNROLL => stage::UNROLL,
        stage::PROFILE_BASELINE => stage::FRP_CONVERT,
        other => other,
    }
}

/// Compiles `case`'s generated program, checking every stage.
///
/// # Errors
///
/// Returns the first per-stage [`Failure`].
pub fn check_case(case: &GenCase) -> Result<Compiled, Failure> {
    check_from(&case.func, case)
}

/// Like [`check_case`] but starting from `src` instead of the generated
/// program — the shrinker re-checks its smaller candidates through this.
///
/// # Errors
///
/// Returns the first per-stage [`Failure`].
pub fn check_from(src: &Function, case: &GenCase) -> Result<Compiled, Failure> {
    // Stage 0: the generator's own promises. A violation here is a bug in
    // the generator (or a shrink candidate to reject), not in the pipeline.
    let fail = |detail: String| Failure { stage: "generate", detail, before: src.clone() };
    verify(src).map_err(|e| fail(format!("generated program does not verify: {e}")))?;
    for (k, input) in case.inputs.iter().enumerate() {
        run(src, input).map_err(|t| fail(format!("reference run trapped on input {k}: {t}")))?;
    }
    sched_validated("generate", src, &case.inputs)?;

    // Every later stage is checked against the last function observed,
    // which is that stage's input.
    let mut prev = src.clone();
    let compiled = Pipeline::for_function(&src.name, src, &case.inputs[0], case.unroll, &case.cfg)
        .run_observed(|step, f| {
            checked(step.name(), &prev, f, &case.inputs).map_err(|mut e| {
                if let Step::Icbm(IcbmPhase::Rollback(skip)) = step {
                    e.detail = format!("{} (motion refused: {})", e.detail, skip.name());
                }
                Halt::Failed(e)
            })?;
            prev = f.clone();
            Ok(())
        });
    compiled.map_err(|halt| match halt {
        Halt::Failed(f) => f,
        Halt::Pipeline(e) => Failure {
            stage: e.stage().map_or("pipeline", profiled_for),
            detail: format!("profiling run trapped: {e}"),
            before: prev,
        },
    })
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

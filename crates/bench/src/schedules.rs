//! Schedule validation support for the bench binaries.
//!
//! Every table bin accepts `--check-schedules`: after (or while) producing
//! its regular output, it re-derives the baseline and height-reduced
//! schedules of each workload and runs the independent `epic-schedcheck`
//! validator over them. All validation output goes to **stderr** — table
//! stdout stays byte-identical whether or not the flag is passed. A
//! violation is a compiler bug, so it panics with the full report.

use epic_ir::Function;
use epic_machine::Machine;
use epic_perf::weighted_cycles_with;
use epic_sched::{schedule_function, SchedOptions, ScheduledFunction};
use epic_schedcheck::{check_function, replay_cycles_with};
use epic_workloads::Workload;
use rayon::prelude::*;

use crate::cache::CompileCache;
use crate::compile::{compile_cached, Compiled, PipelineConfig};

/// Parses a `--check-schedules` flag out of `args`, returning whether it
/// was present (mirrors [`crate::take_timings_flag`]).
pub fn take_check_schedules_flag(args: &mut Vec<String>) -> bool {
    let before = args.len();
    args.retain(|a| a != "--check-schedules");
    args.len() != before
}

/// Schedules `func` on `m` and runs the independent validator over the
/// schedule — the one schedule check every caller shares.
///
/// # Errors
///
/// `"on <machine>: <first violation> (<n> violations)"`.
pub fn validated_schedule(func: &Function, m: &Machine) -> Result<ScheduledFunction, String> {
    let opts = SchedOptions::default();
    let sched = schedule_function(func, m, &opts);
    let violations = check_function(func, m, &sched, &opts);
    match violations.first() {
        Some(v) => Err(format!("on {}: {v} ({} violations)", m.name(), violations.len())),
        None => Ok(sched),
    }
}

/// Validates the baseline and height-reduced schedules of one compiled
/// workload under each of `machines`.
///
/// # Errors
///
/// Returns a description of the first violating schedule.
pub fn check_pair_schedules(
    name: &str,
    c: &Compiled,
    machines: &[Machine],
) -> Result<(), String> {
    for m in machines {
        for (what, func) in [("baseline", &c.baseline), ("optimized", &c.optimized)] {
            validated_schedule(func, m).map_err(|e| format!("{name} {what} {e}"))?;
        }
    }
    Ok(())
}

/// [`check_pair_schedules`] plus the replay oracle: a cycle-accurate
/// replay of the training input through each schedule must reproduce the
/// perf estimator's profile-weighted total *exactly* — the profile is that
/// same training run, so any gap means the estimator and the replay
/// disagree about the machine's cost model (front end included).
///
/// # Errors
///
/// Returns a description of the first violating or diverging schedule.
pub fn check_workload_schedules(
    w: &Workload,
    c: &Compiled,
    machines: &[Machine],
) -> Result<(), String> {
    let sides =
        [("baseline", &c.baseline, &c.base_profile), ("optimized", &c.optimized, &c.opt_profile)];
    for m in machines {
        let fe = m.frontend();
        for (what, func, profile) in sides {
            let sched =
                validated_schedule(func, m).map_err(|e| format!("{} {what} {e}", w.name))?;
            let replayed = replay_cycles_with(func, &w.training, &sched, &fe)
                .map_err(|e| format!("{} {what} on {}: replay failed: {e}", w.name, m.name()))?;
            let estimated = weighted_cycles_with(func, profile, &sched, &fe);
            if replayed != estimated {
                return Err(format!(
                    "{} {what} on {}: estimate {estimated} != replay {replayed}",
                    w.name,
                    m.name()
                ));
            }
        }
    }
    Ok(())
}

/// Compiles (through `cache`, so a bin that already ran the same pipeline
/// pays only cache lookups) and validates every workload under `machines`.
///
/// Prints a one-line summary to stderr on success.
///
/// # Panics
///
/// Panics with every violation found — an invalid schedule means the
/// numbers on stdout cannot be trusted.
pub fn check_all_schedules(
    workloads: &[Workload],
    cfg: &PipelineConfig,
    cache: &CompileCache,
    machines: &[Machine],
) {
    let errors: Vec<Option<String>> = workloads
        .par_iter()
        .map(|w| {
            let c = match compile_cached(w, cfg, cache) {
                Ok(c) => c,
                Err(e) => return Some(format!("{}: compile failed: {e}", w.name)),
            };
            check_workload_schedules(w, &c, machines).err()
        })
        .collect();
    let errors: Vec<String> = errors.into_iter().flatten().collect();
    assert!(errors.is_empty(), "schedule validation failed:\n{}", errors.join("\n"));
    eprintln!(
        "schedule validation: {} workloads x {} machines x 2 functions OK (schedcheck + replay)",
        workloads.len(),
        machines.len()
    );
}

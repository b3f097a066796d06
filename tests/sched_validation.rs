//! Schedule translation validation across the whole pipeline.
//!
//! The independent `epic-schedcheck` validator re-derives liveness,
//! predicate facts, and the dependence graph from scratch, so these tests
//! prove the list scheduler out of the trusted computing base: the perf
//! estimate must equal a cycle-accurate scheduled replay on every input,
//! and the checker must kill every seeded schedule mutation. That every
//! function the pipeline produces — at *every* stage, not just the final
//! pair — schedules validly on both machine extremes is checked by the
//! fuzz harness's `suite_workloads` test (`epic-fuzz`), which observes the
//! same run.

use epic_bench::{compile, validated_schedule, PipelineConfig};
use epic_machine::{Frontend, Machine};
use epic_perf::weighted_cycles_with;
use epic_regions::MeldConfig;
use epic_sched::{schedule_function, SchedOptions};
use epic_schedcheck::{mutation_kill_rate, replay_cycles, replay_cycles_with};

/// The `epic-perf` estimate (`schedule length × profile weight`) equals a
/// cycle-accurate replay of the interpreter's block trace through the
/// per-block schedules — for both compiled functions, on both machine
/// extremes, on the training input and every evaluation input.
#[test]
fn perf_estimate_equals_scheduled_replay() {
    let cfg = PipelineConfig::default();
    let opts = SchedOptions::default();
    for w in epic_workloads::all() {
        let c = compile(&w, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for m in [Machine::wide(), Machine::sequential()] {
            for (what, func) in [("baseline", &c.baseline), ("optimized", &c.optimized)] {
                let sched = schedule_function(func, &m, &opts);
                for input in std::iter::once(&w.training).chain(&w.evaluation) {
                    replay_cycles(func, input, &sched).unwrap_or_else(|e| {
                        panic!("{} {what} on {}: {e}", w.name, m.name())
                    });
                }
            }
        }
    }
}

/// Programs after melding — branch-eliminated full diamonds — must schedule
/// validly under the independent checker, their perf estimate must equal
/// the replay oracle *under the penalized modern front end* (misprediction
/// penalty and fetch-width charges included), and every seeded schedule
/// mutation must be killed on that machine.
#[test]
fn melded_outputs_validate_replay_and_kill_mutants() {
    let cfg = PipelineConfig { meld: Some(MeldConfig::default()), ..PipelineConfig::default() };
    let opts = SchedOptions::default();
    let modern = Machine::medium().with_frontend(Frontend::modern()).with_name("medium+fe");
    let fe = modern.frontend();
    for name in ["sort", "diff", "wc"] {
        let w = epic_workloads::by_name(name).unwrap();
        let c = compile(&w, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let sides = [
            ("baseline", &c.baseline, &c.base_profile),
            ("optimized", &c.optimized, &c.opt_profile),
        ];
        for (what, func, profile) in sides {
            let sched =
                validated_schedule(func, &modern).unwrap_or_else(|e| panic!("{name} {what} {e}"));
            let estimated = weighted_cycles_with(func, profile, &sched, &fe);
            let replayed = replay_cycles_with(func, &w.training, &sched, &fe)
                .unwrap_or_else(|e| panic!("{name} {what}: {e}"));
            assert_eq!(estimated, replayed, "{name} {what}: estimate != replay");
            // The front-end model must actually charge: the same schedule
            // under the ideal front end costs strictly less (every program
            // here retires at least one taken control transfer).
            let ideal = weighted_cycles_with(func, profile, &sched, &Frontend::ideal());
            assert!(estimated > ideal, "{name} {what}: {estimated} !> {ideal}");
            let report = mutation_kill_rate(func, &modern, &opts, 8, 0xC0DE);
            assert!(report.base_valid, "{name} {what}: base schedule invalid");
            assert!(report.applied > 0, "{name} {what}: no mutants applied");
            assert!(report.perfect(), "{name} {what}: survivors: {:?}", report.survivors);
        }
    }
    // The pass must have fired on the diamond workloads, or the assertions
    // above validated nothing new.
    let w = epic_workloads::by_name("sort").unwrap();
    let plain = compile(&w, &PipelineConfig::default()).unwrap();
    let melded = compile(&w, &cfg).unwrap();
    assert!(
        melded.opt_counts.dynamic_branches < plain.opt_counts.dynamic_branches,
        "melding must eliminate dynamic branches on sort: {} vs {}",
        melded.opt_counts.dynamic_branches,
        plain.opt_counts.dynamic_branches
    );
}

/// The checker is sensitive on real compiled code, not just hand-written
/// cases: every seeded mutation of the baseline and height-reduced
/// schedules of a branchy workload subset must be rejected.
#[test]
fn compiled_outputs_kill_all_mutants() {
    let cfg = PipelineConfig::default();
    let opts = SchedOptions::default();
    for name in ["strcpy", "cmp", "wc", "grep", "023.eqntott", "126.gcc"] {
        let w = epic_workloads::by_name(name).unwrap();
        let c = compile(&w, &cfg).unwrap();
        for (what, func) in [("baseline", &c.baseline), ("optimized", &c.optimized)] {
            for m in [Machine::wide(), Machine::sequential()] {
                let report = mutation_kill_rate(func, &m, &opts, 8, 0xBEEF);
                assert!(report.base_valid, "{name} {what} on {}: base invalid", m.name());
                assert!(report.applied > 0, "{name} {what} on {}: no mutants", m.name());
                assert!(
                    report.perfect(),
                    "{name} {what} on {}: survivors: {:?}",
                    m.name(),
                    report.survivors
                );
            }
        }
    }
}

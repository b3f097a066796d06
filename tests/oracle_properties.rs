//! Workload-scale differential oracles for the hot-path rewrites.
//!
//! The pre-decoded interpreter and the bitset/BDD liveness solver each keep
//! their pre-optimization implementation alive as a reference oracle
//! (`epic_interp::reference`, `epic_analysis::liveness::reference`). The
//! unit tests in those crates compare the pair on small hand-built
//! functions; these tests compare them at workload scale — every paper
//! workload in source, compiled-baseline, and compiled-optimized form, plus
//! the deterministic fuzz corpus (`FUZZ_SEED`/`FUZZ_CASES` override, same
//! defaults as `fuzz_smoke`). The interpreter pair is compared on every
//! observable, the `run_events` stream included, and at fuel budgets
//! around both ends of each workload run. The `#[ignore]`d corpus tests
//! compare both pairs on the large-tier programs, whose thousands of
//! blocks are where a stale layout position would show.

use epic_bench::{compile, PipelineConfig};
use epic_fuzz::{env_u64, generate};
use epic_interp::{Input, Outcome, Trap};
use epic_ir::Function;

fn assert_same_outcome(func: &Function, input: &Input, what: &str) {
    let (mut fast_events, mut slow_events) = (Vec::new(), Vec::new());
    let fast = epic_interp::run_events(func, input, |e| fast_events.push(e));
    let slow = epic_interp::reference::run_events(func, input, |e| slow_events.push(e));
    assert_same_result(fast, slow, what);
    // The schedule replay oracle consumes this stream.
    assert!(fast_events == slow_events, "{what}: event streams diverged");
}

fn assert_same_result(fast: Result<Outcome, Trap>, slow: Result<Outcome, Trap>, what: &str) {
    match (fast, slow) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.memory, b.memory, "{what}: final memory diverged");
            assert_eq!(a.regs, b.regs, "{what}: final registers diverged");
            assert_eq!(a.profile, b.profile, "{what}: profiles diverged");
            assert_eq!(a.dynamic_ops, b.dynamic_ops, "{what}: dynamic op counts diverged");
            assert_eq!(
                a.dynamic_branches, b.dynamic_branches,
                "{what}: dynamic branch counts diverged"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}: traps diverged"),
        (a, b) => panic!("{what}: one side trapped: fast {a:?} vs reference {b:?}"),
    }
}

/// Fuel is checked once per block entry, with a bounded tail for a block
/// longer than the fuel left; sweep it across both ends of a run: every
/// budget in `0..=64`, and `n - near..=n + 1` where `n` is the run's
/// dynamic op count. Each must give the reference's trap or outcome.
fn assert_same_at_fuel_boundaries(func: &Function, input: &Input, near: u64, what: &str) {
    let n = epic_interp::reference::run(func, input)
        .unwrap_or_else(|t| panic!("{what}: {t}"))
        .dynamic_ops;
    for fuel in (0..=64).chain(n.saturating_sub(near)..=n + 1) {
        let input = input.clone().fuel(fuel);
        let fast = epic_interp::run(func, &input);
        let slow = epic_interp::reference::run(func, &input);
        assert_same_result(fast, slow, &format!("{what} at fuel {fuel} of {n}"));
    }
}

/// Every `all()` workload's source and optimized function on its training
/// input, swept by [`assert_same_at_fuel_boundaries`].
fn sweep_workload_fuel_boundaries(near: u64) {
    let cfg = PipelineConfig::default();
    for w in epic_workloads::all() {
        assert_same_at_fuel_boundaries(&w.func, &w.training, near, &format!("{} source", w.name));
        let c = compile(&w, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_same_at_fuel_boundaries(
            &c.optimized,
            &w.training,
            near,
            &format!("{} optimized", w.name),
        );
    }
}

fn assert_same_liveness(func: &Function, what: &str) {
    let fast = epic_analysis::GlobalLiveness::compute(func);
    let slow = epic_analysis::liveness::reference::compute(func);
    assert_eq!(fast, slow, "{what}: liveness diverged from reference");
}

/// Every workload's inputs (training first, then the rare-path evaluation
/// inputs).
fn workload_inputs(w: &epic_workloads::Workload) -> Vec<&Input> {
    std::iter::once(&w.training).chain(&w.evaluation).collect()
}

#[test]
fn interp_matches_reference_on_all_workload_sources() {
    for w in epic_workloads::all() {
        for (i, input) in workload_inputs(&w).into_iter().enumerate() {
            assert_same_outcome(&w.func, input, &format!("{} source input {i}", w.name));
        }
    }
}

#[test]
fn interp_matches_reference_on_compiled_workloads() {
    let cfg = PipelineConfig::default();
    for w in epic_workloads::all() {
        let c = compile(&w, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for (i, input) in workload_inputs(&w).into_iter().enumerate() {
            assert_same_outcome(&c.baseline, input, &format!("{} baseline input {i}", w.name));
            assert_same_outcome(
                &c.optimized,
                input,
                &format!("{} optimized input {i}", w.name),
            );
        }
    }
}

/// Near the end, only the budgets one short of, equal to and one past
/// each run's length; the full sweep below is too slow for an
/// unoptimized build.
#[test]
fn interp_matches_reference_at_fuel_boundaries() {
    sweep_workload_fuel_boundaries(1);
}

/// The last 64 fetches of every run: 66 full runs per function and
/// interpreter (`just interp-check` runs it in release).
#[test]
#[ignore]
fn interp_matches_reference_at_every_fuel_near_the_end() {
    sweep_workload_fuel_boundaries(64);
}

#[test]
fn liveness_matches_reference_on_all_workloads() {
    let cfg = PipelineConfig::default();
    for w in epic_workloads::all() {
        assert_same_liveness(&w.func, &format!("{} source", w.name));
        let c = compile(&w, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        // The optimized side is the interesting one: FRP conversion and
        // ICBM leave heavily guarded hyperblocks, exercising the
        // predicate-aware summary paths the fast solver special-cases.
        assert_same_liveness(&c.baseline, &format!("{} baseline", w.name));
        assert_same_liveness(&c.optimized, &format!("{} optimized", w.name));
    }
}

#[test]
fn interp_and_liveness_match_reference_on_fuzz_corpus() {
    let seed = env_u64("FUZZ_SEED", 20990);
    let cases = env_u64("FUZZ_CASES", 256);
    for s in seed..seed + cases {
        let case = generate(s);
        assert_same_liveness(&case.func, &format!("fuzz seed {s}"));
        for (i, input) in case.inputs.iter().enumerate() {
            assert_same_outcome(&case.func, input, &format!("fuzz seed {s} input {i}"));
        }
    }
}

/// Every corpus program's source, default-config baseline and optimized
/// function, with its training input.
fn for_each_corpus_function(mut check: impl FnMut(&Function, &Input, &str)) {
    let cfg = PipelineConfig::default();
    for w in epic_workloads::corpus() {
        check(&w.func, &w.training, &format!("{} source", w.name));
        let c = compile(&w, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        check(&c.baseline, &w.training, &format!("{} baseline", w.name));
        check(&c.optimized, &w.training, &format!("{} optimized", w.name));
    }
}

#[test]
#[ignore]
fn liveness_matches_reference_on_the_corpus() {
    for_each_corpus_function(|func, _, what| assert_same_liveness(func, what));
}

#[test]
#[ignore]
fn interp_matches_reference_on_the_corpus() {
    for_each_corpus_function(assert_same_outcome);
}

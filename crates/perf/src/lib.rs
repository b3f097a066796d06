//! # epic-perf
//!
//! The paper's performance-estimation methodology (§7) and the operation
//! count metrics of Table 3.
//!
//! > "Benchmark performance is derived using a compiler estimation
//! > approach. Code is first scheduled for each processor configuration.
//! > Then, performance is computed using static schedule lengths and
//! > profile data. The benchmark execution time is calculated as the sum
//! > across all blocks in the program of each block's schedule length
//! > weighted by its dynamic execution frequency."
//!
//! [`estimate_cycles`] implements exactly that, generalized by the
//! machine's [`Frontend`] cost model: a block's cost is its schedule
//! length or its fetch-limited length, whichever is larger, and every
//! taken control transfer is charged the misprediction penalty. The
//! paper's ideal front end (zero penalty, unlimited fetch) reduces to the
//! quote above exactly. [`OpCounts`] captures the static/dynamic total and
//! branch operation counts whose before/after ratios Table 3 reports, and
//! [`Speedup`]/[`CountRatios`] package the comparisons.
//!
//! All cycle arithmetic is overflow-safe: [`try_weighted_cycles`] reports
//! a structured [`CycleOverflow`] instead of wrapping around, and the
//! plain entry points saturate at `u64::MAX` — the same value the replay
//! oracle's saturating event accumulation converges to, so estimate ==
//! replay holds even at the boundary.

use epic_interp::{run_profile, Input, ProfileRun, Trap};
use epic_ir::{BlockId, Function, Profile};
use epic_machine::{Frontend, Machine};
use epic_sched::{schedule_function, SchedOptions, ScheduledFunction};

/// The estimated cycle count does not fit in `u64`.
///
/// Profile counts and schedule lengths are individually modest, but their
/// weighted sum over a corpus-scale function can exceed 64 bits; wrapping
/// would silently report a tiny cycle count for the largest programs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleOverflow;

impl std::fmt::Display for CycleOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "estimated cycle count overflows u64")
    }
}

impl std::error::Error for CycleOverflow {}

/// Cost in cycles of one entered block under `frontend`: the schedule
/// length, stretched to the fetch-limited length when the front end
/// cannot supply the block's operations fast enough.
///
/// Both the estimator and the replay oracle compute block cost through
/// this one function, from the same static data, so the two sides cannot
/// disagree per block. A layout block without a schedule contributes zero
/// cycles rather than panicking; `epic-schedcheck` reports the gap as a
/// `MissingBlock` violation.
pub fn block_cycles(
    func: &Function,
    sched: &ScheduledFunction,
    block: BlockId,
    frontend: &Frontend,
) -> u64 {
    let Some(s) = sched.try_block(block) else { return 0 };
    let ops = func.try_block(block).map_or(0, |b| b.ops.len());
    (s.length.max(0) as u64).max(frontend.fetch_cycles(ops))
}

/// Estimated execution time of `func` on `machine`: Σ over blocks of
/// block cost × entry frequency, plus the machine front end's
/// misprediction penalty per taken control transfer. Saturates at
/// `u64::MAX` (see [`try_weighted_cycles`]).
///
/// `profile` must have been collected on this same function (block ids must
/// match).
pub fn estimate_cycles(func: &Function, profile: &Profile, machine: &Machine) -> u64 {
    let sched = schedule_function(func, machine, &SchedOptions::default());
    weighted_cycles_with(func, profile, &sched, &machine.frontend())
}

/// Like [`estimate_cycles`] with an externally produced schedule and the
/// paper's ideal front end.
pub fn weighted_cycles(func: &Function, profile: &Profile, sched: &ScheduledFunction) -> u64 {
    weighted_cycles_with(func, profile, sched, &Frontend::ideal())
}

/// Like [`try_weighted_cycles`], but saturating at `u64::MAX` instead of
/// reporting overflow. Every term is non-negative, so the saturated value
/// is exactly `min(true total, u64::MAX)` — the same quantity an
/// event-by-event saturating accumulation (the replay oracle) produces.
pub fn weighted_cycles_with(
    func: &Function,
    profile: &Profile,
    sched: &ScheduledFunction,
    frontend: &Frontend,
) -> u64 {
    try_weighted_cycles(func, profile, sched, frontend).unwrap_or(u64::MAX)
}

/// The front-end-aware weighted cycle estimate, with checked arithmetic.
///
/// # Errors
///
/// Returns [`CycleOverflow`] when the true total exceeds `u64::MAX`
/// (wraparound would otherwise report a tiny count for the largest
/// profiles).
pub fn try_weighted_cycles(
    func: &Function,
    profile: &Profile,
    sched: &ScheduledFunction,
    frontend: &Frontend,
) -> Result<u64, CycleOverflow> {
    let mut total = 0u64;
    for &b in func.layout() {
        let term = profile
            .entry_count(b)
            .checked_mul(block_cycles(func, sched, b, frontend))
            .ok_or(CycleOverflow)?;
        total = total.checked_add(term).ok_or(CycleOverflow)?;
    }
    if frontend.mispredict_penalty > 0 {
        let mut taken = 0u64;
        for &n in profile.branch_taken.values() {
            taken = taken.checked_add(n).ok_or(CycleOverflow)?;
        }
        let penalty = taken
            .checked_mul(frontend.mispredict_penalty as u64)
            .ok_or(CycleOverflow)?;
        total = total.checked_add(penalty).ok_or(CycleOverflow)?;
    }
    Ok(total)
}

/// Static and dynamic operation counts of one compiled function on one
/// training input (the measurements behind Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpCounts {
    /// Static operations in the layout (`S tot`).
    pub static_ops: usize,
    /// Static branch operations (`S br`).
    pub static_branches: usize,
    /// Dynamic (fetched) operations (`D tot`).
    pub dynamic_ops: u64,
    /// Dynamic branch operations (`D br`).
    pub dynamic_branches: u64,
}

/// Profiles `func` on `input`, returning its execution profile and counts.
///
/// # Errors
///
/// Propagates any interpreter [`Trap`].
pub fn profile_and_count(func: &Function, input: &Input) -> Result<(Profile, OpCounts), Trap> {
    let ProfileRun { profile, dynamic_ops, dynamic_branches } = run_profile(func, input)?;
    let counts = OpCounts {
        static_ops: func.static_op_count(),
        static_branches: func.static_branch_count(),
        dynamic_ops,
        dynamic_branches,
    };
    Ok((profile, counts))
}

/// A baseline-vs-optimized cycle comparison on one machine.
#[derive(Clone, Debug, PartialEq)]
pub struct Speedup {
    /// Machine name.
    pub machine: String,
    /// Baseline estimated cycles.
    pub baseline_cycles: u64,
    /// Height-reduced (control CPR) estimated cycles.
    pub optimized_cycles: u64,
}

impl Speedup {
    /// `baseline / optimized` — the quantity Table 2 reports.
    pub fn ratio(&self) -> f64 {
        if self.optimized_cycles == 0 {
            return 1.0;
        }
        self.baseline_cycles as f64 / self.optimized_cycles as f64
    }
}

/// The four operation-count ratios of Table 3
/// (height-reduced / baseline).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CountRatios {
    /// `S tot`: static total operations.
    pub static_total: f64,
    /// `S br`: static branches.
    pub static_branches: f64,
    /// `D tot`: dynamic total operations.
    pub dynamic_total: f64,
    /// `D br`: dynamic branches.
    pub dynamic_branches: f64,
}

impl CountRatios {
    /// Computes the ratios of `optimized` to `baseline`.
    pub fn of(baseline: &OpCounts, optimized: &OpCounts) -> CountRatios {
        let r = |a: f64, b: f64| if b == 0.0 { 1.0 } else { a / b };
        CountRatios {
            static_total: r(optimized.static_ops as f64, baseline.static_ops as f64),
            static_branches: r(
                optimized.static_branches as f64,
                baseline.static_branches as f64,
            ),
            dynamic_total: r(optimized.dynamic_ops as f64, baseline.dynamic_ops as f64),
            dynamic_branches: r(
                optimized.dynamic_branches as f64,
                baseline.dynamic_branches as f64,
            ),
        }
    }
}

/// Geometric mean of a sequence of positive ratios (used for the
/// `Gmean` rows of both tables).
///
/// Degenerate inputs are handled explicitly rather than leaking through the
/// log-sum: non-finite and non-positive values (a zero-cycle estimate
/// produces a `0.0` or `inf` ratio upstream) carry no signal and are
/// skipped. An empty sequence — or one where every value was skipped —
/// yields the neutral ratio `1.0`.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0f64;
    let mut n = 0usize;
    for v in values {
        if !v.is_finite() || v <= 0.0 {
            continue;
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::{FunctionBuilder, Operand};

    fn simple() -> (Function, epic_ir::BlockId) {
        let mut b = FunctionBuilder::new("s");
        let e = b.block("e");
        b.switch_to(e);
        let x = b.movi(1);
        let y = b.add(x.into(), Operand::Imm(2));
        let d = b.movi(0);
        b.store(d, y.into());
        b.ret();
        (b.finish(), e)
    }

    #[test]
    fn cycles_are_weighted_by_frequency() {
        let (f, e) = simple();
        let mut profile = Profile::new();
        for _ in 0..10 {
            profile.record_block_entry(e);
        }
        let one = estimate_cycles(&f, &profile, &Machine::sequential());
        let mut profile2 = Profile::new();
        for _ in 0..20 {
            profile2.record_block_entry(e);
        }
        let two = estimate_cycles(&f, &profile2, &Machine::sequential());
        assert_eq!(two, 2 * one);
        assert!(one > 0);
    }

    #[test]
    fn wider_machines_are_no_slower() {
        let (f, e) = simple();
        let mut profile = Profile::new();
        profile.record_block_entry(e);
        let seq = estimate_cycles(&f, &profile, &Machine::sequential());
        let wide = estimate_cycles(&f, &profile, &Machine::wide());
        assert!(wide <= seq);
    }

    #[test]
    fn profile_and_count_measures_dynamics() {
        let (f, _e) = simple();
        let (profile, counts) = profile_and_count(&f, &Input::new().memory_size(4)).unwrap();
        assert_eq!(counts.static_ops, 5);
        assert_eq!(counts.static_branches, 1); // ret
        assert_eq!(counts.dynamic_ops, 5);
        assert_eq!(counts.dynamic_branches, 1);
        assert_eq!(profile.entry_count(f.entry()), 1);
    }

    #[test]
    fn weighted_cycles_tolerates_missing_blocks() {
        // Regression: a schedule missing a layout block used to panic in
        // `ScheduledFunction::block`; it must now contribute zero cycles.
        let (f, e) = simple();
        let mut profile = Profile::new();
        profile.record_block_entry(e);
        let full = epic_sched::schedule_function(&f, &Machine::wide(), &SchedOptions::default());
        let expected = weighted_cycles(&f, &profile, &full);
        assert!(expected > 0);
        let mut partial = full.clone();
        partial.remove_block(e);
        assert_eq!(weighted_cycles(&f, &profile, &partial), 0);
    }

    #[test]
    fn ideal_frontend_reproduces_the_paper_estimate() {
        let (f, e) = simple();
        let mut profile = Profile::new();
        for _ in 0..10 {
            profile.record_block_entry(e);
        }
        let m = Machine::medium();
        assert!(m.frontend().is_ideal());
        let sched = epic_sched::schedule_function(&f, &m, &SchedOptions::default());
        assert_eq!(
            weighted_cycles_with(&f, &profile, &sched, &Frontend::ideal()),
            weighted_cycles(&f, &profile, &sched)
        );
        assert_eq!(estimate_cycles(&f, &profile, &m), weighted_cycles(&f, &profile, &sched));
    }

    #[test]
    fn mispredict_penalty_charges_taken_transfers() {
        let (f, e) = simple();
        let (profile, _) = profile_and_count(&f, &Input::new().memory_size(4)).unwrap();
        assert_eq!(profile.entry_count(e), 1);
        let m = Machine::medium();
        let base = estimate_cycles(&f, &profile, &m);
        let fe = Frontend { mispredict_penalty: 8, fetch_width: 0 };
        let with = estimate_cycles(&f, &profile, &m.clone().with_frontend(fe));
        // One taken transfer (the ret) → exactly one penalty charged.
        assert_eq!(with, base + 8);
    }

    #[test]
    fn fetch_width_stretches_fetch_limited_blocks() {
        let (f, e) = simple(); // 5 ops in one block
        let mut profile = Profile::new();
        profile.record_block_entry(e);
        let wide = Machine::wide();
        let base = estimate_cycles(&f, &profile, &wide);
        // One op per cycle to fetch: a 5-op block needs ≥ 5 cycles.
        let fe = Frontend { mispredict_penalty: 0, fetch_width: 1 };
        let with = estimate_cycles(&f, &profile, &wide.clone().with_frontend(fe));
        assert!(with >= 5, "fetch-limited length must dominate: {with}");
        assert!(with >= base);
        // A schedule already longer than the fetch time is not stretched.
        let seq = estimate_cycles(&f, &profile, &Machine::sequential());
        let seq_fe = estimate_cycles(
            &f,
            &profile,
            &Machine::sequential().with_frontend(fe),
        );
        assert_eq!(seq, seq_fe, "sequential schedule is never fetch-limited at width 1");
    }

    #[test]
    fn overflow_reports_structured_error_instead_of_wrapping() {
        // Regression: entry_count × schedule length used to be unchecked
        // `u64` arithmetic; near the boundary it wrapped to a tiny count.
        let (f, e) = simple();
        let sched = epic_sched::schedule_function(&f, &Machine::sequential(), &SchedOptions::default());
        let len = sched.try_block(e).unwrap().length.max(0) as u64;
        assert!(len >= 2);
        let mut profile = Profile::new();
        profile.block_entries.insert(e, u64::MAX / 2 + 1); // len * count > u64::MAX
        let fe = Frontend::ideal();
        assert_eq!(try_weighted_cycles(&f, &profile, &sched, &fe), Err(CycleOverflow));
        assert_eq!(weighted_cycles(&f, &profile, &sched), u64::MAX, "saturates, never wraps");
        // Just below the boundary the checked and saturating paths agree.
        let mut profile = Profile::new();
        profile.block_entries.insert(e, u64::MAX / len);
        let want = (u64::MAX / len) * len;
        assert_eq!(try_weighted_cycles(&f, &profile, &sched, &fe), Ok(want));
        assert_eq!(weighted_cycles(&f, &profile, &sched), want);
        assert!(!CycleOverflow.to_string().is_empty());
    }

    #[test]
    fn penalty_overflow_is_caught_too() {
        let (f, e) = simple();
        let sched = epic_sched::schedule_function(&f, &Machine::sequential(), &SchedOptions::default());
        let ret_id = f.block(e).ops.last().unwrap().id;
        let mut profile = Profile::new();
        profile.branch_taken.insert(ret_id, u64::MAX / 2);
        let fe = Frontend { mispredict_penalty: 3, fetch_width: 0 };
        assert_eq!(try_weighted_cycles(&f, &profile, &sched, &fe), Err(CycleOverflow));
        assert_eq!(weighted_cycles_with(&f, &profile, &sched, &fe), u64::MAX);
    }

    #[test]
    fn speedup_ratio() {
        let s = Speedup {
            machine: "medium".into(),
            baseline_cycles: 150,
            optimized_cycles: 100,
        };
        assert!((s.ratio() - 1.5).abs() < 1e-12);
        let degenerate = Speedup { machine: "x".into(), baseline_cycles: 5, optimized_cycles: 0 };
        assert_eq!(degenerate.ratio(), 1.0);
    }

    #[test]
    fn count_ratios() {
        let base = OpCounts {
            static_ops: 100,
            static_branches: 10,
            dynamic_ops: 1000,
            dynamic_branches: 100,
        };
        let opt = OpCounts {
            static_ops: 110,
            static_branches: 11,
            dynamic_ops: 900,
            dynamic_branches: 40,
        };
        let r = CountRatios::of(&base, &opt);
        assert!((r.static_total - 1.1).abs() < 1e-12);
        assert!((r.static_branches - 1.1).abs() < 1e-12);
        assert!((r.dynamic_total - 0.9).abs() < 1e-12);
        assert!((r.dynamic_branches - 0.4).abs() < 1e-12);
    }

    #[test]
    fn geomean_properties() {
        assert_eq!(geomean([]), 1.0);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_skips_degenerate_values() {
        // Zero-cycle ratios (0.0, inf) and NaN carry no signal: skipped.
        assert!((geomean([2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([2.0, f64::INFINITY, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([2.0, f64::NAN, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([4.0, -1.0]) - 4.0).abs() < 1e-12);
        // All values degenerate → neutral, never NaN.
        assert_eq!(geomean([0.0, f64::NAN]), 1.0);
    }
}

#[cfg(test)]
mod integration_style_tests {
    use super::*;
    use epic_ir::{CmpCond, FunctionBuilder, Operand};

    /// Cycles must include compensation blocks weighted by how often the
    /// off-trace path actually ran.
    #[test]
    fn compensation_block_time_is_charged() {
        // Block A (hot) conditionally branches to block C (cold-ish).
        let mut b = FunctionBuilder::new("w");
        let a_blk = b.block("a");
        let c_blk = b.block("c");
        b.switch_to(a_blk);
        let x = b.movi(1);
        let (t, _) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(1));
        b.branch_if(t, c_blk);
        b.ret();
        b.switch_to(c_blk);
        let d = b.movi(0);
        b.store(d, Operand::Imm(1));
        b.ret();
        let f = b.finish();
        let (profile, _) = profile_and_count(&f, &Input::new().memory_size(4)).unwrap();
        // Both blocks entered once.
        assert_eq!(profile.entry_count(a_blk), 1);
        assert_eq!(profile.entry_count(c_blk), 1);
        let total = estimate_cycles(&f, &profile, &Machine::sequential());
        // Sequential: every op costs one cycle somewhere; both blocks count.
        assert!(total as usize >= f.static_op_count());
    }

    /// A block that is never entered contributes zero cycles regardless of
    /// its size.
    #[test]
    fn unexecuted_blocks_cost_nothing() {
        let mut b = FunctionBuilder::new("w");
        let a_blk = b.block("a");
        let dead = b.block("dead");
        b.switch_to(a_blk);
        b.ret();
        b.switch_to(dead);
        for _ in 0..32 {
            b.movi(1);
        }
        b.ret();
        let f = b.finish();
        let (profile, _) = profile_and_count(&f, &Input::new()).unwrap();
        let cycles = estimate_cycles(&f, &profile, &Machine::sequential());
        assert_eq!(cycles, 1, "only the ret of the entered block counts");
    }
}

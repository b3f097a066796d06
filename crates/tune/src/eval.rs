//! Candidate evaluation: objectives, dominance, and elite verification.
//!
//! Every objective is a deterministic function of the configuration —
//! estimated cycles from the paper's schedule-length × frequency model,
//! code growth from the static op counts, and a compile-cost proxy from
//! the dynamic operation counts of the profiling runs (profiling dominates
//! pipeline wall-clock, and unlike wall-clock the interpreted-op count is
//! identical across machines, runs and thread counts). Wall-clock shows up
//! only in the JSON snapshot, never in an objective.

use epic_bench::knobs::TunedConfig;
use epic_bench::{check_equivalence, check_pair_schedules, compile_cached, CompileCache, Compiled};
use epic_machine::Machine;
use epic_workloads::Workload;

use crate::genome::Genome;

/// The three minimized objectives of one candidate configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Objectives {
    /// Estimated execution cycles of the height-reduced code on the
    /// evaluation machine (§7 methodology).
    pub cycles: u64,
    /// Static code growth of the optimized over the baseline code, in
    /// thousandths (1000 = no growth).
    pub growth_milli: u64,
    /// Compile-cost proxy: dynamic operations interpreted by the profiling
    /// runs of both sides.
    pub cost: u64,
}

impl Objectives {
    /// Strict Pareto dominance (minimizing all three objectives).
    pub fn dominates(&self, other: &Objectives) -> bool {
        self.cycles <= other.cycles
            && self.growth_milli <= other.growth_milli
            && self.cost <= other.cost
            && (self.cycles < other.cycles
                || self.growth_milli < other.growth_milli
                || self.cost < other.cost)
    }

    /// Lexicographic tie-break key used wherever a total order is needed.
    pub fn sort_key(&self) -> (u64, u64, u64) {
        (self.cycles, self.growth_milli, self.cost)
    }
}

/// One evaluated candidate.
#[derive(Clone, Debug)]
pub struct Eval {
    /// The candidate's (canonical) genome.
    pub genome: Genome,
    /// Its delta from the paper defaults, rendered as flat JSON.
    pub delta_json: String,
    /// Number of knobs the delta assigns (0 = the paper default).
    pub delta_knobs: usize,
    /// Dedupe key: [`TunedConfig::full_hash`].
    pub config_hash: u64,
    /// Measured objectives.
    pub obj: Objectives,
}

/// Scores one compiled pair on `machine`. The cycles come from the
/// optimized side's memo, so re-scoring a cached compile on a machine it
/// was already scored on schedules nothing.
pub fn score(c: &Compiled, machine: &Machine) -> Objectives {
    let base = c.base_counts.static_ops as u64;
    Objectives {
        cycles: c.opt_cycles(std::slice::from_ref(machine))[0],
        growth_milli: (c.opt_counts.static_ops as u64 * 1000 + base / 2) / base.max(1),
        cost: c.base_counts.dynamic_ops + c.opt_counts.dynamic_ops,
    }
}

/// Compiles `w` under `cfg` (through the shared cache) and scores it.
///
/// # Errors
///
/// Propagates the pipeline's [`epic_bench::CompileError`] (interpreter
/// traps during profiling), rendered; the tuner counts these as failed
/// candidates rather than aborting the search.
pub fn evaluate(
    w: &Workload,
    cfg: &TunedConfig,
    cache: &CompileCache,
) -> Result<Objectives, String> {
    let c = compile_cached(w, &cfg.pipeline, cache).map_err(|e| e.to_string())?;
    Ok(score(&c, &cfg.machine))
}

/// Re-verifies one elite configuration end to end: differential testing of
/// both compiled functions over every input, plus independent schedule
/// validation on the evaluation machines. A tuned configuration is only
/// reported if this passes.
///
/// # Errors
///
/// A description of the first divergence or schedule violation.
pub fn verify_elite(
    w: &Workload,
    cfg: &TunedConfig,
    cache: &CompileCache,
    machines: &[Machine],
) -> Result<(), String> {
    let c = compile_cached(w, &cfg.pipeline, cache).map_err(|e| e.to_string())?;
    check_equivalence(w, &c).map_err(|e| format!("diff test: {e}"))?;
    check_pair_schedules(w.name, &c, machines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(cycles: u64, growth_milli: u64, cost: u64) -> Objectives {
        Objectives { cycles, growth_milli, cost }
    }

    #[test]
    fn dominance_is_strict_and_partial() {
        assert!(obj(10, 10, 10).dominates(&obj(11, 10, 10)));
        assert!(obj(10, 10, 10).dominates(&obj(11, 12, 13)));
        assert!(!obj(10, 10, 10).dominates(&obj(10, 10, 10)), "equal never dominates");
        assert!(!obj(9, 11, 10).dominates(&obj(10, 10, 10)), "trade-off is incomparable");
        assert!(!obj(10, 10, 10).dominates(&obj(9, 11, 10)));
    }

    #[test]
    fn default_config_scores_and_verifies() {
        let w = epic_workloads::by_name("strcpy").unwrap();
        let cfg = epic_bench::knobs::ConfigDelta::new()
            .apply(epic_bench::knobs::KnobSpace::global());
        let cache = CompileCache::new();
        let o = evaluate(&w, &cfg, &cache).unwrap();
        assert!(o.cycles > 0);
        assert!(o.growth_milli >= 1000, "ICBM never shrinks static code");
        assert!(o.cost > 0);
        verify_elite(&w, &cfg, &cache, &[Machine::medium(), Machine::wide()]).unwrap();
        // The second compile of the same config is pure cache hits.
        let stats_before = cache.stats();
        evaluate(&w, &cfg, &cache).unwrap();
        assert_eq!(cache.stats().misses, stats_before.misses);
    }
}

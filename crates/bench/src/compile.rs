//! The two-sided compilation pipeline.
//!
//! Reproduces the paper's experimental setup (§7): "The baseline code is
//! optimized superblock code ... The height-reduced code is the baseline
//! code to which FRP conversion and the ICBM schema are applied."
//!
//! [`compile`] runs that flow through [`Pipeline::run`]; [`compile_cached`]
//! is the same flow with a [`CompileCache`] attached, so repeated or
//! config-overlapping compilations reuse stage artifacts instead of
//! recomputing them.

use std::sync::Arc;

use epic_interp::{diff_test, DiffError};
use epic_ir::{Function, Profile};
use epic_machine::Machine;
use epic_perf::OpCounts;
use epic_workloads::Workload;

use control_cpr::{CprConfig, IcbmStats};
use epic_regions::{IfConvertConfig, MeldConfig, TraceConfig};

use crate::cache::{CompileCache, CycleMemo};
use crate::error::CompileError;
use crate::pipeline::Pipeline;
use crate::timing::PassTimings;

/// Configuration of the whole pipeline.
#[derive(Clone, Debug, Default)]
pub struct PipelineConfig {
    /// Superblock-formation parameters.
    pub trace: TraceConfig,
    /// ICBM parameters.
    pub cpr: CprConfig,
    /// Optional traditional if-conversion before region formation. The
    /// paper's evaluation runs *without* it ("no traditional if-conversion
    /// has been applied") and names it as the enhancement for unbiased
    /// branches; enable it to measure that claim.
    pub if_convert: Option<IfConvertConfig>,
    /// Optional instruction melding of full diamonds before region
    /// formation — the branch-elimination alternative to control CPR
    /// measured by the melding ablation. Off by default (the paper's
    /// setup has no melding pass).
    pub meld: Option<MeldConfig>,
}

/// The compiled pair for one workload, with measured profiles and counts.
///
/// The functions and profiles are `Arc`s of the stage artifacts' own
/// values ([`crate::StageArtifact`]), on cached and uncached compiles
/// alike, so a compile served from a [`CompileCache`] copies none of them.
/// They are shared, never edited in place: a caller that wants to change
/// one clones it out first (`Function::clone(&c.baseline)`).
///
/// Each side's weighted cycles per machine come from its [`CycleMemo`]
/// ([`Compiled::base_cycles`], [`Compiled::opt_cycles`]). A compile served
/// from a [`CompileCache`] shares the memo of the cached artifact, so once
/// any request has scheduled a side on a machine, later requests read the
/// number instead of scheduling again; an uncached compile starts with
/// empty memos. The memos belong to the shared functions and profiles,
/// which is why an edited copy must not be paired with them.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// Superblock-formed, unrolled baseline.
    pub baseline: Arc<Function>,
    /// Baseline + FRP conversion + ICBM.
    pub optimized: Arc<Function>,
    /// Training profile of the baseline (drives its schedule weighting).
    pub base_profile: Arc<Profile>,
    /// Training profile of the height-reduced code.
    pub opt_profile: Arc<Profile>,
    /// Baseline operation counts on the training input.
    pub base_counts: OpCounts,
    /// Height-reduced operation counts on the training input.
    pub opt_counts: OpCounts,
    /// ICBM transformation statistics.
    pub stats: IcbmStats,
    /// Per-stage wall-clock and op-count observations from this compile.
    pub timings: PassTimings,
    /// Stage lookups served from the attached cache (0 when uncached).
    pub cache_hits: u64,
    /// Stage lookups that had to compute (0 when uncached).
    pub cache_misses: u64,
    /// The baseline's weighted cycles per machine.
    pub base_memo: Arc<CycleMemo>,
    /// The height-reduced side's weighted cycles per machine.
    pub opt_memo: Arc<CycleMemo>,
}

impl Compiled {
    /// The baseline's profile-weighted cycles on each of `machines`, in
    /// order, scheduling only the machines its memo has no entry for.
    pub fn base_cycles(&self, machines: &[Machine]) -> Vec<u64> {
        self.base_memo.cycles(&self.baseline, &self.base_profile, machines)
    }

    /// The height-reduced side's profile-weighted cycles on each of
    /// `machines`, in order, scheduling only the machines its memo has no
    /// entry for.
    pub fn opt_cycles(&self, machines: &[Machine]) -> Vec<u64> {
        self.opt_memo.cycles(&self.optimized, &self.opt_profile, machines)
    }
}

/// Compiles `w` through both pipelines.
///
/// # Errors
///
/// Any [`CompileError`] from the stages — in practice interpreter traps
/// from the profiling runs (a trap indicates a broken workload or a
/// miscompilation and is always a bug).
pub fn compile(w: &Workload, cfg: &PipelineConfig) -> Result<Compiled, CompileError> {
    Pipeline::new(w, cfg).run()
}

/// [`compile`] with stage memoization: every stage is first looked up in
/// `cache` under its content-addressed key, so recompiling the same
/// workload — or a config sharing upstream stages — reuses the stored
/// artifacts. `Compiled::cache_hits`/`cache_misses` report what happened.
///
/// # Errors
///
/// Same as [`compile`]; errors are never cached.
pub fn compile_cached(
    w: &Workload,
    cfg: &PipelineConfig,
    cache: &CompileCache,
) -> Result<Compiled, CompileError> {
    Pipeline::new(w, cfg).with_cache(cache).run()
}

/// Differentially tests both compiled functions against the original
/// program on the training input and every evaluation input.
///
/// # Errors
///
/// Returns the first divergence; the pipeline is only correct if this never
/// fails for any workload.
pub fn check_equivalence(w: &Workload, c: &Compiled) -> Result<(), DiffError> {
    for input in std::iter::once(&w.training).chain(&w.evaluation) {
        diff_test(&w.func, &c.baseline, input)?;
        diff_test(&w.func, &c.optimized, input)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strcpy_pipeline_compiles_and_matches() {
        let w = epic_workloads::by_name("strcpy").unwrap();
        let c = compile(&w, &PipelineConfig::default()).unwrap();
        epic_ir::verify(&c.baseline).unwrap();
        epic_ir::verify(&c.optimized).unwrap();
        check_equivalence(&w, &c).unwrap();
        assert!(c.stats.cpr_blocks >= 1, "{:?}", c.stats);
        // ICBM reduces the dynamic branch count on the biased input.
        assert!(c.opt_counts.dynamic_branches < c.base_counts.dynamic_branches);
    }

    #[test]
    fn every_workload_compiles_and_matches() {
        for w in epic_workloads::all() {
            let c = compile(&w, &PipelineConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            epic_ir::verify(&c.baseline).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            epic_ir::verify(&c.optimized).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            check_equivalence(&w, &c).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn branchy_utilities_transform() {
        for name in ["strcpy", "cmp", "wc", "grep", "lex"] {
            let w = epic_workloads::by_name(name).unwrap();
            let c = compile(&w, &PipelineConfig::default()).unwrap();
            assert!(c.stats.cpr_blocks >= 1, "{name}: {:?}", c.stats);
        }
    }

    #[test]
    fn cached_compile_is_equivalent_and_hits_on_repeat() {
        let w = epic_workloads::by_name("strcpy").unwrap();
        let cfg = PipelineConfig::default();
        let cache = CompileCache::new();
        let c1 = compile_cached(&w, &cfg, &cache).unwrap();
        assert_eq!(c1.cache_hits, 0);
        assert!(c1.cache_misses > 0);
        let c2 = compile_cached(&w, &cfg, &cache).unwrap();
        assert_eq!(c2.cache_misses, 0, "second compile must be fully cached");
        assert_eq!(c1.baseline.to_string(), c2.baseline.to_string());
        assert_eq!(c1.optimized.to_string(), c2.optimized.to_string());
        let uncached = compile(&w, &cfg).unwrap();
        assert_eq!(uncached.optimized.to_string(), c2.optimized.to_string());
    }
}

//! The staged compilation pipeline.
//!
//! [`Pipeline`] exposes the compile flow as typed stages —
//! `Pipeline::new(&w, &cfg).if_convert()?.meld()?.superblock()?.unroll()?.frp()?.icbm()?`
//! — where each stage's output type is exactly the compile cache's unit of
//! memoization. Attach a [`CompileCache`] with [`Pipeline::with_cache`] and
//! every stage first consults the cache under
//! `(input fingerprint, stage, stage-config hash)`; without a cache the
//! stages compute directly and the result is bit-identical to the
//! pre-refactor monolithic `compile`.
//!
//! Stage keys hash only the configuration each stage consumes
//! ([`trace_config_hash`] for superblock formation, [`cpr_config_hash`]
//! for ICBM, …), so pipeline configs that differ only downstream share all
//! upstream artifacts — the ablation driver compiles each workload's
//! baseline once across its ten configurations.
//!
//! [`Pipeline::with_deadline`] makes a compile cooperative: each cached
//! stage checks the deadline on entry and fails with
//! [`CompileError::Deadline`] once it has passed. A running stage is never
//! interrupted, so a deadline fires at the next stage boundary, and since
//! errors are never cached an expired compile leaves no trace in the cache.
//!
//! The FRP stage is deliberately *not* memoized: `frp_convert` preserves
//! operation ids so the baseline's profile stays valid for the ICBM
//! heuristics, and serving its output from a cache (whose artifacts may
//! carry renumbered ids after a disk round trip) would silently break that
//! id agreement. It is also the cheapest stage — no profiling run.

use std::sync::Arc;
use std::time::Instant;

use control_cpr::{apply_icbm, CprConfig};
use epic_interp::Input;
use epic_ir::{combine_hashes, Fnv64, Function, Profile};
use epic_perf::{profile_and_count, OpCounts};
use epic_regions::{
    form_superblocks, frp_convert, if_convert, meld, unroll_hot_loops, IfConvertConfig,
    MeldConfig, TraceConfig,
};
use epic_workloads::Workload;

use crate::cache::{CacheKey, CompileCache, StageArtifact};
use crate::compile::{Compiled, PipelineConfig};
use crate::error::CompileError;
use crate::timing::{stage, PassTimings};

/// Stable hash of the superblock-formation parameters.
pub fn trace_config_hash(t: &TraceConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(t.min_prob.to_bits());
    h.write_usize(t.max_ops);
    h.write_u64(t.min_count);
    h.finish()
}

/// Stable hash of the if-conversion parameters.
pub fn if_convert_config_hash(c: &IfConvertConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(c.min_taken.to_bits());
    h.write_u64(c.max_taken.to_bits());
    h.write_usize(c.max_ops);
    h.finish()
}

/// Stable hash of the instruction-melding parameters.
pub fn meld_config_hash(c: &MeldConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(c.min_taken.to_bits());
    h.write_u64(c.max_taken.to_bits());
    h.write_usize(c.max_ops);
    h.finish()
}

/// Stable hash of the ICBM parameters.
pub fn cpr_config_hash(c: &CprConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_u8(c.enable as u8);
    h.write_u64(c.exit_weight_threshold.to_bits());
    h.write_u64(c.predict_taken_threshold.to_bits());
    h.write_u64(c.min_entry_count);
    h.write_usize(c.max_branches);
    h.write_u8(c.speculate as u8);
    h.write_u8(c.enable_taken_variation as u8);
    h.finish()
}

fn unroll_config_hash(unroll: u32, min_count: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(unroll as u64);
    h.write_u64(min_count);
    h.finish()
}

impl PipelineConfig {
    /// Stable hash of the complete configuration (all stages). Stage keys
    /// use the per-stage hashes instead so unrelated config changes don't
    /// invalidate shared artifacts; this whole-config hash identifies a
    /// full pipeline run (e.g. for server request coalescing).
    pub fn config_hash(&self) -> u64 {
        combine_hashes(&[
            trace_config_hash(&self.trace),
            cpr_config_hash(&self.cpr),
            match &self.if_convert {
                None => 0,
                Some(ic) => 1 ^ if_convert_config_hash(ic),
            },
            match &self.meld {
                None => 0,
                Some(m) => 1 ^ meld_config_hash(m),
            },
        ])
    }
}

/// Everything the stages thread along: the immutable compile request plus
/// the accumulating timings and cache counters.
struct Ctx<'a> {
    func: &'a Function,
    training: &'a Input,
    unroll: u32,
    cfg: &'a PipelineConfig,
    cache: Option<&'a CompileCache>,
    timings: PassTimings,
    hits: u64,
    misses: u64,
    input_hash: u64,
    deadline: Option<Instant>,
}

/// Consults the cache (when both a cache and a key are present), running
/// `compute` on miss. On a hit, one timing entry named `stage_name` records
/// the lookup; on a miss `compute` records its own (finer-grained) entries.
/// Fails without touching the cache once the compile's deadline has passed.
fn run_stage(
    ctx: &mut Ctx<'_>,
    key: Option<CacheKey>,
    use_disk: bool,
    stage_name: &'static str,
    ops_before: usize,
    compute: impl FnOnce(&mut PassTimings) -> Result<StageArtifact, CompileError>,
) -> Result<Arc<StageArtifact>, CompileError> {
    if ctx.deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(CompileError::Deadline { stage: stage_name });
    }
    let (Some(cache), Some(key)) = (ctx.cache, key) else {
        return compute(&mut ctx.timings).map(Arc::new);
    };
    let t0 = Instant::now();
    let timings = &mut ctx.timings;
    let outcome = cache.get_or_compute(key, use_disk, || compute(timings))?;
    if outcome.hit {
        ctx.hits += 1;
        ctx.timings.push(
            stage_name,
            t0.elapsed(),
            ops_before,
            outcome.artifact.function().static_op_count(),
        );
    } else {
        ctx.misses += 1;
    }
    Ok(outcome.artifact)
}

/// Entry point of the staged pipeline for one compile request.
pub struct Pipeline<'a> {
    ctx: Ctx<'a>,
}

/// Stage output: the (optionally) if-converted source, pre-region-formation.
pub struct IfConverted<'a> {
    ctx: Ctx<'a>,
    source: Function,
    source_fp: u64,
}

/// Stage output: the (optionally) melded source, pre-region-formation.
pub struct Melded<'a> {
    ctx: Ctx<'a>,
    source: Function,
    source_fp: u64,
}

/// Stage output: superblock-formed code, pre-unrolling.
pub struct Superblocked<'a> {
    ctx: Ctx<'a>,
    sb: Function,
    sb_fp: u64,
}

/// Stage output: the finished baseline with its training profile.
pub struct BaselineReady<'a> {
    ctx: Ctx<'a>,
    base: Function,
    base_profile: Profile,
    base_counts: OpCounts,
    base_fp: u64,
}

/// Stage output: the FRP-converted copy, ready for ICBM.
pub struct FrpConverted<'a> {
    ctx: Ctx<'a>,
    base: Function,
    base_profile: Profile,
    base_counts: OpCounts,
    base_fp: u64,
    opt: Function,
}

impl<'a> Pipeline<'a> {
    /// A pipeline over a suite workload.
    pub fn new(w: &'a Workload, cfg: &'a PipelineConfig) -> Pipeline<'a> {
        Pipeline::for_function(w.name, &w.func, &w.training, w.unroll, cfg)
    }

    /// A pipeline over an arbitrary function (e.g. inline IR submitted to
    /// the batch-compile server). `training` drives every profiling stage;
    /// `unroll` is the hot-loop unroll factor.
    pub fn for_function(
        name: &'a str,
        func: &'a Function,
        training: &'a Input,
        unroll: u32,
        cfg: &'a PipelineConfig,
    ) -> Pipeline<'a> {
        Pipeline {
            ctx: Ctx {
                func,
                training,
                unroll,
                cfg,
                cache: None,
                timings: PassTimings::new(name),
                hits: 0,
                misses: 0,
                input_hash: training.content_hash(),
                deadline: None,
            },
        }
    }

    /// Serves stage artifacts from `cache`, computing only on miss.
    pub fn with_cache(mut self, cache: &'a CompileCache) -> Pipeline<'a> {
        self.ctx.cache = Some(cache);
        self
    }

    /// Fails the compile with [`CompileError::Deadline`] at the first
    /// stage boundary reached at or after `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Pipeline<'a> {
        self.ctx.deadline = Some(deadline);
        self
    }

    /// Runs the optional if-conversion pre-pass (a no-op unless
    /// `cfg.if_convert` is set, matching the paper's evaluation which runs
    /// without traditional if-conversion).
    ///
    /// # Errors
    ///
    /// Propagates profiling traps.
    pub fn if_convert(self) -> Result<IfConverted<'a>, CompileError> {
        let mut ctx = self.ctx;
        let Some(ic) = &ctx.cfg.if_convert else {
            let source = ctx.func.clone();
            let source_fp = combine_hashes(&[source.fingerprint(), ctx.input_hash]);
            return Ok(IfConverted { ctx, source, source_fp });
        };
        let func = ctx.func;
        let training = ctx.training;
        let ops_before = func.static_op_count();
        let key = CacheKey {
            input_fp: combine_hashes(&[func.fingerprint(), ctx.input_hash]),
            stage: stage::IF_CONVERT,
            config: if_convert_config_hash(ic),
        };
        let artifact = run_stage(&mut ctx, Some(key), true, stage::IF_CONVERT, ops_before, |tm| {
            let mut source = func.clone();
            let n = source.static_op_count();
            let t0 = Instant::now();
            let (p, _) = profile_and_count(&source, training)
                .map_err(|t| CompileError::trap_at(stage::PROFILE_IF_CONVERT, t))?;
            tm.push(stage::PROFILE_IF_CONVERT, t0.elapsed(), n, n);
            let t0 = Instant::now();
            if_convert(&mut source, &p, ic);
            tm.push(stage::IF_CONVERT, t0.elapsed(), n, source.static_op_count());
            Ok(StageArtifact::Func(source))
        })?;
        let source = artifact.function().clone();
        let source_fp = combine_hashes(&[source.fingerprint(), ctx.input_hash]);
        Ok(IfConverted { ctx, source, source_fp })
    }
}

impl<'a> IfConverted<'a> {
    /// Runs the optional instruction-melding pass (a no-op unless
    /// `cfg.meld` is set; the paper's pipeline has no melding stage).
    /// Melding eliminates the branch of short full diamonds by predicating
    /// both sides into straight-line code, complementing control CPR which
    /// keeps branches but moves them off the critical path.
    ///
    /// # Errors
    ///
    /// Propagates profiling traps.
    pub fn meld(self) -> Result<Melded<'a>, CompileError> {
        let IfConverted { mut ctx, source, source_fp } = self;
        let Some(mc) = &ctx.cfg.meld else {
            return Ok(Melded { ctx, source, source_fp });
        };
        let training = ctx.training;
        let ops_before = source.static_op_count();
        let key = CacheKey {
            input_fp: source_fp,
            stage: stage::MELD,
            config: meld_config_hash(mc),
        };
        let artifact = run_stage(&mut ctx, Some(key), true, stage::MELD, ops_before, |tm| {
            let mut melded = source.clone();
            let n = melded.static_op_count();
            let t0 = Instant::now();
            let (p, _) = profile_and_count(&melded, training)
                .map_err(|t| CompileError::trap_at(stage::PROFILE_MELD, t))?;
            tm.push(stage::PROFILE_MELD, t0.elapsed(), n, n);
            let t0 = Instant::now();
            meld(&mut melded, &p, mc);
            tm.push(stage::MELD, t0.elapsed(), n, melded.static_op_count());
            Ok(StageArtifact::Func(melded))
        })?;
        let source = artifact.function().clone();
        let source_fp = combine_hashes(&[source.fingerprint(), ctx.input_hash]);
        Ok(Melded { ctx, source, source_fp })
    }
}

impl<'a> Melded<'a> {
    /// Profiles the source and forms superblocks over its hot traces.
    ///
    /// # Errors
    ///
    /// Propagates profiling traps.
    pub fn superblock(self) -> Result<Superblocked<'a>, CompileError> {
        let Melded { mut ctx, source, source_fp } = self;
        let training = ctx.training;
        let trace = &ctx.cfg.trace;
        let ops_before = source.static_op_count();
        let key = CacheKey {
            input_fp: source_fp,
            stage: stage::SUPERBLOCK,
            config: trace_config_hash(trace),
        };
        let artifact =
            run_stage(&mut ctx, Some(key), true, stage::SUPERBLOCK, ops_before, |tm| {
                let n = source.static_op_count();
                let t0 = Instant::now();
                let (p0, _) = profile_and_count(&source, training)
                    .map_err(|t| CompileError::trap_at(stage::PROFILE_TRACE, t))?;
                tm.push(stage::PROFILE_TRACE, t0.elapsed(), n, n);
                let t0 = Instant::now();
                let sb = form_superblocks(&source, &p0, trace);
                tm.push(stage::SUPERBLOCK, t0.elapsed(), n, sb.static_op_count());
                Ok(StageArtifact::Func(sb))
            })?;
        let sb = artifact.function().clone();
        let sb_fp = combine_hashes(&[sb.fingerprint(), ctx.input_hash]);
        Ok(Superblocked { ctx, sb, sb_fp })
    }
}

impl<'a> Superblocked<'a> {
    /// Unrolls hot loops, cleans with DCE and measures the finished
    /// baseline on the training input.
    ///
    /// # Errors
    ///
    /// Propagates profiling traps.
    pub fn unroll(self) -> Result<BaselineReady<'a>, CompileError> {
        let Superblocked { mut ctx, sb, sb_fp } = self;
        let training = ctx.training;
        let unroll = ctx.unroll;
        let min_count = ctx.cfg.trace.min_count;
        let ops_before = sb.static_op_count();
        let key = CacheKey {
            input_fp: sb_fp,
            stage: stage::UNROLL,
            config: unroll_config_hash(unroll, min_count),
        };
        let artifact = run_stage(&mut ctx, Some(key), true, stage::UNROLL, ops_before, |tm| {
            let mut base = sb.clone();
            let n = base.static_op_count();
            let t0 = Instant::now();
            let (p1, _) = profile_and_count(&base, training)
                .map_err(|t| CompileError::trap_at(stage::PROFILE_UNROLL, t))?;
            tm.push(stage::PROFILE_UNROLL, t0.elapsed(), n, n);
            let t0 = Instant::now();
            unroll_hot_loops(&mut base, &p1, unroll, min_count);
            // Clean the baseline too (fair comparison: the optimized side
            // gets a DCE pass as part of ICBM).
            control_cpr::dce(&mut base);
            tm.push(stage::UNROLL, t0.elapsed(), n, base.static_op_count());
            let n = base.static_op_count();
            let t0 = Instant::now();
            let (profile, counts) = profile_and_count(&base, training)
                .map_err(|t| CompileError::trap_at(stage::PROFILE_BASELINE, t))?;
            tm.push(stage::PROFILE_BASELINE, t0.elapsed(), n, n);
            Ok(StageArtifact::Baseline { func: base, profile, counts })
        })?;
        let StageArtifact::Baseline { func, profile, counts } = artifact.as_ref() else {
            unreachable!("unroll stage artifacts are always Baseline");
        };
        let base = func.clone();
        let base_fp = combine_hashes(&[base.fingerprint(), ctx.input_hash]);
        Ok(BaselineReady {
            ctx,
            base,
            base_profile: profile.clone(),
            base_counts: *counts,
            base_fp,
        })
    }
}

impl<'a> BaselineReady<'a> {
    /// Converts a copy of the baseline to fully-resolved-predicate form.
    /// Always computed (never cached) — see the module docs.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` keeps the stage signatures
    /// uniform.
    pub fn frp(self) -> Result<FrpConverted<'a>, CompileError> {
        let BaselineReady { mut ctx, base, base_profile, base_counts, base_fp } = self;
        let n = base.static_op_count();
        let mut opt = base.clone();
        let t0 = Instant::now();
        frp_convert(&mut opt);
        ctx.timings.push(stage::FRP_CONVERT, t0.elapsed(), n, opt.static_op_count());
        Ok(FrpConverted { ctx, base, base_profile, base_counts, base_fp, opt })
    }
}

impl FrpConverted<'_> {
    /// Applies the ICBM control-CPR transformation, measures the
    /// height-reduced code and assembles the final [`Compiled`] pair.
    ///
    /// # Errors
    ///
    /// Propagates profiling traps.
    pub fn icbm(self) -> Result<Compiled, CompileError> {
        let FrpConverted { mut ctx, base, base_profile, base_counts, base_fp, opt } = self;
        let training = ctx.training;
        let cpr = &ctx.cfg.cpr;
        let ops_before = opt.static_op_count();
        // Keyed on the *baseline*, not the FRP copy: `frp_convert` is a
        // deterministic function of the baseline, but its fresh predicate
        // and op ids depend on the in-process id space, so hashing the
        // copy itself would make keys differ across processes (and defeat
        // the disk layer). The Optimized artifact is self-contained —
        // function, stats, profile, counts — so serving it against a
        // differently-numbered FRP copy is sound.
        let key = CacheKey {
            input_fp: base_fp,
            stage: stage::ICBM,
            config: cpr_config_hash(cpr),
        };
        let base_profile_ref = &base_profile;
        let artifact = run_stage(&mut ctx, Some(key), true, stage::ICBM, ops_before, |tm| {
            let mut opt = opt.clone();
            // FRP conversion preserves block and branch ids, so the
            // baseline profile remains valid for the ICBM heuristics.
            let n = opt.static_op_count();
            let t0 = Instant::now();
            let stats = apply_icbm(&mut opt, base_profile_ref, cpr);
            tm.push(stage::ICBM, t0.elapsed(), n, opt.static_op_count());
            let n = opt.static_op_count();
            let t0 = Instant::now();
            let (profile, counts) = profile_and_count(&opt, training)
                .map_err(|t| CompileError::trap_at(stage::PROFILE_OPTIMIZED, t))?;
            tm.push(stage::PROFILE_OPTIMIZED, t0.elapsed(), n, n);
            Ok(StageArtifact::Optimized { func: opt, stats, profile, counts })
        })?;
        let StageArtifact::Optimized { func, stats, profile, counts } = artifact.as_ref()
        else {
            unreachable!("icbm stage artifacts are always Optimized");
        };
        Ok(Compiled {
            baseline: base,
            optimized: func.clone(),
            base_profile,
            opt_profile: profile.clone(),
            base_counts,
            opt_counts: *counts,
            stats: *stats,
            timings: ctx.timings,
            cache_hits: ctx.hits,
            cache_misses: ctx.misses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_pipeline_matches_monolithic_compile() {
        let w = epic_workloads::by_name("strcpy").unwrap();
        let cfg = PipelineConfig::default();
        let staged = Pipeline::new(&w, &cfg)
            .if_convert()
            .unwrap()
            .meld()
            .unwrap()
            .superblock()
            .unwrap()
            .unroll()
            .unwrap()
            .frp()
            .unwrap()
            .icbm()
            .unwrap();
        let mono = crate::compile::compile(&w, &cfg).unwrap();
        assert_eq!(staged.baseline.to_string(), mono.baseline.to_string());
        assert_eq!(staged.optimized.to_string(), mono.optimized.to_string());
        assert_eq!(staged.stats, mono.stats);
        assert_eq!(staged.opt_counts, mono.opt_counts);
        // Without a cache attached there are no cache interactions.
        assert_eq!((staged.cache_hits, staged.cache_misses), (0, 0));
    }

    #[test]
    fn expired_deadline_fails_before_the_first_stage_and_caches_nothing() {
        let w = epic_workloads::by_name("strcpy").unwrap();
        let cfg = PipelineConfig::default();
        let cache = CompileCache::new();
        let e = Pipeline::new(&w, &cfg)
            .with_cache(&cache)
            .with_deadline(Instant::now())
            .if_convert()
            .and_then(|s| s.meld())
            .and_then(|s| s.superblock())
            .err()
            .expect("an expired deadline must fail the first cached stage");
        assert_eq!(e, CompileError::Deadline { stage: stage::SUPERBLOCK });
        assert_eq!(e.kind(), "deadline");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0), "{stats:?}");
        // The same key compiles normally once no deadline applies.
        let c = crate::compile::compile_cached(&w, &cfg, &cache).unwrap();
        assert_eq!((c.cache_hits, c.cache_misses), (0, 3));
    }

    #[test]
    fn uncached_timings_have_the_historical_shape() {
        let w = epic_workloads::by_name("strcpy").unwrap();
        let cfg = PipelineConfig::default();
        let c = crate::compile::compile(&w, &cfg).unwrap();
        let stages: Vec<&str> = c.timings.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            stages,
            vec![
                stage::PROFILE_TRACE,
                stage::SUPERBLOCK,
                stage::PROFILE_UNROLL,
                stage::UNROLL,
                stage::PROFILE_BASELINE,
                stage::FRP_CONVERT,
                stage::ICBM,
                stage::PROFILE_OPTIMIZED,
            ]
        );
    }

    #[test]
    fn per_stage_config_hashes_see_their_own_fields_only() {
        let mut t = TraceConfig::default();
        let base = trace_config_hash(&t);
        t.min_prob = 0.8;
        assert_ne!(trace_config_hash(&t), base);

        let mut c = CprConfig::default();
        let base = cpr_config_hash(&c);
        c.speculate = false;
        assert_ne!(cpr_config_hash(&c), base);

        // A CPR-only change leaves the trace hash (and therefore every
        // upstream cache key) untouched.
        let mut cfg = PipelineConfig::default();
        let trace_before = trace_config_hash(&cfg.trace);
        let whole_before = cfg.config_hash();
        cfg.cpr.enable_taken_variation = false;
        assert_eq!(trace_config_hash(&cfg.trace), trace_before);
        assert_ne!(cfg.config_hash(), whole_before);
    }

    #[test]
    fn config_hash_distinguishes_if_convert_presence() {
        let off = PipelineConfig::default();
        let on = PipelineConfig {
            if_convert: Some(IfConvertConfig::default()),
            ..PipelineConfig::default()
        };
        assert_ne!(off.config_hash(), on.config_hash());
    }

    #[test]
    fn config_hash_distinguishes_meld_presence_and_params() {
        let off = PipelineConfig::default();
        let on = PipelineConfig { meld: Some(MeldConfig::default()), ..PipelineConfig::default() };
        assert_ne!(off.config_hash(), on.config_hash());

        let mut mc = MeldConfig::default();
        let base = meld_config_hash(&mc);
        mc.max_ops = 7;
        assert_ne!(meld_config_hash(&mc), base);

        // A meld-only change leaves the trace hash (and every downstream
        // stage key derived from it) untouched.
        assert_eq!(trace_config_hash(&off.trace), trace_config_hash(&on.trace));
    }

    #[test]
    fn cpr_config_hash_sees_the_enable_bit() {
        let on = CprConfig::default();
        let off = CprConfig { enable: false, ..CprConfig::default() };
        assert_ne!(cpr_config_hash(&on), cpr_config_hash(&off));
    }
}

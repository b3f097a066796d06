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
//! Stage keys hash only the configuration each stage consumes:
//! [`PipelineConfig::stage_hash`] absorbs exactly the knobs whose row in the
//! knob table ([`crate::knobs::KNOBS`]) lists that stage, so pipeline
//! configs that differ only downstream share all upstream artifacts — the
//! ablation driver compiles each workload's baseline once across its ten
//! configurations. Adding a knob = one row in the table + the struct field
//! it sets; the stages its row names key it, with no hash to update here.
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

use control_cpr::apply_icbm;
use epic_interp::Input;
use epic_ir::{combine_hashes, Function, Profile};
use epic_machine::Machine;
use epic_perf::{profile_and_count, OpCounts};
use epic_regions::{form_superblocks, frp_convert, if_convert, meld, unroll_hot_loops};
use epic_workloads::Workload;

use crate::cache::{CacheKey, CompileCache, StageArtifact};
use crate::compile::{Compiled, PipelineConfig};
use crate::error::CompileError;
use crate::knobs::Settings;
use crate::timing::{stage, PassTimings};

impl PipelineConfig {
    /// The config part of `stage`'s cache key: `prefix` (the unroll stage
    /// passes the workload's unroll factor), then every knob whose table
    /// row lists `stage`, in table order.
    pub fn stage_hash(&self, stage: &str, prefix: &[u64]) -> u64 {
        Settings::new(self, &Machine::medium()).stage_hash(stage, prefix)
    }

    /// Stable hash of the complete configuration (all stages). Stage keys
    /// use [`PipelineConfig::stage_hash`] instead so unrelated config
    /// changes don't invalidate shared artifacts; this whole-config hash
    /// identifies a full pipeline run.
    pub fn config_hash(&self) -> u64 {
        let s = Settings::new(self, &Machine::medium());
        let optional = |on: bool, stage| if on { 1 ^ s.stage_hash(stage, &[]) } else { 0 };
        combine_hashes(&[
            s.stage_hash(stage::SUPERBLOCK, &[]),
            s.stage_hash(stage::ICBM, &[]),
            optional(self.if_convert.is_some(), stage::IF_CONVERT),
            optional(self.meld.is_some(), stage::MELD),
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
            config: ctx.cfg.stage_hash(stage::IF_CONVERT, &[]),
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
            config: ctx.cfg.stage_hash(stage::MELD, &[]),
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
            config: ctx.cfg.stage_hash(stage::SUPERBLOCK, &[]),
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
            config: ctx.cfg.stage_hash(stage::UNROLL, &[unroll as u64]),
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
            config: ctx.cfg.stage_hash(stage::ICBM, &[]),
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
    use crate::knobs::{ConfigDelta, KnobSpace, KnobValue};
    use epic_ir::Fnv64;
    use epic_regions::{IfConvertConfig, MeldConfig};

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

    /// The stage keys of `p` under unroll factor 2, `None` for an optional
    /// stage that is off, plus `config_hash`.
    fn keys(p: &PipelineConfig) -> (Vec<(&'static str, Option<u64>)>, u64) {
        let on = |on: bool, stage| (stage, on.then(|| p.stage_hash(stage, &[])));
        let keys = vec![
            on(p.if_convert.is_some(), stage::IF_CONVERT),
            on(p.meld.is_some(), stage::MELD),
            on(true, stage::SUPERBLOCK),
            (stage::UNROLL, Some(p.stage_hash(stage::UNROLL, &[2]))),
            on(true, stage::ICBM),
        ];
        (keys, p.config_hash())
    }

    /// The delta that turns both optional passes on.
    fn passes_on(s: &KnobSpace) -> ConfigDelta {
        let mut d = ConfigDelta::new();
        for spec in s.specs().iter().filter(|k| k.switches.is_some()) {
            d.set(s, spec.name, KnobValue::Bool(true)).unwrap();
        }
        d
    }

    #[test]
    fn stage_keys_reproduce_the_hand_written_hashes() {
        // Digest of every stage key and `config_hash` as the hand-written
        // per-stage hash functions computed them before the knob table
        // existed: the default config and every single-knob grid delta, with
        // the optional passes off and on. Matching it keeps existing
        // `EPIC_CACHE_DIR` disk caches and the tuner's dedupe keys valid.
        let s = KnobSpace::global();
        let mut h = Fnv64::new();
        let mut n = 0;
        for base in [ConfigDelta::new(), passes_on(s)] {
            let mut deltas = vec![base.clone()];
            for spec in s.specs() {
                for &c in spec.choices {
                    let mut d = base.clone();
                    d.set(s, spec.name, c).unwrap();
                    deltas.push(d);
                }
            }
            for d in deltas {
                let p = d.apply(s).pipeline;
                h.write_u64(p.config_hash());
                h.write_u64(p.stage_hash(stage::SUPERBLOCK, &[]));
                h.write_u64(p.stage_hash(stage::ICBM, &[]));
                for unroll in [1, 2, 8] {
                    h.write_u64(p.stage_hash(stage::UNROLL, &[unroll]));
                }
                h.write_u64(p.if_convert.map_or(0, |_| p.stage_hash(stage::IF_CONVERT, &[])));
                h.write_u64(p.meld.map_or(0, |_| p.stage_hash(stage::MELD, &[])));
                n += 1;
            }
        }
        assert_eq!(n, 184);
        assert_eq!(PipelineConfig::default().config_hash(), 0x72a1_be7f_d87d_d29e);
        assert_eq!(h.finish(), 0xe800_92af_b6d7_e067);
    }

    #[test]
    fn every_knob_changes_exactly_the_stage_keys_its_row_lists() {
        let s = KnobSpace::global();
        for base in [ConfigDelta::new(), passes_on(s)] {
            let b = base.apply(s);
            let (base_keys, base_hash) = keys(&b.pipeline);
            let stage_on = |stage| base_keys.iter().any(|&(st, k)| st == stage && k.is_some());
            for spec in s.specs() {
                let was = base.iter(s).find(|&(n, _)| n == spec.name).map_or(spec.default, |e| e.1);
                for &v in spec.choices.iter().filter(|&&v| v != was) {
                    let mut d = base.clone();
                    d.set(s, spec.name, v).unwrap();
                    let t = d.apply(s);
                    let (new_keys, new_hash) = keys(&t.pipeline);
                    let changed: Vec<&str> = base_keys
                        .iter()
                        .zip(&new_keys)
                        .filter(|(a, b)| a.1 != b.1)
                        .map(|(a, _)| a.0)
                        .collect();
                    let gated = spec.stages.iter().any(|&st| {
                        s.specs().iter().any(|k| k.switches == Some(st)) && !stage_on(st)
                    });
                    let expected: Vec<&str> = match spec.switches {
                        Some(st) => vec![st],
                        None if gated || spec.is_machine() => vec![],
                        None => {
                            let listed = new_keys.iter().map(|k| k.0);
                            listed.filter(|st| spec.stages.contains(st)).collect()
                        }
                    };
                    let at = format!("{} = {v} over {}", spec.name, base.to_json(s));
                    assert_eq!(changed, expected, "{at}");
                    assert_eq!(new_hash != base_hash, !expected.is_empty(), "{at}: config_hash");
                    assert_eq!(t.full_hash() != b.full_hash(), !gated, "{at}: full_hash");
                }
            }
        }
    }

    #[test]
    fn per_stage_config_hashes_see_their_own_fields_only() {
        // A CPR-only change leaves the superblock and unroll keys (and
        // therefore every upstream artifact) untouched.
        let mut cfg = PipelineConfig::default();
        let (before, whole_before) = keys(&cfg);
        cfg.cpr.enable_taken_variation = false;
        let (after, whole_after) = keys(&cfg);
        assert_eq!(after[..4], before[..4]);
        assert_ne!(after[4], before[4]);
        assert_ne!(whole_after, whole_before);
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
        let seven = PipelineConfig {
            meld: Some(MeldConfig { max_ops: 7, ..MeldConfig::default() }),
            ..PipelineConfig::default()
        };
        assert_ne!(seven.stage_hash(stage::MELD, &[]), on.stage_hash(stage::MELD, &[]));
        // A meld-only change leaves the superblock key (and every
        // downstream stage key derived from it) untouched.
        assert_eq!(off.stage_hash(stage::SUPERBLOCK, &[]), on.stage_hash(stage::SUPERBLOCK, &[]));
    }

    #[test]
    fn icbm_stage_hash_sees_the_enable_bit() {
        let on = PipelineConfig::default();
        let mut off = PipelineConfig::default();
        off.cpr.enable = false;
        assert_ne!(on.stage_hash(stage::ICBM, &[]), off.stage_hash(stage::ICBM, &[]));
    }
}

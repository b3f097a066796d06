//! The compilation pipeline, written out once.
//!
//! [`Pipeline::run`] runs the paper's flow (§7) in order: optional
//! if-conversion and melding, superblock formation, unrolling (the
//! baseline), FRP conversion and ICBM (the height-reduced code). Every
//! caller — [`crate::compile()`], the table drivers, the compile server —
//! goes through it. The three "profile, then transform" stages share one
//! helper; unrolling and ICBM also measure their output, so they produce
//! richer artifacts.
//!
//! [`Pipeline::run_observed`] is the same run with an observer that sees
//! the function after every stage and every ICBM phase ([`Step`]). The
//! fuzz harness, `inspect` and the stage-by-stage schedule test check the
//! code that ships through it instead of keeping their own copy of the
//! stage sequence.
//!
//! Attach a [`CompileCache`] with [`Pipeline::with_cache`] and every
//! stage first consults the cache under
//! `(input fingerprint, stage, stage-config hash)`; without a cache the
//! stages compute directly, with bit-identical results, and no function or
//! input is fingerprinted.
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
//! stage checks the deadline on entry, and inside ICBM it is checked again
//! after every phase (see [`control_cpr::apply_icbm_observed`]); once it
//! has passed the compile fails with [`CompileError::Deadline`]. Errors
//! are never cached, so an expired compile leaves no trace in the cache.
//!
//! FRP conversion is not a cached stage of its own: it runs inside the
//! ICBM stage's compute, on a copy of the baseline, so an ICBM hit does no
//! FRP work and records no `frp-convert` timing (the hit's record counts
//! the baseline's ops as its input). Caching its output separately would
//! be unsound: `frp_convert` preserves operation ids so the baseline's
//! profile stays valid for the ICBM heuristics, and a cached copy (whose
//! ids may be renumbered after a disk round trip) would silently break
//! that id agreement.

use std::sync::Arc;
use std::time::Instant;

use control_cpr::{apply_icbm_observed, IcbmPhase};
use epic_analysis::GlobalLiveness;
use epic_interp::Input;
use epic_ir::{combine_hashes, Function, Profile};
use epic_machine::Machine;
use epic_perf::profile_and_count;
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

/// A point at which [`Pipeline::run_observed`] shows the function to its
/// observer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The output of the [`stage`] so named: if-convert, meld,
    /// superblock, unroll (before its DCE) or frp-convert.
    Stage(&'static str),
    /// The finished baseline: the unrolled function after its DCE.
    BaselineDce,
    /// The output of one ICBM phase.
    Icbm(IcbmPhase),
}

impl Step {
    /// The step's name: the stage name, `"dce"`, or the phase name.
    pub fn name(self) -> &'static str {
        match self {
            Step::Stage(name) => name,
            Step::BaselineDce => "dce",
            Step::Icbm(phase) => phase.name(),
        }
    }
}

/// One compile request: the function, its training input and config,
/// plus the timings and cache counters the stages accumulate.
pub struct Pipeline<'a> {
    func: &'a Function,
    training: &'a Input,
    unroll: u32,
    cfg: &'a PipelineConfig,
    /// The attached cache and the training input's content hash, which
    /// every stage key mixes in. Keys are only computed when it is set.
    cache: Option<(&'a CompileCache, u64)>,
    deadline: Option<Instant>,
    timings: PassTimings,
    hits: u64,
    misses: u64,
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
            func,
            training,
            unroll,
            cfg,
            cache: None,
            deadline: None,
            timings: PassTimings::new(name),
            hits: 0,
            misses: 0,
        }
    }

    /// Serves stage artifacts from `cache`, computing only on miss.
    pub fn with_cache(mut self, cache: &'a CompileCache) -> Pipeline<'a> {
        self.cache = Some((cache, self.training.content_hash()));
        self
    }

    /// Fails the compile with [`CompileError::Deadline`] at the first
    /// stage boundary or ICBM phase reached at or after `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Pipeline<'a> {
        self.deadline = Some(deadline);
        self
    }

    /// Compiles the function into the baseline and height-reduced pair.
    ///
    /// # Errors
    ///
    /// A profiling trap, or [`CompileError::Deadline`] once the deadline
    /// has passed.
    pub fn run(self) -> Result<Compiled, CompileError> {
        self.run_observed(|_, _| Ok(()))
    }

    /// [`Pipeline::run`], handing the function to `after` once each step
    /// the compile computes has produced it: if-convert and meld (when
    /// enabled), superblock, unroll, the baseline DCE, frp-convert, then
    /// every [`IcbmPhase`] (see [`control_cpr::apply_icbm_observed`]). A
    /// stage served from the cache computes nothing and is not observed,
    /// so an observer that must see every step runs without a cache.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::run`], plus the first error `after` returns; the
    /// compile stops there.
    pub fn run_observed<E: From<CompileError>>(
        mut self,
        mut after: impl FnMut(Step, &Function) -> Result<(), E>,
    ) -> Result<Compiled, E> {
        let cfg = self.cfg;
        // The optional pre-passes (off in the paper's evaluation, which
        // runs without traditional if-conversion or melding). Without them
        // superblock formation reads the source function itself.
        let mut pre: Option<Arc<StageArtifact>> = None;
        if let Some(ic) = &cfg.if_convert {
            let stages = (stage::IF_CONVERT, stage::PROFILE_IF_CONVERT);
            let src = pre.as_deref().map_or(self.func, StageArtifact::function);
            pre = Some(self.transform(src, stages, &mut after, |f, p| {
                let mut out = f.clone();
                if_convert(&mut out, p, ic);
                out
            })?);
        }
        if let Some(mc) = &cfg.meld {
            let stages = (stage::MELD, stage::PROFILE_MELD);
            let src = pre.as_deref().map_or(self.func, StageArtifact::function);
            pre = Some(self.transform(src, stages, &mut after, |f, p| {
                let mut out = f.clone();
                meld(&mut out, p, mc);
                out
            })?);
        }
        let stages = (stage::SUPERBLOCK, stage::PROFILE_TRACE);
        let src = pre.as_deref().map_or(self.func, StageArtifact::function);
        let sb = self.transform(src, stages, &mut after, |f, p| {
            form_superblocks(f, p, &cfg.trace)
        })?;
        let sb = sb.function();

        // Unroll hot loops, clean with DCE and measure the finished
        // baseline on the training input.
        let (training, unroll) = (self.training, self.unroll);
        let config = cfg.stage_hash(stage::UNROLL, &[unroll as u64]);
        let artifact = self.stage::<E>(stage::UNROLL, config, sb, |tm| {
            let mut base = sb.clone();
            let n = base.static_op_count();
            let t0 = Instant::now();
            let (p1, _) = profile_and_count(&base, training)
                .map_err(|t| CompileError::trap_at(stage::PROFILE_UNROLL, t))?;
            tm.push(stage::PROFILE_UNROLL, t0.elapsed(), n, n);
            let t0 = Instant::now();
            let mut live = GlobalLiveness::compute(&base);
            unroll_hot_loops(&mut base, &p1, unroll, cfg.trace.min_count, &mut live);
            after(Step::Stage(stage::UNROLL), &base)?;
            // Clean the baseline too (fair comparison: the optimized side
            // gets a DCE pass as part of ICBM), reusing unroll's repaired
            // liveness context.
            control_cpr::dce(&mut base, &mut live);
            tm.push(stage::UNROLL, t0.elapsed(), n, base.static_op_count());
            after(Step::BaselineDce, &base)?;
            let n = base.static_op_count();
            let t0 = Instant::now();
            let (profile, counts) = profile_and_count(&base, training)
                .map_err(|t| CompileError::trap_at(stage::PROFILE_BASELINE, t))?;
            tm.push(stage::PROFILE_BASELINE, t0.elapsed(), n, n);
            Ok(StageArtifact::Baseline { func: base, profile, counts, cycles: Arc::default() })
        })?;
        let StageArtifact::Baseline {
            func: base,
            profile: base_profile,
            counts: base_counts,
            cycles: base_memo,
        } = artifact.as_ref()
        else {
            unreachable!("unroll stage artifacts are always Baseline");
        };

        // FRP conversion and ICBM, keyed on the *baseline*, not the FRP
        // copy: `frp_convert` is a deterministic function of the baseline,
        // but its fresh predicate and op ids depend on the in-process id
        // space, so hashing the copy itself would make keys differ across
        // processes (and defeat the disk layer). The Optimized artifact is
        // self-contained — function, stats, profile, counts — so a hit
        // needs no FRP copy at all.
        let deadline = self.deadline;
        let config = cfg.stage_hash(stage::ICBM, &[]);
        let artifact = self.stage::<E>(stage::ICBM, config, base, |tm| {
            let mut opt = base.clone();
            let n = opt.static_op_count();
            let t0 = Instant::now();
            frp_convert(&mut opt);
            tm.push(stage::FRP_CONVERT, t0.elapsed(), n, opt.static_op_count());
            after(Step::Stage(stage::FRP_CONVERT), &opt)?;
            // FRP conversion preserves block and branch ids, so the
            // baseline profile remains valid for the ICBM heuristics.
            let n = opt.static_op_count();
            let t0 = Instant::now();
            let stats = apply_icbm_observed(&mut opt, base_profile, &cfg.cpr, |phase, f| {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(CompileError::Deadline { stage: stage::ICBM }.into());
                }
                after(Step::Icbm(phase), f)
            })?;
            tm.push(stage::ICBM, t0.elapsed(), n, opt.static_op_count());
            let n = opt.static_op_count();
            let t0 = Instant::now();
            let (profile, counts) = profile_and_count(&opt, training)
                .map_err(|t| CompileError::trap_at(stage::PROFILE_OPTIMIZED, t))?;
            tm.push(stage::PROFILE_OPTIMIZED, t0.elapsed(), n, n);
            Ok(StageArtifact::Optimized { func: opt, stats, profile, counts, cycles: Arc::default() })
        })?;
        let StageArtifact::Optimized { func, stats, profile, counts, cycles: opt_memo } =
            artifact.as_ref()
        else {
            unreachable!("icbm stage artifacts are always Optimized");
        };
        Ok(Compiled {
            baseline: base.clone(),
            optimized: func.clone(),
            base_profile: base_profile.clone(),
            opt_profile: profile.clone(),
            base_counts: *base_counts,
            opt_counts: *counts,
            stats: *stats,
            timings: self.timings,
            cache_hits: self.hits,
            cache_misses: self.misses,
            base_memo: Arc::clone(base_memo),
            opt_memo: Arc::clone(opt_memo),
        })
    }

    /// A "profile, then transform" stage (if-convert, meld, superblock):
    /// profiles `src` on the training input, timed as `profile_stage`,
    /// then runs `pass` on it, timed as `name`, and shows the output to
    /// `after`. Returns the stage's [`StageArtifact::Func`].
    fn transform<E: From<CompileError>>(
        &mut self,
        src: &Function,
        (name, profile_stage): (&'static str, &'static str),
        after: &mut impl FnMut(Step, &Function) -> Result<(), E>,
        pass: impl FnOnce(&Function, &Profile) -> Function,
    ) -> Result<Arc<StageArtifact>, E> {
        let training = self.training;
        let config = self.cfg.stage_hash(name, &[]);
        self.stage::<E>(name, config, src, |tm| {
            let n = src.static_op_count();
            let t0 = Instant::now();
            let (p, _) = profile_and_count(src, training)
                .map_err(|t| CompileError::trap_at(profile_stage, t))?;
            tm.push(profile_stage, t0.elapsed(), n, n);
            let t0 = Instant::now();
            let out = pass(src, &p);
            tm.push(name, t0.elapsed(), n, out.static_op_count());
            after(Step::Stage(name), &out)?;
            Ok(StageArtifact::Func(out))
        })
    }

    /// Consults the cache (when one is attached) under the key of stage
    /// `name` with config hash `config` over `input`, running `compute` on
    /// miss. Only a cached compile fingerprints `input`. On a hit, one
    /// timing entry named after the stage records the lookup; on a miss
    /// `compute` records its own (finer-grained) entries. Fails without
    /// touching the cache once the deadline has passed.
    fn stage<E: From<CompileError>>(
        &mut self,
        name: &'static str,
        config: u64,
        input: &Function,
        compute: impl FnOnce(&mut PassTimings) -> Result<StageArtifact, E>,
    ) -> Result<Arc<StageArtifact>, E> {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(CompileError::Deadline { stage: name }.into());
        }
        let Some((cache, input_hash)) = self.cache else {
            return compute(&mut self.timings).map(Arc::new);
        };
        let input_fp = combine_hashes(&[input.fingerprint(), input_hash]);
        let key = CacheKey { input_fp, stage: name, config };
        let t0 = Instant::now();
        let timings = &mut self.timings;
        let outcome = cache.get_or_compute(key, || compute(timings))?;
        if outcome.hit {
            self.hits += 1;
            self.timings.push(
                name,
                t0.elapsed(),
                input.static_op_count(),
                outcome.artifact.function().static_op_count(),
            );
        } else {
            self.misses += 1;
        }
        Ok(outcome.artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::{ConfigDelta, KnobSpace, KnobValue};
    use epic_ir::Fnv64;
    use epic_regions::{IfConvertConfig, MeldConfig};

    #[test]
    fn expired_deadline_fails_before_the_first_stage_and_caches_nothing() {
        let w = epic_workloads::by_name("strcpy").unwrap();
        let cfg = PipelineConfig::default();
        let cache = CompileCache::new();
        let e = Pipeline::new(&w, &cfg)
            .with_cache(&cache)
            .with_deadline(Instant::now())
            .run()
            .expect_err("an expired deadline must fail the first cached stage");
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
        // Without a cache attached there are no cache interactions.
        assert_eq!((c.cache_hits, c.cache_misses), (0, 0));
    }

    #[test]
    fn observed_steps_are_the_functions_the_compile_returns() {
        // The default config, and if-conversion on with a non-default
        // sub-knob: the observer sees the stages in order, the baseline
        // DCE's output is `Compiled::baseline` and the final ICBM DCE's is
        // `Compiled::optimized`.
        let if_converting = PipelineConfig {
            if_convert: Some(IfConvertConfig { max_ops: 8, ..IfConvertConfig::default() }),
            ..PipelineConfig::default()
        };
        for cfg in [PipelineConfig::default(), if_converting] {
            let stages: Vec<&str> = (cfg.if_convert.iter().map(|_| stage::IF_CONVERT))
                .chain([stage::SUPERBLOCK, stage::UNROLL, "dce", stage::FRP_CONVERT])
                .collect();
            for w in epic_workloads::all() {
                let (mut steps, mut baseline, mut optimized) = (Vec::new(), None, None);
                let c = Pipeline::new(&w, &cfg)
                    .run_observed(|step, f| {
                        match step {
                            Step::BaselineDce => baseline = Some(f.to_string()),
                            Step::Icbm(IcbmPhase::DceFinal) => optimized = Some(f.to_string()),
                            _ => {}
                        }
                        steps.push(step);
                        Ok::<(), CompileError>(())
                    })
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
                let names: Vec<&str> = steps.iter().map(|s| s.name()).collect();
                assert_eq!(names[..stages.len()], stages, "{}: {names:?}", w.name);
                assert_eq!(steps.last(), Some(&Step::Icbm(IcbmPhase::DceFinal)), "{}", w.name);
                assert_eq!(baseline, Some(c.baseline.to_string()), "{}", w.name);
                assert_eq!(optimized, Some(c.optimized.to_string()), "{}", w.name);
            }
        }
    }

    #[test]
    fn cache_hits_are_not_observed() {
        let w = epic_workloads::by_name("strcpy").unwrap();
        let cfg = PipelineConfig::default();
        let cache = CompileCache::new();
        crate::compile::compile_cached(&w, &cfg, &cache).unwrap();
        let mut seen = Vec::new();
        let c = Pipeline::new(&w, &cfg)
            .with_cache(&cache)
            .run_observed(|step, _| {
                seen.push(step);
                Ok::<(), CompileError>(())
            })
            .unwrap();
        assert_eq!((c.cache_hits, c.cache_misses), (3, 0));
        assert!(seen.is_empty(), "{seen:?}");
        // A hit does no FRP work: the ICBM hit is the only record after
        // the baseline, and it counts the baseline's ops as its input.
        let stages: Vec<&str> = c.timings.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages, [stage::SUPERBLOCK, stage::UNROLL, stage::ICBM]);
        assert_eq!(c.timings.stages[2].ops_before, c.baseline.static_op_count());
    }

    #[test]
    fn an_observer_error_stops_the_compile() {
        let w = epic_workloads::by_name("strcpy").unwrap();
        let cfg = PipelineConfig::default();
        let e = Pipeline::new(&w, &cfg)
            .run_observed(|step, _| match step {
                Step::Stage(stage::UNROLL) => Err(CompileError::Deadline { stage: stage::UNROLL }),
                _ => Ok(()),
            })
            .expect_err("the observer's error ends the run");
        assert_eq!(e, CompileError::Deadline { stage: stage::UNROLL });
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
    fn default_config_keys_over_the_corpus_are_pinned() {
        // Every input the suite and corpus hash into a cache key: training
        // and evaluation `content_hash`, the source fingerprint, the first
        // stage's input fingerprint, and the three default-config stage
        // hashes. Pinned so a faster hasher provably keeps every key (and
        // every `EPIC_CACHE_DIR` written before it).
        let cfg = PipelineConfig::default();
        let mut h = Fnv64::new();
        for w in epic_workloads::corpus::all_with_corpus() {
            let training = w.training.content_hash();
            let source = w.func.fingerprint();
            h.write_str(w.name);
            h.write_u64(training);
            for input in &w.evaluation {
                h.write_u64(input.content_hash());
            }
            h.write_u64(source);
            h.write_u64(combine_hashes(&[source, training]));
            h.write_u64(cfg.stage_hash(stage::SUPERBLOCK, &[]));
            h.write_u64(cfg.stage_hash(stage::UNROLL, &[w.unroll as u64]));
            h.write_u64(cfg.stage_hash(stage::ICBM, &[]));
        }
        assert_eq!(h.finish(), 0xf7e8_660a_8583_671c);
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

//! Stage artifacts are shared, and each is fingerprinted once.
//!
//! A compile served from a `CompileCache` holds the cached artifacts' own
//! functions and profiles (`Arc::ptr_eq`), and the fingerprint an artifact
//! memoizes for the next stage's key equals a fresh
//! `Function::fingerprint()` of its function. A disk-reloaded artifact
//! keys the stages after it with the fingerprint its writer stored, so a
//! second process over the same `EPIC_CACHE_DIR` misses nothing even when
//! the printer had to rename duplicate block names.

use std::sync::Arc;

use epic_bench::{
    compile_cached, stage, ArtifactKind, CacheKey, CompileCache, Measured, Pipeline,
    PipelineConfig, StageArtifact,
};
use epic_ir::{combine_hashes, Function};
use epic_workloads::Workload;

/// The superblock, baseline and optimized artifacts a compile of `w` under
/// `cfg` left in `cache`, looked up under the keys the pipeline forms from
/// each artifact's memoized fingerprint.
fn chain(w: &Workload, cfg: &PipelineConfig, cache: &CompileCache) -> [Arc<StageArtifact>; 3] {
    let training = w.training.content_hash();
    let probe = |fp: u64, stage: &'static str, config: u64| {
        let key = CacheKey {
            input_fp: combine_hashes(&[fp, training]),
            stage,
            config,
        };
        let missing = || {
            Err(format!(
                "{}: no {stage} artifact under the pipeline's key",
                w.name
            ))
        };
        let outcome = cache
            .get_or_compute(key, missing)
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(outcome.hit);
        outcome.artifact
    };
    let sb = probe(
        w.func.fingerprint(),
        stage::SUPERBLOCK,
        cfg.stage_hash(stage::SUPERBLOCK, &[]),
    );
    let unroll = cfg.stage_hash(stage::UNROLL, &[w.unroll as u64]);
    let base = probe(sb.fingerprint(), stage::UNROLL, unroll);
    let opt = probe(
        base.fingerprint(),
        stage::ICBM,
        cfg.stage_hash(stage::ICBM, &[]),
    );
    [sb, base, opt]
}

fn measured(a: &StageArtifact) -> &Measured {
    match &a.kind {
        ArtifactKind::Baseline(m) | ArtifactKind::Optimized(m, _) => m,
        ArtifactKind::Func => panic!("a bare function has no measurements"),
    }
}

#[test]
fn warm_compiles_share_the_cached_payloads() {
    let cfg = PipelineConfig::default();
    let cache = CompileCache::new();
    for name in ["strcpy", "cmp", "grep"] {
        let w = epic_workloads::by_name(name).unwrap();
        let cold = compile_cached(&w, &cfg, &cache).unwrap();
        let warm = [
            compile_cached(&w, &cfg, &cache).unwrap(),
            compile_cached(&w, &cfg, &cache).unwrap(),
        ];
        let [_, base, opt] = chain(&w, &cfg, &cache);
        for c in std::iter::once(&cold).chain(&warm) {
            assert!(Arc::ptr_eq(&c.baseline, &base.func), "{name}");
            assert!(Arc::ptr_eq(&c.optimized, &opt.func), "{name}");
            assert!(
                Arc::ptr_eq(&c.base_profile, &measured(&base).profile),
                "{name}"
            );
            assert!(
                Arc::ptr_eq(&c.opt_profile, &measured(&opt).profile),
                "{name}"
            );
        }
        assert_eq!((warm[1].cache_hits, warm[1].cache_misses), (3, 0), "{name}");
    }
}

fn check_memoized_fingerprints(workloads: &[Workload]) {
    let cfg = PipelineConfig::default();
    let cache = CompileCache::new();
    for w in workloads {
        compile_cached(w, &cfg, &cache).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for (a, stage) in chain(w, &cfg, &cache)
            .iter()
            .zip(["superblock", "baseline", "optimized"])
        {
            assert_eq!(a.fingerprint(), a.func.fingerprint(), "{} {stage}", w.name);
        }
    }
}

#[test]
fn memoized_fingerprints_equal_fresh_ones_over_the_suite() {
    check_memoized_fingerprints(&epic_workloads::all());
}

#[test]
#[ignore = "the corpus tier is slow in debug builds; `just cache-check` runs it"]
fn memoized_fingerprints_equal_fresh_ones_over_the_corpus() {
    check_memoized_fingerprints(&epic_workloads::corpus::all_with_corpus());
}

#[test]
fn a_disk_round_trip_keys_later_stages_as_the_writer_did() {
    // strcpy with its second block renamed to the first's name: the
    // printer writes the pair as `X` and `X.2`, so every reloaded artifact
    // fingerprints differently from the one that was stored.
    let w = epic_workloads::by_name("strcpy").unwrap();
    let mut func = Function::clone(&w.func);
    let (first, second) = (func.layout()[0], func.layout()[1]);
    func.block_mut(second).name = func.block(first).name.clone();
    let w = Workload { func, ..w };
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("stage_fingerprints_disk");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PipelineConfig::default();
    let compile = |cache: &CompileCache| {
        Pipeline::new(&w, &cfg)
            .with_cache(cache)
            .run()
            .unwrap_or_else(|e| panic!("{e}"))
    };

    let writer = CompileCache::new().with_disk_dir(&dir);
    let c1 = compile(&writer);
    assert_eq!((c1.cache_hits, c1.cache_misses), (0, 3));

    // A fresh process-equivalent over the same directory: every stage is
    // a disk hit, including the two keyed from a reloaded artifact.
    let reader = CompileCache::new().with_disk_dir(&dir);
    let c2 = compile(&reader);
    assert_eq!((c2.cache_hits, c2.cache_misses), (3, 0));
    assert_eq!(reader.stats().disk_hits, 3);
    let [sb, ..] = chain(&w, &cfg, &reader);
    assert_ne!(
        sb.func.fingerprint(),
        sb.fingerprint(),
        "the reloaded text was renamed"
    );
    for input in std::iter::once(&w.training).chain(&w.evaluation) {
        epic_interp::diff_test(&w.func, &c2.optimized, input).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

//! Cache-semantics integration tests: the compile cache must be *safe*
//! (identical results with and without it, on and off disk) and *sharp*
//! (invalidated by exactly the inputs each stage consumes — the function,
//! the training input, and that stage's slice of the configuration).
//!
//! Under the default configuration three stages consult the cache per
//! compile: superblock formation, unroll+baseline, and ICBM. (FRP is
//! recomputed by design — see `epic_bench::cache` — and if-conversion only
//! participates when enabled.)

use epic_bench::{
    check_equivalence, compile_cached, render_table2, render_table3, table2, table3, CompileCache,
    Pipeline, PipelineConfig,
};
use epic_ir::{parse_function, Dest, Op, Opcode, Operand};
use epic_workloads::Workload;

const CACHED_STAGES: u64 = 3;

fn subset() -> Vec<Workload> {
    ["strcpy", "cmp", "wc", "grep"]
        .iter()
        .map(|n| epic_workloads::by_name(n).expect("known workload"))
        .collect()
}

#[test]
fn repeat_batch_recompiles_nothing() {
    let workloads = subset();
    let cfg = PipelineConfig::default();
    let cache = CompileCache::new();
    for w in &workloads {
        let c = compile_cached(w, &cfg, &cache).unwrap();
        assert_eq!(c.cache_hits, 0, "{}: cold compile can't hit", w.name);
        assert_eq!(c.cache_misses, CACHED_STAGES, "{}", w.name);
    }
    for w in &workloads {
        let c = compile_cached(w, &cfg, &cache).unwrap();
        assert_eq!(c.cache_misses, 0, "{}: repeat batch must not recompile", w.name);
        assert_eq!(c.cache_hits, CACHED_STAGES, "{}", w.name);
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, CACHED_STAGES * workloads.len() as u64);
    assert_eq!(stats.hits, CACHED_STAGES * workloads.len() as u64);
    assert_eq!(stats.evictions, 0);
}

#[test]
fn downstream_config_change_keeps_upstream_artifacts() {
    let w = epic_workloads::by_name("wc").unwrap();
    let cache = CompileCache::new();
    compile_cached(&w, &PipelineConfig::default(), &cache).unwrap();

    // A CPR-only change reuses superblock + unroll, recompiles only ICBM.
    let mut cpr_only = PipelineConfig::default();
    cpr_only.cpr.enable_taken_variation = false;
    let c = compile_cached(&w, &cpr_only, &cache).unwrap();
    assert_eq!((c.cache_hits, c.cache_misses), (2, 1), "CPR change must only redo ICBM");

    // A trace change always invalidates superblock formation — but
    // content addressing lets downstream stages *re-converge*: wc's traces
    // are unchanged at min_prob 0.9, so the reformed superblock hashes to
    // the same key and unroll + ICBM hit again.
    let mut trace_change = PipelineConfig::default();
    trace_change.trace.min_prob = 0.9;
    let c = compile_cached(&w, &trace_change, &cache).unwrap();
    assert_eq!(
        (c.cache_hits, c.cache_misses),
        (2, 1),
        "superblock recompiles; identical output re-converges downstream"
    );

    // A trace change that actually reshapes the superblock (a tiny op
    // budget) misses everywhere.
    let mut reshaped = PipelineConfig::default();
    reshaped.trace.max_ops = 5;
    let c = compile_cached(&w, &reshaped, &cache).unwrap();
    assert_eq!(c.cache_hits, 0, "reshaped superblock invalidates every downstream stage");
    assert_eq!(c.cache_misses, CACHED_STAGES);
}

#[test]
fn function_and_input_changes_invalidate_everything() {
    let w = epic_workloads::by_name("strcpy").unwrap();
    let cfg = PipelineConfig::default();
    let cache = CompileCache::new();
    compile_cached(&w, &cfg, &cache).unwrap();

    // A semantically-neutral extra op (mov r, r) changes the fingerprint:
    // every stage must recompile rather than serve the old artifacts.
    let mut func = w.func.clone();
    let entry = func.entry();
    let r = func.block(entry).ops[0].dests[0];
    let Dest::Reg(r) = r else { panic!("entry starts with reg init") };
    let id = func.new_op_id();
    let block = func.block_mut(entry);
    let at = block.ops.len() - 1;
    block.ops.insert(
        at,
        Op { id, opcode: Opcode::Mov, dests: vec![Dest::Reg(r)], srcs: vec![Operand::Reg(r)], guard: None },
    );
    assert_ne!(func.fingerprint(), w.func.fingerprint());
    let c = Pipeline::for_function(w.name, &func, &w.training, w.unroll, &cfg)
        .with_cache(&cache)
        .run()
        .unwrap();
    assert_eq!(c.cache_hits, 0, "IR mutation must miss every stage");
    assert_eq!(c.cache_misses, CACHED_STAGES);

    // A different training input re-profiles (and so recompiles) all
    // stages too: profiles are part of every artifact.
    let other = &w.evaluation[0];
    let c = Pipeline::for_function(w.name, &w.func, other, w.unroll, &cfg)
        .with_cache(&cache)
        .run()
        .unwrap();
    assert_eq!(c.cache_hits, 0, "training-input change must miss every stage");
    assert_eq!(c.cache_misses, CACHED_STAGES);
}

#[test]
fn tables_are_byte_identical_with_cache_on_and_off() {
    let workloads = subset();
    let cfg = PipelineConfig::default();

    let t2_off = render_table2(&table2(&workloads, &cfg, None).0);
    let t3_off = render_table3(&table3(&workloads, &cfg, None).0);

    let cache = CompileCache::new();
    // First cached pass populates; second is served entirely from memory.
    for pass in ["cold", "warm"] {
        let t2_on = render_table2(&table2(&workloads, &cfg, Some(&cache)).0);
        let t3_on = render_table3(&table3(&workloads, &cfg, Some(&cache)).0);
        assert_eq!(t2_off, t2_on, "table2 diverged on the {pass} pass");
        assert_eq!(t3_off, t3_on, "table3 diverged on the {pass} pass");
    }
    assert!(cache.stats().hits > 0, "warm pass must actually use the cache");
}

#[test]
fn disk_layer_round_trips_semantically() {
    // Keep scratch space inside the repo's target dir.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cache_semantics_disk");
    let _ = std::fs::remove_dir_all(&dir);

    let w = epic_workloads::by_name("cmp").unwrap();
    let cfg = PipelineConfig::default();

    let warm = CompileCache::new().with_disk_dir(&dir);
    let c1 = compile_cached(&w, &cfg, &warm).unwrap();
    assert_eq!(c1.cache_misses, CACHED_STAGES);
    assert!(std::fs::read_dir(&dir).unwrap().count() >= CACHED_STAGES as usize);

    // A fresh process-equivalent: empty memory, same disk dir. Everything
    // is served from disk; nothing recompiles.
    let cold = CompileCache::new().with_disk_dir(&dir);
    let c2 = compile_cached(&w, &cfg, &cold).unwrap();
    assert_eq!(c2.cache_misses, 0, "disk layer must serve every stage");
    let stats = cold.stats();
    assert_eq!(stats.disk_hits, CACHED_STAGES);

    // Disk-reloaded artifacts are renumbered by the IR round trip, so ask
    // for semantic equality: same fingerprints (structure), same measured
    // counts and stats, and differential equivalence to the source.
    assert_eq!(c1.baseline.fingerprint(), c2.baseline.fingerprint());
    assert_eq!(c1.optimized.fingerprint(), c2.optimized.fingerprint());
    assert_eq!(c1.base_counts, c2.base_counts);
    assert_eq!(c1.opt_counts, c2.opt_counts);
    assert_eq!(c1.stats, c2.stats);
    check_equivalence(&w, &c2).unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_format_disk_entries_are_rejected_and_replaced() {
    // Regression: on-disk artifacts used to carry no schema version, so a
    // cache directory written by an older build could be deserialized into
    // the wrong shape (or shadow recomputes with stale payloads) forever.
    // Now every entry is stamped with `epic_bench::cache::FORMAT_VERSION`
    // and anything else — including version-less pre-stamp entries — is
    // treated as corrupt: rejected, deleted, and recomputed.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cache_semantics_stale");
    let _ = std::fs::remove_dir_all(&dir);

    let w = epic_workloads::by_name("cmp").unwrap();
    let cfg = PipelineConfig::default();
    let warm = CompileCache::new().with_disk_dir(&dir);
    let c1 = compile_cached(&w, &cfg, &warm).unwrap();

    // Rewrite every entry as the pre-stamp format (no "v" field).
    let stamp = format!("\"v\":{},", epic_bench::cache::FORMAT_VERSION);
    let mut rewritten = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(&stamp), "{path:?} must be stamped");
        std::fs::write(&path, text.replace(&stamp, "")).unwrap();
        rewritten += 1;
    }
    assert!(rewritten >= CACHED_STAGES as usize);

    // A fresh process-equivalent must not serve any of the stale entries.
    let cold = CompileCache::new().with_disk_dir(&dir);
    let c2 = compile_cached(&w, &cfg, &cold).unwrap();
    assert_eq!(cold.stats().disk_hits, 0, "stale-format entries must never hit");
    assert_eq!(c2.cache_misses, CACHED_STAGES, "every stage recomputes");
    assert_eq!(c1.optimized.to_string(), c2.optimized.to_string());

    // The recompute re-stamped the directory with the current version.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(&stamp), "{path:?} must be re-stamped after recompute");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn workload_fingerprints_survive_print_parse() {
    // The fingerprint hashes layout *positions*, not raw ids, so the
    // print→parse renumbering must never change it. This is what makes
    // disk keys stable across processes.
    for w in epic_workloads::all() {
        let reparsed = parse_function(&w.func.to_string())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(
            reparsed.fingerprint(),
            w.func.fingerprint(),
            "{}: fingerprint changed across print→parse",
            w.name
        );
    }
}

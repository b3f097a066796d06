//! The per-artifact cycle memo gives every Table 2 number exactly as a
//! fresh schedule would: for both sides of every workload on the five
//! paper machines, memoized cycles equal `schedule_function` +
//! `weighted_cycles_with`, whether the memo is cold, warm, or shared with a
//! compile served from a primed `CompileCache` (or reloaded from disk,
//! where it starts empty).

use std::sync::Arc;

use epic_bench::{compile, compile_cached, table2_row, CompileCache, Compiled, PipelineConfig};
use epic_ir::{Function, Profile};
use epic_machine::Machine;
use epic_perf::weighted_cycles_with;
use epic_sched::{schedule_function, SchedOptions};
use epic_workloads::Workload;

/// Cycles of `func` under `profile` on each machine, scheduled from scratch.
fn fresh(func: &Function, profile: &Profile, machines: &[Machine]) -> Vec<u64> {
    let opts = SchedOptions::default();
    let cycles = |m: &Machine| {
        let sched = schedule_function(func, m, &opts);
        weighted_cycles_with(func, profile, &sched, &m.frontend())
    };
    machines.iter().map(cycles).collect()
}

/// Asserts that `c`'s Table 2 row equals fresh schedules of both sides.
fn row_is_fresh(w: &Workload, c: &Compiled, machines: &[Machine], when: &str) {
    let base = fresh(&c.baseline, &c.base_profile, machines);
    let opt = fresh(&c.optimized, &c.opt_profile, machines);
    let row = table2_row(w, c, machines);
    for (i, (name, b, o)) in row.cycles.iter().enumerate() {
        assert_eq!(name, machines[i].name());
        let at = format!("{} on {name}, {when} memo", w.name);
        assert_eq!((*b, *o), (base[i], opt[i]), "{at}");
    }
}

fn check(workloads: &[Workload]) {
    let machines = Machine::paper_suite();
    let cfg = PipelineConfig::default();
    let cache = CompileCache::new();
    for w in workloads {
        let n = w.name;
        let c = compile(w, &cfg).unwrap_or_else(|e| panic!("{n}: {e}"));
        let sizes = |c: &Compiled| (c.base_memo.len(), c.opt_memo.len());
        assert_eq!(sizes(&c), (0, 0), "{n}");
        row_is_fresh(w, &c, &machines, "a cold");
        assert_eq!(sizes(&c), (5, 5), "{n}");
        row_is_fresh(w, &c, &machines, "a warm");
        assert_eq!(sizes(&c), (5, 5), "{n}");

        // Prime the cache and its artifacts' memos, then compile again: the
        // hit shares the memos the first row filled.
        let primed = compile_cached(w, &cfg, &cache).unwrap();
        table2_row(w, &primed, &machines);
        let hit = compile_cached(w, &cfg, &cache).unwrap();
        assert_eq!(hit.cache_misses, 0, "{n}");
        assert!(Arc::ptr_eq(&hit.base_memo, &primed.base_memo), "{n}");
        assert!(Arc::ptr_eq(&hit.opt_memo, &primed.opt_memo), "{n}");
        assert_eq!(sizes(&hit), (5, 5), "{n}");
        row_is_fresh(w, &hit, &machines, "a cache-served");
    }
}

#[test]
fn memoized_cycles_equal_fresh_schedules_over_the_suite() {
    check(&epic_workloads::all());
}

#[test]
#[ignore = "the corpus tier is slow in debug builds; `just sched-check` runs it"]
fn memoized_cycles_equal_fresh_schedules_over_the_corpus() {
    check(&epic_workloads::corpus::all_with_corpus());
}

#[test]
fn a_disk_reloaded_compile_starts_with_empty_memos() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cycle_memo_disk");
    let _ = std::fs::remove_dir_all(&dir);
    let w = epic_workloads::by_name("cmp").unwrap();
    let cfg = PipelineConfig::default();
    let machines = Machine::paper_suite();

    let warm = CompileCache::new().with_disk_dir(&dir);
    let c1 = compile_cached(&w, &cfg, &warm).unwrap();
    table2_row(&w, &c1, &machines);
    assert_eq!((c1.base_memo.len(), c1.opt_memo.len()), (5, 5));

    // A fresh process-equivalent reloads the artifacts, not their memos:
    // its row is scheduled from the reloaded functions.
    let cold = CompileCache::new().with_disk_dir(&dir);
    let c2 = compile_cached(&w, &cfg, &cold).unwrap();
    assert_eq!(cold.stats().disk_hits, 3);
    assert!(c2.base_memo.is_empty() && c2.opt_memo.is_empty());
    row_is_fresh(&w, &c2, &machines, "a disk-reloaded");
    let _ = std::fs::remove_dir_all(&dir);
}

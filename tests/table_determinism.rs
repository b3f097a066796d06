//! The parallel table drivers must be bit-for-bit deterministic: same row
//! order and same cycle counts as the serial reference — the same driver
//! inside a 1-thread pool — regardless of thread count or scheduling
//! interleavings.

use epic_bench::{
    meld_matrix, meld_matrix_machines, render_meld_matrix, render_table2, render_table3, table2,
    table3, CompileCache, PipelineConfig,
};
use epic_workloads::Workload;

/// Runs `f` with every parallel iterator inside it on `threads` threads.
fn on_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
    pool.install(f)
}

/// A representative subset (branchy utilities + SPEC entries) keeps the
/// double compilation affordable in debug builds; `tests/golden_tables.rs`
/// checks the full suite's rendered tables at one and four threads.
fn subset() -> Vec<Workload> {
    ["strcpy", "cmp", "wc", "grep", "023.eqntott", "126.gcc"]
        .iter()
        .map(|n| epic_workloads::by_name(n).expect("known workload"))
        .collect()
}

#[test]
fn parallel_table2_matches_serial_reference() {
    let workloads = subset();
    let cfg = PipelineConfig::default();
    let (serial, _) = on_threads(1, || table2(&workloads, &cfg, None));
    let (parallel, _) = on_threads(4, || table2(&workloads, &cfg, None));

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name, "row order must match input order");
        assert_eq!(s.group, p.group);
        assert_eq!(s.cycles, p.cycles, "{}: cycle counts must match", s.name);
    }
    // Byte-identical rendered output, geomean rows included.
    assert_eq!(render_table2(&serial), render_table2(&parallel));
}

#[test]
fn parallel_table3_matches_serial_reference() {
    let workloads = subset();
    let cfg = PipelineConfig::default();
    let (serial, _) = on_threads(1, || table3(&workloads, &cfg, None));
    let (parallel, _) = on_threads(4, || table3(&workloads, &cfg, None));

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name, "row order must match input order");
        assert_eq!(s.ratios, p.ratios, "{}: ratios must match", s.name);
    }
    assert_eq!(render_table3(&serial), render_table3(&parallel));
}

#[test]
fn meld_matrix_is_deterministic_across_threads_and_cache() {
    // The melding × front-end matrix must be byte-identical whether it is
    // computed serially, in parallel, or in parallel through a compile
    // cache (cold and warm).
    let workloads: Vec<Workload> = ["strcpy", "wc", "sort", "diff"]
        .iter()
        .map(|n| epic_workloads::by_name(n).expect("known workload"))
        .collect();
    let machines = meld_matrix_machines();
    assert!(machines.len() >= 2, "matrix covers at least two front ends");

    let serial = on_threads(1, || meld_matrix(&workloads, &machines, None));
    let parallel = on_threads(4, || meld_matrix(&workloads, &machines, None));
    let cache = CompileCache::new();
    let cached_cold = on_threads(4, || meld_matrix(&workloads, &machines, Some(&cache)));
    let cached_warm = on_threads(4, || meld_matrix(&workloads, &machines, Some(&cache)));

    assert_eq!(serial, parallel, "parallel must match the serial reference");
    assert_eq!(serial, cached_cold, "cache on/off must not change the rows");
    assert_eq!(serial, cached_warm, "warm cache must not change the rows");
    assert!(cache.stats().hits > 0, "warm pass must be served from cache");
    let rendered = render_meld_matrix(&serial);
    assert_eq!(rendered, render_meld_matrix(&parallel));
    assert_eq!(rendered, render_meld_matrix(&cached_warm));

    // The matrix must actually differentiate the configurations: melding
    // changes cycles on the diamond workloads (columns `meld`/`both` vs
    // `neither`), and the penalized front end changes the second row.
    for row in &serial {
        assert_eq!(row.cycles[0].0, "neither");
        assert!((row.speedup(0) - 1.0).abs() < 1e-12);
        assert!(row.speedup(2) > 1.0, "{}: melding must pay off", row.machine);
        assert!(row.speedup(3) > 1.0, "{}: composition must pay off", row.machine);
    }
    assert_ne!(
        serial[0].cycles, serial[1].cycles,
        "the modern front end must change the cycle counts"
    );
}

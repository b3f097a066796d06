//! Cross-crate integration tests: the whole compilation pipeline, end to
//! end, on the real benchmark suite, checking both correctness and the
//! paper's headline quantitative claims in the weak ("shape") form the
//! reproduction targets.

use epic_bench::{check_equivalence, compile, table2_row, PipelineConfig};
use epic_machine::Machine;
use epic_perf::{geomean, CountRatios};

/// Every workload compiles through both pipelines, verifies, and is
/// semantically identical to the original program on every input.
#[test]
fn full_suite_correctness() {
    for w in epic_workloads::all() {
        let c = compile(&w, &PipelineConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        epic_ir::verify(&c.baseline).unwrap_or_else(|e| panic!("{} baseline: {e}", w.name));
        epic_ir::verify(&c.optimized).unwrap_or_else(|e| panic!("{} optimized: {e}", w.name));
        check_equivalence(&w, &c).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    }
}

/// Table 2's headline: geometric-mean speedup is positive on the medium
/// machine and grows (or at least does not shrink) toward the infinite
/// machine, where dependence height is fully exposed.
#[test]
fn speedup_shape_matches_paper() {
    let machines = Machine::paper_suite();
    let mut med = Vec::new();
    let mut wide = Vec::new();
    let mut inf = Vec::new();
    for w in epic_workloads::all() {
        let c = compile(&w, &PipelineConfig::default()).unwrap();
        let row = table2_row(&w, &c, &machines);
        med.push(row.speedup(2));
        wide.push(row.speedup(3));
        inf.push(row.speedup(4));
    }
    let g_med = geomean(med.iter().copied());
    let g_wide = geomean(wide.iter().copied());
    let g_inf = geomean(inf.iter().copied());
    assert!(g_med > 1.05, "medium geomean {g_med}");
    assert!(g_wide >= g_med - 0.01, "wide {g_wide} vs medium {g_med}");
    assert!(g_inf >= g_wide - 0.01, "infinite {g_inf} vs wide {g_wide}");
}

/// Table 3's headline: dynamic branches drop dramatically, dynamic total
/// operations do not grow (irredundancy), static code grows only modestly.
#[test]
fn count_ratio_shape_matches_paper() {
    let mut dbr = Vec::new();
    let mut dtot = Vec::new();
    let mut stot = Vec::new();
    for w in epic_workloads::all() {
        let c = compile(&w, &PipelineConfig::default()).unwrap();
        let r = CountRatios::of(&c.base_counts, &c.opt_counts);
        dbr.push(r.dynamic_branches);
        dtot.push(r.dynamic_total);
        stot.push(r.static_total);
    }
    let g_dbr = geomean(dbr.iter().copied());
    let g_dtot = geomean(dtot.iter().copied());
    let g_stot = geomean(stot.iter().copied());
    assert!(g_dbr < 0.8, "dynamic branch geomean {g_dbr}");
    assert!(g_dtot <= 1.02, "dynamic total geomean {g_dtot}");
    assert!(g_stot < 1.6, "static growth geomean {g_stot}");
}

/// The per-benchmark anecdotes the paper calls out: strcpy and cmp are the
/// big winners; go (unbiased branches) barely moves.
#[test]
fn benchmark_anecdotes() {
    let machines = Machine::paper_suite();

    let strcpy = epic_workloads::by_name("strcpy").unwrap();
    let c = compile(&strcpy, &PipelineConfig::default()).unwrap();
    let row = table2_row(&strcpy, &c, &machines);
    assert!(row.speedup(4) > 1.5, "strcpy infinite speedup {}", row.speedup(4));
    let r = CountRatios::of(&c.base_counts, &c.opt_counts);
    assert!(r.dynamic_branches < 0.3, "strcpy D br {}", r.dynamic_branches);

    let go = epic_workloads::by_name("099.go").unwrap();
    let c = compile(&go, &PipelineConfig::default()).unwrap();
    let row = table2_row(&go, &c, &machines);
    for i in 0..5 {
        let s = row.speedup(i);
        assert!((0.9..=1.1).contains(&s), "go speedup {s} on machine {i}");
    }
}

/// Disabling predicate speculation must collapse the benefit on branchy
/// code (the paper: separability "systematically fails" without it) while
/// still being correct.
#[test]
fn speculation_ablation_is_correct_and_weaker() {
    let w = epic_workloads::by_name("strcpy").unwrap();
    let mut cfg = PipelineConfig::default();
    cfg.cpr.speculate = false;
    let c = compile(&w, &cfg).unwrap();
    check_equivalence(&w, &c).unwrap();
    let with = compile(&w, &PipelineConfig::default()).unwrap();
    assert!(
        c.stats.branches_collapsed <= with.stats.branches_collapsed,
        "speculation can only help: {} vs {}",
        c.stats.branches_collapsed,
        with.stats.branches_collapsed
    );
}

/// The redundant full-CPR comparator is also semantics-preserving on the
/// whole suite.
#[test]
fn full_cpr_correctness_across_suite() {
    use control_cpr::{apply_full_cpr, CprConfig};
    use epic_interp::diff_test;
    use epic_perf::profile_and_count;
    use epic_regions::frp_convert;
    for w in epic_workloads::all() {
        let cfg = PipelineConfig::default();
        let c = compile(&w, &cfg).unwrap();
        let mut red = epic_ir::Function::clone(&c.baseline);
        frp_convert(&mut red);
        let (bp, _) = profile_and_count(&c.baseline, &w.training).unwrap();
        apply_full_cpr(&mut red, &bp, &CprConfig::default());
        let mut live = epic_analysis::GlobalLiveness::compute(&red);
        control_cpr::dce(&mut red, &mut live);
        epic_ir::verify(&red).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for input in std::iter::once(&w.training).chain(&w.evaluation) {
            diff_test(&w.func, &red, input).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }
}

/// The scheduler never produces a shorter-than-dependence-height schedule
/// and the sequential machine is never faster than the wide one.
#[test]
fn schedule_sanity_across_suite() {
    use epic_perf::weighted_cycles;
    use epic_sched::{schedule_function, SchedOptions};
    for name in ["strcpy", "wc", "126.gcc", "056.ear"] {
        let w = epic_workloads::by_name(name).unwrap();
        let c = compile(&w, &PipelineConfig::default()).unwrap();
        let seq = schedule_function(&c.optimized, &Machine::sequential(), &SchedOptions::default());
        let wide = schedule_function(&c.optimized, &Machine::wide(), &SchedOptions::default());
        let tseq = weighted_cycles(&c.optimized, &c.opt_profile, &seq);
        let twide = weighted_cycles(&c.optimized, &c.opt_profile, &wide);
        assert!(twide <= tseq, "{name}: wide {twide} vs sequential {tseq}");
    }
}

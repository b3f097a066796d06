//! Deterministic text report and JSON snapshot rendering.
//!
//! The text report is a pure function of the search results: identical
//! seeds produce byte-identical reports at any thread count (`--check`
//! enforces exactly that). Wall-clock and cache counters — which *are*
//! allowed to vary run to run — appear only in the JSON snapshot.

use epic_bench::timing::json_string;

use crate::search::{RunOutcome, SearchParams, WorkloadResult};

/// `growth_milli` as the conventional `1.084x` rendering.
fn growth(milli: u64) -> String {
    format!("{}.{:03}x", milli / 1000, milli % 1000)
}

/// `tuned/default` cycle ratio in thousandths, rendered `0.972`.
fn ratio_milli(tuned: u64, default: u64) -> u64 {
    (tuned * 1000 + default / 2) / default.max(1)
}

fn ratio(tuned: u64, default: u64) -> String {
    let m = ratio_milli(tuned, default);
    format!("{}.{:03}", m / 1000, m % 1000)
}

/// The tuned objectives a workload reports: its tuned pick, or the paper
/// default when nothing qualified.
fn tuned_or_default(r: &WorkloadResult) -> (&'static str, u64, u64) {
    match &r.tuned {
        Some(e) => ("tuned", e.obj.cycles, e.obj.growth_milli),
        None => ("default", r.default_obj.cycles, r.default_obj.growth_milli),
    }
}

/// Renders the per-workload fronts and the tuned-vs-default table.
pub fn render_report(params: &SearchParams, results: &[WorkloadResult]) -> String {
    let mut out = String::new();
    out.push_str("# epic-tune: seeded search over the CPR knob space\n");
    out.push_str(&format!(
        "seed {} | budget {} evals/workload | population {} | eval machine medium\n",
        params.seed, params.budget, params.population
    ));

    for r in results {
        out.push_str(&format!("\n== {} ==\n", r.name));
        out.push_str(&format!(
            "default: {} cyc, growth {} | evals {} (dup {}, failed {}, rejected {})\n",
            r.default_obj.cycles,
            growth(r.default_obj.growth_milli),
            r.evals,
            r.duplicates,
            r.compile_failures,
            r.verify_rejections,
        ));
        out.push_str("front (est cycles, code growth, cost proxy, delta):\n");
        for e in &r.front {
            out.push_str(&format!(
                "  {:>8} cyc  {:>8}  {:>10}  {}\n",
                e.obj.cycles,
                growth(e.obj.growth_milli),
                e.obj.cost,
                e.delta_json
            ));
        }
        let (kind, cycles, g) = tuned_or_default(r);
        out.push_str(&format!(
            "{kind}: {} cyc ({} of default), growth {}\n",
            cycles,
            ratio(cycles, r.default_obj.cycles),
            growth(g),
        ));
    }

    out.push_str("\n== tuned vs paper default ==\n");
    out.push_str(&format!(
        "{:<14} {:>10} {:>10} {:>7} {:>9} {:>9}\n",
        "workload", "default", "tuned", "ratio", "growth-d", "growth-t"
    ));
    let mut improved = 0;
    let mut ratio_milli_sum_log = 0f64;
    for r in results {
        let (_, cycles, g) = tuned_or_default(r);
        if cycles < r.default_obj.cycles {
            improved += 1;
        }
        ratio_milli_sum_log += (ratio_milli(cycles, r.default_obj.cycles).max(1) as f64).ln();
        out.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>7} {:>9} {:>9}\n",
            r.name,
            r.default_obj.cycles,
            cycles,
            ratio(cycles, r.default_obj.cycles),
            growth(r.default_obj.growth_milli),
            growth(g),
        ));
    }
    // Geometric mean of the cycle ratios, computed over the integer milli
    // ratios so the report stays a pure function of integer inputs.
    let geo = (ratio_milli_sum_log / results.len().max(1) as f64).exp();
    out.push_str(&format!(
        "geomean cycle ratio {:.3} over {} workloads ({} improved)\n",
        geo / 1000.0,
        results.len(),
        improved
    ));
    out
}

fn snapshot_result(r: &WorkloadResult) -> String {
    let (kind, cycles, g) = tuned_or_default(r);
    let delta = r.tuned.as_ref().map_or("{}".to_string(), |e| e.delta_json.clone());
    format!(
        "{{\"workload\":{},\"default_cycles\":{},\"default_growth_milli\":{},\
         \"tuned_cycles\":{},\"tuned_growth_milli\":{},\"tuned_kind\":{},\
         \"improved\":{},\"front_size\":{},\"evals\":{},\"duplicates\":{},\
         \"compile_failures\":{},\"verify_rejections\":{},\"delta\":{}}}",
        json_string(r.name),
        r.default_obj.cycles,
        r.default_obj.growth_milli,
        cycles,
        g,
        json_string(kind),
        cycles < r.default_obj.cycles,
        r.front.len(),
        r.evals,
        r.duplicates,
        r.compile_failures,
        r.verify_rejections,
        delta,
    )
}

/// Renders the `BENCH_tune.json` snapshot. `check_threads` is the
/// thread sweep that was verified byte-identical (empty when `--check`
/// didn't run).
pub fn render_snapshot(
    params: &SearchParams,
    outcome: &RunOutcome,
    threads: usize,
    check_threads: &[usize],
) -> String {
    let evals = outcome.total_evals();
    let elapsed_ms = outcome.elapsed.as_millis().max(1);
    let evals_per_sec = (evals as f64 * 1000.0 / elapsed_ms as f64 * 10.0).round() / 10.0;
    let c = &outcome.cache;
    let lookups = c.hits + c.misses;
    let hit_rate = (c.hits as f64 / lookups.max(1) as f64 * 1000.0).round() / 1000.0;
    let results: Vec<String> = outcome.results.iter().map(snapshot_result).collect();
    let check: Vec<String> = check_threads.iter().map(|t| t.to_string()).collect();
    format!(
        "{{\"bench\":\"tune_pr8\",\"seed\":{},\"budget\":{},\"population\":{},\
         \"threads\":{},\"workloads\":{},\"evals\":{},\"elapsed_ms\":{},\
         \"evals_per_sec\":{},\
         \"cache\":{{\"hits\":{},\"misses\":{},\"hit_rate\":{},\"inflight_waits\":{}}},\
         \"check\":{{\"threads\":[{}],\"identical\":{}}},\
         \"results\":[{}]}}",
        params.seed,
        params.budget,
        params.population,
        threads,
        outcome.results.len(),
        evals,
        elapsed_ms,
        evals_per_sec,
        c.hits,
        c.misses,
        hit_rate,
        c.inflight_waits,
        check.join(","),
        !check_threads.is_empty(),
        results.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Objectives;
    use crate::search::run_tune;

    #[test]
    fn formatting_helpers_are_exact() {
        assert_eq!(growth(1000), "1.000x");
        assert_eq!(growth(1084), "1.084x");
        assert_eq!(growth(999), "0.999x");
        assert_eq!(ratio(972, 1000), "0.972");
        assert_eq!(ratio(1, 0), "1.000", "zero default guarded");
    }

    #[test]
    fn report_and_snapshot_render_and_parse() {
        let ws = vec![epic_workloads::by_name("strcpy").unwrap()];
        let p = SearchParams { seed: 5, budget: 4, population: 3 };
        let o = run_tune(&ws, &p);
        let report = render_report(&p, &o.results);
        assert!(report.contains("== strcpy =="), "{report}");
        assert!(report.contains("tuned vs paper default"), "{report}");
        let snap = render_snapshot(&p, &o, 2, &[1, 2, 8]);
        let j = epic_bench::Json::parse(&snap).expect("snapshot is valid JSON");
        assert_eq!(j.get("bench").and_then(|v| v.as_str()), Some("tune_pr8"));
        assert_eq!(j.get("seed").and_then(|v| v.as_u64()), Some(5));
        let cache = j.get("cache").expect("cache object");
        assert!(cache.get("hit_rate").and_then(|v| v.as_f64()).is_some());
        assert_eq!(
            j.get("check").and_then(|c| c.get("identical")).and_then(|v| v.as_bool()),
            Some(true)
        );
        let results = j.get("results").and_then(|v| v.as_arr()).expect("results");
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn table_falls_back_to_default_when_nothing_qualified() {
        let r = WorkloadResult {
            name: "x",
            default_obj: Objectives { cycles: 100, growth_milli: 1100, cost: 10 },
            front: vec![],
            tuned: None,
            evals: 1,
            duplicates: 0,
            compile_failures: 0,
            verify_rejections: 1,
            rejection_details: vec![],
        };
        let report = render_report(&SearchParams::default(), &[r]);
        assert!(report.contains("default: 100 cyc (1.000 of default)"), "{report}");
        assert!(report.contains("(0 improved)"), "{report}");
    }
}

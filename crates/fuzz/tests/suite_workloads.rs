//! The 26 paper workloads through the per-stage differential harness under
//! the default configuration — the check `inspect all` runs. Generated
//! programs exercise the harness in `fuzz_smoke`; this pins the real
//! workloads to the same per-stage verify, diff and schedule checks, every
//! ICBM phase (and rollback) included.

use epic_bench::PipelineConfig;
use epic_fuzz::{check_case, GenCase};

#[test]
fn every_suite_workload_passes_the_per_stage_harness() {
    let cfg = PipelineConfig::default();
    let workloads = epic_workloads::all();
    assert_eq!(workloads.len(), 26);
    let failures: Vec<String> = workloads
        .iter()
        .filter_map(|w| {
            let failure = check_case(&GenCase::from_workload(w, &cfg)).err()?;
            Some(format!("{}: {failure}", w.name))
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

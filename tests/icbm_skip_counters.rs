//! The `icbm.skipped{reason}` counters. Alone in their own test binary:
//! the counters are process-wide, and a concurrent ICBM run would move
//! them.

use control_cpr::Skip;
use epic_bench::{compile, PipelineConfig};

#[test]
fn skip_reasons_sum_to_the_skipped_cpr_blocks_over_the_suite() {
    let before: Vec<u64> = Skip::ALL.iter().map(|s| s.counter().value()).collect();
    let cfg = PipelineConfig::default();
    let skipped: usize = epic_workloads::all()
        .iter()
        .map(|w| compile(w, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name)).stats.skipped)
        .sum();
    let by_reason: Vec<(&str, u64)> = Skip::ALL
        .iter()
        .zip(before)
        .map(|(s, b)| (s.name(), s.counter().value() - b))
        .collect();
    assert!(skipped > 0, "the suite exercises no refusal");
    assert_eq!(by_reason.iter().map(|(_, n)| n).sum::<u64>(), skipped as u64, "{by_reason:?}");
}

//! End-to-end check of the `--trace` export path: compile workloads with
//! the global tracer enabled, export Chrome `trace_event` JSON, and
//! validate it with the bench crate's own `Json` parser — well-formed,
//! and exactly one `pipeline`-category span per recorded stage per
//! workload (the spans are emitted by `PassTimings::push`, so the trace
//! and the `--timings` output must agree).
//!
//! This is its own integration-test binary so it owns the process-wide
//! tracer; no other test's spans can interleave.

use epic_bench::{table3, CompileCache, Json, PipelineConfig};
use epic_obs::Tracer;

#[test]
fn chrome_trace_export_is_wellformed_and_covers_every_stage() {
    let tracer = Tracer::global();
    tracer.drain(); // discard anything recorded before this test
    tracer.enable();

    let workloads: Vec<_> = ["strcpy", "cmp"]
        .iter()
        .map(|n| epic_workloads::by_name(n).expect("suite workload"))
        .collect();
    let cache = CompileCache::new();
    let (_rows, timings) = table3(&workloads, &PipelineConfig::default(), Some(&cache));

    tracer.disable();
    let json = tracer.export_chrome_json();
    let j = Json::parse(&json).expect("trace output must be valid JSON");
    assert_eq!(j.get("displayTimeUnit").and_then(Json::as_str), Some("ms"), "{json}");
    let events = j.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert!(!events.is_empty());

    // Every event is a complete event with the required keys.
    for e in events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("cat").and_then(Json::as_str).is_some());
        assert!(e.get("ts").and_then(Json::as_u64).is_some());
        assert!(e.get("dur").and_then(Json::as_u64).is_some());
        assert!(e.get("tid").and_then(Json::as_u64).is_some());
    }

    // The pipeline spans are exactly the PassTimings records: one span per
    // recorded stage per workload, carrying the workload name in args.
    assert_eq!(timings.len(), workloads.len());
    for t in &timings {
        assert!(!t.stages.is_empty());
        for s in &t.stages {
            let matching = events
                .iter()
                .filter(|e| {
                    e.get("cat").and_then(Json::as_str) == Some("pipeline")
                        && e.get("name").and_then(Json::as_str) == Some(s.stage.as_str())
                        && e.get("args")
                            .and_then(|a| a.get("workload"))
                            .and_then(Json::as_str)
                            == Some(t.workload.as_str())
                })
                .count();
            assert_eq!(matching, 1, "stage {:?} of workload {:?}", s.stage, t.workload);
        }
    }

    // The other instrumented layers show up too: cache probes (one per
    // memoized stage lookup) and the ICBM sub-phases.
    assert!(events.iter().any(|e| e.get("cat").and_then(Json::as_str) == Some("cache")));
    for sub in ["icbm.speculate", "icbm.match", "icbm.dce"] {
        assert!(
            events.iter().any(|e| e.get("name").and_then(Json::as_str) == Some(sub)),
            "missing {sub} sub-span"
        );
    }

    // Export drains: a second export is empty.
    let empty = Tracer::global().export_chrome_json();
    let j = Json::parse(&empty).unwrap();
    assert_eq!(j.get("traceEvents").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
}

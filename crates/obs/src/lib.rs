//! # epic-obs
//!
//! The live observability layer: a process-wide [`MetricsRegistry`] of
//! named counters, gauges and log-scale latency histograms, plus
//! span-based request tracing exportable as Chrome `trace_event` JSON.
//!
//! The crate is deliberately dependency-free so every other crate in the
//! workspace — pipeline, compile cache, ICBM core, batch server — can
//! report into one registry and one tracer:
//!
//! * the bench pipeline feeds every stage timing into
//!   `pipeline_stage_ns{stage="…"}` histograms and emits one trace span
//!   per stage,
//! * the compile cache mirrors its hit/miss/eviction/disk counters into
//!   `compile_cache_*_total` counters,
//! * ICBM opens sub-spans for its speculate/restructure/motion/dce phases,
//! * the batch server tallies `serve_*` counters (sheds, read pauses,
//!   worker panics), keeps the `serve_event_queue_depth` gauge live, and
//!   answers `{"op":"metrics"}` requests with a registry snapshot.
//!
//! Metric updates are relaxed atomics (counters are sharded across cache
//! lines); tracing costs one atomic load per span while disabled. See
//! [`metrics`] and [`trace`] for the two halves.

pub mod metrics;
pub mod trace;

pub use metrics::{
    json_string, metric_name, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue,
    MetricsRegistry, Snapshot,
};
pub use trace::{
    current_trace_id, next_trace_id, Span, TraceEvent, TraceIdGuard, Tracer,
};

//! The process-wide metrics registry: named counters, gauges and
//! log-scale latency histograms.
//!
//! All instruments are cheap enough to update from hot paths: counters
//! stripe their increments over cache-line-padded atomic shards (writers
//! on different threads rarely contend), gauges are a single atomic, and
//! histograms bucket values on a log-linear scale (16 sub-buckets per
//! octave, ≤ ~6% relative error) so recording is two relaxed atomic adds.
//!
//! [`MetricsRegistry::global`] is the process-wide instance every
//! subsystem (pipeline, compile cache, batch server) reports into.
//! [`MetricsRegistry::snapshot`] freezes the current values for rendering
//! as hand-rolled JSON (the same style as `crates/bench/src/json.rs`
//! produces) or Prometheus text exposition.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Shards per counter. Power of two; eight 64-byte lines per counter is
/// enough that the worker-pool sizes we run at rarely collide.
const SHARDS: usize = 8;

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Index of the calling thread's counter shard (a small per-thread id,
/// assigned on first use, reduced mod [`SHARDS`]).
fn shard_index() -> usize {
    static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize =
            NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A monotonically increasing counter, striped over atomic shards.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// A free-standing counter (registry-less; tests and local use).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total over all shards.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// An instantaneous signed value (e.g. compile jobs currently queued).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A free-standing gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value outright.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative) and returns the new value.
    pub fn add(&self, d: i64) -> i64 {
        self.0.fetch_add(d, Ordering::Relaxed) + d
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-buckets per octave. Values below [`LINEAR_MAX`] are exact; above,
/// each power-of-two range splits into this many log-linear sub-buckets,
/// bounding the relative quantile error at `1/SUB_BUCKETS` (6.25%).
const SUB_BUCKETS: u64 = 16;
/// Values in `0..LINEAR_MAX` get their own exact bucket.
const LINEAR_MAX: u64 = 16;
/// Total bucket count: 16 exact + (63 - 3) octaves × 16 sub-buckets.
const BUCKETS: usize = (LINEAR_MAX + (63 - 3) * SUB_BUCKETS) as usize;

fn bucket_of(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64; // >= 4
    let sub = (v >> (exp - 4)) & (SUB_BUCKETS - 1);
    (LINEAR_MAX + (exp - 4) * SUB_BUCKETS + sub) as usize
}

/// The lowest value mapping to `bucket` (its representative on readout;
/// quantiles are reported as bucket lower bounds, biasing low by at most
/// one sub-bucket width).
fn bucket_floor(bucket: usize) -> u64 {
    let b = bucket as u64;
    if b < LINEAR_MAX {
        return b;
    }
    let rel = b - LINEAR_MAX;
    let exp = rel / SUB_BUCKETS + 4;
    let sub = rel % SUB_BUCKETS;
    (1u64 << exp).wrapping_add(sub << (exp - 4))
}

/// A log-scale histogram of non-negative integer samples (latencies are
/// recorded in nanoseconds).
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A free-standing histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket lower bound: the
    /// smallest recorded bucket whose cumulative count reaches `q × count`.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_floor(i);
            }
        }
        bucket_floor(BUCKETS - 1)
    }

    /// Freezes the current distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }
}

/// A frozen histogram summary (nanosecond units for latency histograms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Median (bucket lower bound).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile (the serve-layer tail the load generator gates).
    pub p999: u64,
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One metric's frozen value inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A counter total.
    Counter(u64),
    /// A gauge value.
    Gauge(i64),
    /// A histogram summary.
    Histogram(HistogramSnapshot),
}

/// A consistent-enough point-in-time copy of every registered metric
/// (individual values are read without a global lock; each value is
/// internally consistent).
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` pairs sorted by name.
    pub metrics: Vec<(String, MetricValue)>,
}

/// A registry of named metrics. Handles returned by
/// [`counter`](MetricsRegistry::counter) & friends are `Arc`s — resolve
/// once, update forever without touching the registry lock again.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<HashMap<String, Metric>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry (tests; production code uses
    /// [`MetricsRegistry::global`]).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} is registered with a different type"),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} is registered with a different type"),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} is registered with a different type"),
        }
    }

    /// Freezes every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        let mut metrics: Vec<(String, MetricValue)> = inner
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.value()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.value()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), v)
            })
            .collect();
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot { metrics }
    }
}

/// Renders a metric name carrying label pairs in the Prometheus style:
/// `metric_name("pipeline_stage_ns", &[("stage", "icbm")])` →
/// `pipeline_stage_ns{stage="icbm"}`. The rendered string is the registry
/// key, so one logical metric family fans out into one entry per label
/// combination.
pub fn metric_name(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{base}{{{}}}", body.join(","))
}

/// Escapes `s` as a JSON string literal (quotes included). The one copy
/// in the workspace: this crate is dependency-free, so every other crate
/// (`epic-bench` re-exports it as `timing::json_string`) can use it.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Snapshot {
    /// Renders the snapshot as one JSON object keyed by metric name.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(name));
            out.push(':');
            match v {
                MetricValue::Counter(n) => {
                    out.push_str(&format!("{{\"type\":\"counter\",\"value\":{n}}}"));
                }
                MetricValue::Gauge(n) => {
                    out.push_str(&format!("{{\"type\":\"gauge\",\"value\":{n}}}"));
                }
                MetricValue::Histogram(h) => out.push_str(&format!(
                    "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\
                     \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                    h.count, h.sum, h.p50, h.p90, h.p99, h.p999
                )),
            }
        }
        out.push('}');
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Histograms are exposed as summaries (`{quantile="…"}` series plus
    /// `_sum` and `_count`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_base: Option<String> = None;
        for (name, v) in &self.metrics {
            let (base, labels) = match name.find('{') {
                Some(i) => (&name[..i], &name[i..]),
                None => (name.as_str(), ""),
            };
            let kind = match v {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "summary",
            };
            if last_base.as_deref() != Some(base) {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                last_base = Some(base.to_string());
            }
            match v {
                MetricValue::Counter(n) => out.push_str(&format!("{base}{labels} {n}\n")),
                MetricValue::Gauge(n) => out.push_str(&format!("{base}{labels} {n}\n")),
                MetricValue::Histogram(h) => {
                    for (q, val) in
                        [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99), ("0.999", h.p999)]
                    {
                        let series = if labels.is_empty() {
                            format!("{base}{{quantile=\"{q}\"}}")
                        } else {
                            let inner = &labels[1..labels.len() - 1];
                            format!("{base}{{{inner},quantile=\"{q}\"}}")
                        };
                        out.push_str(&format!("{series} {val}\n"));
                    }
                    out.push_str(&format!("{base}_sum{labels} {}\n", h.sum));
                    out.push_str(&format!("{base}_count{labels} {}\n", h.count));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads_exactly() {
        // N threads × M increments must sum exactly — no lost updates
        // across the shards.
        let c = Arc::new(Counter::new());
        let (n, m) = (8, 10_000);
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..m {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), n * m);
    }

    #[test]
    fn gauge_tracks_adds_and_sets() {
        let g = Gauge::new();
        assert_eq!(g.value(), 0);
        assert_eq!(g.add(5), 5);
        assert_eq!(g.add(-2), 3);
        g.set(-7);
        assert_eq!(g.value(), -7);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        // Every value maps into a bucket whose floor is ≤ the value and
        // whose next bucket's floor is > it; relative error ≤ 1/16.
        for v in (0..4096u64).chain([1 << 20, (1 << 40) + 12345, u64::MAX / 2]) {
            let b = bucket_of(v);
            assert!(bucket_floor(b) <= v, "floor({b}) > {v}");
            if b + 1 < BUCKETS {
                let next = bucket_floor(b + 1);
                assert!(next > v, "bucket {b} too wide for {v}");
                // Log-linear resolution bound.
                if v >= LINEAR_MAX {
                    assert!((next - bucket_floor(b)) as f64 <= v as f64 / 8.0 + 1.0);
                }
            }
        }
    }

    #[test]
    fn histogram_quantiles_on_known_distributions() {
        // Uniform 1..=1000: p50 ≈ 500, p90 ≈ 900, p99 ≈ 990 — within the
        // documented 1/16 relative bucket error (reported as lower bound).
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        for (q, expect) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let got = h.quantile(q) as f64;
            assert!(
                got <= expect && got >= expect * (1.0 - 1.0 / 16.0) - 1.0,
                "q{q}: got {got}, want ~{expect}"
            );
        }
        // A point mass lands in its own bucket: the quantile's bucket
        // floor is exact for exact-bucket values and within 1/16 above.
        let h = Histogram::new();
        for _ in 0..100 {
            h.observe(12); // below LINEAR_MAX → exact bucket
        }
        assert_eq!(h.quantile(0.01), 12);
        assert_eq!(h.quantile(0.5), 12);
        assert_eq!(h.quantile(1.0), 12);
        // Bimodal: half at 10, half at 1_000_000.
        let h = Histogram::new();
        for _ in 0..500 {
            h.observe(10);
            h.observe(1_000_000);
        }
        assert_eq!(h.quantile(0.25), 10);
        let p99 = h.quantile(0.99) as f64;
        assert!((937_500.0..=1_000_000.0).contains(&p99), "{p99}");
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn registry_reuses_handles_and_snapshots_sorted() {
        let r = MetricsRegistry::new();
        let a = r.counter("b_second");
        let b = r.counter("b_second");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(3);
        r.gauge("a_first").set(-1);
        r.histogram("c_third").observe(100);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a_first", "b_second", "c_third"]);
        assert_eq!(snap.metrics[1].1, MetricValue::Counter(3));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn metric_names_render_labels() {
        assert_eq!(metric_name("hits", &[]), "hits");
        assert_eq!(
            metric_name("stage_ns", &[("stage", "icbm"), ("mode", "hot")]),
            "stage_ns{stage=\"icbm\",mode=\"hot\"}"
        );
    }

    #[test]
    fn snapshot_renders_json_and_prometheus() {
        let r = MetricsRegistry::new();
        r.counter("cache_hits_total").add(7);
        r.gauge("detached_workers").set(2);
        let h = r.histogram(&metric_name("stage_ns", &[("stage", "icbm")]));
        h.observe(1000);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"cache_hits_total\":{\"type\":\"counter\",\"value\":7}"));
        assert!(json.contains("\"detached_workers\":{\"type\":\"gauge\",\"value\":2}"));
        assert!(json.contains("\"count\":1"));
        let prom = r.snapshot().to_prometheus();
        assert!(prom.contains("# TYPE cache_hits_total counter"));
        assert!(prom.contains("cache_hits_total 7"));
        assert!(prom.contains("# TYPE stage_ns summary"));
        assert!(prom.contains("stage_ns{stage=\"icbm\",quantile=\"0.5\"}"));
        assert!(prom.contains("stage_ns_count{stage=\"icbm\"} 1"));
    }
}

//! Span-based request tracing with Chrome `trace_event` export.
//!
//! A [`Span`] is an RAII guard opened around a unit of work (a pipeline
//! stage, a cache probe, a serve request). When the global [`Tracer`] is
//! enabled, dropping the span records one *complete* event (`"ph":"X"`)
//! with microsecond timestamps relative to the tracer's epoch; when it is
//! disabled — the default — entering a span is a single relaxed atomic
//! load and records nothing, so instrumented code stays on its fast path.
//!
//! Every event carries the calling thread's *trace id* (see
//! [`TraceIdGuard`]): the batch-compile server assigns one id per request
//! on the worker that serves it, so all spans of one request — across
//! pipeline, cache and ICBM sub-phases — share an id and can be grouped in
//! the viewer.
//!
//! [`Tracer::export_chrome_json`] renders the collected events as a JSON
//! object loadable by `chrome://tracing` / Perfetto.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::metrics::json_string;

/// One recorded complete event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Event name (e.g. `"icbm"`, `"serve.request"`).
    pub name: String,
    /// Category (e.g. `"pipeline"`, `"cache"`, `"serve"`).
    pub cat: String,
    /// Start, microseconds since the tracer's epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small per-thread id (dense, assigned on first use).
    pub tid: u64,
    /// The thread's trace id at record time, if any.
    pub trace_id: Option<u64>,
    /// Extra `args` key/value pairs (rendered as strings).
    pub args: Vec<(String, String)>,
}

/// The process-wide trace collector.
pub struct Tracer {
    enabled: AtomicBool,
    events: Mutex<Vec<TraceEvent>>,
    epoch: Instant,
}

/// A dense id for the calling thread (Chrome traces want small integers).
fn thread_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

thread_local! {
    static CURRENT_TRACE_ID: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The calling thread's current trace id, if one is set.
pub fn current_trace_id() -> Option<u64> {
    CURRENT_TRACE_ID.with(Cell::get)
}

/// Allocates a fresh process-unique trace id (never zero).
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Sets the calling thread's trace id for the guard's lifetime, restoring
/// the previous id on drop. Spans recorded while the guard is live carry
/// the id.
pub struct TraceIdGuard {
    prev: Option<u64>,
}

impl TraceIdGuard {
    /// Installs `id` as the thread's current trace id.
    pub fn set(id: u64) -> TraceIdGuard {
        let prev = CURRENT_TRACE_ID.with(|c| c.replace(Some(id)));
        TraceIdGuard { prev }
    }
}

impl Drop for TraceIdGuard {
    fn drop(&mut self) {
        CURRENT_TRACE_ID.with(|c| c.set(self.prev));
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh, disabled tracer with its epoch at construction time.
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    /// The process-wide tracer.
    pub fn global() -> &'static Tracer {
        static GLOBAL: OnceLock<Tracer> = OnceLock::new();
        GLOBAL.get_or_init(Tracer::new)
    }

    /// Starts collecting events.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Stops collecting (already-recorded events are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// True when spans record.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Records one complete event that started at `start` and ran for
    /// `dur`. A no-op unless enabled.
    pub fn record_complete(
        &self,
        name: &str,
        cat: &str,
        start: Instant,
        dur: Duration,
        args: &[(&str, &str)],
    ) {
        if !self.is_enabled() {
            return;
        }
        let ts_us = start.saturating_duration_since(self.epoch).as_micros() as u64;
        let event = TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ts_us,
            dur_us: dur.as_micros() as u64,
            tid: thread_tid(),
            trace_id: current_trace_id(),
            args: args.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        };
        self.events.lock().unwrap().push(event);
    }

    /// Takes every event recorded so far, leaving the collector empty.
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }

    /// Events recorded so far (collector left intact).
    pub fn event_count(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Renders (and drains) the collected events as Chrome `trace_event`
    /// JSON: `{"displayTimeUnit":"ms","traceEvents":[{"ph":"X",...},...]}`.
    pub fn export_chrome_json(&self) -> String {
        let events = self.drain();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"dur\":{}",
                json_string(&e.name),
                json_string(&e.cat),
                e.tid,
                e.ts_us,
                e.dur_us
            ));
            if e.trace_id.is_some() || !e.args.is_empty() {
                out.push_str(",\"args\":{");
                let mut first = true;
                if let Some(id) = e.trace_id {
                    out.push_str(&format!("\"trace_id\":\"{id:016x}\""));
                    first = false;
                }
                for (k, v) in &e.args {
                    if !first {
                        out.push(',');
                    }
                    out.push_str(&format!("{}:{}", json_string(k), json_string(v)));
                    first = false;
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// An RAII span: measures from construction to drop and records a complete
/// event on the global tracer. When tracing is disabled at entry the span
/// is inert (no clock read, nothing recorded at drop).
pub struct Span {
    start: Option<Instant>,
    name: &'static str,
    cat: &'static str,
}

impl Span {
    /// Opens a span named `name` under category `cat`.
    pub fn enter(name: &'static str, cat: &'static str) -> Span {
        let start = Tracer::global().is_enabled().then(Instant::now);
        Span { start, name, cat }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            Tracer::global().record_complete(self.name, self.cat, start, start.elapsed(), &[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.record_complete("x", "c", Instant::now(), Duration::from_millis(1), &[]);
        assert_eq!(t.event_count(), 0);
    }

    #[test]
    fn events_record_and_export() {
        let t = Tracer::new();
        t.enable();
        let start = Instant::now();
        t.record_complete("icbm", "pipeline", start, Duration::from_micros(1500), &[
            ("workload", "strcpy"),
        ]);
        assert_eq!(t.event_count(), 1);
        let json = t.export_chrome_json();
        assert!(json.contains("\"traceEvents\":["), "{json}");
        assert!(json.contains("\"name\":\"icbm\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"dur\":1500"), "{json}");
        assert!(json.contains("\"workload\":\"strcpy\""), "{json}");
        // Export drains.
        assert_eq!(t.event_count(), 0);
    }

    #[test]
    fn trace_id_guard_nests_and_restores() {
        assert_eq!(current_trace_id(), None);
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        {
            let _g = TraceIdGuard::set(a);
            assert_eq!(current_trace_id(), Some(a));
            {
                let _h = TraceIdGuard::set(b);
                assert_eq!(current_trace_id(), Some(b));
            }
            assert_eq!(current_trace_id(), Some(a));
        }
        assert_eq!(current_trace_id(), None);
    }

    #[test]
    fn span_records_on_global_tracer_when_enabled() {
        // The global tracer is shared across tests; only assert on our own
        // marker event's presence.
        let t = Tracer::global();
        t.enable();
        let _id = TraceIdGuard::set(42);
        {
            let _s = Span::enter("span_records_on_global_tracer", "test");
        }
        t.disable();
        let events = t.drain();
        let mine: Vec<_> = events
            .iter()
            .filter(|e| e.name == "span_records_on_global_tracer")
            .collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].trace_id, Some(42));
        assert_eq!(mine[0].cat, "test");
    }
}

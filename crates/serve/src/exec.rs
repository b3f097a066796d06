//! Per-request execution for the event server's workers.
//!
//! Parse one request line, compile it through the shared
//! [`CompileCache`](epic_bench::CompileCache) under the request's
//! deadline, optionally diff-test and schedule-check, and render exactly
//! one reply line plus the tallies the connection keeps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use epic_bench::{check_pair_schedules, CompileCache, CompileError, Pipeline};
use epic_interp::diff_test;
use epic_obs::{Span, TraceIdGuard};

use crate::proto::{render_err, render_ok, result_json, Request, Target};
use crate::ServeError;

/// Registry name of the per-request latency histogram (microseconds).
pub const REQUEST_LATENCY_HISTOGRAM: &str = "serve_request_us";

/// What the server (or one connection) did, reported at shutdown and on
/// connection close, and live to `{"op":"metrics"}` control requests and
/// the stderr heartbeat. Control requests themselves are not counted: the
/// tallies cover compile requests only, so a metrics reply reconciles
/// exactly with the final report.
#[derive(Clone, Debug, Default)]
pub struct ServerMetrics {
    /// Request lines answered.
    pub requests: u64,
    /// ... of which succeeded.
    pub ok: u64,
    /// ... of which failed (including timeouts and sheds).
    pub errors: u64,
    /// ... of which timed out specifically.
    pub timeouts: u64,
    /// Stage lookups served from the cache, summed over all requests.
    pub cache_hits: u64,
    /// Stage lookups that computed, summed over all requests.
    pub cache_misses: u64,
    /// Total request latency (sum over requests), milliseconds.
    pub total_ms: f64,
    /// Worst single-request latency, milliseconds.
    pub max_ms: f64,
}

impl ServerMetrics {
    /// Stable JSON rendering for the shutdown report.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"requests\":{},\"ok\":{},\"errors\":{},\"timeouts\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\
             \"total_ms\":{:.3},\"max_ms\":{:.3}}}",
            self.requests,
            self.ok,
            self.errors,
            self.timeouts,
            self.cache_hits,
            self.cache_misses,
            self.total_ms,
            self.max_ms
        )
    }
}

/// The tallies behind atomics, so the heartbeat thread, in-band
/// `{"op":"metrics"}` renderers, and the event loop can snapshot them
/// while requests are still in flight. Latencies are stored as integer
/// microseconds; [`ServerMetrics`] gets them back as milliseconds.
#[derive(Default)]
pub(crate) struct LiveMetrics {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    timeouts: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

impl LiveMetrics {
    pub(crate) fn tally(&self, out: &Outcome) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if out.ok {
            self.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        if out.timed_out {
            self.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        self.cache_hits.fetch_add(out.hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(out.misses, Ordering::Relaxed);
        let us = (out.ms * 1e3) as u64;
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ServerMetrics {
        ServerMetrics {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            total_ms: self.total_us.load(Ordering::Relaxed) as f64 / 1e3,
            max_ms: self.max_us.load(Ordering::Relaxed) as f64 / 1e3,
        }
    }
}

/// A finished compile, reduced to what the response needs.
struct Summary {
    result: String,
    hits: u64,
    misses: u64,
}

/// The machines a `check:true` request validates schedules under: the
/// wide and sequential extremes bracket the paper suite.
fn check_machines() -> [epic_machine::Machine; 2] {
    [epic_machine::Machine::wide(), epic_machine::Machine::sequential()]
}

/// Runs the pipeline for one request. A suite workload and inline IR go
/// through the same stage chain; `check:true` diff-tests a workload on its
/// training and evaluation inputs, inline IR on its one input. A passed
/// `deadline` fails the compile at the next stage boundary or ICBM phase,
/// or just before validation.
fn execute(
    req: &Request,
    cache: &CompileCache,
    deadline: Option<Instant>,
) -> Result<Summary, ServeError> {
    let w;
    let (name, func, training, evaluation, unroll) = match &req.target {
        Target::Workload(name) => {
            w = epic_workloads::by_name(name)
                .ok_or_else(|| ServeError::UnknownWorkload(name.clone()))?;
            (w.name, &w.func, &w.training, w.evaluation.as_slice(), w.unroll)
        }
        Target::Inline(t) => (t.name.as_str(), &t.func, &t.input, &[][..], t.unroll),
    };
    let mut pipeline =
        Pipeline::for_function(name, func, training, unroll, &req.cfg).with_cache(cache);
    if let Some(d) = deadline {
        pipeline = pipeline.with_deadline(d);
    }
    let c = pipeline.run()?;
    if req.check {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(CompileError::Deadline { stage: "check" }.into());
        }
        for input in std::iter::once(training).chain(evaluation) {
            diff_test(func, &c.baseline, input).map_err(CompileError::Diff)?;
            diff_test(func, &c.optimized, input).map_err(CompileError::Diff)?;
        }
        check_pair_schedules(name, &c, &check_machines()).map_err(ServeError::Schedule)?;
    }
    Ok(Summary {
        result: result_json(name, &c, req.emit_ir),
        hits: c.cache_hits,
        misses: c.cache_misses,
    })
}

/// One reply line plus the accounting the connection tallies.
pub(crate) struct Outcome {
    pub(crate) line: String,
    pub(crate) ok: bool,
    pub(crate) timed_out: bool,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) ms: f64,
}

impl Outcome {
    /// An error outcome produced outside `process` (reader failures,
    /// malformed control requests, admission sheds, worker panics) — no
    /// compile ran, so no latency.
    pub(crate) fn error_line(id: Option<u64>, e: &ServeError) -> Outcome {
        Outcome {
            line: render_err(id, e, 0, 0, 0.0, epic_obs::next_trace_id()),
            ok: false,
            timed_out: matches!(e, ServeError::Timeout(_)),
            hits: 0,
            misses: 0,
            ms: 0.0,
        }
    }
}

/// Parses and executes one compile-request line end to end, producing the
/// reply line plus its accounting. Every failure mode degrades to an
/// `{"ok":false,...}` line; nothing escapes. A request's `timeout_ms` (or
/// `default_timeout_ms`) becomes its compile deadline.
pub(crate) fn process(
    line: &str,
    cache: &CompileCache,
    default_timeout_ms: Option<u64>,
) -> Outcome {
    // One trace id per request: every span recorded while serving it —
    // pipeline stages, cache probes, ICBM sub-phases — carries this id,
    // and the reply echoes it.
    let trace_id = epic_obs::next_trace_id();
    let _id_guard = TraceIdGuard::set(trace_id);
    let _span = Span::enter("serve.request", "serve");
    let t0 = Instant::now();
    let (id, res) = match Request::parse(line) {
        // Parse-stage failures (malformed fields, bad knobs) still echo a
        // plainly-present id, matching the shed/error path.
        Err(e) => (crate::proto::peek_id(line), Err(e)),
        Ok(req) => {
            let budget = req.timeout_ms.or(default_timeout_ms);
            let deadline = budget.and_then(|ms| t0.checked_add(Duration::from_millis(ms)));
            let res = match execute(&req, cache, deadline) {
                Err(ServeError::Compile(CompileError::Deadline { .. })) => {
                    Err(ServeError::Timeout(budget.unwrap_or_default()))
                }
                res => res,
            };
            (req.id, res)
        }
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match res {
        Ok(s) => Outcome {
            line: render_ok(id, &s.result, s.hits, s.misses, ms, trace_id),
            ok: true,
            timed_out: false,
            hits: s.hits,
            misses: s.misses,
            ms,
        },
        Err(e) => Outcome {
            line: render_err(id, &e, 0, 0, ms, trace_id),
            ok: false,
            timed_out: matches!(e, ServeError::Timeout(_)),
            hits: 0,
            misses: 0,
            ms,
        },
    }
}

//! # epic-serve
//!
//! A long-running batch-compile service over the cached pipeline.
//!
//! The server speaks newline-delimited JSON: each request line names a
//! suite workload (or carries inline IR text plus an input), optionally
//! overrides the [`PipelineConfig`](epic_bench::PipelineConfig), and gets
//! exactly one response line back, in request order. One event loop
//! ([`EventServer`]) multiplexes every connection — the `serve` binary's
//! stdin/stdout is just one more connection — and hands compiles to a
//! fixed worker pool. Every pipeline stage is served from a shared
//! [`CompileCache`](epic_bench::CompileCache), so a batch that repeats
//! inputs (or overlaps configurations) recompiles nothing.
//!
//! Failures — malformed JSON, unknown workloads, IR parse errors,
//! interpreter traps, per-request timeouts, even a panicking pass —
//! produce a structured `{"ok":false,"error":{...}}` reply on the
//! offending line and never take the process down.
//!
//! See [`proto`] for the wire format and [`event`] for the execution
//! model; the `serve` binary fronts it over stdin/stdout or TCP.

pub mod event;
mod exec;
pub mod poller;
pub mod proto;
pub mod shape;

use std::error::Error;
use std::fmt;

use epic_bench::timing::json_string;
use epic_bench::{CompileError, JsonError, KnobError};

pub use event::{EventOptions, EventServer, ShutdownHandle};
pub use exec::{ServerMetrics, REQUEST_LATENCY_HISTOGRAM};
pub use proto::{ControlOp, InlineTarget, Request, Target};
pub use shape::{Admission, Classified, Shape, ShapeTable, Tier};

/// Any failure of one batch-compile request.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The compilation pipeline itself failed.
    Compile(CompileError),
    /// The request line was not a valid request (bad JSON, missing or
    /// ill-typed fields).
    Protocol(String),
    /// The request named a workload the suite does not contain.
    UnknownWorkload(String),
    /// The request exceeded its wall-clock budget (the payload, in ms).
    /// The compile stops at the next stage boundary or ICBM phase after
    /// the deadline; stages it finished stay cached.
    Timeout(u64),
    /// The event server's admission controller shed the request: its
    /// shape cluster exceeded the tier's cap within the sliding admission
    /// window (deterministic), or the global in-flight backstop tripped.
    /// Reported under the `overloaded` kind; retry later.
    Shed {
        /// Lower-case tier label (`"small"`, `"medium"`, `"large"`).
        tier: &'static str,
        /// The cap the request exceeded.
        cap: usize,
    },
    /// The input stream produced a line the reader could not decode
    /// (invalid UTF-8 or a transient read failure). The offending line is
    /// answered with this error and the stream keeps being read.
    Io(String),
    /// A `check:true` request produced a schedule the independent
    /// `epic-schedcheck` validator rejected. The payload names the
    /// function, machine, and first violation.
    Schedule(String),
    /// The request's `"config"` overrides named an unknown knob, mistyped
    /// one, or pushed one outside its legal range. The reply's error
    /// object carries a `"knob"` field naming the offender and the kind is
    /// `"bad_knob"` or `"out_of_range"` (from [`KnobError::kind`]).
    Knob(KnobError),
    /// Serving the request panicked (the payload is the panic message).
    /// The worker survives and the connection's later replies still flow.
    Internal(String),
}

impl ServeError {
    /// A short machine-readable tag for the error class. Compile errors
    /// keep their inner kind (`"trap"`, `"diff"`, `"parse"`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Compile(e) => e.kind(),
            ServeError::Protocol(_) => "protocol",
            ServeError::UnknownWorkload(_) => "unknown-workload",
            ServeError::Timeout(_) => "timeout",
            ServeError::Shed { .. } => "overloaded",
            ServeError::Io(_) => "io",
            ServeError::Schedule(_) => "schedule",
            ServeError::Knob(e) => e.kind(),
            ServeError::Internal(_) => "internal",
        }
    }

    /// Renders the error as a stable JSON object. Compile errors reuse
    /// [`CompileError::to_json`] verbatim (including their `stage` key).
    pub fn to_json(&self) -> String {
        match self {
            ServeError::Compile(e) => e.to_json(),
            ServeError::Knob(e) => {
                // Structured: clients can pick out the offending knob
                // without parsing the message.
                let knob = e.knob().unwrap_or("config");
                format!(
                    "{{\"kind\":{},\"knob\":{},\"message\":{}}}",
                    json_string(self.kind()),
                    json_string(knob),
                    json_string(&self.to_string())
                )
            }
            other => format!(
                "{{\"kind\":{},\"message\":{}}}",
                json_string(other.kind()),
                json_string(&other.to_string())
            ),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Compile(e) => write!(f, "{e}"),
            ServeError::Protocol(m) => write!(f, "bad request: {m}"),
            ServeError::UnknownWorkload(n) => write!(f, "unknown workload: {n}"),
            ServeError::Timeout(ms) => write!(f, "request exceeded {ms}ms"),
            ServeError::Shed { tier, cap } => {
                write!(f, "shed: {tier}-tier admission cap ({cap}) exceeded; retry later")
            }
            ServeError::Io(m) => write!(f, "unreadable request line: {m}"),
            ServeError::Schedule(m) => write!(f, "schedule validation failed: {m}"),
            ServeError::Knob(e) => write!(f, "bad config: {e}"),
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl Error for ServeError {}

impl From<CompileError> for ServeError {
    fn from(e: CompileError) -> Self {
        ServeError::Compile(e)
    }
}

impl From<JsonError> for ServeError {
    fn from(e: JsonError) -> Self {
        ServeError::Protocol(e.to_string())
    }
}

impl From<KnobError> for ServeError {
    fn from(e: KnobError) -> Self {
        match e {
            // A config that is not even knob-shaped is a protocol error
            // (same wording the pre-registry parser used).
            KnobError::Malformed { message } => ServeError::Protocol(message),
            other => ServeError::Knob(other),
        }
    }
}

impl From<epic_ir::ParseError> for ServeError {
    fn from(e: epic_ir::ParseError) -> Self {
        ServeError::Compile(CompileError::Parse(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_interp::Trap;

    #[test]
    fn kinds_and_json() {
        let e = ServeError::UnknownWorkload("nope".into());
        assert_eq!(e.kind(), "unknown-workload");
        assert!(e.to_json().contains("\"kind\":\"unknown-workload\""));
        assert!(e.to_json().contains("nope"));

        let e = ServeError::Timeout(250);
        assert_eq!(e.kind(), "timeout");
        assert!(e.to_json().contains("250ms"));

        // Compile errors surface their inner structure unchanged.
        let e = ServeError::from(CompileError::from(Trap::OutOfFuel));
        assert_eq!(e.kind(), "trap");
        assert!(e.to_json().contains("\"stage\":\"interp\""));

        let e = ServeError::from(epic_ir::ParseError { line: 3, message: "bad".into() });
        assert_eq!(e.kind(), "parse");

        let e = ServeError::Internal("boom".into());
        assert_eq!(e.kind(), "internal");
        assert!(e.to_json().contains("internal error: boom"), "{}", e.to_json());

        let e = ServeError::Shed { tier: "large", cap: 4 };
        assert_eq!(e.kind(), "overloaded", "sheds share the retry path");
        assert!(e.to_json().contains("large-tier admission cap (4)"), "{}", e.to_json());

        let e = ServeError::Io("stream did not contain valid UTF-8".into());
        assert_eq!(e.kind(), "io");
        assert!(e.to_json().contains("valid UTF-8"), "{}", e.to_json());

        let e = ServeError::Schedule("x optimized on wide: bad".into());
        assert_eq!(e.kind(), "schedule");
        assert!(e.to_json().contains("\"kind\":\"schedule\""), "{}", e.to_json());
        assert!(e.to_json().contains("validation failed"), "{}", e.to_json());

        // Knob rejections surface the registry's classification and name
        // the offending knob in a dedicated field.
        let e = ServeError::from(KnobError::Unknown { name: "trace.max_blocks".into() });
        assert_eq!(e.kind(), "bad_knob");
        assert!(e.to_json().contains("\"knob\":\"trace.max_blocks\""), "{}", e.to_json());
        let e = ServeError::from(KnobError::OutOfRange {
            name: "trace.min_prob".into(),
            got: "1.5".into(),
            range: "[0.0, 1.0]".into(),
        });
        assert_eq!(e.kind(), "out_of_range");
        assert!(e.to_json().contains("\"knob\":\"trace.min_prob\""), "{}", e.to_json());
        // Shapeless configs degrade to plain protocol errors, as before
        // the registry.
        let e = ServeError::from(KnobError::Malformed {
            message: "\"config\" must be an object".into(),
        });
        assert_eq!(e.kind(), "protocol");
    }
}

/// Whole-server tests: request lines go in over one loopback connection
/// to an in-process [`EventServer`]; the replies and the tallies `run`
/// returns come out.
#[cfg(test)]
mod server {
    mod tests {
        use std::io::{BufRead, BufReader, Write};
        use std::net::{Shutdown, TcpStream};
        use std::sync::Arc;

        use epic_bench::{CompileCache, Json};

        use crate::event::PANICS_COUNTER;
        use crate::{EventOptions, EventServer, ServerMetrics, REQUEST_LATENCY_HISTOGRAM};

        /// Serves `input` as one connection on a fresh two-worker server.
        fn run_batch(input: &[u8]) -> (Vec<String>, ServerMetrics) {
            let opts = EventOptions { workers: 2, ..EventOptions::default() };
            let cache = Arc::new(CompileCache::new());
            let server = EventServer::bind("127.0.0.1:0", cache, opts).unwrap();
            let addr = server.local_addr().unwrap();
            let shutdown = server.shutdown_handle();
            let handle = std::thread::spawn(move || server.run().unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(input).unwrap();
            conn.shutdown(Shutdown::Write).unwrap();
            let lines = BufReader::new(conn).lines().map(Result::unwrap).collect();
            shutdown.shutdown();
            (lines, handle.join().unwrap())
        }

        #[test]
        fn responses_come_back_in_request_order() {
            let input = r#"{"id":10,"workload":"grep"}
{"id":11,"workload":"strcpy"}
{"id":12,"workload":"nonesuch"}
{"id":13,"workload":"wc"}
"#;
            let (lines, metrics) = run_batch(input.as_bytes());
            assert_eq!(lines.len(), 4);
            let ids: Vec<u64> = lines
                .iter()
                .map(|l| Json::parse(l).unwrap().get("id").unwrap().as_u64().unwrap())
                .collect();
            assert_eq!(ids, vec![10, 11, 12, 13]);
            assert!(lines[2].contains("\"unknown-workload\""));
            assert_eq!(metrics.requests, 4);
            assert_eq!(metrics.ok, 3);
            assert_eq!(metrics.errors, 1);
            assert_eq!(metrics.timeouts, 0);
        }

        #[test]
        fn malformed_lines_do_not_stop_the_loop() {
            let input = "this is not json\n{\"id\":2,\"workload\":\"strcpy\"}\n";
            let (lines, metrics) = run_batch(input.as_bytes());
            assert_eq!(lines.len(), 2);
            assert!(lines[0].contains("\"kind\":\"protocol\""));
            assert!(lines[1].contains("\"ok\":true"));
            assert_eq!(metrics.errors, 1);
            assert_eq!(metrics.ok, 1);
        }

        #[test]
        fn zero_budget_times_out_gracefully() {
            let input = r#"{"id":1,"workload":"126.gcc","timeout_ms":0}
{"id":2,"workload":"strcpy"}
"#;
            let (lines, metrics) = run_batch(input.as_bytes());
            assert_eq!(lines.len(), 2);
            assert!(lines[0].contains("\"kind\":\"timeout\""), "{}", lines[0]);
            assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
            assert_eq!(metrics.timeouts, 1);
        }

        #[test]
        fn invalid_utf8_line_answers_and_keeps_reading() {
            // An undecodable middle line must produce its own {"ok":false}
            // reply without killing the rest of the batch.
            let mut input: Vec<u8> = Vec::new();
            input.extend_from_slice(b"{\"id\":1,\"workload\":\"strcpy\"}\n");
            input.extend_from_slice(b"\xff\xfe{\"id\":2,\"workload\":\"cmp\"}\n");
            input.extend_from_slice(b"{\"id\":3,\"workload\":\"cmp\"}\n");
            let (lines, metrics) = run_batch(&input);
            assert_eq!(lines.len(), 3, "{lines:?}");
            assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
            assert!(lines[1].contains("\"kind\":\"io\""), "{}", lines[1]);
            assert!(lines[1].contains("\"ok\":false"), "{}", lines[1]);
            assert!(lines[2].contains("\"ok\":true"), "{}", lines[2]);
            assert_eq!(metrics.requests, 3);
            assert_eq!(metrics.ok, 2);
            assert_eq!(metrics.errors, 1);
        }

        #[test]
        fn metrics_op_reconciles_with_final_tallies() {
            // First line: answered before anything was tallied. Last line:
            // must agree exactly with the ServerMetrics the loop returns.
            let input = r#"{"op":"metrics","id":100}
{"id":1,"workload":"strcpy"}
{"id":2,"workload":"nonesuch"}
{"id":3,"workload":"cmp","check":true}
{"op":"metrics","id":101}
"#;
            let (lines, metrics) = run_batch(input.as_bytes());
            assert_eq!(lines.len(), 5, "{lines:?}");

            let first = Json::parse(&lines[0]).unwrap();
            assert_eq!(first.get("id").and_then(Json::as_u64), Some(100));
            assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
            let m = first.get("metrics").unwrap();
            assert_eq!(m.get("requests").and_then(Json::as_u64), Some(0));

            let last = Json::parse(&lines[4]).unwrap();
            assert_eq!(last.get("id").and_then(Json::as_u64), Some(101));
            let m = last.get("metrics").unwrap();
            assert_eq!(m.get("requests").and_then(Json::as_u64), Some(metrics.requests));
            assert_eq!(m.get("ok").and_then(Json::as_u64), Some(metrics.ok));
            assert_eq!(m.get("errors").and_then(Json::as_u64), Some(metrics.errors));
            assert_eq!(m.get("timeouts").and_then(Json::as_u64), Some(metrics.timeouts));
            assert_eq!(m.get("cache_hits").and_then(Json::as_u64), Some(metrics.cache_hits));
            assert_eq!(m.get("cache_misses").and_then(Json::as_u64), Some(metrics.cache_misses));
            assert_eq!(m.get("total_ms").and_then(Json::as_f64), Some(metrics.total_ms));
            // Control ops are excluded from the tallies: three compile lines.
            assert_eq!(metrics.requests, 3);
            assert_eq!(metrics.ok, 2);
            assert_eq!(metrics.errors, 1);
            // The registry snapshot rides along and contains the serve
            // instruments this loop registered.
            let reg = last.get("registry").unwrap();
            assert!(reg.get(REQUEST_LATENCY_HISTOGRAM).is_some());
            assert!(reg.get(PANICS_COUNTER).is_some());
        }

        #[test]
        fn unknown_op_is_a_protocol_error_with_id() {
            let input = "{\"op\":\"flush\",\"id\":9}\n";
            let (lines, metrics) = run_batch(input.as_bytes());
            assert_eq!(lines.len(), 1);
            let j = Json::parse(&lines[0]).unwrap();
            assert_eq!(j.get("id").and_then(Json::as_u64), Some(9));
            assert_eq!(j.get("ok").and_then(Json::as_bool), Some(false));
            assert!(lines[0].contains("unknown op"), "{}", lines[0]);
            assert_eq!(metrics.errors, 1);
        }

        #[test]
        fn replies_carry_ms_and_trace_id() {
            let input = "{\"id\":1,\"workload\":\"strcpy\"}\n";
            let (lines, _) = run_batch(input.as_bytes());
            let j = Json::parse(&lines[0]).unwrap();
            assert!(j.get("ms").and_then(Json::as_f64).is_some(), "{}", lines[0]);
            let id = j.get("trace_id").and_then(Json::as_str).unwrap();
            assert_eq!(id.len(), 16, "{id}");
            assert!(u64::from_str_radix(id, 16).unwrap() > 0);
        }

        #[test]
        fn inline_ir_compiles_and_checks() {
            let w = epic_workloads::by_name("strcpy").unwrap();
            let ir = epic_bench::timing::json_string(&w.func.to_string());
            // strcpy's entry block initializes its own pointers (src=0,
            // dst=12288), so the inline copy needs the full-size image;
            // give it a sentinel string of its own at address 0.
            let input = format!(
                "{{\"id\":1,\"name\":\"mine\",\"ir\":{ir},\"unroll\":2,\"check\":true,\
                 \"input\":{{\"memory_size\":16384,\"memory\":[[0,[104,105,0]]],\"fuel\":100000}}}}\n"
            );
            let (lines, metrics) = run_batch(input.as_bytes());
            assert_eq!(lines.len(), 1, "{lines:?}");
            let j = Json::parse(&lines[0]).unwrap();
            assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true), "{}", lines[0]);
            assert_eq!(
                j.get("result").and_then(|r| r.get("name")).and_then(Json::as_str),
                Some("mine")
            );
            assert_eq!(metrics.ok, 1);
        }
    }
}

//! The NDJSON wire format.
//!
//! One request per line. The minimal request compiles a suite workload
//! under the default configuration:
//!
//! ```json
//! {"id":1,"workload":"strcpy"}
//! ```
//!
//! Inline IR ships the program text and its profiling input instead:
//!
//! ```json
//! {"id":2,"name":"mine","ir":"fn mine { ... }",
//!  "input":{"memory_size":64,"memory":[[0,[1,2,0]]],"regs":[[0,7]],"fuel":100000},
//!  "unroll":2}
//! ```
//!
//! Optional keys on either form: `"config"` (partial overrides of the
//! default [`PipelineConfig`], grouped `{"trace":{..},"cpr":{..},
//! "if_convert":{..}|null,"meld":{..}|null,"machine":{..}}` — a present
//! `meld` group enables the instruction-melding pass, and the `machine`
//! group reaches the front-end cost model through
//! `"frontend.mispredict_penalty"` / `"frontend.fetch_width"`),
//! `"timeout_ms"` (a wall-clock budget, checked at each pipeline stage
//! boundary: an expired request stops before its next stage and answers a
//! `timeout` error), `"check"` (differentially
//! test the compiled pair before answering), `"emit_ir"` (include the
//! compiled IR text in the result).
//!
//! Each response is one line. Success:
//!
//! ```json
//! {"id":1,"ok":true,"result":{"name":"strcpy","baseline":{...},
//!  "optimized":{...},"stats":{...}},"cache":{"hits":3,"misses":0}}
//! ```
//!
//! Failure: `{"id":1,"ok":false,"error":{"kind":...,"message":...},
//! "cache":{...},...}`. The `result` object is a pure function of the
//! compiled artifacts — byte-identical across served-from-cache and
//! recomputed replies — while everything after it reports what this
//! request actually did: the `cache` object, the wall-clock `"ms"`, and
//! the request's `"trace_id"` (the id every span recorded while serving
//! the request carries, so a `--trace` export can be grouped per request).
//!
//! ## Control requests
//!
//! A line whose object carries an `"op"` key is a *control request*: it is
//! answered in request order like any other line but never compiles
//! anything and is not counted in the server's request tallies.
//! `{"op":"metrics","id":9}` returns a live snapshot of the server's
//! tallies and of the process-wide metrics registry:
//!
//! ```json
//! {"id":9,"ok":true,"metrics":{"requests":...,"ok":...,...},
//!  "registry":{"compile_cache_hits_total":{...},...}}
//! ```
//!
//! Because the reply is rendered by the writer when its turn in the
//! response order comes up, the tallies it reports account for exactly the
//! requests answered before it on the stream — a metrics op sent last sees
//! precisely the totals the server prints at shutdown.

use epic_bench::timing::json_string;
use epic_bench::{Compiled, ConfigDelta, Json, KnobSpace, PipelineConfig};
use epic_interp::Input;
use epic_ir::{parse_function, Function, Reg};
use epic_perf::OpCounts;

use crate::ServeError;

/// What to compile: a suite workload by name, or inline IR.
#[derive(Debug)]
pub enum Target {
    /// A workload from `epic_workloads::all()`.
    Workload(String),
    /// An inline program with its profiling input (boxed: a parsed
    /// [`Function`] dwarfs the name-only variant).
    Inline(Box<InlineTarget>),
}

/// An inline program submitted over the wire.
#[derive(Debug)]
pub struct InlineTarget {
    /// Display name (used in timings and the result object).
    pub name: String,
    /// The parsed program.
    pub func: Function,
    /// Training input driving every profiling stage.
    pub input: Input,
    /// Hot-loop unroll factor.
    pub unroll: u32,
}

/// One parsed batch-compile request.
#[derive(Debug)]
pub struct Request {
    /// Echoed back verbatim in the response (`null` when absent).
    pub id: Option<u64>,
    /// What to compile.
    pub target: Target,
    /// Fully-resolved pipeline configuration (defaults + overrides).
    pub cfg: PipelineConfig,
    /// Per-request wall-clock budget; `None` defers to the server default.
    pub timeout_ms: Option<u64>,
    /// Differentially test baseline and optimized against the source.
    pub check: bool,
    /// Include the compiled IR text in the result object.
    pub emit_ir: bool,
}

/// One parsed control request (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlOp {
    /// `{"op":"metrics"}`: report the server's live tallies plus a
    /// process-wide metrics-registry snapshot.
    Metrics {
        /// Echoed back verbatim (`null` when absent), like a compile id.
        id: Option<u64>,
    },
}

/// Classifies `line` as a control request, if it is one.
///
/// Returns `None` for anything that is not a control request — including
/// lines that are not valid JSON — so the caller falls through to
/// [`Request::parse`] and its error reporting. A line that *is* a control
/// attempt (has an `"op"` key) but is malformed or names an unknown op
/// yields the id (for the reply) and a protocol error.
pub fn parse_control(line: &str) -> Option<Result<ControlOp, (Option<u64>, ServeError)>> {
    let j = Json::parse(line).ok()?;
    let op = j.get("op")?;
    let id = j.get("id").and_then(Json::as_u64);
    let Some(op) = op.as_str() else {
        return Some(Err((id, ServeError::Protocol("\"op\" must be a string".into()))));
    };
    match op {
        "metrics" => Some(Ok(ControlOp::Metrics { id })),
        other => Some(Err((
            id,
            ServeError::Protocol(format!("unknown op \"{other}\" (supported: \"metrics\")")),
        ))),
    }
}

/// Best-effort extraction of the request's `"id"` without a full JSON
/// parse. The event server's admission layer sheds requests *before*
/// parsing them (that is the point of shedding), but the `overloaded`
/// reply should still echo the id when one is plainly present. A miss
/// just means the reply carries `"id":null`.
pub fn peek_id(line: &str) -> Option<u64> {
    let i = line.find("\"id\"")?;
    let rest = line[i + 4..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn want_u64(j: &Json, key: &str) -> Result<Option<u64>, ServeError> {
    match j.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| ServeError::Protocol(format!("\"{key}\" must be a non-negative integer"))),
    }
}

fn want_bool(j: &Json, key: &str) -> Result<Option<bool>, ServeError> {
    match j.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| ServeError::Protocol(format!("\"{key}\" must be a boolean"))),
    }
}

fn want_str<'j>(j: &'j Json, key: &str) -> Result<Option<&'j str>, ServeError> {
    match j.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| ServeError::Protocol(format!("\"{key}\" must be a string"))),
    }
}

fn parse_input(j: &Json) -> Result<Input, ServeError> {
    let mut input = Input::new();
    let mut size = 0usize;
    if let Some(n) = want_u64(j, "memory_size")? {
        size = n as usize;
        input = input.memory_size(size);
    }
    if let Some(mem) = j.get("memory") {
        let entries = mem
            .as_arr()
            .ok_or_else(|| ServeError::Protocol("\"memory\" must be an array".into()))?;
        for entry in entries {
            let pair = entry.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                ServeError::Protocol("\"memory\" entries must be [addr, [values...]]".into())
            })?;
            let addr = pair[0]
                .as_u64()
                .ok_or_else(|| ServeError::Protocol("memory addr must be an integer".into()))?
                as usize;
            let vals = pair[1]
                .as_arr()
                .ok_or_else(|| ServeError::Protocol("memory values must be an array".into()))?
                .iter()
                .map(|v| {
                    v.as_i64()
                        .ok_or_else(|| ServeError::Protocol("memory value must be an integer".into()))
                })
                .collect::<Result<Vec<i64>, _>>()?;
            if addr + vals.len() > size {
                return Err(ServeError::Protocol(format!(
                    "memory write at {addr}+{} exceeds memory_size {size}",
                    vals.len()
                )));
            }
            input = input.with_memory(addr, &vals);
        }
    }
    if let Some(regs) = j.get("regs") {
        let entries = regs
            .as_arr()
            .ok_or_else(|| ServeError::Protocol("\"regs\" must be an array".into()))?;
        for entry in entries {
            let pair = entry.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                ServeError::Protocol("\"regs\" entries must be [reg, value]".into())
            })?;
            let r = pair[0]
                .as_u64()
                .ok_or_else(|| ServeError::Protocol("reg index must be an integer".into()))?;
            let v = pair[1]
                .as_i64()
                .ok_or_else(|| ServeError::Protocol("reg value must be an integer".into()))?;
            input = input.with_reg(Reg(r as u32), v);
        }
    }
    if let Some(fuel) = want_u64(j, "fuel")? {
        input = input.fuel(fuel);
    }
    Ok(input)
}

/// Resolves the request's partial `"config"` overrides through the typed
/// knob registry ([`KnobSpace`]): the grouped wire shape parses into a
/// [`ConfigDelta`] (which validates every knob by name, type and range)
/// and the delta is applied over the paper defaults. Unknown or
/// out-of-range knobs are rejected with structured `bad_knob` /
/// `out_of_range` errors naming the knob; `machine.*` knobs — valid in the
/// registry, meaningless to a compile request — are rejected too.
fn parse_config(j: Option<&Json>) -> Result<PipelineConfig, ServeError> {
    let Some(j) = j else { return Ok(PipelineConfig::default()) };
    let space = KnobSpace::global();
    let delta = ConfigDelta::from_grouped_json(space, j)?;
    if delta.touches_machine(space) {
        return Err(ServeError::Protocol(
            "\"machine\" knobs are not accepted here: compile requests have no machine".into(),
        ));
    }
    Ok(delta.apply(space).pipeline)
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] for malformed JSON or ill-typed fields;
    /// [`ServeError::Compile`] (parse kind) for bad inline IR.
    pub fn parse(line: &str) -> Result<Request, ServeError> {
        let j = Json::parse(line)?;
        if !matches!(j, Json::Obj(_)) {
            return Err(ServeError::Protocol("request must be a JSON object".into()));
        }
        let id = want_u64(&j, "id")?;
        let target = match (want_str(&j, "workload")?, want_str(&j, "ir")?) {
            (Some(_), Some(_)) => {
                return Err(ServeError::Protocol(
                    "request has both \"workload\" and \"ir\"; pick one".into(),
                ))
            }
            (Some(name), None) => Target::Workload(name.to_string()),
            (None, Some(ir)) => {
                let func = parse_function(ir)?;
                epic_ir::verify(&func).map_err(epic_bench::CompileError::Verify)?;
                let input = match j.get("input") {
                    Some(spec) => parse_input(spec)?,
                    None => Input::new(),
                };
                let name =
                    want_str(&j, "name")?.unwrap_or("inline").to_string();
                let unroll = want_u64(&j, "unroll")?.unwrap_or(1) as u32;
                Target::Inline(Box::new(InlineTarget { name, func, input, unroll }))
            }
            (None, None) => {
                return Err(ServeError::Protocol(
                    "request needs \"workload\" or \"ir\"".into(),
                ))
            }
        };
        Ok(Request {
            id,
            target,
            cfg: parse_config(j.get("config"))?,
            timeout_ms: want_u64(&j, "timeout_ms")?,
            check: want_bool(&j, "check")?.unwrap_or(false),
            emit_ir: want_bool(&j, "emit_ir")?.unwrap_or(false),
        })
    }
}

fn counts_json(c: &OpCounts) -> String {
    format!(
        "{{\"static_ops\":{},\"static_branches\":{},\"dynamic_ops\":{},\"dynamic_branches\":{}}}",
        c.static_ops, c.static_branches, c.dynamic_ops, c.dynamic_branches
    )
}

/// Renders the deterministic `result` object for a successful compile.
/// Contains only artifact-derived data (no wall-clock), so cache-served
/// and freshly-computed replies are byte-identical.
pub fn result_json(name: &str, c: &Compiled, emit_ir: bool) -> String {
    let s = &c.stats;
    let mut out = format!(
        "{{\"name\":{},\"baseline\":{},\"optimized\":{},\"stats\":{{\
         \"hyperblocks\":{},\"cpr_blocks\":{},\"taken_blocks\":{},\
         \"branches_collapsed\":{},\"skipped\":{},\"promoted\":{},\
         \"demoted\":{},\"dce_removed\":{}}}",
        json_string(name),
        counts_json(&c.base_counts),
        counts_json(&c.opt_counts),
        s.hyperblocks,
        s.cpr_blocks,
        s.taken_blocks,
        s.branches_collapsed,
        s.skipped,
        s.promoted,
        s.demoted,
        s.dce_removed,
    );
    if emit_ir {
        out.push_str(&format!(
            ",\"ir\":{{\"baseline\":{},\"optimized\":{}}}",
            json_string(&c.baseline.to_string()),
            json_string(&c.optimized.to_string())
        ));
    }
    out.push('}');
    out
}

fn id_json(id: Option<u64>) -> String {
    id.map_or_else(|| "null".to_string(), |n| n.to_string())
}

/// The per-request observability suffix shared by both reply shapes. Kept
/// strictly *after* the `cache` object so consumers that truncate a reply
/// at `,"cache":` to compare deterministic prefixes stay correct.
fn obs_suffix(ms: f64, trace_id: u64) -> String {
    format!(",\"ms\":{ms:.3},\"trace_id\":\"{trace_id:016x}\"")
}

/// Renders a success response line (without the trailing newline).
pub fn render_ok(
    id: Option<u64>,
    result: &str,
    hits: u64,
    misses: u64,
    ms: f64,
    trace_id: u64,
) -> String {
    format!(
        "{{\"id\":{},\"ok\":true,\"result\":{},\"cache\":{{\"hits\":{},\"misses\":{}}}{}}}",
        id_json(id),
        result,
        hits,
        misses,
        obs_suffix(ms, trace_id)
    )
}

/// Renders a failure response line (without the trailing newline).
pub fn render_err(
    id: Option<u64>,
    err: &ServeError,
    hits: u64,
    misses: u64,
    ms: f64,
    trace_id: u64,
) -> String {
    format!(
        "{{\"id\":{},\"ok\":false,\"error\":{},\"cache\":{{\"hits\":{},\"misses\":{}}}{}}}",
        id_json(id),
        err.to_json(),
        hits,
        misses,
        obs_suffix(ms, trace_id)
    )
}

/// Renders the reply to a `{"op":"metrics"}` control request.
/// `metrics_json` is the server's live tally object and `registry_json`
/// the process-wide registry snapshot (both already rendered).
pub fn render_metrics(id: Option<u64>, metrics_json: &str, registry_json: &str) -> String {
    format!(
        "{{\"id\":{},\"ok\":true,\"metrics\":{},\"registry\":{}}}",
        id_json(id),
        metrics_json,
        registry_json
    )
}

/// Everything before a reply's `"cache"` key: a pure function of the
/// request (the suffix carries cache counters, wall-clock `ms` and the
/// run-specific `trace_id`).
pub fn stable_prefix(reply: &str) -> &str {
    reply.split(",\"cache\":").next().unwrap_or(reply)
}

/// Order-sensitive FNV-1a digest (16 hex digits) of the stable prefixes of
/// `replies`, skipping `{"op":"metrics"}` replies (live snapshots). A
/// replayed stream's digest is compared against a committed golden value.
pub fn reply_digest<'a>(replies: impl IntoIterator<Item = &'a str>) -> String {
    let mut h = epic_ir::Fnv64::new();
    for r in replies {
        if !r.contains(",\"ok\":true,\"metrics\":") {
            h.write_str(stable_prefix(r));
        }
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_workload_request() {
        let r = Request::parse(r#"{"id":7,"workload":"strcpy"}"#).unwrap();
        assert_eq!(r.id, Some(7));
        assert!(matches!(r.target, Target::Workload(ref n) if n == "strcpy"));
        assert_eq!(r.timeout_ms, None);
        assert!(!r.check);
    }

    #[test]
    fn config_overrides_apply_partially() {
        let r = Request::parse(
            r#"{"workload":"wc","config":{"cpr":{"speculate":false},"trace":{"min_count":4},"if_convert":{}}}"#,
        )
        .unwrap();
        assert!(!r.cfg.cpr.speculate);
        assert_eq!(r.cfg.trace.min_count, 4);
        // Untouched fields keep their defaults.
        let d = PipelineConfig::default();
        assert_eq!(r.cfg.cpr.exit_weight_threshold, d.cpr.exit_weight_threshold);
        assert_eq!(r.cfg.trace.max_ops, d.trace.max_ops);
        assert!(r.cfg.if_convert.is_some());
        assert!(r.cfg.meld.is_none(), "absent meld group leaves melding off");

        // A present meld group enables the pass with partial overrides.
        let r = Request::parse(r#"{"workload":"wc","config":{"meld":{"max_ops":8}}}"#).unwrap();
        assert_eq!(r.cfg.meld.map(|m| m.max_ops), Some(8));
    }

    #[test]
    fn config_knob_errors_are_structured_and_name_the_knob() {
        let e = Request::parse(r#"{"workload":"wc","config":{"trace":{"max_blocks":6}}}"#)
            .unwrap_err();
        assert_eq!(e.kind(), "bad_knob");
        assert!(e.to_json().contains("\"knob\":\"trace.max_blocks\""), "{}", e.to_json());

        let e = Request::parse(r#"{"workload":"wc","config":{"trace":{"min_prob":1.5}}}"#)
            .unwrap_err();
        assert_eq!(e.kind(), "out_of_range");
        assert!(e.to_json().contains("\"knob\":\"trace.min_prob\""), "{}", e.to_json());

        let e = Request::parse(r#"{"workload":"wc","config":{"cpr":{"speculate":3}}}"#)
            .unwrap_err();
        assert_eq!(e.kind(), "bad_knob");
        assert!(e.to_json().contains("\"knob\":\"cpr.speculate\""), "{}", e.to_json());

        // Non-object configs keep the historical protocol error.
        let e = Request::parse(r#"{"workload":"wc","config":5}"#).unwrap_err();
        assert_eq!(e.kind(), "protocol");
        assert!(e.to_string().contains("\"config\" must be an object"), "{e}");

        // Machine knobs exist in the registry but have no meaning on a
        // compile request.
        let e = Request::parse(r#"{"workload":"wc","config":{"machine":{"int_width":8}}}"#)
            .unwrap_err();
        assert_eq!(e.kind(), "protocol");
    }

    #[test]
    fn inline_ir_request_parses() {
        let w = epic_workloads::by_name("strcpy").unwrap();
        let ir = w.func.to_string();
        let line = format!(
            "{{\"id\":1,\"name\":\"mine\",\"ir\":{},\"input\":{{\"memory_size\":8,\"memory\":[[0,[1,2,0]]],\"regs\":[[0,3]],\"fuel\":1000}},\"unroll\":2}}",
            json_string(&ir)
        );
        let r = Request::parse(&line).unwrap();
        let Target::Inline(t) = r.target else {
            panic!("expected inline target");
        };
        assert_eq!(t.name, "mine");
        assert_eq!(t.unroll, 2);
        assert_eq!(t.input.fuel_budget(), 1000);
        assert_eq!(t.func.fingerprint(), w.func.fingerprint());
    }

    #[test]
    fn bad_requests_are_protocol_errors() {
        for line in [
            "not json",
            "[]",
            r#"{"id":1}"#,
            r#"{"workload":"x","ir":"fn f {}"}"#,
            r#"{"workload":5}"#,
            r#"{"workload":"wc","timeout_ms":-3}"#,
        ] {
            let e = Request::parse(line).unwrap_err();
            assert_eq!(e.kind(), "protocol", "{line}: {e}");
        }
        // A memory write beyond the declared image is rejected before it
        // can panic the input builder (the IR itself is fine here).
        let ir = json_string(&epic_workloads::by_name("strcpy").unwrap().func.to_string());
        let line = format!("{{\"ir\":{ir},\"input\":{{\"memory_size\":2,\"memory\":[[1,[1,2]]]}}}}");
        let e = Request::parse(&line).unwrap_err();
        assert_eq!(e.kind(), "protocol", "{e}");
        assert!(e.to_string().contains("exceeds memory_size"), "{e}");
        // Bad inline IR is a parse error, not a protocol error.
        let e = Request::parse(r#"{"ir":"fn oops {"}"#).unwrap_err();
        assert_eq!(e.kind(), "parse");
    }

    #[test]
    fn response_rendering_round_trips() {
        let line = render_err(Some(3), &ServeError::UnknownWorkload("x".into()), 0, 0, 1.25, 7);
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            j.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("unknown-workload")
        );
        assert_eq!(j.get("ms").and_then(Json::as_f64), Some(1.25));
        assert_eq!(j.get("trace_id").and_then(Json::as_str), Some("0000000000000007"));
        let line = render_ok(None, "{\"name\":\"x\"}", 2, 1, 0.5, 0x1f);
        let j = Json::parse(&line).unwrap();
        assert!(matches!(j.get("id"), Some(Json::Null)));
        assert_eq!(j.get("cache").and_then(|c| c.get("hits")).and_then(Json::as_u64), Some(2));
        // The observability suffix sits after the cache object, so
        // truncating at `,"cache":` still yields the deterministic prefix.
        let i = line.rfind(",\"cache\":").unwrap();
        assert!(line[..i].ends_with("\"name\":\"x\"}"), "{line}");
        assert_eq!(j.get("trace_id").and_then(Json::as_str), Some("000000000000001f"));
    }

    #[test]
    fn control_ops_parse_and_misparse() {
        let op = parse_control(r#"{"op":"metrics","id":4}"#).unwrap().unwrap();
        assert_eq!(op, ControlOp::Metrics { id: Some(4) });
        let op = parse_control(r#"{"op":"metrics"}"#).unwrap().unwrap();
        assert_eq!(op, ControlOp::Metrics { id: None });

        // Not control requests at all: fall through to Request::parse.
        assert!(parse_control(r#"{"workload":"wc"}"#).is_none());
        assert!(parse_control("not json").is_none());

        // Control attempts with problems keep their id for the reply.
        let (id, e) = parse_control(r#"{"op":"reload","id":8}"#).unwrap().unwrap_err();
        assert_eq!(id, Some(8));
        assert_eq!(e.kind(), "protocol");
        assert!(e.to_string().contains("unknown op \"reload\""), "{e}");
        let (id, e) = parse_control(r#"{"op":7}"#).unwrap().unwrap_err();
        assert_eq!(id, None);
        assert_eq!(e.kind(), "protocol");

        let line = render_metrics(Some(4), "{\"requests\":2}", "{}");
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            j.get("metrics").and_then(|m| m.get("requests")).and_then(Json::as_u64),
            Some(2)
        );
        assert!(j.get("registry").is_some(), "{line}");
    }
}

//! End-to-end smoke of the observability layer through the real `serve`
//! binary: in-band `{"op":"metrics"}` control requests, per-reply `ms` /
//! `trace_id` fields, the stderr heartbeat, and the reader's tolerance of
//! an undecodable (invalid UTF-8) request line — all in one batch.

use std::io::Write;
use std::process::{Command, Stdio};
use std::time::Duration;

use epic_bench::Json;

#[test]
fn metrics_heartbeat_and_io_errors_through_the_binary() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--workers", "1", "--heartbeat-ms", "25"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    {
        let stdin = child.stdin.as_mut().expect("stdin");
        let mut batch: Vec<u8> = Vec::new();
        batch.extend_from_slice(b"{\"op\":\"metrics\",\"id\":100}\n");
        batch.extend_from_slice(b"{\"id\":1,\"workload\":\"strcpy\"}\n");
        batch.extend_from_slice(b"{\"id\":2,\"workload\":\"cmp\"}\n");
        batch.extend_from_slice(b"{\"id\":3,\"workload\":\"nonesuch\"}\n");
        // An undecodable line: answered with an `io` error, then the
        // stream keeps being served (the pre-fix server dropped the
        // connection here, silently swallowing the final two lines).
        batch.extend_from_slice(b"\xff\xfe{\"id\":4,\"workload\":\"cmp\"}\n");
        batch.extend_from_slice(b"{\"id\":5,\"workload\":\"strcpy\"}\n");
        batch.extend_from_slice(b"{\"op\":\"metrics\",\"id\":101}\n");
        stdin.write_all(&batch).unwrap();
        stdin.flush().unwrap();
        // Hold the stream open so the heartbeat provably ticks while the
        // server is live (it reports every 25ms until shutdown).
        std::thread::sleep(Duration::from_millis(150));
    }
    drop(child.stdin.take()); // EOF => shutdown
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));

    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 7, "stdout:\n{stdout}");

    // The opening metrics op is answered in request order, before any
    // compile was tallied.
    let first = Json::parse(lines[0]).unwrap();
    assert_eq!(first.get("id").and_then(Json::as_u64), Some(100));
    let m = first.get("metrics").expect("metrics object");
    assert_eq!(m.get("requests").and_then(Json::as_u64), Some(0));

    // Compile replies carry latency and a nonzero request trace id; ids
    // are unique per request.
    let mut trace_ids = Vec::new();
    for l in &lines[1..6] {
        let j = Json::parse(l).unwrap_or_else(|e| panic!("bad reply {l}: {e}"));
        assert!(j.get("ms").and_then(Json::as_f64).is_some(), "{l}");
        let tid = j.get("trace_id").and_then(Json::as_str).expect("trace_id").to_string();
        assert!(u64::from_str_radix(&tid, 16).unwrap() > 0, "{l}");
        trace_ids.push(tid);
    }
    trace_ids.sort();
    trace_ids.dedup();
    assert_eq!(trace_ids.len(), 5, "trace ids must be unique per request");
    assert!(lines[3].contains("\"unknown-workload\""), "{}", lines[3]);
    assert!(lines[4].contains("\"kind\":\"io\""), "{}", lines[4]);
    assert!(lines[5].contains("\"ok\":true"), "{}", lines[5]);

    // The closing metrics op reconciles exactly with the shutdown report:
    // 5 compile lines (3 ok, 1 unknown-workload, 1 io), no control ops.
    let last = Json::parse(lines[6]).unwrap();
    assert_eq!(last.get("id").and_then(Json::as_u64), Some(101));
    let m = last.get("metrics").expect("metrics object");
    assert_eq!(m.get("requests").and_then(Json::as_u64), Some(5));
    assert_eq!(m.get("ok").and_then(Json::as_u64), Some(3));
    assert_eq!(m.get("errors").and_then(Json::as_u64), Some(2));
    assert!(last.get("registry").is_some(), "{}", lines[6]);

    let stderr = String::from_utf8_lossy(&out.stderr);
    // The heartbeat reported live tallies while the batch ran…
    assert!(stderr.contains("serve: heartbeat {\"metrics\":{"), "stderr: {stderr}");
    // …and the shutdown line agrees with the in-band metrics reply.
    let final_line = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("serve: {"))
        .next_back()
        .map(|rest| format!("{{{rest}"))
        .expect("final metrics line");
    let f = Json::parse(&final_line).unwrap();
    assert_eq!(f.get("requests").and_then(Json::as_u64), Some(5));
    assert_eq!(f.get("ok").and_then(Json::as_u64), Some(3));
    assert_eq!(f.get("errors").and_then(Json::as_u64), Some(2));
}

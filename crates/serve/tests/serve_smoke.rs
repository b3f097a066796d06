//! End-to-end smoke test of the real `serve` binary over stdin/stdout.
//!
//! Feeds the same mixed batch twice through one process: the second pass
//! must be answered entirely from the warm compile cache (`"misses":0` on
//! every line) with responses byte-identical to the first pass once the
//! cache counters are stripped. Stdin may also be a regular file. The
//! `loadgen` binary rejects bad arguments with a usage error.

use std::io::Write;
use std::process::{Command, Stdio};

use epic_bench::Json;

/// Drops the trailing `,"cache":{...}}` so replies can be compared across
/// cache-hit and cache-miss servings.
fn strip_cache(line: &str) -> &str {
    line.rfind(",\"cache\":").map_or(line, |i| &line[..i])
}

fn cache_counts(line: &str) -> (u64, u64) {
    let j = Json::parse(line).unwrap_or_else(|e| panic!("bad response {line}: {e}"));
    let c = j.get("cache").expect("cache object");
    (
        c.get("hits").and_then(Json::as_u64).expect("hits"),
        c.get("misses").and_then(Json::as_u64).expect("misses"),
    )
}

#[test]
fn batch_twice_through_one_server_hits_cache_everywhere() {
    // A mixed batch: several workloads, a config variation sharing
    // upstream stages with the default, an error line, and a timeout —
    // repeated verbatim as a second pass.
    let batch = concat!(
        r#"{"id":1,"workload":"strcpy","check":true}"#, "\n",
        r#"{"id":2,"workload":"cmp"}"#, "\n",
        r#"{"id":3,"workload":"wc","config":{"cpr":{"enable_taken_variation":false}}}"#, "\n",
        r#"{"id":4,"workload":"wc"}"#, "\n",
        r#"{"id":5,"workload":"nonesuch"}"#, "\n",
        r#"{"id":6,"workload":"grep","timeout_ms":0}"#, "\n",
        "\n", // blank lines are skipped, not answered
        r#"{"id":7,"workload":"strcpy"}"#, "\n",
    );
    let expected_per_pass = 7;

    // One worker keeps the cold pass's intra-batch hit counts exact
    // (concurrent misses on one key are legal and covered by the lib
    // tests); the reorder buffer and the pool itself are exercised there.
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--workers")
        .arg("1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    {
        let stdin = child.stdin.as_mut().expect("stdin");
        stdin.write_all(batch.as_bytes()).unwrap();
        stdin.write_all(batch.as_bytes()).unwrap();
    }
    drop(child.stdin.take()); // EOF => shutdown
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));

    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2 * expected_per_pass, "stdout:\n{stdout}");
    let (first, second) = lines.split_at(expected_per_pass);

    // Responses come back in request order with ids echoed.
    for pass in [first, second] {
        let ids: Vec<u64> = pass
            .iter()
            .map(|l| Json::parse(l).unwrap().get("id").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6, 7]);
        // The error and timeout lines fail structurally; the rest succeed.
        for (i, l) in pass.iter().enumerate() {
            let want_ok = !matches!(i, 4 | 5);
            assert_eq!(l.contains("\"ok\":true"), want_ok, "{l}");
        }
        assert!(pass[4].contains("\"unknown-workload\""), "{}", pass[4]);
        assert!(pass[5].contains("\"timeout\""), "{}", pass[5]);
    }

    // Second pass: 100% cache hits — zero redundant stage recompiles —
    // and byte-identical responses modulo the cache counters.
    for (a, b) in first.iter().zip(second) {
        assert_eq!(strip_cache(a), strip_cache(b), "pass divergence");
    }
    for l in second {
        if l.contains("\"ok\":true") {
            let (hits, misses) = cache_counts(l);
            assert_eq!(misses, 0, "second pass recompiled: {l}");
            assert!(hits > 0, "{l}");
        }
    }
    // id 7 repeats id 1's workload within the first pass, and id 4 shares
    // all of id 3's pre-ICBM stages, so even the cold pass sees hits.
    let (hits7, misses7) = cache_counts(first[6]);
    assert_eq!((hits7, misses7), (3, 0), "{}", first[6]);
    let (hits4, misses4) = cache_counts(first[3]);
    assert_eq!(
        (hits4, misses4),
        (2, 1),
        "wc under the default config reuses superblock+unroll, recompiles icbm: {}",
        first[3]
    );

    // Shutdown metrics land on stderr as JSON.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"requests\":14"), "stderr: {stderr}");
}

#[test]
fn inline_ir_round_trips_through_the_binary() {
    let w = epic_workloads::by_name("strcpy").unwrap();
    let ir = epic_bench::timing::json_string(&w.func.to_string());
    let request = format!(
        "{{\"id\":9,\"name\":\"mine\",\"ir\":{ir},\"unroll\":2,\"check\":true,\"emit_ir\":true,\
         \"input\":{{\"memory_size\":16384,\"memory\":[[0,[104,105,0]]],\"fuel\":100000}}}}\n"
    );

    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child.stdin.as_mut().unwrap().write_all(request.as_bytes()).unwrap();
    drop(child.stdin.take());
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success());

    let stdout = String::from_utf8(out.stdout).unwrap();
    let j = Json::parse(stdout.trim()).unwrap_or_else(|e| panic!("bad response {stdout}: {e}"));
    assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true), "{stdout}");
    let result = j.get("result").expect("result");
    assert_eq!(result.get("name").and_then(Json::as_str), Some("mine"));
    // emit_ir ships both compiled functions; the baseline must reparse.
    let base_ir = result
        .get("ir")
        .and_then(|i| i.get("baseline"))
        .and_then(Json::as_str)
        .expect("baseline ir");
    epic_ir::parse_function(base_ir).expect("compiled baseline reparses");
}

#[test]
fn regular_file_stdin_is_served() {
    // A regular file cannot be registered with epoll; the binary pumps it
    // into the event loop instead. The last line has no trailing newline.
    let dir = std::env::temp_dir().join(format!("epic-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("batch.ndjson");
    std::fs::write(&path, "{\"id\":1,\"workload\":\"strcpy\"}\n{\"id\":2,\"workload\":\"wc\"}")
        .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .stdin(std::fs::File::open(&path).unwrap())
        .output()
        .expect("run serve");
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "stdout:\n{stdout}");
    assert!(lines[0].starts_with("{\"id\":1,\"ok\":true"), "{}", lines[0]);
    assert!(lines[1].starts_with("{\"id\":2,\"ok\":true"), "{}", lines[1]);
}

#[test]
fn loadgen_rejects_bad_arguments_with_a_usage_error() {
    // Each is rejected before any server starts: zero connections used to
    // panic with a divide-by-zero, and `--out` no longer exists.
    for args in [&["--connections", "0"][..], &["--requests", "many"], &["--out", "x.json"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_loadgen")).args(args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: loadgen"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

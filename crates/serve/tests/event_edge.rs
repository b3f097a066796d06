//! Edge-case tests for the event-driven server: ordering and every
//! protocol path against a golden reply digest, write backpressure
//! against slow readers, half-closed sockets, pathological clients, and
//! deterministic load shedding.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use epic_bench::{CompileCache, Json};
use epic_obs::MetricsRegistry;
use epic_serve::event::{MAX_LINE_BYTES, READ_PAUSES_COUNTER};
use epic_serve::proto::{reply_digest, stable_prefix};
use epic_serve::{
    EventOptions, EventServer, ServerMetrics, ShutdownHandle, REQUEST_LATENCY_HISTOGRAM,
};

/// Spawns an event server on a loopback port and returns how to reach,
/// stop, and join it.
fn start(opts: EventOptions) -> (SocketAddr, ShutdownHandle, JoinHandle<ServerMetrics>) {
    let cache = Arc::new(CompileCache::new());
    let server = EventServer::bind("127.0.0.1:0", cache, opts).expect("bind");
    let addr = server.local_addr().expect("local_addr");
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("event loop"));
    (addr, shutdown, handle)
}

/// Lenient options: nothing sheds, nothing times out.
fn open_opts() -> EventOptions {
    EventOptions { workers: 2, ..EventOptions::default() }
}

/// Serves `lines` on a fresh single-worker server over a plain client: the
/// reference the cross-shape tests (slow reader, one byte per syscall,
/// poll backend) must match.
fn single_worker_replies(lines: &str) -> Vec<String> {
    let (addr, shutdown, handle) = start(EventOptions { workers: 1, ..EventOptions::default() });
    let replies = roundtrip(addr, lines);
    shutdown.shutdown();
    handle.join().unwrap();
    replies
}

/// Asserts `got` and `expect` agree reply by reply up to the `"cache"` key
/// (metrics replies carry live snapshots and may differ).
fn assert_same_replies(got: &[String], expect: &[String]) {
    assert_eq!(got.len(), expect.len(), "reply count diverged\n{got:#?}");
    for (g, e) in got.iter().zip(expect) {
        assert_eq!(reply_digest([g.as_str()]), reply_digest([e.as_str()]), "{g}\nvs\n{e}");
    }
}

/// Sends `lines` over one connection, half-closes, and reads every reply.
fn roundtrip(addr: SocketAddr, lines: &str) -> Vec<String> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(lines.as_bytes()).expect("send");
    conn.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut replies = Vec::new();
    for line in BufReader::new(conn).lines() {
        replies.push(line.expect("reply line"));
    }
    replies
}

/// Digest of [`golden_stream`]'s replies, captured from the replies of the
/// server this one replaced (see `proto::reply_digest`).
const GOLDEN_DIGEST: &str = "4463ec2c1180eba5";

/// One line per protocol path: metrics ops, workloads with and without
/// `check`, an unknown workload, a malformed line, a config override, an
/// unknown op, a zero-budget timeout, and inline IR with `check`.
fn golden_stream() -> String {
    let strcpy = epic_workloads::by_name("strcpy").unwrap();
    let ir = epic_bench::timing::json_string(&strcpy.func.to_string());
    let mut s = String::from(concat!(
        "{\"op\":\"metrics\",\"id\":100}\n",
        "{\"id\":1,\"workload\":\"strcpy\"}\n",
        "\n", // blank: skipped, no reply slot
        "{\"id\":2,\"workload\":\"wc\",\"check\":true}\n",
        "{\"id\":3,\"workload\":\"no-such-workload\"}\n",
        "this is not json\n",
        "{\"id\":4,\"op\":\"metrics\"}\n",
        "{\"id\":5,\"workload\":\"strcpy\",\"config\":{\"trace\":{\"min_count\":8}}}\n",
        "{\"id\":6,\"op\":\"nonsense\"}\n",
        "{\"id\":7,\"workload\":\"126.gcc\",\"timeout_ms\":0}\n",
        "{\"id\":8,\"workload\":\"grep\"}\n",
    ));
    // strcpy's entry block initializes its own pointers (src=0,
    // dst=12288), so the inline copy needs the full-size image.
    s.push_str(&format!(
        "{{\"id\":9,\"name\":\"mine\",\"ir\":{ir},\"unroll\":2,\"check\":true,\
         \"input\":{{\"memory_size\":16384,\"memory\":[[0,[104,105,0]]],\"fuel\":100000}}}}\n"
    ));
    s.push_str("{\"op\":\"metrics\",\"id\":101}\n");
    s
}

/// "v1" is the thread-pool server the event server replaced: the golden
/// digest is of the replies it gave to [`golden_stream`].
#[test]
fn replies_stream_in_order_and_match_v1() {
    let (addr, shutdown, handle) = start(open_opts());
    let got = roundtrip(addr, &golden_stream());
    shutdown.shutdown();
    let metrics = handle.join().unwrap();

    let digest = reply_digest(got.iter().map(String::as_str));
    assert_eq!(digest, GOLDEN_DIGEST, "replies diverged (new digest {digest})\n{got:#?}");
    let json: Vec<Json> = got.iter().map(|l| Json::parse(l).unwrap()).collect();
    let ids: Vec<Option<u64>> = json.iter().map(|j| j.get("id").and_then(Json::as_u64)).collect();
    let want = [100, 1, 2, 3, 0, 4, 5, 6, 7, 8, 9, 101].map(|i| (i > 0).then_some(i));
    assert_eq!(ids, want, "one reply per non-blank line, in order");
    assert!(got[3].contains("\"unknown-workload\""), "{}", got[3]);
    assert!(got[4].contains("\"kind\":\"protocol\""), "malformed line: {}", got[4]);
    assert!(got[7].contains("unknown op"), "{}", got[7]);
    assert!(got[8].contains("\"kind\":\"timeout\""), "{}", got[8]);
    assert_eq!(
        json[10].get("result").and_then(|r| r.get("name")).and_then(Json::as_str),
        Some("mine"),
        "inline IR with check: {}",
        got[10]
    );
    // Compile replies carry latency and a 16-hex-digit trace id.
    for (j, line) in json.iter().zip(&got).filter(|(_, l)| !l.contains("\"metrics\"")) {
        assert!(j.get("ms").and_then(Json::as_f64).is_some(), "{line}");
        let tid = j.get("trace_id").and_then(Json::as_str).expect("trace_id");
        assert_eq!(tid.len(), 16, "{line}");
        assert!(u64::from_str_radix(tid, 16).unwrap() > 0, "{line}");
    }

    // The opening metrics op saw nothing tallied; the closing one agrees
    // exactly with the tallies the loop returns (control ops excluded).
    let first = json[0].get("metrics").unwrap();
    assert_eq!(first.get("requests").and_then(Json::as_u64), Some(0));
    let last = json[11].get("metrics").unwrap();
    assert_eq!((metrics.requests, metrics.ok, metrics.errors, metrics.timeouts), (9, 5, 4, 1));
    assert_eq!(last.get("requests").and_then(Json::as_u64), Some(metrics.requests));
    assert_eq!(last.get("ok").and_then(Json::as_u64), Some(metrics.ok));
    assert_eq!(last.get("errors").and_then(Json::as_u64), Some(metrics.errors));
    assert_eq!(last.get("timeouts").and_then(Json::as_u64), Some(metrics.timeouts));
    assert_eq!(last.get("cache_hits").and_then(Json::as_u64), Some(metrics.cache_hits));
    assert_eq!(last.get("cache_misses").and_then(Json::as_u64), Some(metrics.cache_misses));
    assert_eq!(last.get("total_ms").and_then(Json::as_f64), Some(metrics.total_ms));
    let registry = json[11].get("registry").expect("registry snapshot");
    assert!(registry.get(REQUEST_LATENCY_HISTOGRAM).is_some(), "{}", got[11]);
}

#[test]
fn concurrent_identical_requests_are_byte_identical_and_cached() {
    let line = "{\"id\":1,\"workload\":\"cmp\",\"check\":true}\n";
    let batch = line.repeat(8);
    let (addr, shutdown, handle) = start(EventOptions { workers: 8, ..EventOptions::default() });
    let (tx, rx) = std::sync::mpsc::channel();
    for _ in 0..2 {
        let (tx, batch) = (tx.clone(), batch.clone());
        std::thread::spawn(move || tx.send(roundtrip(addr, &batch)).unwrap());
    }
    let cold: Vec<String> = rx.iter().take(2).flatten().collect();
    // A repeat is served entirely from the warm cache.
    let warm = roundtrip(addr, &batch);
    shutdown.shutdown();
    let metrics = handle.join().unwrap();

    assert_eq!(cold.len(), 16);
    for l in cold.iter().chain(&warm) {
        assert!(l.contains("\"ok\":true"), "{l}");
        assert_eq!(stable_prefix(l), stable_prefix(&cold[0]));
    }
    for l in &warm {
        assert!(l.contains("\"cache\":{\"hits\":3,\"misses\":0}"), "warm recompiled: {l}");
    }
    // 3 cached stages (superblock, unroll, icbm) per request.
    assert_eq!(metrics.cache_hits + metrics.cache_misses, 24 * 3);
}

#[test]
fn slow_reader_hits_backpressure_but_loses_nothing() {
    // Tiny output budget + emit_ir (multi-KB replies) forces the
    // high-water mark quickly; the sndbuf cap keeps the kernel from
    // absorbing the backlog before the server's own buffer sees it.
    let opts = EventOptions {
        workers: 2,
        conn_buffer: 2048,
        sndbuf: Some(4096),
        ..EventOptions::default()
    };
    let (addr, shutdown, handle) = start(opts);
    let pauses_before = MetricsRegistry::global().counter(READ_PAUSES_COUNTER).value();

    // Enough emit_ir volume that replies overrun both the kernel socket
    // buffer and the 2 KiB server-side high-water mark while the client
    // dawdles. cccp is the suite's largest function, so its compiled IR
    // makes replies multi-KB each.
    let n = 60;
    let stream: String = (0..n)
        .map(|i| format!("{{\"id\":{i},\"workload\":\"cccp\",\"emit_ir\":true}}\n"))
        .collect();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(stream.as_bytes()).expect("send");
    conn.shutdown(std::net::Shutdown::Write).expect("half-close");

    // Read far slower than the server can answer (~200 KB/s against
    // ~750 KB of replies), so the backlog must land in the server's
    // output buffer once the kernel socket buffers fill.
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match conn.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                raw.extend_from_slice(&chunk[..k]);
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("read failed: {e}"),
        }
    }
    shutdown.shutdown();
    handle.join().unwrap();

    let replies: Vec<String> =
        std::str::from_utf8(&raw).unwrap().lines().map(str::to_string).collect();
    assert_eq!(replies.len(), n, "every reply must survive backpressure");
    for (i, r) in replies.iter().enumerate() {
        assert!(
            r.starts_with(&format!("{{\"id\":{i},\"ok\":true")),
            "reply {i} out of order or failed: {r}"
        );
    }
    assert_same_replies(&replies, &single_worker_replies(&stream));
    let pauses_after = MetricsRegistry::global().counter(READ_PAUSES_COUNTER).value();
    assert!(
        pauses_after > pauses_before,
        "a stalled reader must trip the pause counter ({pauses_before} -> {pauses_after})"
    );
}

#[test]
fn half_closed_socket_still_gets_every_reply() {
    let (addr, shutdown, handle) = start(open_opts());
    let mut conn = TcpStream::connect(addr).expect("connect");
    for i in 0..10 {
        conn.write_all(format!("{{\"id\":{i},\"workload\":\"wc\"}}\n").as_bytes()).unwrap();
    }
    // Client is done sending *before* any reply lands; the server must
    // treat EOF as half-close, not hangup.
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let replies: Vec<String> =
        BufReader::new(conn).lines().map(|l| l.expect("reply")).collect();
    shutdown.shutdown();
    handle.join().unwrap();
    assert_eq!(replies.len(), 10);
    for (i, r) in replies.iter().enumerate() {
        assert!(r.starts_with(&format!("{{\"id\":{i},\"ok\":true")), "{r}");
    }
}

#[test]
fn one_byte_per_syscall_client_is_just_slow() {
    let (addr, shutdown, handle) = start(open_opts());
    let mut conn = TcpStream::connect(addr).expect("connect");
    let lines = "{\"id\":1,\"workload\":\"strcpy\"}\n{\"id\":2,\"workload\":\"wc\"}\n";
    for b in lines.as_bytes() {
        conn.write_all(std::slice::from_ref(b)).expect("dribble");
    }
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let replies: Vec<String> =
        BufReader::new(conn).lines().map(|l| l.expect("reply")).collect();
    shutdown.shutdown();
    handle.join().unwrap();
    assert_eq!(replies.len(), 2);
    assert!(replies[0].starts_with("{\"id\":1,\"ok\":true"), "{}", replies[0]);
    assert!(replies[1].starts_with("{\"id\":2,\"ok\":true"), "{}", replies[1]);
    assert_same_replies(&replies, &single_worker_replies(lines));
}

#[test]
fn a_long_line_in_many_chunks_is_answered_once() {
    // A 256 KiB request line (JSON whitespace padding) written 512 bytes
    // per syscall: the server splits lines with one pass over the bytes
    // and answers the line exactly once.
    let (addr, shutdown, handle) = start(open_opts());
    let mut conn = TcpStream::connect(addr).expect("connect");
    let long = format!("{{\"id\":1,{}\"workload\":\"strcpy\"}}", " ".repeat(256 << 10));
    let lines = format!("{long}\n{{\"id\":2,\"workload\":\"wc\"}}\n");
    for chunk in lines.as_bytes().chunks(512) {
        conn.write_all(chunk).expect("chunk");
    }
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let replies: Vec<String> =
        BufReader::new(conn).lines().map(|l| l.expect("reply")).collect();
    shutdown.shutdown();
    handle.join().unwrap();
    assert_eq!(replies.len(), 2, "{replies:#?}");
    assert!(replies[0].starts_with("{\"id\":1,\"ok\":true"), "{}", replies[0]);
    assert!(replies[1].starts_with("{\"id\":2,\"ok\":true"), "{}", replies[1]);
}

#[test]
fn a_line_over_the_cap_answers_protocol_and_the_next_line_is_served() {
    // A request padded past `MAX_LINE_BYTES` with JSON whitespace: the
    // server answers it once with a `protocol` error echoing its id, drops
    // the rest of it, and serves the next line on the same connection.
    let (addr, shutdown, handle) = start(open_opts());
    let mut conn = TcpStream::connect(addr).expect("connect");
    let long = format!("{{\"id\":1,{}\"workload\":\"strcpy\"}}", " ".repeat(MAX_LINE_BYTES));
    conn.write_all(long.as_bytes()).expect("long line");
    conn.write_all(b"\n{\"id\":2,\"workload\":\"strcpy\"}\n").expect("next line");
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let replies: Vec<String> =
        BufReader::new(conn).lines().map(|l| l.expect("reply")).collect();
    shutdown.shutdown();
    handle.join().unwrap();
    assert_eq!(replies.len(), 2, "{replies:#?}");
    let protocol = "{\"id\":1,\"ok\":false,\"error\":{\"kind\":\"protocol\"";
    assert!(replies[0].starts_with(protocol), "{}", replies[0]);
    assert!(replies[0].contains(&format!("longer than {MAX_LINE_BYTES} bytes")), "{}", replies[0]);
    assert!(replies[1].starts_with("{\"id\":2,\"ok\":true"), "{}", replies[1]);
}

#[test]
fn unterminated_final_line_is_answered() {
    // No trailing newline before the half-close: EOF ends the last line.
    let (addr, shutdown, handle) = start(open_opts());
    let lines = "{\"id\":1,\"workload\":\"strcpy\"}\n{\"id\":2,\"workload\":\"wc\"}";
    let replies = roundtrip(addr, lines);
    shutdown.shutdown();
    handle.join().unwrap();
    assert_eq!(replies.len(), 2, "{replies:#?}");
    assert!(replies[0].starts_with("{\"id\":1,\"ok\":true"), "{}", replies[0]);
    assert!(replies[1].starts_with("{\"id\":2,\"ok\":true"), "{}", replies[1]);
}

#[test]
fn invalid_utf8_answers_io_error_and_stream_survives() {
    let (addr, shutdown, handle) = start(open_opts());
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(b"{\"id\":1,\"workload\":\"strcpy\"}\n").unwrap();
    conn.write_all(&[0xff, 0xfe, b'x', b'\n']).unwrap();
    conn.write_all(b"{\"id\":3,\"workload\":\"wc\"}\n").unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let replies: Vec<String> =
        BufReader::new(conn).lines().map(|l| l.expect("reply")).collect();
    shutdown.shutdown();
    let metrics = handle.join().unwrap();
    assert_eq!(replies.len(), 3);
    assert_eq!((metrics.requests, metrics.ok, metrics.errors), (3, 2, 1));
    assert!(replies[0].starts_with("{\"id\":1,\"ok\":true"), "{}", replies[0]);
    assert!(replies[1].contains("\"kind\":\"io\""), "{}", replies[1]);
    assert!(replies[1].contains("valid UTF-8"), "{}", replies[1]);
    assert!(replies[2].starts_with("{\"id\":3,\"ok\":true"), "{}", replies[2]);
}

/// Ids answered with an `overloaded` error, in reply order.
fn shed_ids(replies: &[String]) -> Vec<u64> {
    replies
        .iter()
        .filter(|r| r.contains("\"kind\":\"overloaded\""))
        .map(|r| {
            let after = r.split("\"id\":").nth(1).expect("id in reply");
            after.split([',', '}']).next().unwrap().parse().expect("numeric id")
        })
        .collect()
}

#[test]
fn shedding_is_deterministic_per_stream() {
    // A window of 8 admitting at most 2 large requests: a large-heavy
    // stream must shed, and must shed the *same* requests every time.
    let opts = EventOptions {
        workers: 2,
        shed_window: 8,
        shed_caps: [8, 8, 2],
        ..EventOptions::default()
    };
    let (addr, shutdown, handle) = start(opts);
    let mut stream = String::new();
    for i in 0..24 {
        let w = if i % 3 == 0 { "strcpy" } else { "cccp" }; // cccp is Large
        stream.push_str(&format!("{{\"id\":{i},\"workload\":\"{w}\"}}\n"));
    }
    let first = roundtrip(addr, &stream);
    let second = roundtrip(addr, &stream);
    shutdown.shutdown();
    handle.join().unwrap();

    assert_eq!(first.len(), 24, "shed requests still get replies");
    let (a, b) = (shed_ids(&first), shed_ids(&second));
    assert!(!a.is_empty(), "this stream must shed under a 2-large cap");
    assert_eq!(a, b, "same stream + same caps must shed the same ids");
    // And admitted large requests still succeeded.
    assert!(first.iter().any(|r| r.contains("\"ok\":true")), "{first:#?}");
}

#[test]
fn poll_fallback_serves_the_same_protocol() {
    let opts = EventOptions { workers: 2, force_poll: true, ..EventOptions::default() };
    let cache = Arc::new(CompileCache::new());
    let server = EventServer::bind("127.0.0.1:0", cache, opts).expect("bind");
    assert!(server.is_poll_fallback());
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("event loop"));
    let stream = "{\"id\":1,\"workload\":\"strcpy\"}\n{\"id\":2,\"op\":\"metrics\"}\n";
    let replies = roundtrip(addr, stream);
    shutdown.shutdown();
    handle.join().unwrap();
    assert_eq!(replies.len(), 2);
    assert!(replies[0].starts_with("{\"id\":1,\"ok\":true"), "{}", replies[0]);
    assert!(replies[1].contains("\"metrics\""), "{}", replies[1]);
    assert_same_replies(&replies, &single_worker_replies(stream));
}

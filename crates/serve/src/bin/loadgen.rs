//! Deterministic load generator for the event-driven compile server.
//!
//! ```text
//! loadgen [--requests N] [--connections C] [--workers W] [--quick]
//!         [--poll] [--out PATH]
//! ```
//!
//! Generates a seeded, fully deterministic stream of mixed requests —
//! suite workloads (all three shape tiers), config overrides, inline IR,
//! `check:true` probes, control ops, malformed lines, blank lines — and
//! replays it through the event server over real TCP connections,
//! including two torture clients (a slow reader that sips 512-byte
//! chunks, and a writer that sends one byte per syscall), recording
//! p50/p99/p999 request latency from the `epic-obs` histograms.
//!
//! Every reply must arrive **in request order** on its connection, and
//! the digest of all stable reply prefixes (up to the `"cache"` key,
//! metrics replies skipped; see `epic_serve::proto::reply_digest`) must
//! equal the committed golden digest for the stream's shape. The summary
//! prints the digest, so a deliberate reply change shows the new value to
//! commit. The torture clients' replies are also compared one by one with
//! the same streams served by a single-worker server. A separate pass
//! replays one substream twice against tight admission caps and checks
//! the shed id sets match exactly (deterministic load shedding).
//!
//! The default run writes `BENCH_serve.json`; `--quick` runs a small
//! smoke sweep (used by `just serve-bench`) that asserts the same
//! invariants plus a generous p99 bound and writes nothing.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use epic_bench::timing::json_string;
use epic_bench::CompileCache;
use epic_obs::MetricsRegistry;
use epic_serve::event::{READ_PAUSES_COUNTER, SHED_COUNTER};
use epic_serve::proto::reply_digest;
use epic_serve::{EventOptions, EventServer, ShapeTable, Tier};

/// Golden reply digests per stream shape `(requests, connections)`,
/// captured from the replies of the server this one replaced.
const GOLDEN: &[(usize, usize, &str)] =
    &[(4_000, 8, "90273e11da42603b"), (100_000, 8, "85e8cf484cc95886")];

/// Deterministic 64-bit LCG (MMIX constants); the whole stream derives
/// from one seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// The workload names grouped by shape tier, so the stream provably mixes
/// all clusters.
struct Mix {
    small: Vec<&'static str>,
    medium: Vec<&'static str>,
    large: Vec<&'static str>,
    inline_ir: String,
}

impl Mix {
    fn new() -> Mix {
        let table = ShapeTable::new();
        let mut small = Vec::new();
        let mut medium = Vec::new();
        let mut large = Vec::new();
        for w in epic_workloads::all() {
            match table.workload(w.name).expect("suite workload").tier() {
                Tier::Small => small.push(w.name),
                Tier::Medium => medium.push(w.name),
                Tier::Large => large.push(w.name),
            }
        }
        let strcpy = epic_workloads::by_name("strcpy").expect("strcpy");
        let inline_ir = json_string(&strcpy.func.to_string());
        Mix { small, medium, large, inline_ir }
    }

    /// The `i`-th request line of the stream seeded by `seed` (trailing
    /// newline included; an empty string models the blank line).
    fn line(&self, rng: &mut Lcg, id: u64) -> String {
        const CONFIGS: [&str; 3] = [
            "",
            ",\"config\":{\"trace\":{\"min_count\":8}}",
            ",\"config\":{\"cpr\":{\"max_branches\":3}}",
        ];
        match rng.below(100) {
            // 58%: plain hot workloads, weighted toward the cheap tiers.
            0..=37 => format!("{{\"id\":{id},\"workload\":\"{}\"}}\n", self.pick_small(rng)),
            38..=49 => format!("{{\"id\":{id},\"workload\":\"{}\"}}\n", rng.pick(&self.medium)),
            50..=57 => format!("{{\"id\":{id},\"workload\":\"{}\"}}\n", rng.pick(&self.large)),
            // 12%: config overrides split the cache and the shape cluster.
            58..=69 => {
                let cfg = CONFIGS[rng.below(CONFIGS.len() as u64) as usize];
                format!("{{\"id\":{id},\"workload\":\"{}\"{cfg}}}\n", self.pick_small(rng))
            }
            // 8%: emit_ir inflates replies (exercises write backpressure).
            70..=77 => {
                format!("{{\"id\":{id},\"workload\":\"{}\",\"emit_ir\":true}}\n", self.pick_small(rng))
            }
            // 2%: differential checks on the cheapest tier.
            78..=79 => format!("{{\"id\":{id},\"workload\":\"strcpy\",\"check\":true}}\n"),
            // 5%: inline IR with its profiling input.
            80..=84 => format!(
                "{{\"id\":{id},\"name\":\"inline-{}\",\"ir\":{},\"unroll\":1,\
                 \"input\":{{\"memory_size\":16384,\"memory\":[[0,[104,105,0]]],\"fuel\":100000}}}}\n",
                rng.below(4),
                self.inline_ir
            ),
            // 3%: control ops.
            85..=87 => format!("{{\"id\":{id},\"op\":\"metrics\"}}\n"),
            // 7%: malformed traffic that must answer structured errors.
            88..=90 => "this line is not json\n".to_string(),
            91..=92 => format!("{{\"id\":{id},\"workload\":\"no-such-workload\"}}\n"),
            93..=94 => format!("{{\"id\":{id},\"op\":\"launch-missiles\"}}\n"),
            95 => format!("{{\"id\":{id},\"workload\":42}}\n"),
            // 4%: blank lines (skipped by both servers, no reply slot).
            _ => "\n".to_string(),
        }
    }

    fn pick_small(&self, rng: &mut Lcg) -> &'static str {
        self.small[rng.below(self.small.len() as u64) as usize]
    }
}

/// Builds connection `c`'s substream: `n` generated lines plus the count
/// of expected replies (blank lines get none).
fn build_stream(mix: &Mix, seed: u64, n: usize) -> (String, usize) {
    let mut rng = Lcg(seed);
    let mut out = String::new();
    let mut replies = 0;
    for i in 0..n {
        let line = mix.line(&mut rng, i as u64);
        if line.trim() != "" {
            replies += 1;
        }
        out.push_str(&line);
    }
    (out, replies)
}

/// How a client reads its connection: realistically, in tiny sips with
/// pauses (forcing server-side backpressure), or writing one byte per
/// syscall.
#[derive(Clone, Copy, PartialEq)]
enum Torture {
    None,
    SlowReader,
    ByteWriter,
}

/// Replays one substream over a real TCP connection and returns the
/// replies in arrival order.
fn replay(addr: SocketAddr, stream: String, torture: Torture) -> Vec<String> {
    let conn = TcpStream::connect(addr).expect("connect");
    let mut rd = conn.try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        let mut wr = &conn;
        if torture == Torture::ByteWriter {
            for b in stream.as_bytes() {
                wr.write_all(std::slice::from_ref(b)).expect("dribble");
            }
        } else {
            wr.write_all(stream.as_bytes()).expect("send");
        }
        conn.shutdown(std::net::Shutdown::Write).expect("half-close");
    });
    let mut replies = Vec::new();
    if torture == Torture::SlowReader {
        let mut raw = Vec::new();
        let mut chunk = [0u8; 512];
        loop {
            match rd.read(&mut chunk) {
                Ok(0) => break,
                Ok(k) => {
                    raw.extend_from_slice(&chunk[..k]);
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("slow read failed: {e}"),
            }
        }
        replies.extend(String::from_utf8(raw).unwrap().lines().map(str::to_string));
    } else {
        for line in BufReader::new(rd).lines() {
            replies.push(line.expect("reply line"));
        }
    }
    writer.join().expect("writer thread");
    replies
}

/// Runs `streams` through a fresh single-worker event server, one plain
/// client at a time: the reference the torture clients must match.
fn reference_replies(streams: &[&str], force_poll: bool) -> Vec<Vec<String>> {
    let opts = EventOptions { workers: 1, force_poll, ..EventOptions::default() };
    let server = EventServer::bind("127.0.0.1:0", Arc::new(CompileCache::new()), opts)
        .expect("bind reference server");
    let addr = server.local_addr().expect("local_addr");
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run().expect("event loop"));
    let replies = streams.iter().map(|s| replay(addr, s.to_string(), Torture::None)).collect();
    shutdown.shutdown();
    thread.join().expect("reference server thread");
    replies
}

/// Ids of replies shed with an `overloaded` error.
fn shed_ids(replies: &[String]) -> Vec<u64> {
    replies
        .iter()
        .filter(|r| r.contains("\"kind\":\"overloaded\""))
        .filter_map(|r| {
            let after = r.split("\"id\":").nth(1)?;
            after.split([',', '}']).next()?.parse().ok()
        })
        .collect()
}

fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn take_bool_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(i);
    true
}

fn hist_json(name: &str) -> String {
    let s = MetricsRegistry::global().histogram(name).snapshot();
    format!(
        "{{\"count\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"p999_us\":{}}}",
        s.count, s.p50, s.p90, s.p99, s.p999
    )
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = take_bool_flag(&mut args, "--quick");
    let force_poll = take_bool_flag(&mut args, "--poll");
    let requests: usize = take_value_flag(&mut args, "--requests")
        .map_or(if quick { 4_000 } else { 100_000 }, |v| v.parse().expect("--requests"));
    let connections: usize = take_value_flag(&mut args, "--connections")
        .map_or(8, |v| v.parse().expect("--connections"));
    let workers: usize =
        take_value_flag(&mut args, "--workers").map_or(0, |v| v.parse().expect("--workers"));
    let out_path = take_value_flag(&mut args, "--out");
    if let Some(unknown) = args.first() {
        eprintln!("unknown argument: {unknown}");
        eprintln!(
            "usage: loadgen [--requests N] [--connections C] [--workers W] \
             [--quick] [--poll] [--out PATH]"
        );
        exit(2);
    }

    let mix = Mix::new();
    eprintln!(
        "loadgen: {} requests over {} connections (+2 torture), tiers small={} medium={} large={}",
        requests,
        connections,
        mix.small.len(),
        mix.medium.len(),
        mix.large.len()
    );

    // Substreams: `connections` bulk streams plus two torture clients
    // (their requests count toward the total).
    let clients = connections + 2;
    let torture_n = (requests / clients).min(400); // torture clients are slow by design
    let bulk_total = requests - 2 * torture_n;
    let per_conn = bulk_total / connections;
    let mut streams: Vec<(String, usize, Torture)> = Vec::new();
    let mut total = 0;
    for c in 0..connections {
        let n = per_conn + if c == 0 { bulk_total - per_conn * connections } else { 0 };
        let (s, replies) = build_stream(&mix, 0x5eed + c as u64, n);
        total += n;
        streams.push((s, replies, Torture::None));
    }
    let (s, r) = build_stream(&mix, 0xbad5eed, torture_n);
    total += torture_n;
    streams.push((s, r, Torture::SlowReader));
    let (s, r) = build_stream(&mix, 0x1b17e, torture_n);
    total += torture_n;
    streams.push((s, r, Torture::ByteWriter));

    // --- Pass 1: the event server over TCP -----------------------------
    let opts = EventOptions {
        workers,
        force_poll,
        max_inflight: usize::MAX,
        ..EventOptions::default()
    };
    let cache = Arc::new(CompileCache::new());
    let server = EventServer::bind("127.0.0.1:0", cache, opts).expect("bind event server");
    let backend = if server.is_poll_fallback() { "poll" } else { "epoll" };
    let addr = server.local_addr().expect("local_addr");
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run().expect("event loop"));

    let t0 = std::time::Instant::now();
    let client_threads: Vec<_> = streams
        .iter()
        .map(|(s, _, torture)| {
            let (s, torture) = (s.clone(), *torture);
            std::thread::spawn(move || replay(addr, s, torture))
        })
        .collect();
    let replies: Vec<Vec<String>> =
        client_threads.into_iter().map(|t| t.join().expect("client")).collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let latency = hist_json("serve_request_us");
    let tier_latency: Vec<String> = Tier::ALL
        .iter()
        .map(|t| {
            let name = epic_obs::metric_name("serve_request_us", &[("tier", t.name())]);
            format!("\"{}\":{}", t.name(), hist_json(&name))
        })
        .collect();
    let pauses = MetricsRegistry::global().counter(READ_PAUSES_COUNTER).value();
    shutdown.shutdown();
    let metrics = server_thread.join().expect("server thread");
    eprintln!(
        "loadgen: answered {} requests in {:.1}s ({:.0} req/s, {} backend)",
        metrics.requests,
        wall_s,
        metrics.requests as f64 / wall_s,
        backend
    );

    // Ordering + completeness before anything else.
    for (c, ((_, expected_replies, _), got)) in streams.iter().zip(&replies).enumerate() {
        assert_eq!(
            got.len(),
            *expected_replies,
            "conn {c}: dropped or duplicated replies (got {}, expected {expected_replies})",
            got.len()
        );
    }

    // --- Pass 2: golden digest, and torture clients vs one worker ------
    let digest = reply_digest(replies.iter().flatten().map(String::as_str));
    eprintln!("loadgen: reply digest {digest}");
    match GOLDEN.iter().find(|g| (g.0, g.1) == (requests, connections)) {
        Some(&(_, _, golden)) => assert_eq!(
            digest, golden,
            "replies diverged from the golden digest (new digest {digest})"
        ),
        None => eprintln!("loadgen: no golden digest for this stream shape"),
    }
    let torture: Vec<usize> = (connections..clients).collect();
    let tortured: Vec<&str> = torture.iter().map(|&c| streams[c].0.as_str()).collect();
    for (&c, expect) in torture.iter().zip(reference_replies(&tortured, force_poll)) {
        let got = &replies[c];
        assert_eq!(got.len(), expect.len(), "conn {c}: reply count diverged");
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            // Digesting one reply compares stable prefixes and lets the
            // live snapshots of metrics replies differ.
            let same = reply_digest([g.as_str()]) == reply_digest([e.as_str()]);
            assert!(same, "conn {c} reply {i} diverged from the single-worker server");
        }
    }

    // --- Pass 3: deterministic shedding ---------------------------------
    let shed_opts = EventOptions {
        workers: 2,
        force_poll,
        shed_window: 8,
        shed_caps: [8, 8, 1],
        ..EventOptions::default()
    };
    let cache = Arc::new(CompileCache::new());
    let server = EventServer::bind("127.0.0.1:0", cache, shed_opts).expect("bind shed server");
    let addr = server.local_addr().expect("local_addr");
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run().expect("event loop"));
    let (shed_stream, _) = build_stream(&mix, 0xfeed, if quick { 500 } else { 3_000 });
    let first = shed_ids(&replay(addr, shed_stream.clone(), Torture::None));
    let second = shed_ids(&replay(addr, shed_stream, Torture::None));
    shutdown.shutdown();
    server_thread.join().expect("shed server thread");
    assert!(!first.is_empty(), "a 1-large cap must shed this stream");
    assert_eq!(first, second, "same stream + same caps must shed the same ids");
    eprintln!("loadgen: shedding deterministic ({} sheds, identical across replays)", first.len());

    let shed_counts: Vec<String> = Tier::ALL
        .iter()
        .map(|t| {
            let name = epic_obs::metric_name(SHED_COUNTER, &[("tier", t.name())]);
            format!("\"{}\":{}", t.name(), MetricsRegistry::global().counter(&name).value())
        })
        .collect();

    if quick {
        // Smoke gates for CI: nothing dropped (asserted above), sane tail.
        let p99_us = MetricsRegistry::global().histogram("serve_request_us").snapshot().p99;
        let bound_us = 2_000_000;
        assert!(
            p99_us < bound_us,
            "p99 request latency {p99_us}us breaches the {bound_us}us smoke bound"
        );
        eprintln!("loadgen: quick smoke ok (p99 {p99_us}us, all replies in order)");
        if out_path.is_none() {
            return;
        }
    }

    let json = format!(
        "{{\n  \"snapshot\": \"serve_pr7\",\n  \"requests\": {total},\n  \"replies\": {compared_total},\n  \
         \"connections\": {clients},\n  \"workers\": {workers_n},\n  \"backend\": \"{backend}\",\n  \
         \"wall_s\": {wall_s:.3},\n  \"reply_digest\": \"{digest}\",\n  \"in_order\": true,\n  \
         \"shed_deterministic\": true,\n  \"shed_replay_sheds\": {sheds},\n  \
         \"read_pauses\": {pauses},\n  \"shed_totals\": {{{shed_counts}}},\n  \
         \"latency_us\": {latency},\n  \"tier_latency_us\": {{{tiers}}}\n}}\n",
        compared_total = replies.iter().map(Vec::len).sum::<usize>(),
        workers_n = if workers == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            workers
        },
        sheds = first.len(),
        shed_counts = shed_counts.join(","),
        tiers = tier_latency.join(","),
    );
    let path = out_path.unwrap_or_else(|| "BENCH_serve.json".to_string());
    std::fs::write(&path, &json).expect("write bench json");
    eprintln!("loadgen: wrote {path}");
}

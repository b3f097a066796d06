//! The batch-compile service front-end.
//!
//! ```text
//! serve [--tcp ADDR] [--workers N] [--timeout-ms N] [--heartbeat-ms N]
//!       [--max-inflight N] [--shed-window N] [--shed-caps S,M,L]
//!       [--conn-buffer BYTES] [--sndbuf BYTES] [--poll]
//! ```
//!
//! One event-driven server answers every request: an epoll/poll event loop
//! multiplexing connections with non-blocking I/O, compile work on a fixed
//! pool of `--workers N` threads (default: one per core) routed by target
//! fingerprint, per-connection write backpressure (`--conn-buffer BYTES`
//! high-water mark), and layered admission control — a deterministic
//! per-connection sliding window (`--shed-window N` requests, per-tier caps
//! `--shed-caps S,M,L` for small/medium/large shape clusters) plus a global
//! `--max-inflight N` backstop. Shed requests get a structured
//! `overloaded` error reply. `--poll` forces the portable poll(2) backend
//! even where epoll exists.
//!
//! By default the server reads newline-delimited JSON requests from stdin
//! and answers on stdout, one response line per request, in request order:
//! stdin is pumped into the event loop as one loopback connection (stdin
//! may be a pipe or a regular file), and EOF shuts the server down and
//! prints the run's metrics (request counts, cache counters, latencies) as
//! JSON on stderr. A stdin batch is not shed by the `--max-inflight`
//! backstop unless that flag is given. With `--tcp ADDR` it listens on
//! `ADDR` (e.g. `127.0.0.1:7777`) instead, reporting per-connection
//! metrics on stderr as connections close.
//!
//! `--timeout-ms N` is the budget of requests that set no `timeout_ms`; a
//! request past its budget stops at the next pipeline stage boundary (or
//! ICBM phase) and answers a `timeout` error. `--heartbeat-ms N` reports the server-wide
//! tallies on stderr every `N` ms, and a `{"op":"metrics"}` request line
//! fetches a connection's tallies in-band (see `epic_serve::proto`).
//!
//! All connections (and all requests within a batch) share one
//! [`CompileCache`]; set `EPIC_CACHE_DIR` to also persist stage artifacts
//! across server restarts. See `epic_serve::proto` for the wire format.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::process::exit;
use std::sync::Arc;

use epic_bench::CompileCache;
use epic_serve::{EventOptions, EventServer};

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

fn parse_or_die<T: std::str::FromStr>(v: &str, flag: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs an integer");
        exit(2);
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = EventOptions::default();
    let int_flag = |args: &mut Vec<String>, flag: &str| {
        take_value_flag(args, flag).map(|v| parse_or_die::<u64>(&v, flag))
    };
    opts.default_timeout_ms = int_flag(&mut args, "--timeout-ms");
    opts.heartbeat_ms = int_flag(&mut args, "--heartbeat-ms");
    let tcp = take_value_flag(&mut args, "--tcp");
    if let Some(n) = int_flag(&mut args, "--workers") {
        opts.workers = n as usize;
    }
    // A stdin batch is not load: unless asked, its lines are never shed
    // by the global backstop.
    opts.max_inflight = match int_flag(&mut args, "--max-inflight") {
        Some(n) => n as usize,
        None if tcp.is_none() => usize::MAX,
        None => opts.max_inflight,
    };
    if let Some(n) = int_flag(&mut args, "--shed-window") {
        opts.shed_window = n as usize;
    }
    if let Some(v) = take_value_flag(&mut args, "--shed-caps") {
        let parts: Vec<usize> = v.split(',').map(|p| parse_or_die(p, "--shed-caps")).collect();
        if parts.len() != 3 {
            eprintln!("--shed-caps needs three comma-separated integers (small,medium,large)");
            exit(2);
        }
        opts.shed_caps = [parts[0], parts[1], parts[2]];
    }
    if let Some(n) = int_flag(&mut args, "--conn-buffer") {
        opts.conn_buffer = n as usize;
    }
    opts.sndbuf = int_flag(&mut args, "--sndbuf").map(|n| n as usize);
    opts.force_poll = take_bool_flag(&mut args, "--poll");
    if let Some(unknown) = args.first() {
        eprintln!("unknown argument: {unknown}");
        eprintln!(
            "usage: serve [--tcp ADDR] [--workers N] [--timeout-ms N] [--heartbeat-ms N] \
             [--max-inflight N] [--shed-window N] [--shed-caps S,M,L] \
             [--conn-buffer BYTES] [--sndbuf BYTES] [--poll]"
        );
        exit(2);
    }

    let cache = Arc::new(CompileCache::from_env());
    let addr = tcp.as_deref().unwrap_or("127.0.0.1:0");
    let server = EventServer::bind(addr, cache, opts).unwrap_or_else(|e| {
        eprintln!("serve: cannot listen on {addr}: {e}");
        exit(1);
    });
    if tcp.is_some() {
        let backend = if server.is_poll_fallback() { "poll" } else { "epoll" };
        eprintln!("serve: event server ({backend}) listening on {addr}");
        report(server.run());
        return;
    }

    // stdin/stdout: one loopback connection. A pump thread copies stdin
    // into it (blocking reads, so a regular file works too) and
    // half-closes; the server drains every reply and closes, which ends
    // the copy to stdout.
    let local = server.local_addr().unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        exit(1);
    });
    let shutdown = server.shutdown_handle();
    let event_loop = std::thread::spawn(move || server.run());
    let result = TcpStream::connect(local).and_then(|conn| {
        let pump_conn = conn.try_clone()?;
        std::thread::spawn(move || {
            let _ = std::io::copy(&mut std::io::stdin().lock(), &mut &pump_conn);
            let _ = pump_conn.shutdown(Shutdown::Write);
        });
        let mut stdout = std::io::stdout().lock();
        std::io::copy(&mut &conn, &mut stdout)?;
        stdout.flush()
    });
    shutdown.shutdown();
    let metrics = event_loop.join().expect("event loop thread");
    if let Err(e) = result {
        eprintln!("serve: I/O error: {e}");
        exit(1);
    }
    report(metrics);
}

/// Prints the server-wide tallies on stderr, or the loop's failure.
fn report(metrics: std::io::Result<epic_serve::ServerMetrics>) {
    match metrics {
        Ok(m) => eprintln!("serve: {}", m.to_json()),
        Err(e) => {
            eprintln!("serve: event loop failed: {e}");
            exit(1);
        }
    }
}

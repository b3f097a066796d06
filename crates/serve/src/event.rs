//! The event-driven compile server — the crate's only server.
//!
//! One event-loop thread multiplexes every TCP connection through a
//! [`Poller`] (epoll on Linux, poll(2) fallback): non-blocking accept,
//! read, and write, with a per-connection state machine. The `serve`
//! binary's stdin/stdout mode is one more loopback connection, pumped by
//! the binary. Compile work never runs on the loop — requests are
//! dispatched to a **fixed worker pool**, routed by the target's
//! structural fingerprint (the same FNV mix the [`CompileCache`] shards
//! by), so a hot workload's probes stay on one worker and its cache shard
//! stays core-local. Workers push completions onto a queue and wake the
//! loop through the poller's self-pipe.
//!
//! A worker runs each request behind a panic boundary: a panicking pass
//! answers `{"ok":false,"error":{"kind":"internal",...}}` (counted in
//! `serve_panics_total`) and the worker keeps serving its shard. Request
//! timeouts are cooperative deadlines checked at pipeline stage
//! boundaries, so no thread is ever left behind.
//!
//! ## Ordering and backpressure
//!
//! Replies stream back **in request order per connection**: every parsed
//! line takes a sequence number, completions park in a reorder map, and
//! the writer drains the map contiguously. A connection's output buffer
//! has a high-water mark; crossing it *pauses reading* from that client
//! (its socket stays open, its submitted work finishes) until the buffer
//! drains below half — so a slow reader bounds its own memory instead of
//! growing the server's. Input is bounded too: a request line longer than
//! [`MAX_LINE_BYTES`] gets one `protocol` reply and is dropped as it
//! arrives, so a client that never sends `\n` cannot grow the server's
//! memory. Half-closed sockets (client shut down its write side) still
//! receive every reply already in flight, and a final line without a
//! trailing newline is still answered.
//!
//! ## Admission and load shedding
//!
//! Two layers, cheapest first:
//! 1. **Deterministic shape admission** ([`crate::shape`]): requests are
//!    classified into shape clusters (op count, branch height, config
//!    hash) before any parse; each connection has a sliding window with
//!    per-tier caps, and over-cap requests get a structured `overloaded`
//!    reply. Same stream + same caps ⇒ same shed set, always.
//! 2. **Global in-flight backstop** (`max_inflight`): when the worker
//!    queues hold that many unfinished compiles, further compile requests
//!    are shed (non-deterministic by design — it reacts to actual load).

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use epic_bench::{route_fingerprint, CompileCache};
use epic_obs::{metric_name, Counter, Gauge, Histogram, MetricsRegistry};

use crate::exec::{process, LiveMetrics, Outcome, ServerMetrics, REQUEST_LATENCY_HISTOGRAM};
use crate::poller::{Event, Interest, Poller, WakeHandle};
use crate::proto::{parse_control, peek_id, render_metrics, ControlOp};
use crate::shape::{Admission, ShapeTable, Tier};
use crate::ServeError;

/// Registry name of the gauge tracking compile jobs queued or running on
/// the worker pool.
pub const QUEUE_DEPTH_GAUGE: &str = "serve_event_queue_depth";
/// Registry name of the counter of read-side backpressure pauses.
pub const READ_PAUSES_COUNTER: &str = "serve_read_pauses_total";
/// Base name of the per-tier shed counters
/// (`serve_shed_total{tier="small"|"medium"|"large"}`).
pub const SHED_COUNTER: &str = "serve_shed_total";
/// Registry name of the counter of requests whose worker panicked.
pub const PANICS_COUNTER: &str = "serve_panics_total";

/// The longest request line a connection may send, in bytes before its
/// `\n` (a `\r` before it counts). The largest legitimate request, inline
/// IR for the largest corpus program (`corpus.mixed.10k`) with its whole
/// training image, is about 0.7 MB, under a tenth of this
/// (`the_line_cap_fits_the_largest_inline_ir_request` checks that it fits
/// eight times over). A longer line is answered, in order, with one
/// `protocol` error (echoing its `"id"` when the line starts with one);
/// the rest of it is discarded up to its `\n` and the connection keeps
/// being served. A connection's unconsumed input therefore never holds
/// more than this plus one read.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// Tuning knobs for one [`EventServer`].
#[derive(Clone, Debug)]
pub struct EventOptions {
    /// Compile worker threads; `0` means one per available core.
    pub workers: usize,
    /// Budget applied to requests that don't set their own `timeout_ms`.
    pub default_timeout_ms: Option<u64>,
    /// Global backstop: compile requests arriving while this many are
    /// queued or running are shed with an `overloaded` reply. Load-
    /// dependent, hence non-deterministic; set it high when replaying
    /// streams for byte comparison.
    pub max_inflight: usize,
    /// Size of the per-connection deterministic admission window.
    pub shed_window: usize,
    /// Per-tier admission caps (`[small, medium, large]`) within the
    /// window. A cap `>= shed_window` never sheds that tier.
    pub shed_caps: [usize; 3],
    /// Output-buffer high-water mark per connection, bytes. Crossing it
    /// pauses reading from the connection until the buffer half-drains.
    pub conn_buffer: usize,
    /// Kernel `SO_SNDBUF` cap applied to accepted connections. `None`
    /// keeps the kernel's auto-tuned default, which can absorb megabytes
    /// per stalled client before `conn_buffer` backpressure engages; set
    /// it to make a slow reader's backlog land in the server's bounded
    /// buffer instead.
    pub sndbuf: Option<usize>,
    /// Force the poll(2) backend even where epoll is available.
    pub force_poll: bool,
    /// Period of the live server-wide metrics heartbeat on stderr; `None`
    /// disables it.
    pub heartbeat_ms: Option<u64>,
}

impl Default for EventOptions {
    fn default() -> Self {
        EventOptions {
            workers: 0,
            default_timeout_ms: None,
            max_inflight: 1024,
            shed_window: 64,
            shed_caps: [64, 64, 64],
            conn_buffer: 256 * 1024,
            sndbuf: None,
            force_poll: false,
            heartbeat_ms: None,
        }
    }
}

impl EventOptions {
    fn worker_count(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(4, |n| n.get())
    }
}

/// Requests a running [`EventServer::run`] loop to stop (idempotent,
/// thread-safe). The loop finishes its current poll round, drops every
/// connection, joins the workers, and returns.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    wake: WakeHandle,
}

impl ShutdownHandle {
    /// Signals the loop to stop and wakes it if blocked.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::Release);
        self.wake.wake();
    }
}

/// One compile job shipped to a worker.
struct Job {
    token: usize,
    seq: u64,
    line: String,
    tier: Tier,
}

/// One finished job coming back from a worker.
struct Completion {
    token: usize,
    seq: u64,
    tier: Tier,
    outcome: Outcome,
}

/// A reply waiting for its turn in a connection's output order.
enum PendingReply {
    /// A finished (or immediately-failed) compile outcome.
    Done(Outcome),
    /// A control op, rendered when its turn comes so its snapshot covers
    /// exactly the requests answered before it.
    Control(ControlOp),
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    /// Bytes read but not yet consumed as complete lines.
    inbuf: LineBuf,
    /// Reply bytes not yet accepted by the socket.
    outbuf: Vec<u8>,
    /// Prefix of `outbuf` already written.
    out_pos: usize,
    /// Sequence number the next parsed line will take.
    next_seq: u64,
    /// Sequence number the next emitted reply must have.
    next_write: u64,
    /// Out-of-order completions waiting for their turn.
    pending: HashMap<u64, PendingReply>,
    /// Jobs dispatched to workers and not yet completed.
    inflight: usize,
    /// Client sent EOF (possibly a half-close: replies still flow).
    read_closed: bool,
    /// Reading is paused by output backpressure.
    paused: bool,
    /// Connection is broken; discard it at the next opportunity.
    dead: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
    admission: Admission,
    /// Per-connection tallies ({"op":"metrics"} replies and the close
    /// report reconcile against these).
    live: LiveMetrics,
}

impl Conn {
    fn queued_out(&self) -> usize {
        self.outbuf.len() - self.out_pos
    }

    fn wants(&self) -> Interest {
        Interest {
            read: !self.read_closed && !self.paused && !self.dead,
            write: self.queued_out() > 0,
        }
    }

    /// Finished: all input consumed, all replies delivered.
    fn drained(&self) -> bool {
        self.read_closed && self.inflight == 0 && self.pending.is_empty() && self.queued_out() == 0
    }
}

/// Shared handles the loop threads use for accounting.
struct Ctx {
    cache: Arc<CompileCache>,
    opts: EventOptions,
    worker_count: usize,
    senders: Vec<mpsc::Sender<Job>>,
    shape: ShapeTable,
    global_live: Arc<LiveMetrics>,
    queue_gauge: Arc<Gauge>,
    pause_counter: Arc<Counter>,
    shed_counters: [Arc<Counter>; 3],
    tier_hists: [Arc<Histogram>; 3],
    latency_hist: Arc<Histogram>,
}

/// The event-driven compile server. [`bind`](EventServer::bind) it, grab
/// a [`ShutdownHandle`], then [`run`](EventServer::run) the loop (it
/// blocks until shut down).
pub struct EventServer {
    listener: TcpListener,
    poller: Poller,
    ctx: Ctx,
    receivers: Vec<mpsc::Receiver<Job>>,
    completions: Arc<Mutex<VecDeque<Completion>>>,
    shutdown: Arc<AtomicBool>,
}

const LISTENER_TOKEN: usize = 0;

impl EventServer {
    /// Binds `addr` and prepares the poller and worker channels (workers
    /// start inside [`run`](EventServer::run)).
    ///
    /// # Errors
    ///
    /// Socket or poller creation failures, verbatim.
    pub fn bind(
        addr: impl ToSocketAddrs,
        cache: Arc<CompileCache>,
        opts: EventOptions,
    ) -> io::Result<EventServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new(opts.force_poll)?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        let worker_count = opts.worker_count();
        let mut senders = Vec::with_capacity(worker_count);
        let mut receivers = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let (tx, rx) = mpsc::channel::<Job>();
            senders.push(tx);
            receivers.push(rx);
        }
        let registry = MetricsRegistry::global();
        let tier_metric =
            |base: &str, t: Tier| registry.histogram(&metric_name(base, &[("tier", t.name())]));
        let ctx = Ctx {
            cache,
            worker_count,
            senders,
            shape: ShapeTable::new(),
            global_live: Arc::new(LiveMetrics::default()),
            queue_gauge: registry.gauge(QUEUE_DEPTH_GAUGE),
            pause_counter: registry.counter(READ_PAUSES_COUNTER),
            shed_counters: Tier::ALL.map(|t| {
                registry.counter(&metric_name(SHED_COUNTER, &[("tier", t.name())]))
            }),
            tier_hists: Tier::ALL.map(|t| tier_metric(REQUEST_LATENCY_HISTOGRAM, t)),
            latency_hist: registry.histogram(REQUEST_LATENCY_HISTOGRAM),
            opts,
        };
        Ok(EventServer {
            listener,
            poller,
            ctx,
            receivers,
            completions: Arc::new(Mutex::new(VecDeque::new())),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// The underlying `getsockname` failure, if any.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// True when running on the poll(2) fallback backend.
    pub fn is_poll_fallback(&self) -> bool {
        self.poller.is_poll_fallback()
    }

    /// A handle that stops [`run`](EventServer::run) from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { flag: Arc::clone(&self.shutdown), wake: self.poller.wake_handle() }
    }

    /// Runs the loop until [`ShutdownHandle::shutdown`]. Returns the
    /// server-wide tallies (per-connection tallies are reported on stderr
    /// as connections close).
    ///
    /// # Errors
    ///
    /// Only poller-level failures escape; per-connection I/O errors drop
    /// that connection and per-request failures become `{"ok":false}`
    /// replies.
    pub fn run(mut self) -> io::Result<ServerMetrics> {
        let panics = MetricsRegistry::global().counter(PANICS_COUNTER);
        let workers: Vec<std::thread::JoinHandle<()>> = self
            .receivers
            .drain(..)
            .map(|rx| {
                let cache = Arc::clone(&self.ctx.cache);
                let completions = Arc::clone(&self.completions);
                let wake = self.poller.wake_handle();
                let panics = Arc::clone(&panics);
                let timeout = self.ctx.opts.default_timeout_ms;
                std::thread::spawn(move || {
                    work(rx, &completions, &wake, &panics, |line| process(line, &cache, timeout))
                })
            })
            .collect();
        // The heartbeat thread sleeps on a channel so dropping `stop`
        // wakes it for good.
        let (stop, stopped) = mpsc::channel::<()>();
        if let Some(ms) = self.ctx.opts.heartbeat_ms {
            let live = Arc::clone(&self.ctx.global_live);
            let period = Duration::from_millis(ms.max(1));
            std::thread::spawn(move || {
                while stopped.recv_timeout(period) == Err(mpsc::RecvTimeoutError::Timeout) {
                    eprintln!("serve: heartbeat {{\"metrics\":{}}}", live.snapshot().to_json());
                }
            });
        }

        let mut conns: HashMap<usize, Conn> = HashMap::new();
        let mut next_token = LISTENER_TOKEN + 1;
        let mut inflight_total: usize = 0;
        let mut events: Vec<Event> = Vec::new();
        let loop_result = loop {
            if let Err(e) = self.poller.wait(&mut events) {
                break Err(e);
            }
            if self.shutdown.load(Ordering::Acquire) {
                break Ok(());
            }
            for ev in &events {
                if ev.token == LISTENER_TOKEN {
                    accept_ready(
                        &self.listener,
                        &mut self.poller,
                        &mut conns,
                        &mut next_token,
                        &self.ctx,
                    );
                } else if let Some(conn) = conns.get_mut(&ev.token) {
                    if ev.error {
                        conn.dead = true;
                    }
                    if ev.readable && !conn.dead {
                        read_ready(conn, ev.token, &self.ctx, &mut inflight_total);
                    }
                    if ev.writable && !conn.dead {
                        write_ready(conn);
                    }
                }
            }
            // Worker completions (the wake pipe got us here if nothing
            // else did).
            let batch: Vec<Completion> = {
                let mut q = self.completions.lock().expect("completion queue poisoned");
                q.drain(..).collect()
            };
            for done in batch {
                self.ctx.queue_gauge.add(-1);
                inflight_total = inflight_total.saturating_sub(1);
                let Some(conn) = conns.get_mut(&done.token) else {
                    continue; // connection died before its reply
                };
                conn.inflight -= 1;
                let us = (done.outcome.ms * 1e3) as u64;
                self.ctx.latency_hist.observe(us);
                self.ctx.tier_hists[done.tier.index()].observe(us);
                conn.pending.insert(done.seq, PendingReply::Done(done.outcome));
            }
            // Advance every connection's state machine and sweep the dead.
            let tokens: Vec<usize> = conns.keys().copied().collect();
            for token in tokens {
                let conn = conns.get_mut(&token).expect("token just listed");
                advance(conn, &self.ctx);
                if conn.dead || conn.drained() {
                    let conn = conns.remove(&token).expect("token just listed");
                    let _ = self.poller.deregister(conn.fd);
                    eprintln!("serve-event: conn closed {}", conn.live.snapshot().to_json());
                } else {
                    let want = conn.wants();
                    if want != conn.interest {
                        conn.interest = want;
                        let _ = self.poller.modify(conn.fd, token, want);
                    }
                }
            }
        };
        drop(stop);
        drop(self.ctx.senders); // workers drain their queues and exit
        for w in workers {
            let _ = w.join();
        }
        loop_result?;
        Ok(self.ctx.global_live.snapshot())
    }
}

/// One worker: runs each job's line through `run` behind a panic boundary
/// and queues the completion. A panic becomes an `internal` error reply,
/// so the connection's reorder map never waits on a lost reply and this
/// worker keeps serving its shard.
fn work(
    rx: mpsc::Receiver<Job>,
    completions: &Mutex<VecDeque<Completion>>,
    wake: &WakeHandle,
    panics: &Counter,
    run: impl Fn(&str) -> Outcome,
) {
    while let Ok(job) = rx.recv() {
        let outcome = catch_unwind(AssertUnwindSafe(|| run(&job.line))).unwrap_or_else(|p| {
            panics.inc();
            let msg = p
                .downcast_ref::<&str>()
                .map(|m| m.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".into());
            Outcome::error_line(peek_id(&job.line), &ServeError::Internal(msg))
        });
        let done = Completion { token: job.token, seq: job.seq, tier: job.tier, outcome };
        completions.lock().expect("completion queue poisoned").push_back(done);
        wake.wake();
    }
}

/// Accepts every pending connection on the listener.
fn accept_ready(
    listener: &TcpListener,
    poller: &mut Poller,
    conns: &mut HashMap<usize, Conn>,
    next_token: &mut usize,
    ctx: &Ctx,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let fd = stream.as_raw_fd();
                if let Some(bytes) = ctx.opts.sndbuf {
                    let _ = crate::poller::set_send_buffer(fd, bytes);
                }
                let token = *next_token;
                *next_token += 1;
                let conn = Conn {
                    stream,
                    fd,
                    inbuf: LineBuf::default(),
                    outbuf: Vec::new(),
                    out_pos: 0,
                    next_seq: 0,
                    next_write: 0,
                    pending: HashMap::new(),
                    inflight: 0,
                    read_closed: false,
                    paused: false,
                    dead: false,
                    interest: Interest::READ,
                    admission: Admission::new(ctx.opts.shed_window, ctx.opts.shed_caps),
                    live: LiveMetrics::default(),
                };
                if poller.register(fd, token, Interest::READ).is_ok() {
                    conns.insert(token, conn);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                eprintln!("serve-event: accept failed: {e}");
                break;
            }
        }
    }
}

/// Reads everything currently available and turns complete lines into
/// dispatched jobs or immediate replies.
fn read_ready(conn: &mut Conn, token: usize, ctx: &Ctx, inflight_total: &mut usize) {
    let mut buf = [0u8; 16384];
    loop {
        if conn.paused {
            break; // backpressure engaged mid-read
        }
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.inbuf.bytes.extend_from_slice(&buf[..n]);
                consume_lines(conn, token, ctx, inflight_total);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    consume_lines(conn, token, ctx, inflight_total);
}

/// Handles each complete line of `inbuf`; after EOF a non-empty
/// unterminated tail is the final line.
fn consume_lines(conn: &mut Conn, token: usize, ctx: &Ctx, inflight_total: &mut usize) {
    while let Some(line) = conn.inbuf.next_line() {
        match line {
            Ok(line) => handle_line(conn, token, &line, ctx, inflight_total),
            Err(TooLong { id }) => {
                let e = ServeError::Protocol(format!("line longer than {MAX_LINE_BYTES} bytes"));
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.pending.insert(seq, PendingReply::Done(Outcome::error_line(id, &e)));
            }
        }
    }
    if conn.read_closed && !conn.inbuf.bytes.is_empty() {
        let line = std::mem::take(&mut conn.inbuf).bytes;
        handle_line(conn, token, &line, ctx, inflight_total);
    }
}

/// A line longer than [`MAX_LINE_BYTES`], with the `"id"` its first bytes
/// name, if any.
#[derive(Debug)]
struct TooLong {
    id: Option<u64>,
}

/// A connection's unconsumed input, split into lines as it arrives.
///
/// Bytes before `scanned` are known to hold no newline, so each read
/// searches only what it added: a line that arrives in many small reads
/// costs time linear in its length, not quadratic. A line that grows past
/// [`MAX_LINE_BYTES`] is reported once and then dropped as it arrives.
#[derive(Default)]
struct LineBuf {
    bytes: Vec<u8>,
    /// Start of the first line not yet returned.
    start: usize,
    /// End of the prefix already searched for a newline.
    scanned: usize,
    /// The line being read was too long and has been answered: drop bytes
    /// up to and including its newline.
    discarding: bool,
    /// Bytes searched so far, over the buffer's life.
    #[cfg(test)]
    searched: usize,
}

impl LineBuf {
    /// The next complete line, without its `\n` or `\r\n`, or the
    /// report of a line too long to keep; `None` once only a partial line
    /// is left, which then moves to the front.
    fn next_line(&mut self) -> Option<Result<Vec<u8>, TooLong>> {
        loop {
            let found = self.bytes[self.scanned..].iter().position(|&b| b == b'\n');
            #[cfg(test)]
            {
                self.searched += found.map_or(self.bytes.len() - self.scanned, |nl| nl + 1);
            }
            let Some(nl) = found else {
                if self.discarding {
                    self.bytes.clear();
                } else {
                    self.bytes.drain(..self.start);
                }
                (self.start, self.scanned) = (0, self.bytes.len());
                if self.bytes.len() <= MAX_LINE_BYTES {
                    return None;
                }
                let id = self.peek_id(0);
                self.bytes.clear();
                (self.scanned, self.discarding) = (0, true);
                return Some(Err(TooLong { id }));
            };
            let (start, end) = (self.start, self.scanned + nl);
            (self.start, self.scanned) = (end + 1, end + 1);
            if std::mem::take(&mut self.discarding) {
                continue; // the end of a line already answered
            }
            if end - start > MAX_LINE_BYTES {
                return Some(Err(TooLong { id: self.peek_id(start) }));
            }
            let mut line_end = end;
            if line_end > start && self.bytes[line_end - 1] == b'\r' {
                line_end -= 1; // BufRead::lines strips \r\n too
            }
            return Some(Ok(self.bytes[start..line_end].to_vec()));
        }
    }

    /// The `"id"` near the start of the line at `start`, read as
    /// [`peek_id`] reads it.
    fn peek_id(&self, start: usize) -> Option<u64> {
        let head = &self.bytes[start..self.bytes.len().min(start + 256)];
        peek_id(&String::from_utf8_lossy(head))
    }
}

/// Classifies, admits, and routes one request line — or produces its
/// immediate reply. Blank lines are skipped, invalid UTF-8 answers an `io`
/// error and keeps the stream alive, control ops render in reply order.
fn handle_line(
    conn: &mut Conn,
    token: usize,
    raw: &[u8],
    ctx: &Ctx,
    inflight_total: &mut usize,
) {
    let Ok(line) = std::str::from_utf8(raw) else {
        // The wording `BufRead::lines` uses for the same failure.
        let e = ServeError::Io("stream did not contain valid UTF-8".into());
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.pending.insert(seq, PendingReply::Done(Outcome::error_line(None, &e)));
        return;
    };
    if line.trim().is_empty() {
        return; // no reply slot
    }
    let seq = conn.next_seq;
    conn.next_seq += 1;
    match parse_control(line) {
        Some(Ok(op)) => {
            conn.pending.insert(seq, PendingReply::Control(op));
            return;
        }
        Some(Err((id, e))) => {
            conn.pending.insert(seq, PendingReply::Done(Outcome::error_line(id, &e)));
            return;
        }
        None => {}
    }
    let class = ctx.shape.classify_line(line);
    if *inflight_total >= ctx.opts.max_inflight {
        let e = ServeError::Shed { tier: class.tier.name(), cap: ctx.opts.max_inflight };
        ctx.shed_counters[class.tier.index()].inc();
        conn.pending.insert(seq, PendingReply::Done(Outcome::error_line(peek_id(line), &e)));
        return;
    }
    if !conn.admission.admit(class.tier) {
        let e = ServeError::Shed {
            tier: class.tier.name(),
            cap: conn.admission.cap(class.tier),
        };
        ctx.shed_counters[class.tier.index()].inc();
        conn.pending.insert(seq, PendingReply::Done(Outcome::error_line(peek_id(line), &e)));
        return;
    }
    let worker = route_fingerprint(class.route_fp, ctx.worker_count);
    conn.inflight += 1;
    *inflight_total += 1;
    ctx.queue_gauge.add(1);
    let job = Job { token, seq, line: line.to_string(), tier: class.tier };
    if ctx.senders[worker].send(job).is_err() {
        // Worker pool is shutting down; undo the dispatch accounting.
        conn.inflight -= 1;
        *inflight_total -= 1;
        ctx.queue_gauge.add(-1);
        let e = ServeError::Io("worker pool stopped".into());
        conn.pending.insert(seq, PendingReply::Done(Outcome::error_line(peek_id(line), &e)));
    }
}

/// Flushes as much queued output as the socket accepts.
fn write_ready(conn: &mut Conn) {
    while conn.out_pos < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true; // EPIPE/reset: the client is gone
                return;
            }
        }
    }
    if conn.out_pos == conn.outbuf.len() {
        conn.outbuf.clear();
        conn.out_pos = 0;
    } else if conn.out_pos > 64 * 1024 {
        conn.outbuf.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
}

/// Drains in-order replies into the output buffer, writes what the
/// socket will take, and updates the backpressure state.
fn advance(conn: &mut Conn, ctx: &Ctx) {
    while let Some(reply) = conn.pending.remove(&conn.next_write) {
        match reply {
            PendingReply::Done(out) => {
                conn.outbuf.extend_from_slice(out.line.as_bytes());
                conn.outbuf.push(b'\n');
                conn.live.tally(&out);
                ctx.global_live.tally(&out);
            }
            PendingReply::Control(ControlOp::Metrics { id }) => {
                // Rendered now, in order: the snapshot covers exactly the
                // requests this connection already got answers for.
                let line = render_metrics(
                    id,
                    &conn.live.snapshot().to_json(),
                    &MetricsRegistry::global().snapshot().to_json(),
                );
                conn.outbuf.extend_from_slice(line.as_bytes());
                conn.outbuf.push(b'\n');
            }
        }
        conn.next_write += 1;
    }
    if !conn.dead {
        write_ready(conn);
    }
    // Backpressure: a slow reader's replies pile up here, not without
    // bound — crossing the high-water mark stops reading (and therefore
    // admitting) until the client drains half the buffer.
    if !conn.paused && conn.queued_out() >= ctx.opts.conn_buffer {
        conn.paused = true;
        ctx.pause_counter.inc();
    } else if conn.paused && conn.queued_out() <= ctx.opts.conn_buffer / 2 {
        conn.paused = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_line_read_in_many_chunks_is_searched_once() {
        let line = format!("{{\"id\":1,{}\"workload\":\"strcpy\"}}", " ".repeat(20_000));
        let wire = format!("{line}\r\n{{\"id\":2}}\n{{\"id\":3");
        let mut buf = LineBuf::default();
        let mut lines = Vec::new();
        for chunk in wire.as_bytes().chunks(7) {
            buf.bytes.extend_from_slice(chunk);
            lines.extend(std::iter::from_fn(|| buf.next_line()).map(Result::unwrap));
        }
        assert_eq!(lines, [line.as_bytes(), b"{\"id\":2}"]);
        assert_eq!(buf.bytes, b"{\"id\":3", "the partial line moved to the front");
        // Every byte is searched once (the re-search of the moved partial
        // line starts past it), however many reads the line took.
        assert_eq!(buf.searched, wire.len());
    }

    #[test]
    fn a_line_without_a_newline_never_holds_more_than_the_cap_plus_one_read() {
        const READ: usize = 16384; // what `read_ready` reads at a time
        let mut buf = LineBuf::default();
        let mut too_long = Vec::new();
        let head = b"{\"id\":42,\"ir\":\"";
        buf.bytes.extend_from_slice(head);
        let chunk = vec![b'x'; READ];
        for _ in 0..(3 * MAX_LINE_BYTES / READ) {
            buf.bytes.extend_from_slice(&chunk);
            while let Some(line) = buf.next_line() {
                too_long.push(line.expect_err("no line is complete").id);
            }
            assert!(buf.bytes.len() <= MAX_LINE_BYTES + READ, "{} bytes held", buf.bytes.len());
            assert!(buf.bytes.capacity() <= 2 * (MAX_LINE_BYTES + READ));
        }
        assert_eq!(too_long, [Some(42)], "one report per over-long line");
        // The rest of the long line is dropped up to its newline and the
        // next line is read normally. A line exactly as long as the cap is
        // kept; one past it only by its `\r` is not.
        buf.bytes.extend_from_slice(b"xxx\r\n{\"id\":43}\n");
        assert_eq!(buf.next_line().map(Result::unwrap), Some(b"{\"id\":43}".to_vec()));
        assert!(buf.next_line().is_none());
        let mut exact = vec![b'y'; MAX_LINE_BYTES];
        exact.extend_from_slice(b"\n");
        exact.extend_from_slice(&[b'z'; MAX_LINE_BYTES]);
        exact.extend_from_slice(b"\r\n");
        buf.bytes.extend_from_slice(&exact);
        assert_eq!(buf.next_line().map(|l| l.unwrap().len()), Some(MAX_LINE_BYTES));
        assert!(matches!(buf.next_line(), Some(Err(TooLong { id: None }))));
        assert!(buf.next_line().is_none() && buf.bytes.is_empty());
    }

    #[test]
    fn the_line_cap_fits_the_largest_inline_ir_request() {
        let w = epic_workloads::by_name("corpus.mixed.10k").unwrap();
        let words = |v: &[i64]| v.iter().map(i64::to_string).collect::<Vec<_>>().join(",");
        let memory = w.training.initial_memory();
        let regs: Vec<String> =
            w.training.initial_regs().iter().map(|(r, v)| format!("[{},{v}]", r.0)).collect();
        let line = format!(
            "{{\"id\":1,\"name\":\"{}\",\"ir\":{},\"unroll\":{},\"check\":true,\
             \"input\":{{\"memory_size\":{},\"memory\":[[0,[{}]]],\"regs\":[{}],\"fuel\":{}}}}}",
            w.name,
            epic_bench::timing::json_string(&w.func.to_string()),
            w.unroll,
            memory.len(),
            words(memory),
            regs.join(","),
            w.training.fuel_budget(),
        );
        assert!(line.len() * 8 <= MAX_LINE_BYTES, "{} bytes", line.len());
    }

    #[test]
    fn a_panicking_job_answers_internal_and_the_worker_survives() {
        let (tx, rx) = mpsc::channel();
        for (seq, line) in ["{\"id\":7,\"workload\":\"boom\"}", "{\"id\":8}"].iter().enumerate() {
            let job = Job { token: 1, seq: seq as u64, line: line.to_string(), tier: Tier::Small };
            tx.send(job).unwrap();
        }
        drop(tx);
        let completions = Mutex::new(VecDeque::new());
        let poller = Poller::new(false).unwrap();
        let panics = Counter::new();
        work(rx, &completions, &poller.wake_handle(), &panics, |line| {
            if line.contains("boom") {
                panic!("pass exploded");
            }
            Outcome::error_line(Some(8), &ServeError::Protocol("fine".into()))
        });
        let done: Vec<Completion> = completions.into_inner().unwrap().into();
        assert_eq!(done.len(), 2, "both jobs complete; the worker outlived the panic");
        assert_eq!(panics.value(), 1);
        let first = &done[0].outcome.line;
        let internal = "{\"id\":7,\"ok\":false,\"error\":{\"kind\":\"internal\"";
        assert!(first.starts_with(internal), "{first}");
        assert!(first.contains("pass exploded"), "{first}");
        assert_eq!(done[1].seq, 1);
        assert!(done[1].outcome.line.contains("fine"), "{}", done[1].outcome.line);
    }
}

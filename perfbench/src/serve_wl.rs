//! The `serve` workload: an in-process `EventServer` with default options
//! and a fresh compile cache, driven by a seeded closed loop over two
//! loopback TCP connections with one request outstanding on each.
//!
//! The stream runs in rounds. A round holds every *warm key* once — the 26
//! suite workloads under the default config and the load generator's two
//! override configs, plus the six `corpus.*` names — in seeded order, with
//! [`COLD_PER_ROUND`] *cold* requests mixed in. Each cold request names a
//! suite workload and carries a pipeline-knob delta, drawn from the tuner's
//! knob grids, whose config no earlier request used. Warm keys are primed
//! during set-up, so warm requests run no compile stage: requests are warm
//! or cold by construction. A round ends when both connections hold their
//! replies.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use epic_bench::timing::stage;
use epic_bench::{
    compile, cycle_speedup, table2_row, CompileCache, Compiled, ConfigDelta, Json, KnobSpace,
    PipelineConfig,
};
use epic_machine::Machine;
use epic_obs::{metric_name, MetricsRegistry, Tracer};
use epic_serve::proto::result_json;
use epic_serve::{EventOptions, EventServer, Request, ShutdownHandle};
use epic_workloads::Workload;

use crate::layers::{self, Counters, Node, ReplayTarget, Values};
use crate::report::RunResult;
use crate::stats::{geomean, loglog_slope, median, peak_rss_mb, quantile, trimmed_mean};
use crate::Ops;

/// Cold requests mixed into each round of warm keys.
const COLD_PER_ROUND: usize = 36;
/// Fewest timed rounds in a run.
const MIN_ROUNDS: usize = 3;
/// Client connections, each with one request outstanding.
const CONNECTIONS: usize = 2;
/// The `"config"` suffixes of the warm keys: the paper default and the
/// load generator's two override configs.
const WARM_CONFIGS: [&str; 3] = [
    "",
    ",\"config\":{\"trace\":{\"min_count\":8}}",
    ",\"config\":{\"cpr\":{\"max_branches\":3}}",
];

/// A seeded SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One distinct request target: a program and a config suffix.
struct Key {
    program: usize,
    config: String,
    cold: bool,
}

/// One request of the stream.
struct Job {
    id: u64,
    key: usize,
    line: String,
}

/// One answered (or unanswered) request, as the client saw it.
struct Record {
    id: u64,
    key: usize,
    us: f64,
    reply: Option<String>,
}

/// Draws cold config deltas no earlier request used.
struct ColdGen {
    rng: Rng,
    seen: HashSet<u64>,
}

impl ColdGen {
    /// A grouped `"config"` suffix over two or three pipeline knobs set
    /// off their defaults, whose resolved config is new.
    fn next(&mut self) -> String {
        let space = KnobSpace::global();
        let knobs: Vec<_> = space
            .specs()
            .iter()
            .filter(|s| !s.name.starts_with("machine."))
            .collect();
        loop {
            let mut groups: BTreeMap<&str, Vec<String>> = BTreeMap::new();
            let mut picked = HashSet::new();
            let n = 2 + self.rng.below(2);
            while picked.len() < n {
                let spec = knobs[self.rng.below(knobs.len())];
                if !picked.insert(spec.name) {
                    continue;
                }
                let others: Vec<_> = spec
                    .choices
                    .iter()
                    .filter(|v| **v != spec.default)
                    .collect();
                let value = others[self.rng.below(others.len())];
                let (group, field) = spec.name.split_once('.').expect("knob names are dotted");
                groups
                    .entry(group)
                    .or_default()
                    .push(format!("\"{field}\":{}", value.to_json()));
            }
            let body: Vec<String> = groups
                .iter()
                .map(|(g, fields)| format!("\"{g}\":{{{}}}", fields.join(",")))
                .collect();
            let json = format!("{{{}}}", body.join(","));
            let delta = Json::parse(&json)
                .ok()
                .and_then(|j| ConfigDelta::from_grouped_json(space, &j).ok())
                .expect("drawn knob values are valid");
            if self.seen.insert(delta.apply(space).pipeline.config_hash()) {
                return format!(",\"config\":{json}");
            }
        }
    }
}

/// The request line for `key`.
fn line(programs: &[Workload], key: &Key, id: u64) -> String {
    format!(
        "{{\"id\":{id},\"workload\":\"{}\"{}}}",
        programs[key.program].name, key.config
    )
}

/// The config a request line resolves to, exactly as the server resolves
/// it.
fn config_of(line: &str) -> PipelineConfig {
    Request::parse(line)
        .expect("generated request lines parse")
        .cfg
}

/// Compiles every `(program, config)` job uncached on two threads.
fn compile_all(
    programs: &[Workload],
    jobs: &[(usize, PipelineConfig)],
) -> Vec<Result<Compiled, String>> {
    let slots: Vec<Mutex<Option<Result<Compiled, String>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for t in 0..2 {
            let slots = &slots;
            s.spawn(move || {
                for (i, (p, cfg)) in jobs.iter().enumerate().skip(t).step_by(2) {
                    let w = &programs[*p];
                    let c = compile(w, cfg).map_err(|e| format!("{}: {e}", w.name));
                    *slots[i].lock().expect("slot lock") = Some(c);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot lock").expect("every job ran"))
        .collect()
}

/// One client connection's closed loop: at each round it takes requests
/// from the shared queue until it is empty, one outstanding at a time.
fn client(
    addr: SocketAddr,
    queue: Arc<Mutex<VecDeque<Job>>>,
    barrier: Arc<Barrier>,
    stop: Arc<AtomicBool>,
) -> Vec<Record> {
    let connect = || -> Option<(TcpStream, BufReader<TcpStream>)> {
        let s = TcpStream::connect(addr).ok()?;
        s.set_nodelay(true).ok()?;
        s.set_read_timeout(Some(Duration::from_secs(60))).ok()?;
        let r = BufReader::new(s.try_clone().ok()?);
        Some((s, r))
    };
    let mut conn = connect();
    let mut records = Vec::new();
    loop {
        barrier.wait();
        if stop.load(Ordering::Acquire) {
            return records;
        }
        loop {
            let Some(job) = queue.lock().expect("queue lock").pop_front() else {
                break;
            };
            let t0 = Instant::now();
            let mut reply = None;
            if let Some((w, r)) = conn.as_mut() {
                let mut buf = String::new();
                if w.write_all(job.line.as_bytes()).is_ok()
                    && matches!(r.read_line(&mut buf), Ok(n) if n > 0)
                {
                    reply = Some(buf.trim_end().to_string());
                } else {
                    conn = None; // a lost reply would shift every later one
                }
            }
            let us = t0.elapsed().as_secs_f64() * 1e6;
            records.push(Record {
                id: job.id,
                key: job.key,
                us,
                reply,
            });
        }
        barrier.wait();
    }
}

/// Drives rounds from `next_round` through [`CONNECTIONS`] clients until it
/// returns `None`. Returns every record and each round's wall time in ms.
fn drive(
    addr: SocketAddr,
    mut next_round: impl FnMut() -> Option<Vec<Job>>,
) -> (Vec<Record>, Vec<f64>) {
    let queue = Arc::new(Mutex::new(VecDeque::new()));
    let barrier = Arc::new(Barrier::new(CONNECTIONS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<JoinHandle<Vec<Record>>> = (0..CONNECTIONS)
        .map(|_| {
            let (q, b, s) = (Arc::clone(&queue), Arc::clone(&barrier), Arc::clone(&stop));
            std::thread::spawn(move || client(addr, q, b, s))
        })
        .collect();
    let mut round_ms = Vec::new();
    while let Some(round) = next_round() {
        queue.lock().expect("queue lock").extend(round);
        barrier.wait();
        let t0 = Instant::now();
        barrier.wait();
        round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    stop.store(true, Ordering::Release);
    barrier.wait();
    let records = clients
        .into_iter()
        .flat_map(|c| c.join().expect("client thread"))
        .collect();
    (records, round_ms)
}

/// A running server: its address, cache, stop handle and loop thread.
struct Running {
    addr: SocketAddr,
    cache: Arc<CompileCache>,
    handle: ShutdownHandle,
    thread: JoinHandle<std::io::Result<epic_serve::ServerMetrics>>,
}

impl Running {
    fn start() -> std::io::Result<Running> {
        let cache = Arc::new(CompileCache::new());
        let server = EventServer::bind("127.0.0.1:0", Arc::clone(&cache), EventOptions::default())?;
        let addr = server.local_addr()?;
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Running {
            addr,
            cache,
            handle,
            thread,
        })
    }

    fn stop(self) {
        self.handle.shutdown();
        let _ = self.thread.join();
    }
}

/// Checks one record: exactly one `ok:true` reply echoing the id whose
/// deterministic prefix equals the direct compile's `result_json`.
fn check(ops: &mut Ops, rec: &Record, name: &str, expected: &str) {
    ops.attempt();
    let want = format!("{{\"id\":{},\"ok\":true,\"result\":{expected}", rec.id);
    let got = rec
        .reply
        .as_deref()
        .and_then(|r| r.split(",\"cache\":").next());
    ops.check(got == Some(want.as_str()), || {
        format!(
            "request {} ({name}): reply {:?}",
            rec.id,
            rec.reply
                .as_deref()
                .map(|r| r.chars().take(160).collect::<String>())
        )
    });
}

/// The server-side latency a reply reports (its `"ms"` field), in us.
fn server_us(reply: &str) -> Option<f64> {
    let rest = &reply[reply.rfind(",\"ms\":")? + 6..];
    rest[..rest.find(',')?]
        .parse::<f64>()
        .ok()
        .map(|ms| ms * 1e3)
}

/// Sum of the `pipeline_stage_ns{stage=…}` histograms per layer metric, ms.
fn stage_sums() -> Values {
    let mut v = Values::new();
    for s in stage::ALL {
        let h =
            MetricsRegistry::global().histogram(&metric_name("pipeline_stage_ns", &[("stage", s)]));
        if let Some(metric) = layers::stage_metric(s) {
            layers::add(&mut v, metric, h.sum() as f64 / 1e6);
        }
    }
    v
}

/// Runs the workload and reports end-to-end metrics, or per-layer metrics
/// when `trace` is set.
pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut ops = Ops::default();
    let mut programs = epic_workloads::all();
    let suite_len = programs.len();
    programs.extend(epic_workloads::corpus());
    let mut keys: Vec<Key> = Vec::new();
    for config in WARM_CONFIGS {
        keys.extend((0..suite_len).map(|program| Key {
            program,
            config: config.into(),
            cold: false,
        }));
    }
    keys.extend((suite_len..programs.len()).map(|program| Key {
        program,
        config: String::new(),
        cold: false,
    }));
    let warm_keys = keys.len();

    // Reference results for the warm keys: direct uncached compiles.
    let jobs: Vec<(usize, PipelineConfig)> = keys
        .iter()
        .map(|k| (k.program, config_of(&line(&programs, k, 0))))
        .collect();
    let mut warm_refs = Vec::new();
    for r in compile_all(&programs, &jobs) {
        ops.attempt();
        match r {
            Ok(c) => warm_refs.push(c),
            Err(e) => {
                ops.fail(format!("reference compile failed: {e}"));
                return crate::failed_result(ops, trace);
            }
        }
    }
    let mut expected: Vec<String> = keys
        .iter()
        .zip(&warm_refs)
        .map(|(k, c)| result_json(programs[k.program].name, c, false))
        .collect();

    // Set-up: bind a server on a fresh cache and prime every warm key.
    let warm_round = |first_id: u64| -> Vec<Job> {
        (0..warm_keys)
            .map(|k| {
                let id = first_id + k as u64;
                Job {
                    id,
                    key: k,
                    line: line(&programs, &keys[k], id) + "\n",
                }
            })
            .collect()
    };
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..3 {
        let t0 = Instant::now();
        let running = match Running::start() {
            Ok(r) => r,
            Err(e) => {
                ops.fail(format!("server failed to start: {e}"));
                return crate::failed_result(ops, trace);
            }
        };
        let mut once = Some(warm_round(0));
        let (records, _) = drive(running.addr, || once.take());
        setups.push(t0.elapsed().as_secs_f64());
        for rec in &records {
            check(
                &mut ops,
                rec,
                programs[keys[rec.key].program].name,
                &expected[rec.key],
            );
        }
        if i < 2 {
            running.stop();
        } else {
            server = Some(running);
        }
    }
    let server = server.expect("three set-ups ran");

    // The timed stream.
    let mut rng = Rng(seed ^ 0x5EB7_E5EE_D000_0001);
    let mut cold = ColdGen {
        rng: Rng(seed.wrapping_mul(31).wrapping_add(7)),
        seen: HashSet::new(),
    };
    for c in WARM_CONFIGS {
        cold.seen
            .insert(config_of(&format!("{{\"workload\":\"strcpy\"{c}}}")).config_hash());
    }
    let tracer = Tracer::global();
    if trace {
        tracer.enable();
    }
    let (counters0, stages0, cache0) = (Counters::now(), stage_sums(), server.cache.stats());
    let start = Instant::now();
    let mut next_id = warm_keys as u64;
    let mut rounds = 0;
    let (records, round_ms) = drive(server.addr, || {
        if rounds >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= seconds {
            return None;
        }
        rounds += 1;
        let mut round: Vec<usize> = (0..warm_keys).collect();
        for _ in 0..COLD_PER_ROUND {
            keys.push(Key {
                program: rng.below(suite_len),
                config: cold.next(),
                cold: true,
            });
            round.push(keys.len() - 1);
        }
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i + 1));
        }
        Some(
            round
                .into_iter()
                .map(|key| {
                    next_id += 1;
                    Job {
                        id: next_id,
                        key,
                        line: line(&programs, &keys[key], next_id) + "\n",
                    }
                })
                .collect(),
        )
    });
    tracer.disable();
    let (counters1, stages1, cache1) = (Counters::now(), stage_sums(), server.cache.stats());
    let events = if trace { tracer.drain() } else { Vec::new() };
    let cache = Arc::clone(&server.cache);
    server.stop();

    // Check every reply; cold keys get their direct compiles now.
    let cold_jobs: Vec<(usize, PipelineConfig)> = keys[warm_keys..]
        .iter()
        .map(|k| (k.program, config_of(&line(&programs, k, 0))))
        .collect();
    for (k, r) in keys[warm_keys..]
        .iter()
        .zip(compile_all(&programs, &cold_jobs))
    {
        expected.push(match r {
            Ok(c) => result_json(programs[k.program].name, &c, false),
            Err(e) => {
                ops.attempt();
                ops.fail(format!("reference compile failed: {e}"));
                String::new()
            }
        });
    }
    for rec in &records {
        check(
            &mut ops,
            rec,
            programs[keys[rec.key].program].name,
            &expected[rec.key],
        );
    }

    let is_cold = |r: &&Record| keys[r.key].cold;
    let warm_us: Vec<f64> = records
        .iter()
        .filter(|r| !is_cold(r))
        .map(|r| r.us)
        .collect();
    let cold_us: Vec<f64> = records.iter().filter(is_cold).map(|r| r.us).collect();
    let mut per_program: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    for r in records.iter().filter(|r| !is_cold(r)) {
        per_program[keys[r.key].program].push(r.us);
    }
    let program_ms: Vec<f64> = per_program
        .iter()
        .map(|xs| trimmed_mean(xs) / 1e3)
        .collect();
    let scaling: Vec<(f64, f64)> = programs
        .iter()
        .zip(&program_ms)
        .map(|(w, &ms)| (w.func.static_op_count() as f64, ms))
        .collect();
    let machines = Machine::paper_suite();
    let t_sched = Instant::now();
    let speedups: Vec<f64> = keys[..warm_keys]
        .iter()
        .zip(&warm_refs)
        .flat_map(|(k, c)| table2_row(&programs[k.program], c, &machines).cycles)
        .map(|(_, b, o)| cycle_speedup(b, o))
        .collect();
    let sched_ms = t_sched.elapsed().as_secs_f64() * 1e3;
    let growth: Vec<f64> = warm_refs
        .iter()
        .map(|c| c.opt_counts.static_ops as f64 / c.base_counts.static_ops as f64)
        .collect();
    let total_s = round_ms.iter().sum::<f64>() / 1e3;
    let e2e = vec![
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_rss_mb()),
        ("wall_ms", trimmed_mean(&round_ms)),
        (
            "max_program_ms",
            program_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("scaling_exponent", loglog_slope(&scaling)),
        ("speedup_geomean", geomean(&speedups)),
        ("static_growth", geomean(&growth)),
        ("warm_p50_us", quantile(&warm_us, 0.50)),
        ("warm_p99_us", quantile(&warm_us, 0.99)),
        ("cold_p50_us", quantile(&cold_us, 0.50)),
        ("cold_p99_us", quantile(&cold_us, 0.99)),
        ("throughput_rps", records.len() as f64 / total_s),
    ];
    println!(
        "{} rounds; {} requests: {} warm, {} cold",
        round_ms.len(),
        records.len(),
        warm_us.len(),
        cold_us.len()
    );
    if !trace {
        return crate::finish(
            ops,
            e2e.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        );
    }

    // Compile-layer work, per cold request (warm requests compile nothing;
    // their stage lookups land in the same histograms but cost microseconds).
    let n_cold = cold_us.len().max(1) as f64;
    let mut v = Values::new();
    crate::record_traced_e2e(&e2e, &mut v);
    for (k, after) in &stages1 {
        v.insert(
            k.clone(),
            (after - stages0.get(k).copied().unwrap_or(0.0)) / n_cold,
        );
    }
    let mut counts = Values::new();
    counters1.add_since(&counters0, &mut counts);
    layers::add_icbm_self_times(&mut counts, &events);
    for e in events
        .iter()
        .filter(|e| e.cat == "pipeline" && e.name == stage::UNROLL)
    {
        let arg = |k: &str| {
            e.args
                .iter()
                .find(|(a, _)| a == k)
                .and_then(|(_, x)| x.parse::<f64>().ok())
        };
        layers::add(
            &mut counts,
            "unroll.ops_before",
            arg("ops_before").unwrap_or(0.0),
        );
        layers::add(
            &mut counts,
            "unroll.ops_after",
            arg("ops_after").unwrap_or(0.0),
        );
    }
    for rec in records.iter().filter(is_cold) {
        let stats = rec.reply.as_deref().and_then(|r| Json::parse(r).ok());
        let stats = stats
            .as_ref()
            .and_then(|j| j.get("result"))
            .and_then(|r| r.get("stats"));
        for (field, metric) in [
            ("cpr_blocks", "core.cpr_blocks"),
            ("skipped", "core.skipped"),
            ("branches_collapsed", "core.branches_collapsed"),
        ] {
            let x = stats
                .and_then(|s| s.get(field))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            layers::add(&mut counts, metric, x as f64);
        }
    }
    for (k, x) in counts {
        let per = if k.starts_with("unroll.") {
            x
        } else {
            x / n_cold
        };
        v.insert(k, per);
    }
    layers::finish_ratios(&mut v);
    let n_req = records.len().max(1) as f64;
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    v.insert("bench.cache_hits".into(), hits as f64 / n_req);
    v.insert("bench.cache_misses".into(), misses as f64 / n_req);
    v.insert(
        "bench.cache_hit_ratio".into(),
        hits as f64 / (hits + misses).max(1) as f64,
    );
    v.insert(
        "bench.inflight_waits".into(),
        (cache1.inflight_waits - cache0.inflight_waits) as f64 / n_req,
    );
    v.insert("sched.schedule_ms".into(), sched_ms);

    let server_warm: Vec<f64> = records
        .iter()
        .filter(|r| !is_cold(r))
        .filter_map(|r| r.reply.as_deref().and_then(server_us))
        .collect();
    let (warm_p50, warm_p99) = (quantile(&warm_us, 0.50), quantile(&warm_us, 0.99));
    let (srv_p50, srv_p99) = (quantile(&server_warm, 0.50), quantile(&server_warm, 0.99));
    v.insert("serve.server_p50_us".into(), srv_p50);
    v.insert("serve.server_p99_us".into(), srv_p99);
    v.insert("serve.queue_io_p50_us".into(), warm_p50 - srv_p50);
    v.insert("serve.queue_io_p99_us".into(), warm_p99 - srv_p99);

    // Replay the warm path's entry points on the server's primed cache.
    let targets: Vec<ReplayTarget<'_>> = keys[..warm_keys]
        .iter()
        .zip(&warm_refs)
        .map(|(k, c)| {
            let line = line(&programs, k, 1);
            ReplayTarget {
                w: &programs[k.program],
                cfg: config_of(&line),
                line,
                compiled: c,
            }
        })
        .collect();
    layers::replay_warm_path(&mut v, &targets, &cache);
    layers::time_builds(&mut v);
    let pairs: Vec<&Compiled> = warm_refs.iter().collect();
    layers::time_liveness(&mut v, &pairs);
    let get = |v: &Values, k: &str| v.get(k).copied().unwrap_or(0.0);
    let replayed = [
        "serve.parse_us",
        "serve.classify_us",
        "workloads.by_name_us",
        "bench.warm_compile_us",
        "serve.render_us",
        "serve.queue_io_p50_us",
    ];
    let attributed: f64 = replayed.iter().map(|k| get(&v, k)).sum();
    v.insert("serve.unattributed_us".into(), warm_p50 - attributed);

    println!("--- layer tree: the median warm request, share of warm_p50_us ---");
    let warm_compile = Node::parent(
        "bench.warm_compile",
        get(&v, "bench.warm_compile_us"),
        vec![
            Node::leaf("ir.fingerprint", get(&v, "ir.fingerprint_us")),
            Node::leaf("bench.cache_probe", get(&v, "bench.cache_probe_us")),
        ],
    );
    Node::parent(
        "warm_p50_us",
        warm_p50,
        vec![
            Node::leaf("serve.queue_io", get(&v, "serve.queue_io_p50_us")),
            Node::leaf("serve.parse", get(&v, "serve.parse_us")),
            Node::leaf("serve.classify", get(&v, "serve.classify_us")),
            Node::leaf("workloads.by_name", get(&v, "workloads.by_name_us")),
            warm_compile,
            Node::leaf("serve.render", get(&v, "serve.render_us")),
        ],
    )
    .print("us", warm_p50);
    println!("--- layer tree: the mean cold request as the server timed it, ms ---");
    let server_cold: Vec<f64> = records
        .iter()
        .filter(is_cold)
        .filter_map(|r| r.reply.as_deref().and_then(server_us))
        .collect();
    let cold_ms = server_cold.iter().sum::<f64>() / server_cold.len().max(1) as f64 / 1e3;
    let by_name = Node::leaf("workloads.by_name", get(&v, "workloads.by_name_us") / 1e3);
    let stages: Vec<Node> = [
        "interp.profile",
        "regions.superblock",
        "regions.unroll",
        "regions.frp",
    ]
    .iter()
    .map(|n| Node::leaf(n, get(&v, &format!("{n}_ms"))))
    .chain([layers::icbm_tree(&v)])
    .chain([by_name])
    .collect();
    Node::parent("cold request", cold_ms, stages).print("ms", cold_ms);
    crate::finish_layers(ops, v)
}

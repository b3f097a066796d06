//! The wall-clock perf gate: serial `table2` over the paper suite.
//!
//! One warmup run, then three uncached `table2` runs inside a one-thread
//! rayon pool; the minimum is recorded (the least noise-contaminated
//! estimate on a busy host).
//!
//! ```text
//! bench_snapshot [out.json]                 # write BENCH_table2.json (or out.json)
//! bench_snapshot --check [committed.json]   # gate against BENCH_table2.json (or committed.json)
//! ```
//!
//! `--check` writes nothing. It exits 1 when the measured time exceeds the
//! committed `table2_serial_ms` by more than 25%, and 2 when the committed
//! snapshot timed a different number of workloads than the suite has now
//! (a stale baseline: regenerate it). Unknown flags exit 2.
//!
//! Per-stage timings live elsewhere: `table2 --timings out.json` writes
//! them per workload (`--large` adds the corpus tier), and `perfbench`
//! attributes time layer by layer.

use std::process::exit;
use std::time::Instant;

use epic_bench::{table2, Json, PipelineConfig};
use epic_workloads::Workload;

const USAGE: &str = "usage: bench_snapshot [out.json] | bench_snapshot --check [committed.json]";
const DEFAULT_SNAPSHOT: &str = "BENCH_table2.json";
/// Timed runs; the minimum is recorded.
const RUNS: usize = 3;
/// Allowed slowdown over the committed time.
const BOUND: f64 = 0.25;

fn fail(code: i32, msg: &str) -> ! {
    eprintln!("{msg}");
    exit(code)
}

/// Wall clock of one uncached `table2` run inside `pool`, in ms.
fn table2_ms(pool: &rayon::ThreadPool, workloads: &[Workload], cfg: &PipelineConfig) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(pool.install(|| table2(workloads, cfg, None)));
    t0.elapsed().as_secs_f64() * 1e3
}

/// The `table2_serial_ms` committed at `path`. Exits 2 when the file is
/// unreadable or timed a different number of workloads than `workloads`.
fn committed_ms(path: &str, workloads: usize) -> f64 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(2, &format!("--check: cannot read {path}: {e}")));
    let json = Json::parse(&text).unwrap_or_else(|e| fail(2, &format!("--check: {path}: {e}")));
    let timed = json.get("workloads").and_then(Json::as_u64);
    if timed != Some(workloads as u64) {
        let timed = timed.map_or("an unknown number of".to_string(), |n| n.to_string());
        fail(
            2,
            &format!(
                "stale baseline: {path} timed {timed} workloads but the suite has {workloads}; \
                 regenerate it with `cargo run --release -p epic-bench --bin bench_snapshot`"
            ),
        );
    }
    json.get("table2_serial_ms")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail(2, &format!("--check: {path} has no table2_serial_ms")))
}

fn main() {
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => {
                let path = args.next_if(|p| !p.starts_with('-'));
                check = Some(path.unwrap_or_else(|| DEFAULT_SNAPSHOT.to_string()));
            }
            flag if flag.starts_with('-') => fail(2, &format!("unknown flag {flag}\n{USAGE}")),
            _ if out.is_none() => out = Some(a),
            _ => fail(2, USAGE),
        }
    }
    if check.is_some() && out.is_some() {
        fail(2, &format!("--check writes nothing; drop the output path\n{USAGE}"));
    }

    let workloads = epic_workloads::all();
    let committed = check.map(|path| {
        let ms = committed_ms(&path, workloads.len());
        (path, ms)
    });
    let cfg = PipelineConfig::default();
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("1-thread pool");

    eprintln!("serial table2 ({} workloads, warmup + min of {RUNS} runs)...", workloads.len());
    table2_ms(&pool, &workloads, &cfg);
    let runs: Vec<f64> = (0..RUNS).map(|_| table2_ms(&pool, &workloads, &cfg)).collect();
    let best = runs.iter().copied().fold(f64::INFINITY, f64::min);

    if let Some((path, committed)) = committed {
        let limit = committed * (1.0 + BOUND);
        let verdict = format!(
            "table2 serial {best:.1} ms vs limit {limit:.1} ms ({path}: {committed:.1} ms + {:.0}%)",
            BOUND * 100.0
        );
        if best > limit {
            fail(1, &format!("PERF REGRESSION: {verdict}"));
        }
        println!("perf check ok: {verdict}");
        return;
    }

    let runs: Vec<String> = runs.iter().map(|ms| format!("{ms:.1}")).collect();
    let out = out.unwrap_or_else(|| DEFAULT_SNAPSHOT.to_string());
    let json = format!(
        "{{\n  \"generator\": \"bench_snapshot\",\n  \"workloads\": {},\n  \
         \"table2_serial_ms\": {best:.1},\n  \"table2_serial_runs_ms\": [{}]\n}}\n",
        workloads.len(),
        runs.join(",")
    );
    std::fs::write(&out, json).unwrap_or_else(|e| fail(2, &format!("cannot write {out}: {e}")));
    println!("serial {best:.1} ms (runs: {}); wrote {out}", runs.join("/"));
}

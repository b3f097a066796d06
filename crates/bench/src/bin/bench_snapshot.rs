//! Writes a harness-performance snapshot (`BENCH_table2.json` by default,
//! `BENCH_table2_large.json` with `--large`):
//! serial `table2` wall clock (min of three runs), a 1/2/4/8 thread sweep
//! of the parallel path (min of three runs each), the host's core count,
//! per-stage geomean wall times, and per-workload pass timings.
//!
//! ## How the timings are collected (and why it matters)
//!
//! The per-workload stage timings are recorded from **dedicated serial
//! passes** — three of them, keeping the per-stage minimum — after a full
//! warmup pass. The previous snapshot recorded timings from the *last
//! thread-sweep iteration* (8 threads on a 1-core host), so whichever
//! stage a thread happened to be descheduled in absorbed a ~25 ms
//! scheduler round; the spike roamed to a different stage in nearly every
//! workload and polluted every per-stage geomean. Serial min-of-3
//! collection removes the artifact at the source.
//!
//! Two anomaly detectors guard the recorded numbers:
//!
//! * **Roaming-spike detector** (replaces the old strcpy-only assertion):
//!   a stage whose recorded wall exceeds 5x its workload's median stage
//!   time must be *reproducible* across the timing passes (max pass
//!   within 1.5x min + 2 ms). Big-and-reproducible is real cost (ICBM
//!   legitimately dominates every workload's sub-millisecond median and
//!   is listed in `reproducible_heavy_stages`); big-and-flaky is a
//!   measurement spike and aborts the snapshot. Per-pass transients that
//!   the min filtered out are counted in `transient_stage_spikes`.
//! * **Profile-sibling check**: the four `profile:*` stages of a workload
//!   interpret the same function on inputs of the same scale, so each
//!   must stay within 10x the cheapest sibling + 2 ms (the PR1-era strcpy
//!   `profile:baseline` allocation anomaly was a 6x violation).
//!
//! ```text
//! cargo run --release -p epic-bench --bin bench_snapshot [out.json]
//!     [--quick] [--large] [--check [committed.json]]
//! ```
//!
//! `--quick` skips the thread sweep and per-workload timing collection
//! (serial timing only). `--check` compares the measured serial wall
//! clock against a committed snapshot and exits non-zero on a >25%
//! regression; with `--check` no snapshot is written unless an output
//! path is given explicitly.
//!
//! `--large` additionally times the six RISC-lite corpus workloads
//! (1k–10k ops, `epic_workloads::corpus()`) with the same serial
//! min-of-`TIMING_PASSES` collection, runs the roaming-spike detector
//! over their per-stage numbers — so an ICBM or scheduling blowup at 10k
//! ops aborts the snapshot instead of being silently recorded — and adds
//! a `large_tier` section to the JSON. The default sections are
//! unaffected: `table2_serial_ms` still measures exactly the 26-workload
//! paper suite, so `--check` comparisons against pre-large snapshots
//! remain valid.

use std::time::{Duration, Instant};

use epic_bench::{
    table2_serial, table2_with_timings, timings_to_json, Json, PassTimings, PipelineConfig,
};
use epic_perf::geomean;
use epic_workloads::Workload;

/// Timing passes used for per-stage collection (min is recorded).
const TIMING_PASSES: usize = 3;
/// Repeats per thread count in the sweep (min is recorded).
const SWEEP_RUNS: usize = 3;

/// Serial `table2` wall clock in milliseconds, minimum of `runs` repeats
/// (the minimum is the least noise-contaminated estimate on a busy host).
fn serial_ms(workloads: &[Workload], cfg: &PipelineConfig, runs: usize) -> (f64, Vec<f64>) {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        std::hint::black_box(table2_serial(workloads, cfg));
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
    (best, samples)
}

/// Runs `table2_with_timings` strictly on the calling thread (the rayon
/// shim executes inline when the installed pool has one thread), so the
/// recorded stage walls cannot absorb scheduler preemption of sibling
/// workload threads.
fn serial_timing_pass(workloads: &[Workload], cfg: &PipelineConfig) -> Vec<PassTimings> {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("1-thread pool");
    pool.install(|| table2_with_timings(workloads, cfg)).1
}

/// Per-stage minimum and maximum wall times across timing passes, in the
/// shape of the first pass (workload and stage order are deterministic).
fn min_max_timings(passes: &[Vec<PassTimings>]) -> (Vec<PassTimings>, Vec<PassTimings>) {
    let first = &passes[0];
    for p in &passes[1..] {
        assert_eq!(first.len(), p.len(), "timing passes must cover the same workloads");
    }
    let mut mins = first.clone();
    let mut maxs = first.clone();
    for p in &passes[1..] {
        for (wi, t) in p.iter().enumerate() {
            assert_eq!(mins[wi].workload, t.workload, "workload order must be deterministic");
            assert_eq!(mins[wi].stages.len(), t.stages.len(), "{}: stage count", t.workload);
            for (si, s) in t.stages.iter().enumerate() {
                assert_eq!(mins[wi].stages[si].stage, s.stage, "{}: stage order", t.workload);
                if s.wall < mins[wi].stages[si].wall {
                    mins[wi].stages[si].wall = s.wall;
                }
                if s.wall > maxs[wi].stages[si].wall {
                    maxs[wi].stages[si].wall = s.wall;
                }
            }
        }
    }
    (mins, maxs)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of a workload's recorded stage walls, in milliseconds.
fn median_stage_ms(t: &PassTimings) -> f64 {
    let mut walls: Vec<f64> = t.stages.iter().map(|s| ms(s.wall)).collect();
    walls.sort_by(f64::total_cmp);
    match walls.len() {
        0 => 0.0,
        n if n % 2 == 1 => walls[n / 2],
        n => (walls[n / 2 - 1] + walls[n / 2]) / 2.0,
    }
}

/// One stage flagged by the spike scan.
struct HeavyStage {
    workload: String,
    stage: String,
    min_ms: f64,
    max_ms: f64,
    median_ms: f64,
}

/// Scans every workload/stage for outliers (>5x the workload's median
/// stage time + 1 ms). Panics on any outlier that is *not reproducible*
/// across passes — that is a roaming measurement spike, and recording it
/// would poison the snapshot. Returns the reproducible heavy stages and
/// the per-pass transients the min filter absorbed.
fn scan_spikes(mins: &[PassTimings], maxs: &[PassTimings]) -> (Vec<HeavyStage>, Vec<HeavyStage>) {
    let mut heavy = Vec::new();
    let mut transient = Vec::new();
    for (tmin, tmax) in mins.iter().zip(maxs) {
        let median = median_stage_ms(tmin);
        for (smin, smax) in tmin.stages.iter().zip(&tmax.stages) {
            let (lo, hi) = (ms(smin.wall), ms(smax.wall));
            let entry = || HeavyStage {
                workload: tmin.workload.clone(),
                stage: smin.stage.clone(),
                min_ms: lo,
                max_ms: hi,
                median_ms: median,
            };
            if lo > 5.0 * median + 1.0 {
                let reproducible = hi <= 1.5 * lo + 2.0;
                assert!(
                    reproducible,
                    "roaming spike: {} {} is {lo:.2} ms (>5x the workload's {median:.2} ms \
                     median) but varies to {hi:.2} ms across passes — a measurement artifact, \
                     not stage cost",
                    tmin.workload, smin.stage
                );
                heavy.push(entry());
            } else if hi > 5.0 * lo + 5.0 {
                // The min filtered this pass-local spike out of the
                // recorded numbers; surface it so a noisy host is visible.
                transient.push(entry());
            }
        }
    }
    (heavy, transient)
}

/// The four `profile:*` stages of one workload interpret the same function
/// on inputs of the same scale; a large spread between them is an
/// interpreter anomaly (PR1's strcpy `profile:baseline` was 6x its
/// siblings from per-run allocation). Generalized from the old
/// strcpy-only assertion to every workload.
fn assert_profile_siblings_sane(timings: &[PassTimings]) {
    for t in timings {
        let profs: Vec<(&str, f64)> = t
            .stages
            .iter()
            .filter(|s| s.stage.starts_with("profile:"))
            .map(|s| (s.stage.as_str(), ms(s.wall)))
            .collect();
        let Some(min) = profs.iter().map(|(_, w)| *w).min_by(f64::total_cmp) else { continue };
        for (stage, wall) in &profs {
            assert!(
                *wall <= 10.0 * min + 2.0,
                "{}: {stage} at {wall:.3} ms is out of line with its cheapest profiling \
                 sibling ({min:.3} ms) — interpreter anomaly",
                t.workload
            );
        }
    }
}

/// Geomean wall time per stage across all workloads, as sorted
/// `(stage, ms)` pairs in canonical stage order.
fn stage_geomeans(timings: &[PassTimings]) -> Vec<(String, f64)> {
    epic_bench::stage::ALL
        .iter()
        .filter_map(|&name| {
            let walls: Vec<f64> = timings
                .iter()
                .flat_map(|t| &t.stages)
                .filter(|s| s.stage == name)
                // Clamp to 1ns so instant stages don't zero the geomean.
                .map(|s| ms(s.wall).max(1e-6))
                .collect();
            if walls.is_empty() {
                None
            } else {
                Some((name.to_string(), geomean(walls)))
            }
        })
        .collect()
}

/// Fails (exit 1) when `measured_ms` regresses >25% against the serial
/// wall clock recorded in the committed snapshot at `path`.
fn check_against(path: &str, measured_ms: f64) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("--check: cannot read {path}: {e}"));
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("--check: {path}: {e}"));
    let committed = json
        .get("table2_serial_ms")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("--check: {path} has no table2_serial_ms"));
    let limit = committed * 1.25;
    if measured_ms > limit {
        eprintln!(
            "PERF REGRESSION: table2 serial {measured_ms:.1} ms exceeds {limit:.1} ms \
             (committed {committed:.1} ms + 25%)"
        );
        std::process::exit(1);
    }
    println!(
        "perf check ok: table2 serial {measured_ms:.1} ms within {limit:.1} ms \
         (committed {committed:.1} ms + 25%)"
    );
}

fn heavy_json(list: &[HeavyStage]) -> String {
    let items: Vec<String> = list
        .iter()
        .map(|h| {
            format!(
                "{{\"workload\":\"{}\",\"stage\":\"{}\",\"min_ms\":{:.2},\"max_ms\":{:.2},\
                 \"median_stage_ms\":{:.2}}}",
                h.workload, h.stage, h.min_ms, h.max_ms, h.median_ms
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn main() {
    let mut out: Option<String> = None;
    let mut quick = false;
    let mut large = false;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--large" => large = true,
            "--check" => {
                let path = match args.peek() {
                    Some(p) if !p.starts_with("--") => args.next().unwrap(),
                    _ => "BENCH_table2.json".to_string(),
                };
                check = Some(path);
            }
            _ => out = Some(a),
        }
    }

    let workloads = epic_workloads::all();
    let cfg = PipelineConfig::default();
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Warmup: one full unrecorded pass so lazy statics, thread-local
    // interpreter pools, and first-touch page faults are paid before any
    // recorded number.
    eprintln!("warmup pass...");
    std::hint::black_box(serial_timing_pass(&workloads, &cfg));

    eprintln!("serial table2 ({} workloads, min of 3 runs)...", workloads.len());
    let (serial_best, serial_runs) = serial_ms(&workloads, &cfg, 3);

    if let Some(path) = &check {
        check_against(path, serial_best);
        if out.is_none() {
            return;
        }
    }
    let default_out = if large { "BENCH_table2_large.json" } else { "BENCH_table2.json" };
    let out = out.unwrap_or_else(|| default_out.to_string());

    let serial_rows = table2_serial(&workloads, &cfg);
    let mut sweep: Vec<(usize, f64)> = Vec::new();
    let mut timings: Vec<PassTimings> = Vec::new();
    let mut heavy: Vec<HeavyStage> = Vec::new();
    let mut transient: Vec<HeavyStage> = Vec::new();
    if !quick {
        eprintln!("per-stage timings ({TIMING_PASSES} serial passes, recording minima)...");
        let passes: Vec<Vec<PassTimings>> =
            (0..TIMING_PASSES).map(|_| serial_timing_pass(&workloads, &cfg)).collect();
        let (mins, maxs) = min_max_timings(&passes);
        let (h, t) = scan_spikes(&mins, &maxs);
        heavy = h;
        transient = t;
        assert_profile_siblings_sane(&mins);
        timings = mins;

        for threads in [1usize, 2, 4, 8] {
            eprintln!(
                "parallel table2 ({threads} threads, host has {host_cores} core(s), \
                 min of {SWEEP_RUNS} runs)..."
            );
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build thread pool");
            let mut best = f64::INFINITY;
            for _ in 0..SWEEP_RUNS {
                let t0 = Instant::now();
                let (rows, _) = pool.install(|| table2_with_timings(&workloads, &cfg));
                let wall = t0.elapsed().as_secs_f64() * 1e3;
                // Determinism cross-check: every parallel run must
                // reproduce the serial reference exactly.
                assert_eq!(serial_rows.len(), rows.len());
                for (s, p) in serial_rows.iter().zip(&rows) {
                    assert_eq!(s.name, p.name, "row order must match");
                    assert_eq!(s.cycles, p.cycles, "{}: cycles must match", s.name);
                }
                best = best.min(wall);
            }
            // Parallelism must never be materially slower than serial —
            // the pre-pool shim paid per-call thread spawn plus cold
            // thread-locals and ran 2/4-thread sweeps at 0.77-0.84x. The
            // allowance grows with the thread count because oversubscribing
            // a small host has a real context-switch cost per extra thread.
            let allowed = serial_best * 1.10 + 4.0 * threads as f64 + 8.0;
            assert!(
                best <= allowed,
                "{threads}-thread table2 at {best:.1} ms is materially slower than the \
                 {serial_best:.1} ms serial baseline (allowed {allowed:.1} ms) — parallel \
                 overhead regression"
            );
            sweep.push((threads, best));
        }
    }

    // The large tier: the six RISC-lite corpus workloads, timed with the
    // same serial min-of-N discipline and guarded by the same roaming-spike
    // detector. Collected separately so the paper-suite numbers above stay
    // comparable against pre-large snapshots.
    let mut large_json = String::new();
    if large {
        let corpus = epic_workloads::corpus();
        eprintln!(
            "large tier: {} corpus workloads ({TIMING_PASSES} serial passes, recording minima)...",
            corpus.len()
        );
        std::hint::black_box(serial_timing_pass(&corpus, &cfg));
        let passes: Vec<Vec<PassTimings>> =
            (0..TIMING_PASSES).map(|_| serial_timing_pass(&corpus, &cfg)).collect();
        let (mins, maxs) = min_max_timings(&passes);
        // The detector's reproducibility assertion is the acceptance gate:
        // an ICBM or scheduling blowup at 10k ops that varies across passes
        // aborts the snapshot here.
        let (lheavy, ltransient) = scan_spikes(&mins, &maxs);
        assert_profile_siblings_sane(&mins);

        let per_workload: Vec<String> = corpus
            .iter()
            .zip(&mins)
            .map(|(w, t)| {
                assert_eq!(w.name, t.workload);
                let static_ops: usize =
                    w.func.layout.iter().map(|&b| w.func.block(b).ops.len()).sum();
                let compile_ms: f64 = t.stages.iter().map(|s| ms(s.wall)).sum();
                format!(
                    "{{\"name\":\"{}\",\"static_ops\":{static_ops},\"compile_ms\":{compile_ms:.1}}}",
                    w.name
                )
            })
            .collect();
        let lgeo: Vec<String> = stage_geomeans(&mins)
            .iter()
            .map(|(stage, ms)| format!("\"{stage}\":{ms:.3}"))
            .collect();
        large_json = format!(
            ",\n  \"large_tier\": {{\n    \"workloads\": {},\n    \
             \"timing_collection\": \"serial min of {TIMING_PASSES} passes\",\n    \
             \"roaming_spikes\": 0,\n    \
             \"per_workload\": [{}],\n    \
             \"stage_geomean_ms\": {{{}}},\n    \
             \"reproducible_heavy_stages\": {},\n    \
             \"transient_stage_spikes\": {},\n    \
             \"per_workload_timings\": {}\n  }}",
            corpus.len(),
            per_workload.join(","),
            lgeo.join(","),
            heavy_json(&lheavy),
            heavy_json(&ltransient),
            timings_to_json(&mins)
        );
        eprintln!(
            "large tier: {} reproducible heavy stage(s), {} transient spike(s), 0 roaming",
            lheavy.len(),
            ltransient.len()
        );
    }

    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|(threads, wall)| {
            format!(
                "{{\"threads\":{threads},\"wall_ms\":{wall:.1},\"speedup\":{:.2}}}",
                serial_best / wall.max(1e-9)
            )
        })
        .collect();
    let geo_json: Vec<String> = stage_geomeans(&timings)
        .iter()
        .map(|(stage, ms)| format!("\"{stage}\":{ms:.3}"))
        .collect();
    let runs_json: Vec<String> = serial_runs.iter().map(|ms| format!("{ms:.1}")).collect();

    let snapshot = if large { "pr10" } else { "pr6" };
    let json = format!(
        "{{\n  \"snapshot\": \"{snapshot}\",\n  \"generator\": \"bench_snapshot\",\n  \
         \"workloads\": {},\n  \"host_cores\": {host_cores},\n  \
         \"table2_serial_ms\": {serial_best:.1},\n  \
         \"table2_serial_runs_ms\": [{}],\n  \
         \"thread_sweep\": [{}],\n  \"sweep_runs\": {SWEEP_RUNS},\n  \
         \"rows_identical\": true,\n  \
         \"timing_collection\": \"serial min of {TIMING_PASSES} passes\",\n  \
         \"roaming_spikes\": 0,\n  \
         \"reproducible_heavy_stages\": {},\n  \
         \"transient_stage_spikes\": {},\n  \
         \"stage_geomean_ms\": {{{}}},\n  \"per_workload_timings\": {}{}\n}}\n",
        workloads.len(),
        runs_json.join(","),
        sweep_json.join(","),
        heavy_json(&heavy),
        heavy_json(&transient),
        geo_json.join(","),
        timings_to_json(&timings),
        large_json
    );
    std::fs::write(&out, json).expect("write snapshot");
    let sweep_desc: Vec<String> =
        sweep.iter().map(|(t, w)| format!("{t}t {w:.1}ms")).collect();
    println!(
        "serial {serial_best:.1} ms (runs: {}); sweep [{}] on {host_cores}-core host; \
         {} reproducible heavy stage(s), {} transient spike(s), 0 roaming; wrote {out}",
        runs_json.join("/"),
        sweep_desc.join(", "),
        heavy.len(),
        transient.len()
    );
}

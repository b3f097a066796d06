//! The `suite` and `corpus` workloads: every program through the uncached
//! serial Table 2 path (both pipeline sides under the default config, then
//! scheduling on the five paper machines), on the calling thread.
//!
//! A *cold request* is one program's uncached compile plus its schedules; a
//! *warm request* is the same Table 2 row with every compile stage served
//! from a compile cache primed while the outputs were checked. Cold and
//! warm passes alternate for the measuring time (at least [`MIN_PASSES`]
//! each). Times over passes are means of their fastest tenth
//! ([`fast_mean`]). A program's latency is that over its passes; latency
//! percentiles are taken across programs.

use std::time::Instant;

use epic_bench::{
    check_equivalence, check_workload_schedules, compile, compile_cached, cycle_speedup,
    table2_row, CompileCache, Compiled, PipelineConfig,
};
use epic_machine::Machine;
use epic_obs::Tracer;
use epic_riscfe::corpus::corpus_inputs;
use epic_workloads::Workload;

use crate::layers::{self, add, Counters, Node, ReplayTarget, Values};
use crate::report::RunResult;
use crate::stats::{fast_mean, geomean, loglog_slope, median, peak_rss_mb, quantile};
use crate::Ops;

/// Fewest timed passes of each kind in a run.
const MIN_PASSES: usize = 3;
/// Program-set builds timed before the passes for `setup_s`; every cold
/// pass times one more, so the median covers the whole run.
const SETUPS: usize = 5;

/// Which program set a run compiles.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 26 hand-modelled paper workloads (no seed).
    Suite,
    /// The six fixed-tier RISC-lite corpus programs with their training
    /// inputs; a non-zero seed draws fresh evaluation inputs for the
    /// differential check.
    Corpus,
}

/// Builds the workload's programs.
fn build(kind: Kind, seed: u64) -> Vec<Workload> {
    match kind {
        Kind::Suite => epic_workloads::all(),
        Kind::Corpus => {
            let mut programs = epic_workloads::corpus();
            if seed != 0 {
                for (i, w) in programs.iter_mut().enumerate() {
                    w.evaluation = corpus_inputs(seed.wrapping_mul(1000).wrapping_add(i as u64));
                }
            }
            programs
        }
    }
}

/// A checked program: its Table 2 cycles and compiled pair.
struct Reference {
    cycles: Vec<(String, u64, u64)>,
    compiled: Compiled,
}

/// Samples from the timed passes.
#[derive(Default)]
struct Passes {
    /// Per pass: summed program times, ms.
    pass_ms: Vec<f64>,
    /// Per pass: the slowest program's time, ms.
    slowest_ms: Vec<f64>,
    /// Per program: its times, ms.
    per_program_ms: Vec<Vec<f64>>,
    /// Per pass (traced runs only): per-layer sums.
    layers: Vec<Values>,
}

impl Passes {
    /// Each program's time over the passes, in us: the population the
    /// latency percentiles are taken over.
    fn program_latencies_us(&self) -> Vec<f64> {
        self.per_program_ms
            .iter()
            .map(|ms| fast_mean(ms) * 1e3)
            .collect()
    }

    fn record_pass(&mut self, times_ms: &[f64]) {
        if self.per_program_ms.is_empty() {
            self.per_program_ms = vec![Vec::new(); times_ms.len()];
        }
        for (i, &ms) in times_ms.iter().enumerate() {
            self.per_program_ms[i].push(ms);
        }
        self.pass_ms.push(times_ms.iter().sum());
        self.slowest_ms
            .push(times_ms.iter().copied().fold(0.0, f64::max));
    }
}

/// Runs the workload for `seconds` of measurement and reports end-to-end
/// metrics, or per-layer metrics when `trace` is set.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut ops = Ops::default();
    let mut setups = Vec::new();
    let mut programs = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        programs = build(kind, seed);
        setups.push(t0.elapsed().as_secs_f64());
    }

    let cfg = PipelineConfig::default();
    let machines = Machine::paper_suite();
    let cache = CompileCache::new();
    let mut refs: Vec<Reference> = Vec::new();
    for w in &programs {
        ops.attempt();
        let c = match compile_cached(w, &cfg, &cache) {
            Ok(c) => c,
            Err(e) => {
                ops.fail(format!("{}: compile failed: {e}", w.name));
                return crate::failed_result(ops, trace);
            }
        };
        let eq = check_equivalence(w, &c).map_err(|e| e.to_string());
        ops.check(eq.is_ok(), || {
            format!("{}: {}", w.name, eq.clone().unwrap_err())
        });
        let sched = check_workload_schedules(w, &c, &machines);
        ops.check(sched.is_ok(), || {
            format!("{}: {}", w.name, sched.clone().unwrap_err())
        });
        let cycles = table2_row(w, &c, &machines).cycles;
        refs.push(Reference {
            cycles,
            compiled: c,
        });
    }

    let tracer = Tracer::global();
    if trace {
        tracer.enable();
    }
    let stats_before = cache.stats();
    let start = Instant::now();
    let (mut cold, mut warm) = (Passes::default(), Passes::default());
    while cold.pass_ms.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        std::hint::black_box(build(kind, seed));
        setups.push(t0.elapsed().as_secs_f64());
        let before = Counters::now();
        let mut values = Values::new();
        let mut times = Vec::with_capacity(programs.len());
        let mut sched_ms = 0.0;
        for (w, r) in programs.iter().zip(&refs) {
            ops.attempt();
            let t0 = Instant::now();
            let c = match compile(w, &cfg) {
                Ok(c) => c,
                Err(e) => {
                    ops.fail(format!("{}: compile failed: {e}", w.name));
                    return crate::failed_result(ops, trace);
                }
            };
            let t1 = Instant::now();
            let row = table2_row(w, &c, &machines);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            sched_ms += t1.elapsed().as_secs_f64() * 1e3;
            times.push(ms);
            ops.check(row.cycles == r.cycles, || {
                format!("{}: cycles differ between passes", w.name)
            });
            if trace {
                layers::add_compile(&mut values, &c);
                layers::add_icbm_self_times(&mut values, &tracer.drain());
            }
        }
        cold.record_pass(&times);
        if trace {
            Counters::now().add_since(&before, &mut values);
            add(&mut values, "sched.schedule_ms", sched_ms);
            layers::finish_ratios(&mut values);
            cold.layers.push(values);
        }

        // A warm pass follows every cold pass, so both sample the same
        // stretch of machine time.
        times.clear();
        for (w, r) in programs.iter().zip(&refs) {
            ops.attempt();
            let t0 = Instant::now();
            let c = compile_cached(w, &cfg, &cache);
            let row = c.as_ref().map(|c| table2_row(w, c, &machines));
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            let ok = matches!((&c, &row), (Ok(c), Ok(row)) if c.cache_misses == 0 && row.cycles == r.cycles);
            ops.check(ok, || {
                format!("{}: warm request missed the cache or changed", w.name)
            });
            if trace {
                tracer.drain();
            }
        }
        warm.record_pass(&times);
    }
    tracer.disable();
    let stats = cache.stats();

    let speedups: Vec<f64> = refs
        .iter()
        .flat_map(|r| r.cycles.iter().map(|&(_, b, o)| cycle_speedup(b, o)))
        .collect();
    let growth: Vec<f64> = refs
        .iter()
        .map(|r| {
            let c = &r.compiled;
            c.opt_counts.static_ops as f64 / c.base_counts.static_ops as f64
        })
        .collect();
    let scaling: Vec<(f64, f64)> = programs
        .iter()
        .zip(&cold.per_program_ms)
        .map(|(w, ms)| (w.func.static_op_count() as f64, fast_mean(ms)))
        .collect();
    let wall = fast_mean(&cold.pass_ms);
    let e2e = vec![
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_rss_mb()),
        ("wall_ms", wall),
        ("max_program_ms", fast_mean(&cold.slowest_ms)),
        ("scaling_exponent", loglog_slope(&scaling)),
        ("speedup_geomean", geomean(&speedups)),
        ("static_growth", geomean(&growth)),
        ("warm_p50_us", quantile(&warm.program_latencies_us(), 0.50)),
        ("warm_p99_us", quantile(&warm.program_latencies_us(), 0.99)),
        ("cold_p50_us", quantile(&cold.program_latencies_us(), 0.50)),
        ("cold_p99_us", quantile(&cold.program_latencies_us(), 0.99)),
        ("throughput_rps", programs.len() as f64 / (wall / 1e3)),
    ];
    println!(
        "{} programs; {} cold passes, {} warm passes",
        programs.len(),
        cold.pass_ms.len(),
        warm.pass_ms.len()
    );
    if !trace {
        return crate::finish(
            ops,
            e2e.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        );
    }

    // Layer values come from the same fastest passes as `wall_ms`.
    let mut fastest: Vec<usize> = (0..cold.pass_ms.len()).collect();
    fastest.sort_by(|&a, &b| cold.pass_ms[a].total_cmp(&cold.pass_ms[b]));
    fastest.truncate((fastest.len() / 10).max(1));
    let mut v = layers::mean_values(fastest.iter().map(|&i| &cold.layers[i]));
    crate::record_traced_e2e(&e2e, &mut v);
    let warm_passes = warm.pass_ms.len() as f64;
    let (hits, misses) = (
        stats.hits - stats_before.hits,
        stats.misses - stats_before.misses,
    );
    v.insert("bench.cache_hits".into(), hits as f64 / warm_passes);
    v.insert("bench.cache_misses".into(), misses as f64 / warm_passes);
    v.insert(
        "bench.cache_hit_ratio".into(),
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let waits = stats.inflight_waits - stats_before.inflight_waits;
    v.insert("bench.inflight_waits".into(), waits as f64 / warm_passes);
    let named = [
        "interp.profile_ms",
        "regions.superblock_ms",
        "regions.unroll_ms",
        "regions.frp_ms",
        "core.icbm_ms",
        "sched.schedule_ms",
    ];
    let attributed: f64 = named
        .iter()
        .map(|k| v.get(*k).copied().unwrap_or(0.0))
        .sum();
    v.insert("bench.unattributed_ms".into(), wall - attributed);

    let targets: Vec<ReplayTarget<'_>> = programs
        .iter()
        .zip(&refs)
        .enumerate()
        .map(|(i, (w, r))| ReplayTarget {
            w,
            line: format!("{{\"id\":{i},\"workload\":\"{}\"}}", w.name),
            cfg: cfg.clone(),
            compiled: &r.compiled,
        })
        .collect();
    layers::replay_warm_path(&mut v, &targets, &cache);
    layers::time_builds(&mut v);
    let pairs: Vec<&Compiled> = refs.iter().map(|r| &r.compiled).collect();
    layers::time_liveness(&mut v, &pairs);

    let get = |k: &str| v.get(k).copied().unwrap_or(0.0);
    println!("--- layer tree: one cold pass (mean over the fastest tenth), share of wall_ms ---");
    Node::parent(
        "wall_ms",
        wall,
        vec![
            Node::leaf("interp.profile", get("interp.profile_ms")),
            Node::leaf("regions.superblock", get("regions.superblock_ms")),
            Node::leaf("regions.unroll", get("regions.unroll_ms")),
            Node::leaf("regions.frp", get("regions.frp_ms")),
            layers::icbm_tree(&v),
            Node::leaf("sched.schedule", get("sched.schedule_ms")),
        ],
    )
    .print("ms", wall);
    crate::finish_layers(ops, v)
}

//! Layer attribution from outside the program: stage timings the pipeline
//! already records, spans and counters it already exports, timed calls
//! into each crate's public entry points, and line counts per crate.

use std::collections::BTreeMap;
use std::path::Path;

use epic_bench::{compile_cached, CompileCache, Compiled, PassTimings, PipelineConfig};
use epic_obs::{MetricsRegistry, TraceEvent};
use epic_serve::proto::{render_ok, result_json};
use epic_serve::{Request, ShapeTable};
use epic_workloads::Workload;

use crate::report::LAYERS;
use crate::stats::{median, time_median_us};

/// Per-layer values keyed by metric name.
pub type Values = BTreeMap<String, f64>;

/// Adds `v` to `values[name]`.
pub fn add(values: &mut Values, name: &str, v: f64) {
    *values.entry(name.to_string()).or_insert(0.0) += v;
}

/// The per-layer metric a pipeline stage's wall time belongs to.
pub fn stage_metric(stage: &str) -> Option<&'static str> {
    Some(match stage {
        s if s.starts_with("profile:") => "interp.profile_ms",
        "superblock" => "regions.superblock_ms",
        "unroll" => "regions.unroll_ms",
        "frp-convert" => "regions.frp_ms",
        "icbm" => "core.icbm_ms",
        _ => return None,
    })
}

/// Folds one uncached compile's stage timings and ICBM statistics into
/// `values` (stage times in ms; unroll op counts for the growth ratio).
pub fn add_compile(values: &mut Values, c: &Compiled) {
    add_timings(values, &c.timings);
    add(values, "core.cpr_blocks", c.stats.cpr_blocks as f64);
    add(values, "core.skipped", c.stats.skipped as f64);
    add(
        values,
        "core.branches_collapsed",
        c.stats.branches_collapsed as f64,
    );
}

fn add_timings(values: &mut Values, t: &PassTimings) {
    for s in &t.stages {
        if let Some(metric) = stage_metric(&s.stage) {
            add(values, metric, s.wall.as_secs_f64() * 1e3);
        }
        if s.stage == "unroll" {
            add(values, "unroll.ops_before", s.ops_before as f64);
            add(values, "unroll.ops_after", s.ops_after as f64);
        }
    }
}

/// The ICBM phases whose spans `apply_icbm` records, and the metric each
/// one's self time lands in.
const ICBM_SPANS: [(&str, &str); 6] = [
    ("icbm.speculate", "core.speculate_ms"),
    ("icbm.liveness", "core.liveness_ms"),
    ("icbm.match", "core.match_ms"),
    ("icbm.restructure", "core.restructure_ms"),
    ("icbm.motion", "core.motion_ms"),
    ("icbm.dce", "core.dce_ms"),
];

/// Adds the self times (duration minus directly nested spans on the same
/// thread) of the `icbm.*` spans in `events` to `values`, in ms. The
/// nested analysis spans (`liveness.*`, `motion.*`) are reported under
/// `nested.<name>` for the layer tree.
pub fn add_icbm_self_times(values: &mut Values, events: &[TraceEvent]) {
    let mut by_tid: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        by_tid.entry(e.tid).or_default().push(e);
    }
    for mut evs in by_tid.into_values() {
        evs.sort_by_key(|e| (e.ts_us, std::cmp::Reverse(e.dur_us)));
        // Stack of (event, child time) for the spans enclosing the cursor.
        let mut stack: Vec<(&TraceEvent, u64)> = Vec::new();
        let close = |values: &mut Values, (e, child): (&TraceEvent, u64)| {
            let self_us = e.dur_us.saturating_sub(child) as f64;
            if let Some((_, metric)) = ICBM_SPANS.iter().find(|(n, _)| *n == e.name) {
                add(values, metric, self_us / 1e3);
            } else if e.cat == "analysis" || e.name.starts_with("motion.") {
                add(values, &format!("nested.{}", e.name), self_us / 1e3);
            }
        };
        for e in evs {
            // A span nests in the enclosing one when it lies inside it, up
            // to the microsecond truncation of both ends.
            while let Some(&(top, _)) = stack.last() {
                let top_end = top.ts_us + top.dur_us;
                if e.ts_us >= top_end || e.ts_us + e.dur_us > top_end + 2 {
                    let done = stack.pop().expect("non-empty");
                    close(values, done);
                } else {
                    break;
                }
            }
            if let Some(parent) = stack.last_mut() {
                parent.1 += e.dur_us;
            }
            stack.push((e, 0));
        }
        while let Some(done) = stack.pop() {
            close(values, done);
        }
    }
}

/// Reads a process-wide counter.
fn counter(name: &str) -> u64 {
    MetricsRegistry::global().counter(name).value()
}

/// Work counters the interpreter and the BDD engine export, read before
/// and after a measured stretch.
#[derive(Clone, Copy)]
pub struct Counters {
    steps: u64,
    memo_hits: u64,
    memo_misses: u64,
}

impl Counters {
    /// The current values.
    pub fn now() -> Counters {
        Counters {
            steps: counter("interp.steps"),
            memo_hits: counter("bdd.memo_hits"),
            memo_misses: counter("bdd.memo_misses"),
        }
    }

    /// Adds the growth since `before` to `values`.
    pub fn add_since(&self, before: &Counters, values: &mut Values) {
        add(values, "interp.steps", (self.steps - before.steps) as f64);
        add(
            values,
            "bdd.memo_hits",
            (self.memo_hits - before.memo_hits) as f64,
        );
        add(
            values,
            "bdd.memo_misses",
            (self.memo_misses - before.memo_misses) as f64,
        );
    }
}

/// Turns accumulated raw sums into the derived ratios and drops helper
/// keys. `profile_ms` and `steps` must cover the same work.
pub fn finish_ratios(v: &mut Values) {
    let get = |v: &Values, k: &str| v.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (hits, misses) = (get(v, "bdd.memo_hits"), get(v, "bdd.memo_misses"));
    v.insert("analysis.bdd_queries".into(), hits + misses);
    v.insert(
        "analysis.bdd_memo_hit_ratio".into(),
        ratio(hits, hits + misses),
    );
    let steps = get(v, "interp.steps");
    v.insert(
        "interp.ns_per_step".into(),
        ratio(get(v, "interp.profile_ms") * 1e6, steps),
    );
    let unroll = ratio(get(v, "unroll.ops_after"), get(v, "unroll.ops_before"));
    v.insert("regions.unroll_growth".into(), unroll);
    let (cpr, skipped) = (get(v, "core.cpr_blocks"), get(v, "core.skipped"));
    v.insert("core.useful_ratio".into(), ratio(cpr, cpr + skipped));
    let nested = |v: &Values, prefix: &str| -> f64 {
        v.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, x)| x)
            .sum()
    };
    v.insert(
        "analysis.incremental_liveness_ms".into(),
        nested(v, "nested.liveness."),
    );
    v.insert("core.motion_deps_ms".into(), get(v, "nested.motion.deps"));
    v.insert("core.motion_facts_ms".into(), get(v, "nested.motion.facts"));
    for helper in [
        "bdd.memo_hits",
        "bdd.memo_misses",
        "unroll.ops_before",
        "unroll.ops_after",
    ] {
        v.remove(helper);
    }
}

/// The element-wise mean of several per-pass value maps (a key missing
/// from a pass counts as 0 there).
pub fn mean_values<'a>(passes: impl ExactSizeIterator<Item = &'a Values>) -> Values {
    let n = passes.len().max(1) as f64;
    let mut sums = Values::new();
    for p in passes {
        for (k, x) in p {
            add(&mut sums, k, *x);
        }
    }
    sums.into_iter().map(|(k, x)| (k, x / n)).collect()
}

/// One request the replay probes time: a workload (by its name on the
/// wire), the request line naming it, and the pair a direct compile of it
/// produced.
pub struct ReplayTarget<'a> {
    /// The workload.
    pub w: &'a Workload,
    /// The request line (no trailing newline).
    pub line: String,
    /// The configuration the line resolves to.
    pub cfg: PipelineConfig,
    /// The compiled pair.
    pub compiled: &'a Compiled,
}

/// Times the public entry points a warm serve request passes through, each
/// as the median over `targets` of the median of `reps` calls: parse,
/// classify, workload lookup, fingerprints, the cache-served compile and
/// its stage lookups, and reply rendering. `cache` must hold every
/// target's stage artifacts already.
pub fn replay_warm_path(values: &mut Values, targets: &[ReplayTarget<'_>], cache: &CompileCache) {
    const REPS: usize = 5;
    let shapes = ShapeTable::new();
    let mut per: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for t in targets {
        let mut push = |k: &'static str, us: f64| per.entry(k).or_default().push(us);
        push(
            "serve.parse_us",
            time_median_us(REPS, || Request::parse(&t.line).is_ok()).0,
        );
        push(
            "serve.classify_us",
            time_median_us(REPS, || shapes.classify_line(&t.line).tier).0,
        );
        let (us, found) = time_median_us(REPS, || epic_workloads::by_name(t.w.name).is_some());
        assert!(found, "{} resolves by name", t.w.name);
        push("workloads.by_name_us", us);
        let fp = time_median_us(REPS, || {
            t.w.func.fingerprint() ^ t.w.training.content_hash() ^ t.compiled.baseline.fingerprint()
        });
        push("ir.fingerprint_us", fp.0);
        let mut probe_us = Vec::new();
        let (us, _) = time_median_us(REPS, || {
            let c = compile_cached(t.w, &t.cfg, cache).expect("cache-served compile");
            probe_us.push(c.timings.total().as_secs_f64() * 1e6);
            c.cache_misses
        });
        push("bench.warm_compile_us", us);
        push("bench.cache_probe_us", median(&probe_us));
        let c = t.compiled;
        let render = time_median_us(REPS, || {
            let result = result_json(t.w.name, c, false);
            render_ok(Some(1), &result, 5, 0, 1.0, 1).len()
        });
        push("serve.render_us", render.0);
    }
    for (k, xs) in per {
        values.insert(k.to_string(), median(&xs));
    }
}

/// Times the workload constructors: the paper suite (`all()`) and the fixed
/// corpus (`corpus()`), median of three builds each.
pub fn time_builds(values: &mut Values) {
    let (us, _) = time_median_us(3, || epic_workloads::all().len());
    values.insert("workloads.suite_build_ms".into(), us / 1e3);
    let (us, _) = time_median_us(3, || epic_workloads::corpus().len());
    values.insert("workloads.corpus_build_ms".into(), us / 1e3);
}

/// Times a standalone `GlobalLiveness::compute` over both sides of every
/// pair, in ms (median of three sweeps).
pub fn time_liveness(values: &mut Values, pairs: &[&Compiled]) {
    let (us, _) = time_median_us(3, || {
        pairs
            .iter()
            .map(|c| {
                epic_analysis::GlobalLiveness::compute(&c.baseline)
                    .live_in_regs
                    .len()
                    + epic_analysis::GlobalLiveness::compute(&c.optimized)
                        .live_in_regs
                        .len()
            })
            .sum::<usize>()
    });
    values.insert("analysis.liveness_ms".into(), us / 1e3);
}

/// Non-blank, non-comment lines under each layer crate's `src/`.
pub fn lines_of_code(root: &Path, values: &mut Values) {
    for layer in LAYERS {
        let mut n = 0usize;
        count_dir(&root.join("crates").join(layer).join("src"), &mut n);
        values.insert(format!("{layer}.loc"), n as f64);
    }
}

fn count_dir(dir: &Path, n: &mut usize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            count_dir(&p, n);
        } else if p.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&p).unwrap_or_default();
            *n += count_code_lines(&text);
        }
    }
}

/// Lines that are neither blank nor comments (`//` lines and `/* */`
/// blocks).
fn count_code_lines(text: &str) -> usize {
    let mut in_block = false;
    let mut n = 0;
    for line in text.lines() {
        let l = line.trim();
        if in_block {
            in_block = !l.contains("*/");
            continue;
        }
        if l.is_empty() || l.starts_with("//") {
            continue;
        }
        if l.starts_with("/*") {
            in_block = !l.contains("*/");
            continue;
        }
        n += 1;
    }
    n
}

/// One node of the printed layer tree: a name, its self time and its
/// children.
pub struct Node {
    name: String,
    value: f64,
    children: Vec<Node>,
}

impl Node {
    /// A leaf.
    pub fn leaf(name: &str, value: f64) -> Node {
        Node {
            name: name.to_string(),
            value,
            children: Vec::new(),
        }
    }

    /// An inner node whose own time is `total`; the part of `total` its
    /// children do not cover is shown as an `(unattributed)` child.
    pub fn parent(name: &str, total: f64, mut children: Vec<Node>) -> Node {
        let covered: f64 = children.iter().map(|c| c.value).sum();
        children.push(Node::leaf("(unattributed)", total - covered));
        Node {
            name: name.to_string(),
            value: total,
            children,
        }
    }

    /// Prints the tree with each node's share of `whole`.
    pub fn print(&self, unit: &str, whole: f64) {
        self.print_at(0, unit, whole);
    }

    fn print_at(&self, depth: usize, unit: &str, whole: f64) {
        let share = if whole > 0.0 {
            100.0 * self.value / whole
        } else {
            0.0
        };
        println!(
            "{:indent$}{:<width$} {:>12.3} {unit:<3} {share:>6.1}%",
            "",
            self.name,
            self.value,
            indent = 2 * depth,
            width = 34 - 2 * depth
        );
        for c in &self.children {
            c.print_at(depth + 1, unit, whole);
        }
    }
}

/// The ICBM subtree: the stage's time, its phases' self times, and the
/// analysis spans nested in them.
pub fn icbm_tree(v: &Values) -> Node {
    let get = |k: &str| v.get(k).copied().unwrap_or(0.0);
    let nested = |prefix: &str| -> Vec<Node> {
        v.iter()
            .filter(|(k, _)| k.starts_with("nested.") && k[7..].starts_with(prefix))
            .map(|(k, x)| Node::leaf(&k[7..], *x))
            .collect()
    };
    let with_nested = |name: &str, metric: &str, prefix: &str| {
        let kids = nested(prefix);
        let own = get(metric);
        let total = own + kids.iter().map(|k| k.value).sum::<f64>();
        Node {
            name: name.to_string(),
            value: total,
            children: kids,
        }
    };
    Node::parent(
        "core.icbm",
        get("core.icbm_ms"),
        vec![
            Node::leaf("core.speculate", get("core.speculate_ms")),
            with_nested("core.liveness", "core.liveness_ms", "liveness."),
            Node::leaf("core.match", get("core.match_ms")),
            Node::leaf("core.restructure", get("core.restructure_ms")),
            with_nested("core.motion", "core.motion_ms", "motion."),
            Node::leaf("core.dce", get("core.dce_ms")),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, cat: &str, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: cat.into(),
            ts_us: ts,
            dur_us: dur,
            tid: 0,
            trace_id: None,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_spans() {
        let events = vec![
            // The stage record's start is reconstructed, so it may begin
            // after its first phase does.
            ev("icbm.speculate", "icbm", 0, 4),
            ev("icbm", "pipeline", 1, 100),
            ev("icbm.liveness", "icbm", 5, 25),
            ev("liveness.solve", "analysis", 6, 15),
            ev("icbm.motion", "icbm", 40, 50),
            ev("motion.deps", "icbm", 45, 10),
        ];
        let mut v = Values::new();
        add_icbm_self_times(&mut v, &events);
        assert_eq!(v["core.speculate_ms"], 0.004);
        assert_eq!(v["core.liveness_ms"], 0.010);
        assert_eq!(v["core.motion_ms"], 0.040);
        assert_eq!(v["nested.liveness.solve"], 0.015);
        assert_eq!(v["nested.motion.deps"], 0.010);
    }

    #[test]
    fn code_lines_skip_comments_and_blanks() {
        let text = "// c\n\nfn a() {}\n/* x\n y */\n  let b = 1; // t\n/// doc\n";
        assert_eq!(count_code_lines(text), 2);
    }
}

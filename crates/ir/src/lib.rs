//! # epic-ir
//!
//! A PlayDoh-style EPIC intermediate representation, the substrate for the
//! reproduction of *"Control CPR: A Branch Height Reduction Optimization for
//! EPIC Architectures"* (Schlansker, Mahlke, Johnson; PLDI 1999).
//!
//! The IR models the features of the HPL PlayDoh architecture that the paper
//! relies on:
//!
//! * **Predicated execution** — every operation carries an optional guard
//!   predicate; a nullified operation has no architectural effect.
//! * **Two-target compare-to-predicate (`cmpp`) operations** with the six
//!   PlayDoh action specifiers (`UN`, `UC`, `ON`, `OC`, `AN`, `AC`) whose
//!   semantics follow Table 1 of the paper exactly (see [`PredAction`]).
//! * **Prepare-to-branch / branch pairs** (`pbr` + `branch`) with explicit
//!   branch targets.
//!
//! Programs are [`Function`]s: a list of [`Block`]s in an explicit layout
//! order. Control *falls through* from a block to its layout successor unless
//! a branch in the block takes. Blocks may contain any number of conditional
//! branches at any position, which makes a single block able to represent a
//! superblock or hyperblock (a linear, single-entry, multi-exit region) — the
//! unit of work for the control CPR transformation.
//!
//! ```
//! use epic_ir::{FunctionBuilder, CmpCond, Operand};
//!
//! // while (*a != 0) *b++ = *a++;  -- one iteration per trip
//! let mut b = FunctionBuilder::new("strcpy");
//! let loop_ = b.block("loop");
//! let exit = b.block("exit");
//! b.switch_to(loop_);
//! let a = b.reg();
//! let v = b.load(a);
//! let (t, _f) = b.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
//! b.branch_if(t, exit);
//! b.jump(loop_);
//! b.switch_to(exit);
//! b.ret();
//! let f = b.finish();
//! assert!(epic_ir::verify(&f).is_ok());
//! ```

pub mod block;
pub mod builder;
pub mod fingerprint;
pub mod func;
pub mod fxhash;
pub mod ids;
pub mod op;
pub mod opcode;
pub mod parse;
pub mod print;
pub mod profile;
pub mod verify;

pub use block::Block;
pub use builder::FunctionBuilder;
pub use fingerprint::{combine_hashes, Fnv64};
pub use func::Function;
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use ids::{BlockId, OpId, PredReg, Reg};
pub use op::{Dest, Op, Operand};
pub use opcode::{CmpCond, Opcode, PredAction, PredActionKind, PredSense, UnitClass};
pub use parse::{parse_function, ParseError};
pub use profile::Profile;
pub use verify::{verify, VerifyError};

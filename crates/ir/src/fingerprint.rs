//! Content-addressed structural fingerprints.
//!
//! [`Function::fingerprint`] produces a 64-bit hash of everything that
//! determines how a function compiles and executes: the block/operation
//! structure in layout order, opcodes, operands, guards, predicate actions,
//! alias classes and live-outs. It deliberately hashes *positions* rather
//! than raw [`OpId`](crate::OpId)/[`BlockId`](crate::BlockId) numbers, so
//! two structurally identical functions — e.g. a function and its
//! print→parse round trip, which renumbers ids — share a fingerprint. This
//! is the key property the compile cache relies on: artifacts reloaded from
//! the textual on-disk layer address the same cache entries as the
//! originals.
//!
//! The hash is FNV-1a over a canonical byte encoding. It is stable across
//! processes and platforms (no randomized hasher state, no pointer values)
//! but is *not* cryptographic; collisions are astronomically unlikely for
//! the program sizes involved, not impossible.

use crate::func::Function;
use crate::op::{Dest, Op, Operand};
use crate::opcode::{CmpCond, Opcode, PredAction, PredActionKind, PredSense};

/// A 64-bit FNV-1a hasher with a stable, seedless state.
///
/// Unlike `std::hash::DefaultHasher` the output is identical across runs
/// and builds, which makes it usable for on-disk cache keys.
///
/// Absorbing a zero byte is `state * FNV_PRIME`, because `state ^ 0 ==
/// state`; `k` zero bytes are one multiply by `FNV_PRIME^k`.
/// [`write_u64`](Fnv64::write_u64) uses that identity to absorb a word's
/// high zero bytes (and a whole zero word) with a single multiply, so
/// every hash is bit-identical to byte-wise FNV-1a while the mostly-zero
/// memory images of the workload inputs hash several times faster.
#[derive(Clone, Debug)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=8`: what absorbing `k` zero bytes
/// multiplies the state by.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Absorbs one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.state = (self.state ^ b as u64).wrapping_mul(FNV_PRIME);
    }

    /// Absorbs a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Absorbs a 64-bit value (little-endian bytes): the bytes up to the
    /// last non-zero one byte by byte, then the zero bytes above it with
    /// one multiply (see the type docs).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let len = (u64::BITS - v.leading_zeros()).div_ceil(8) as usize;
        self.write_bytes(&v.to_le_bytes()[..len]);
        self.state = self.state.wrapping_mul(PRIME_POW[8 - len]);
    }

    /// Absorbs `n` zero 64-bit values: `8n` zero bytes, one multiply by
    /// `FNV_PRIME^(8n)` (see the type docs).
    pub fn write_zero_u64s(&mut self, mut n: usize) {
        let mut pow = PRIME_POW[8];
        while n > 0 {
            if n & 1 == 1 {
                self.state = self.state.wrapping_mul(pow);
            }
            pow = pow.wrapping_mul(pow);
            n >>= 1;
        }
    }

    /// Absorbs a signed 64-bit value.
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Absorbs a `usize` (widened to 64 bits).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Combines pre-computed hashes into one (order-sensitive).
pub fn combine_hashes(parts: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for &p in parts {
        h.write_u64(p);
    }
    h.finish()
}

fn cond_tag(c: CmpCond) -> u8 {
    match c {
        CmpCond::Eq => 0,
        CmpCond::Ne => 1,
        CmpCond::Lt => 2,
        CmpCond::Le => 3,
        CmpCond::Gt => 4,
        CmpCond::Ge => 5,
    }
}

fn opcode_tag(op: Opcode) -> (u8, u8) {
    match op {
        Opcode::Add => (0, 0),
        Opcode::Sub => (1, 0),
        Opcode::Mul => (2, 0),
        Opcode::Div => (3, 0),
        Opcode::Rem => (4, 0),
        Opcode::And => (5, 0),
        Opcode::Or => (6, 0),
        Opcode::Xor => (7, 0),
        Opcode::Shl => (8, 0),
        Opcode::Shr => (9, 0),
        Opcode::Mov => (10, 0),
        Opcode::FAdd => (11, 0),
        Opcode::FSub => (12, 0),
        Opcode::FMul => (13, 0),
        Opcode::FDiv => (14, 0),
        Opcode::Load => (15, 0),
        Opcode::LoadS => (16, 0),
        Opcode::Store => (17, 0),
        Opcode::PredInit => (18, 0),
        Opcode::Pbr => (19, 0),
        Opcode::Branch => (20, 0),
        Opcode::Ret => (21, 0),
        Opcode::Cmpp(c) => (22, cond_tag(c)),
    }
}

fn action_tag(a: PredAction) -> u8 {
    let k = match a.kind {
        PredActionKind::Uncond => 0,
        PredActionKind::Or => 1,
        PredActionKind::And => 2,
    };
    let s = match a.sense {
        PredSense::Normal => 0,
        PredSense::Complement => 1,
    };
    k * 2 + s
}

fn hash_op(h: &mut Fnv64, f: &Function, op: &Op) {
    let (t0, t1) = opcode_tag(op.opcode);
    h.write_u8(t0);
    h.write_u8(t1);
    h.write_usize(op.dests.len());
    for d in &op.dests {
        match *d {
            Dest::Reg(r) => {
                h.write_u8(0);
                h.write_u64(r.0 as u64);
            }
            Dest::Pred(p, a) => {
                h.write_u8(1);
                h.write_u64(p.0 as u64);
                h.write_u8(action_tag(a));
            }
        }
    }
    h.write_usize(op.srcs.len());
    for s in &op.srcs {
        match *s {
            Operand::Reg(r) => {
                h.write_u8(0);
                h.write_u64(r.0 as u64);
            }
            Operand::Pred(p) => {
                h.write_u8(1);
                h.write_u64(p.0 as u64);
            }
            Operand::Imm(v) => {
                h.write_u8(2);
                h.write_i64(v);
            }
            // Branch targets hash as layout *positions*, which survive
            // block renumbering (e.g. a print→parse round trip).
            Operand::Label(b) => {
                h.write_u8(3);
                h.write_u64(f.position(b).map_or(u64::MAX, |i| i as u64));
            }
        }
    }
    match op.guard {
        None => h.write_u8(0),
        Some(p) => {
            h.write_u8(1);
            h.write_u64(p.0 as u64);
        }
    }
    match f.mem_class_of(op.id) {
        None => h.write_u8(0),
        Some(c) => {
            h.write_u8(1);
            h.write_u64(c as u64);
        }
    }
}

impl Function {
    /// A stable structural hash of this function.
    ///
    /// Two functions have equal fingerprints iff (modulo hash collisions)
    /// they have the same name, layout shape, block names, operations
    /// (opcode, destinations with predicate actions, sources, guard),
    /// register/predicate numbering, memory alias classes and live-out set.
    /// Raw `OpId`/`BlockId` values do **not** participate: branch targets
    /// are hashed as layout positions, so the fingerprint is invariant
    /// under the id renumbering a textual round trip performs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(&self.name);
        h.write_usize(self.live_outs().len());
        for r in self.live_outs() {
            h.write_u64(r.0 as u64);
        }
        h.write_usize(self.layout().len());
        for block in self.blocks_in_layout() {
            h.write_str(&block.name);
            h.write_usize(block.ops.len());
            for op in &block.ops {
                hash_op(&mut h, self, op);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ids::Reg;

    fn sample() -> Function {
        let mut b = FunctionBuilder::new("fp");
        let e = b.block("entry");
        let t = b.block("tail");
        b.switch_to(e);
        let x = b.movi(7);
        let (tk, _fl) = b.cmpp_un_uc(CmpCond::Lt, x.into(), Operand::Imm(10));
        b.branch_if(tk, t);
        let a = b.movi(0);
        b.set_alias_class(Some(3));
        b.store(a, x.into());
        b.set_alias_class(None);
        b.ret();
        b.switch_to(t);
        b.ret();
        b.mark_live_out(x);
        b.finish()
    }

    #[test]
    fn fingerprint_is_deterministic() {
        assert_eq!(sample().fingerprint(), sample().fingerprint());
    }

    #[test]
    fn fingerprint_survives_print_parse_round_trip() {
        let f = sample();
        let g = crate::parse::parse_function(&f.to_string()).unwrap();
        assert_eq!(f.fingerprint(), g.fingerprint());
    }

    #[test]
    fn fingerprint_sees_immediate_change() {
        let f = sample();
        let mut g = sample();
        let e = g.entry();
        g.block_mut(e).ops[0].srcs[0] = Operand::Imm(8);
        assert_ne!(f.fingerprint(), g.fingerprint());
    }

    #[test]
    fn fingerprint_sees_alias_class_change() {
        let f = sample();
        let mut g = sample();
        let e = g.entry();
        let store_id = g
            .block(e)
            .ops
            .iter()
            .find(|o| o.opcode == Opcode::Store)
            .unwrap()
            .id;
        g.set_mem_class(store_id, 4);
        assert_ne!(f.fingerprint(), g.fingerprint());
    }

    #[test]
    fn fingerprint_sees_guard_and_live_out_changes() {
        let f = sample();
        let mut g = sample();
        let e = g.entry();
        g.block_mut(e).ops[3].guard = None;
        let changed_guard = g.fingerprint();
        assert_ne!(f.fingerprint(), changed_guard);

        // `x` (r0) is already live-out in `sample`; designate a different
        // register to actually change the set.
        let mut h = sample();
        h.mark_live_out(Reg(1));
        assert_ne!(f.fingerprint(), h.fingerprint());
    }

    /// Byte-wise FNV-1a of `v`'s little-endian bytes, the definition
    /// `write_u64` must reproduce.
    fn bytewise(seed: &Fnv64, v: u64) -> u64 {
        let mut h = seed.clone();
        for b in v.to_le_bytes() {
            h.write_u8(b);
        }
        h.finish()
    }

    #[test]
    fn write_u64_is_bytewise_fnv() {
        let mut seeded = Fnv64::new();
        seeded.write_str("seed");
        for seed in [Fnv64::new(), seeded] {
            for v in [0, 1, 255, 256, 1 << 56, u64::MAX] {
                let mut h = seed.clone();
                h.write_u64(v);
                assert_eq!(h.finish(), bytewise(&seed, v), "{v:#x}");
            }
        }
    }

    #[test]
    fn zero_words_are_zero_u64s() {
        for n in [0, 1, 2, 3, 7, 8, 1000, 16_384] {
            let (mut fast, mut slow) = (Fnv64::new(), Fnv64::new());
            fast.write_zero_u64s(n);
            for _ in 0..n {
                slow.write_bytes(&[0; 8]);
            }
            assert_eq!(fast.finish(), slow.finish(), "{n}");
        }
    }

    proptest::proptest! {
        #[test]
        fn write_u64_matches_bytewise_fnv_at_every_width(
            v in proptest::prelude::any::<u64>(),
            shift in 0u32..64,
            prefix in proptest::prelude::any::<u64>(),
        ) {
            // Shifting covers every count of high zero bytes.
            let v = v >> shift;
            let mut seed = Fnv64::new();
            seed.write_u64(prefix);
            let mut h = seed.clone();
            h.write_u64(v);
            proptest::prop_assert_eq!(h.finish(), bytewise(&seed, v));
        }
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine_hashes(&[1, 2]), combine_hashes(&[2, 1]));
        assert_eq!(combine_hashes(&[1, 2]), combine_hashes(&[1, 2]));
    }
}

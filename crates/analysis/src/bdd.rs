//! A small reduced ordered binary decision diagram (ROBDD) package.
//!
//! The Control CPR implementation needs *exact* boolean reasoning about
//! predicate registers: the scheduler may overlap two branches only when
//! their guarding predicates are provably disjoint (paper §3), predicate
//! speculation needs "will this promoted write clobber a live value"
//! queries, and the ICBM suitability proof is about predicate implication.
//! Elcor used the predicate query system of \[JS96\]; we replace it with an
//! exact BDD over branch-condition variables, which is simpler to test.
//!
//! The manager hash-conses nodes, so equality of [`Bdd`] handles is
//! equivalence of the boolean functions they denote.

use std::collections::HashMap;

/// A handle to a BDD node owned by a [`BddManager`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(u32);

impl Bdd {
    /// The constant false function.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant true function.
    pub const TRUE: Bdd = Bdd(1);

    /// True if this is the constant false function.
    #[inline]
    pub fn is_false(self) -> bool {
        self == Bdd::FALSE
    }

    /// True if this is the constant true function.
    #[inline]
    pub fn is_true(self) -> bool {
        self == Bdd::TRUE
    }
}

#[derive(Clone, Copy)]
struct Node {
    var: u32,
    lo: Bdd,
    hi: Bdd,
}

/// Owns BDD nodes and provides the boolean operations.
///
/// ```
/// use epic_analysis::bdd::{Bdd, BddManager};
///
/// let mut m = BddManager::new();
/// let a = m.var(0);
/// let b = m.var(1);
/// let ab = m.and(a, b);
/// let na = m.not(a);
/// assert!(m.and(ab, na).is_false()); // a ∧ b ∧ ¬a = false
/// assert!(m.disjoint(ab, na));
/// assert!(m.implies(ab, a));
/// ```
pub struct BddManager {
    nodes: Vec<Node>,
    unique: HashMap<(u32, Bdd, Bdd), Bdd>,
    and_memo: HashMap<(Bdd, Bdd), Bdd>,
    or_memo: HashMap<(Bdd, Bdd), Bdd>,
    not_memo: HashMap<Bdd, Bdd>,
    /// Memoized answers to [`disjoint`](BddManager::disjoint) (key ordered,
    /// the query is symmetric) and [`implies`](BddManager::implies) (key as
    /// asked). The dependence builder asks the same guard pairs once per
    /// def/use pair and once per machine model, so a flat query memo turns
    /// almost all of them into single hash probes with no BDD traversal.
    disjoint_memo: HashMap<(Bdd, Bdd), bool>,
    implies_memo: HashMap<(Bdd, Bdd), bool>,
    memo_hits: u64,
    memo_misses: u64,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates an empty manager.
    pub fn new() -> BddManager {
        // Slots 0 and 1 are the constants; their contents are never read.
        let sentinel = Node { var: u32::MAX, lo: Bdd::FALSE, hi: Bdd::FALSE };
        BddManager {
            nodes: vec![sentinel, sentinel],
            unique: HashMap::new(),
            and_memo: HashMap::new(),
            or_memo: HashMap::new(),
            not_memo: HashMap::new(),
            disjoint_memo: HashMap::new(),
            implies_memo: HashMap::new(),
            memo_hits: 0,
            memo_misses: 0,
        }
    }

    /// Query-memo statistics of this manager: `(hits, misses)` across
    /// `disjoint` and `implies` calls. The totals are also published to the
    /// process-wide `bdd.memo_hits` / `bdd.memo_misses` counters when the
    /// manager is dropped.
    pub fn memo_stats(&self) -> (u64, u64) {
        (self.memo_hits, self.memo_misses)
    }

    /// Number of live nodes (including the two constants).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        if let Some(&n) = self.unique.get(&(var, lo, hi)) {
            return n;
        }
        let id = Bdd(self.nodes.len() as u32);
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert((var, lo, hi), id);
        id
    }

    #[inline]
    fn var_of(&self, b: Bdd) -> u32 {
        if b.0 < 2 {
            u32::MAX
        } else {
            self.nodes[b.0 as usize].var
        }
    }

    /// The function "variable `v` is true".
    pub fn var(&mut self, v: u32) -> Bdd {
        self.mk(v, Bdd::FALSE, Bdd::TRUE)
    }

    /// The function "variable `v` is false".
    pub fn nvar(&mut self, v: u32) -> Bdd {
        self.mk(v, Bdd::TRUE, Bdd::FALSE)
    }

    /// Conjunction.
    pub fn and(&mut self, a: Bdd, b: Bdd) -> Bdd {
        if a == b || b.is_true() {
            return a;
        }
        if a.is_true() {
            return b;
        }
        if a.is_false() || b.is_false() {
            return Bdd::FALSE;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&r) = self.and_memo.get(&key) {
            return r;
        }
        let (va, vb) = (self.var_of(a), self.var_of(b));
        let v = va.min(vb);
        let (alo, ahi) = self.cofactors(a, v);
        let (blo, bhi) = self.cofactors(b, v);
        let lo = self.and(alo, blo);
        let hi = self.and(ahi, bhi);
        let r = self.mk(v, lo, hi);
        self.and_memo.insert(key, r);
        r
    }

    /// Disjunction.
    pub fn or(&mut self, a: Bdd, b: Bdd) -> Bdd {
        if a == b || b.is_false() {
            return a;
        }
        if a.is_false() {
            return b;
        }
        if a.is_true() || b.is_true() {
            return Bdd::TRUE;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&r) = self.or_memo.get(&key) {
            return r;
        }
        let (va, vb) = (self.var_of(a), self.var_of(b));
        let v = va.min(vb);
        let (alo, ahi) = self.cofactors(a, v);
        let (blo, bhi) = self.cofactors(b, v);
        let lo = self.or(alo, blo);
        let hi = self.or(ahi, bhi);
        let r = self.mk(v, lo, hi);
        self.or_memo.insert(key, r);
        r
    }

    /// Negation.
    pub fn not(&mut self, a: Bdd) -> Bdd {
        if a.is_false() {
            return Bdd::TRUE;
        }
        if a.is_true() {
            return Bdd::FALSE;
        }
        if let Some(&r) = self.not_memo.get(&a) {
            return r;
        }
        let n = self.nodes[a.0 as usize];
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.not_memo.insert(a, r);
        r
    }

    /// `a ∧ ¬b`.
    pub fn and_not(&mut self, a: Bdd, b: Bdd) -> Bdd {
        let nb = self.not(b);
        self.and(a, nb)
    }

    /// True when `a` and `b` can never be simultaneously true.
    pub fn disjoint(&mut self, a: Bdd, b: Bdd) -> bool {
        // Constant and equal-handle cases resolve without touching the memo
        // (or its hit/miss tallies): they are already cheaper than a probe.
        if a.is_false() || b.is_false() {
            return true;
        }
        if a == b || a.is_true() || b.is_true() {
            // Neither side is FALSE here, so a shared satisfying assignment
            // exists (equal handles / the TRUE side accepts everything).
            return false;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&r) = self.disjoint_memo.get(&key) {
            self.memo_hits += 1;
            return r;
        }
        self.memo_misses += 1;
        let r = self.and(a, b).is_false();
        self.disjoint_memo.insert(key, r);
        r
    }

    /// True when `a` implies `b` (every assignment satisfying `a` satisfies
    /// `b`).
    pub fn implies(&mut self, a: Bdd, b: Bdd) -> bool {
        // Constant and equal-handle cases, memo-free as in `disjoint`.
        if b.is_true() || a.is_false() || a == b {
            return true;
        }
        if b.is_false() {
            // `a` is not FALSE here, so some assignment satisfies `a`.
            return false;
        }
        if let Some(&r) = self.implies_memo.get(&(a, b)) {
            self.memo_hits += 1;
            return r;
        }
        self.memo_misses += 1;
        let r = self.and_not(a, b).is_false();
        self.implies_memo.insert((a, b), r);
        r
    }

    #[inline]
    fn cofactors(&self, b: Bdd, v: u32) -> (Bdd, Bdd) {
        if b.0 < 2 || self.nodes[b.0 as usize].var != v {
            (b, b)
        } else {
            let n = self.nodes[b.0 as usize];
            (n.lo, n.hi)
        }
    }

    /// Evaluates the function under a variable assignment (for testing).
    pub fn eval(&self, b: Bdd, assignment: &dyn Fn(u32) -> bool) -> bool {
        let mut cur = b;
        loop {
            if cur.is_false() {
                return false;
            }
            if cur.is_true() {
                return true;
            }
            let n = self.nodes[cur.0 as usize];
            cur = if assignment(n.var) { n.hi } else { n.lo };
        }
    }
}

impl Drop for BddManager {
    /// Publishes this manager's query-memo statistics to the process-wide
    /// `bdd.memo_hits` / `bdd.memo_misses` counters. Flushing on drop keeps
    /// the hot query paths free of atomic operations.
    fn drop(&mut self) {
        if self.memo_hits > 0 {
            crate::obs_bdd_memo_hits().add(self.memo_hits);
        }
        if self.memo_misses > 0 {
            crate::obs_bdd_memo_misses().add(self.memo_misses);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert!(Bdd::FALSE.is_false());
        assert!(Bdd::TRUE.is_true());
        assert!(!Bdd::TRUE.is_false());
    }

    #[test]
    fn hash_consing_gives_canonical_forms() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let ab1 = m.and(a, b);
        let ba = m.and(b, a);
        assert_eq!(ab1, ba);
        // (a ∨ b) ∧ a == a (absorption)
        let aob = m.or(a, b);
        assert_eq!(m.and(aob, a), a);
    }

    #[test]
    fn negation_and_demorgan() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let nab = m.not(ab);
        let na = m.not(a);
        let nb = m.not(b);
        let na_or_nb = m.or(na, nb);
        assert_eq!(nab, na_or_nb);
        assert_eq!(m.not(nab), ab); // double negation
    }

    #[test]
    fn disjoint_and_implies() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let na = m.not(a);
        assert!(m.disjoint(a, na));
        let b = m.var(1);
        assert!(!m.disjoint(a, b));
        let ab = m.and(a, b);
        assert!(m.implies(ab, a));
        assert!(!m.implies(a, ab));
        assert!(m.implies(Bdd::FALSE, a));
        assert!(m.implies(a, Bdd::TRUE));
    }

    #[test]
    fn superblock_frp_structure() {
        // Model a three-branch superblock: block FRPs g0 ⊇ g1 ⊇ g2 and
        // branch FRPs t1 = g0∧c1, t2 = g1∧c2, t3 = g2∧c3.
        // FRP conversion makes branch FRPs pairwise disjoint.
        let mut m = BddManager::new();
        let g0 = Bdd::TRUE;
        let c1 = m.var(1);
        let c2 = m.var(2);
        let c3 = m.var(3);
        let t1 = m.and(g0, c1);
        let g1 = m.and_not(g0, c1);
        let t2 = m.and(g1, c2);
        let g2 = m.and_not(g1, c2);
        let t3 = m.and(g2, c3);
        let g3 = m.and_not(g2, c3);
        assert!(m.disjoint(t1, t2));
        assert!(m.disjoint(t1, t3));
        assert!(m.disjoint(t2, t3));
        assert!(m.implies(g2, g1));
        assert!(m.implies(g3, g1));
        // off-trace FRP = t1 ∨ t2 ∨ t3 and on-trace FRP g3 partition g0.
        let t12 = m.or(t1, t2);
        let off = m.or(t12, t3);
        assert!(m.disjoint(off, g3));
        assert_eq!(m.or(off, g3), g0);
        // The ICBM simplified off-trace expression g0 ∧ (c1 ∨ c2 ∨ c3)
        // equals the general one here because guards chain (suitability).
        let c12 = m.or(c1, c2);
        let c123 = m.or(c12, c3);
        let simplified = m.and(g0, c123);
        assert_eq!(simplified, off);
    }

    #[test]
    fn eval_agrees_with_semantics() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let xor_ab = {
            let na = m.not(a);
            let nb = m.not(b);
            let l = m.and(a, nb);
            let r = m.and(na, b);
            m.or(l, r)
        };
        for bits in 0..4u32 {
            let assign = |v: u32| bits & (1 << v) != 0;
            assert_eq!(m.eval(f, &assign), assign(0) && assign(1));
            assert_eq!(m.eval(xor_ab, &assign), assign(0) ^ assign(1));
        }
    }

    #[test]
    fn nvar_is_not_var() {
        let mut m = BddManager::new();
        let v = m.var(3);
        let nv = m.nvar(3);
        assert_eq!(m.not(v), nv);
        assert!(m.disjoint(v, nv));
        assert_eq!(m.or(v, nv), Bdd::TRUE);
    }

    #[test]
    fn query_memo_hits_repeated_queries() {
        // Constant / equal-handle queries resolve before the memo and leave
        // the tallies untouched.
        let mut m = BddManager::new();
        let a = m.var(0);
        let na = m.not(a);
        let b = m.var(1);
        assert!(m.disjoint(a, Bdd::FALSE));
        assert!(m.implies(a, a));
        assert!(m.implies(a, Bdd::TRUE));
        assert_eq!(m.memo_stats(), (0, 0));
        // Distinct-variable queries go through the memo: first a miss, then
        // repeats (including the symmetric disjoint flip) hit it and keep
        // returning the same answers.
        let ab = m.or(a, b);
        assert!(m.disjoint(a, na));
        assert!(m.implies(a, ab));
        let (h0, miss0) = m.memo_stats();
        assert_eq!((h0, miss0), (0, 2));
        assert!(m.disjoint(na, a));
        assert!(m.implies(a, ab));
        assert!(!m.disjoint(a, b));
        assert!(!m.disjoint(b, a));
        let (h1, miss) = m.memo_stats();
        assert!(h1 >= h0 + 3, "hits {h0} -> {h1}");
        assert!(miss >= 3);
    }

    #[test]
    fn node_count_grows_and_dedups() {
        let mut m = BddManager::new();
        let before = m.node_count();
        let a = m.var(0);
        let count_a = m.node_count();
        let a2 = m.var(0);
        assert_eq!(a, a2);
        assert_eq!(m.node_count(), count_a);
        assert!(count_a > before);
    }
}

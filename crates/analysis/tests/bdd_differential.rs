//! Differential test: the BDD engine against 256-row truth tables.
//!
//! Seeded and deterministic. Each seed grows a pool of random formulas over
//! 8 variables with `and`/`or`/`not`/`and_not`, and tracks each formula's
//! truth table as 256 bits next to its BDD. Every result is checked row by
//! row, handles must be canonical (equal tables ⇔ equal handles), and
//! `disjoint`/`implies` are checked on random pairs. The pairs are then
//! asked again, so the second round is answered from the query memos.

use epic_analysis::bdd::{Bdd, BddManager};

const VARS: u32 = 8;
const ROWS: usize = 1 << VARS;

/// A truth table: bit `row` is the value under the assignment whose
/// variable `v` is bit `v` of `row`.
type Table = [u64; ROWS / 64];

/// splitmix64: a tiny, seedable generator with no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn var_table(v: u32) -> Table {
    let mut t = [0u64; ROWS / 64];
    for row in 0..ROWS {
        if row >> v & 1 == 1 {
            t[row / 64] |= 1 << (row % 64);
        }
    }
    t
}

fn zip(a: &Table, b: &Table, f: impl Fn(u64, u64) -> u64) -> Table {
    std::array::from_fn(|i| f(a[i], b[i]))
}

fn is_empty(t: &Table) -> bool {
    t.iter().all(|&w| w == 0)
}

fn check_rows(m: &BddManager, f: Bdd, t: &Table) {
    for row in 0..ROWS {
        let expected = t[row / 64] >> (row % 64) & 1 == 1;
        assert_eq!(m.eval(f, &|v| row >> v & 1 == 1), expected, "{f:?} at row {row:#010b}");
    }
}

/// Grows a pool of `size` formulas (constants and variables first) and
/// checks every one against its table.
fn grow_pool(m: &mut BddManager, rng: &mut Rng, size: usize) -> Vec<(Bdd, Table)> {
    let mut pool = vec![(Bdd::FALSE, [0; ROWS / 64]), (Bdd::TRUE, [u64::MAX; ROWS / 64])];
    for v in 0..VARS {
        pool.push((m.var(v), var_table(v)));
    }
    while pool.len() < size {
        let (a, ta) = pool[rng.below(pool.len())];
        let (b, tb) = pool[rng.below(pool.len())];
        let (f, t) = match rng.below(4) {
            0 => (m.and(a, b), zip(&ta, &tb, |x, y| x & y)),
            1 => (m.or(a, b), zip(&ta, &tb, |x, y| x | y)),
            2 => (m.not(a), zip(&ta, &ta, |x, _| !x)),
            _ => (m.and_not(a, b), zip(&ta, &tb, |x, y| x & !y)),
        };
        check_rows(m, f, &t);
        pool.push((f, t));
    }
    pool
}

#[test]
fn bdd_matches_truth_tables() {
    for seed in 0..8u64 {
        let mut rng = Rng(seed);
        let mut m = BddManager::new();
        let pool = grow_pool(&mut m, &mut rng, 400);

        // Canonical forms: one handle per boolean function.
        for (f, tf) in &pool {
            for (g, tg) in &pool {
                assert_eq!(f == g, tf == tg, "seed {seed}: {f:?} vs {g:?}");
            }
        }

        let pairs: Vec<(usize, usize)> =
            (0..2000).map(|_| (rng.below(pool.len()), rng.below(pool.len()))).collect();
        let ask = |m: &mut BddManager, flip: bool| {
            for &(i, j) in &pairs {
                let ((a, ta), (b, tb)) = (pool[i], pool[j]);
                let (da, db) = if flip { (b, a) } else { (a, b) };
                let disjoint = is_empty(&zip(&ta, &tb, |x, y| x & y));
                let implies = is_empty(&zip(&ta, &tb, |x, y| x & !y));
                assert_eq!(m.disjoint(da, db), disjoint, "seed {seed}: disjoint({a:?}, {b:?})");
                assert_eq!(m.implies(a, b), implies, "seed {seed}: implies({a:?}, {b:?})");
            }
        };
        ask(&mut m, false);
        let (hits, misses) = m.memo_stats();
        assert!(misses > 0, "seed {seed}: the first round must run real queries");
        // The second round (disjoint with its operands swapped) repeats
        // every query that reached a memo: all of them hit.
        ask(&mut m, true);
        assert_eq!(m.memo_stats(), (2 * hits + misses, misses), "seed {seed}");
    }
}

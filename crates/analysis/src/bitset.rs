//! A dense, growable bitset over `u32` indices.
//!
//! The liveness fixpoint spends all of its time in set union / difference /
//! equality over register and predicate sets whose universe is small and
//! dense (IR registers are numbered contiguously from zero). A `u64`-word
//! bitset makes those operations word-parallel memcpy-like loops instead of
//! `HashSet` probing, which is where the bulk of the `GlobalLiveness`
//! speedup in the hot pipeline comes from.
//!
//! Sets grow on demand: inserting bit `i` extends the word vector to cover
//! `i`. Trailing zero words are ignored by comparisons, so two sets holding
//! the same members are equal regardless of how they grew. This matters for
//! [`GlobalLiveness`](crate::GlobalLiveness), whose cached block summaries
//! may have been built before later passes allocated new registers.

/// A growable set of small unsigned integers, stored one bit per member.
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> BitSet {
        BitSet::default()
    }

    /// Adds `bit`; returns true when it was not already present.
    pub fn insert(&mut self, bit: u32) -> bool {
        let (w, mask) = (bit as usize / 64, 1u64 << (bit % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        fresh
    }

    /// Removes `bit`; returns true when it was present.
    pub fn remove(&mut self, bit: u32) -> bool {
        let (w, mask) = (bit as usize / 64, 1u64 << (bit % 64));
        match self.words.get_mut(w) {
            Some(word) if *word & mask != 0 => {
                *word &= !mask;
                true
            }
            _ => false,
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, bit: u32) -> bool {
        self.words
            .get(bit as usize / 64)
            .is_some_and(|w| w & (1u64 << (bit % 64)) != 0)
    }

    /// Removes all members, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self ∪= other`; returns true when `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (dst, &src) in self.words.iter_mut().zip(&other.words) {
            let new = *dst | src;
            changed |= new != *dst;
            *dst = new;
        }
        changed
    }

    /// `self ∪= (other ∖ minus)`; returns true when `self` changed.
    ///
    /// This is the inner step of the liveness fixpoint (route a successor's
    /// live-in through a kill/blocked set), fused so no temporary set is
    /// materialized.
    pub fn union_with_difference(&mut self, other: &BitSet, minus: &BitSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (i, (dst, &src)) in self.words.iter_mut().zip(&other.words).enumerate() {
            let masked = src & !minus.words.get(i).copied().unwrap_or(0);
            let new = *dst | masked;
            changed |= new != *dst;
            *dst = new;
        }
        changed
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(wi as u32 * 64 + bit)
            })
        })
    }
}

impl PartialEq for BitSet {
    /// Member equality: trailing zero words are ignored, so growth history
    /// does not affect comparisons.
    fn eq(&self, other: &BitSet) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short.iter().zip(long.iter()).all(|(a, b)| a == b)
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for BitSet {}

impl FromIterator<u32> for BitSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> BitSet {
        let mut s = BitSet::new();
        for bit in iter {
            s.insert(bit);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(!s.contains(5));
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(s.insert(200));
        assert_eq!(s.len(), 2);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(!s.contains(5));
        assert!(s.contains(200));
    }

    #[test]
    fn equality_ignores_trailing_words() {
        let mut a = BitSet::new();
        let mut b = BitSet::new();
        a.insert(3);
        b.insert(3);
        b.insert(500);
        b.remove(500); // b now has trailing zero words
        assert_eq!(a, b);
        assert_eq!(b, a);
        b.insert(1);
        assert_ne!(a, b);
    }

    #[test]
    fn union_reports_change() {
        let mut a: BitSet = [1u32, 2].into_iter().collect();
        let b: BitSet = [2u32, 300].into_iter().collect();
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 300]);
    }

    #[test]
    fn union_with_difference_masks_minus() {
        let mut acc = BitSet::new();
        let src: BitSet = [1u32, 64, 65, 700].into_iter().collect();
        let minus: BitSet = [64u32, 700].into_iter().collect();
        assert!(acc.union_with_difference(&src, &minus));
        assert_eq!(acc.iter().collect::<Vec<_>>(), vec![1, 65]);
        // Already-present members cause no further change.
        assert!(!acc.union_with_difference(&src, &minus));
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let members = [0u32, 63, 64, 127, 128, 1000];
        let s: BitSet = members.into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), members.to_vec());
        assert_eq!(s.len(), members.len());
        assert!(!s.is_empty());
        assert!(BitSet::new().is_empty());
    }

    #[test]
    fn clear_keeps_working() {
        let mut s: BitSet = [9u32, 90].into_iter().collect();
        s.clear();
        assert!(s.is_empty());
        assert!(s.insert(7));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![7]);
    }
}

//! [`BitSet`]: a plain dynamic bitset (one bit per vertex / tree node)
//! with the usual set algebra.

/// A growable bitset over `usize` indices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    /// Number of set bits, maintained incrementally.
    len: usize,
}

impl BitSet {
    /// Creates an empty bitset with capacity for `n` indices.
    pub fn with_capacity(n: usize) -> Self {
        BitSet { words: vec![0; n.div_ceil(64)], len: 0 }
    }

    /// Number of elements currently in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn ensure(&mut self, idx: usize) {
        let w = idx / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
    }

    /// Inserts `idx`; returns true if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, idx: usize) -> bool {
        self.ensure(idx);
        let (w, b) = (idx / 64, idx % 64);
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Removes `idx`; returns true if it was present.
    #[inline]
    pub fn remove(&mut self, idx: usize) -> bool {
        let (w, b) = (idx / 64, idx % 64);
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        self.len -= present as usize;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        let (w, b) = (idx / 64, idx % 64);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    /// Iterates set indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// True if `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        for (i, &w) in self.words.iter().enumerate() {
            let o = other.words.get(i).copied().unwrap_or(0);
            if w & !o != 0 {
                return false;
            }
        }
        true
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = BitSet::default();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_insert_remove_contains() {
        let mut s = BitSet::with_capacity(100);
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(64));
        assert!(s.insert(99));
        assert_eq!(s.len(), 3);
        assert!(s.contains(3));
        assert!(s.contains(64));
        assert!(!s.contains(4));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn bitset_grows_past_capacity() {
        let mut s = BitSet::with_capacity(1);
        s.insert(1000);
        assert!(s.contains(1000));
        assert!(!s.contains(999));
    }

    #[test]
    fn bitset_iter_sorted() {
        let s: BitSet = [5usize, 1, 200, 63, 64].into_iter().collect();
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![1, 5, 63, 64, 200]);
    }

    #[test]
    fn bitset_algebra() {
        let a: BitSet = [1usize, 2, 3, 70].into_iter().collect();
        let b: BitSet = [2usize, 3, 4].into_iter().collect();
        let i: BitSet = [2usize, 3].into_iter().collect();
        assert!(i.is_subset(&a));
        assert!(i.is_subset(&b));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn bitset_subset_with_shorter_other() {
        let a: BitSet = [100usize].into_iter().collect();
        let b: BitSet = [1usize].into_iter().collect();
        assert!(!a.is_subset(&b));
        let empty = BitSet::default();
        assert!(empty.is_subset(&a));
    }
}

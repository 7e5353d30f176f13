//! Union-find (disjoint set union) with path halving and union by size.
//!
//! The CL-tree construction of Fang et al. (adopted in the PCS paper's
//! CP-tree index) processes vertices in descending core-number order and
//! merges their components with a union-find; the inverse-Ackermann
//! amortized cost is what gives the index its O(m·α(n)) build time.

/// Disjoint-set forest over `0..n`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    /// Number of elements (not sets).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the structure tracks zero elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the representative of `x` (with path halving).
    #[inline]
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Merges the sets containing `a` and `b`; returns the new root, or
    /// `None` if they were already in the same set.
    pub fn union(&mut self, a: u32, b: u32) -> Option<u32> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        let (big, small) =
            if self.size[ra as usize] >= self.size[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        Some(big)
    }

    /// True when `a` and `b` are in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_unions() {
        let mut uf = UnionFind::new(6);
        assert!(!uf.same(0, 1));
        uf.union(0, 1);
        uf.union(2, 3);
        assert!(uf.same(0, 1));
        assert!(uf.same(2, 3));
        assert!(!uf.same(1, 2));
        uf.union(1, 3);
        assert!(uf.same(0, 2));
        assert_eq!(uf.len(), 6);
        assert!(!uf.is_empty());
    }

    #[test]
    fn union_same_set_returns_none() {
        let mut uf = UnionFind::new(3);
        assert!(uf.union(0, 1).is_some());
        assert!(uf.union(1, 0).is_none());
    }

    #[test]
    fn chain_find_compresses() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        let root = uf.find(0);
        for i in 0..100 {
            assert_eq!(uf.find(i), root);
        }
    }
}

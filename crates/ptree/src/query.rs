//! The per-query search space: candidate subtrees of `T(q)`.
//!
//! Every PCS algorithm explores the lattice of induced rooted subtrees
//! of the query vertex's P-tree. [`QuerySpace`] freezes `T(q)` into DFS
//! preorder positions; a candidate [`Subtree`] is then a fixed-width
//! bitset over those positions. A bitset is a *valid* subtree iff it is
//! downward-closed (every set bit's parent bit is set, except the root
//! at position 0).
//!
//! Three move generators drive the algorithms:
//!
//! * [`QuerySpace::rightmost_extensions`] — the non-redundant generation
//!   rule of Asai et al. used by `basic`/`incre`: add a node whose
//!   preorder position exceeds every current position and whose parent
//!   is present. Every subtree is generated exactly once (it is reached
//!   only from its preorder-prefix chain).
//! * [`QuerySpace::lattice_children`] — all one-node supersets (MARGIN's
//!   "child" direction).
//! * [`QuerySpace::lattice_parents`] — all one-node subsets, i.e. remove
//!   a leaf (MARGIN's "parent" direction).

use pcs_graph::FxHashMap;

use crate::ptree::PTree;
use crate::taxonomy::{LabelId, Taxonomy};
use crate::{PTreeError, Result};

/// A candidate subtree of one query's `T(q)`, as a fixed-width bitset
/// over DFS preorder positions. Position 0 is the taxonomy root.
///
/// All `Subtree`s produced by the same [`QuerySpace`] share a word
/// width, so `Eq`/`Hash`/`Ord` behave set-wise.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Subtree {
    words: Box<[u64]>,
}

impl Subtree {
    fn zeroed(words: usize) -> Self {
        Subtree { words: vec![0; words].into_boxed_slice() }
    }

    /// Wraps a raw word image (used by the [`crate::SubtreeInterner`]
    /// to hand interned subtrees back out).
    pub(crate) fn from_words(words: Box<[u64]>) -> Self {
        Subtree { words }
    }

    /// The raw bitset words, least-significant position first. All
    /// `Subtree`s of one [`QuerySpace`] share a width, so word images
    /// compare and intersect directly.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Adds `pos` in place (the allocation-free sibling of
    /// [`Subtree::with`], for building masks incrementally).
    #[inline]
    pub fn insert(&mut self, pos: u32) {
        self.words[pos as usize / 64] |= 1 << (pos as usize % 64);
    }

    /// Number of nodes in the subtree (lattice level).
    #[inline]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True for the empty tree (lattice bottom).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Membership of a DFS position.
    #[inline]
    pub fn contains(&self, pos: u32) -> bool {
        let (w, b) = (pos as usize / 64, pos as usize % 64);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }

    /// A copy with `pos` added.
    #[must_use]
    pub fn with(&self, pos: u32) -> Subtree {
        let mut s = self.clone();
        s.words[pos as usize / 64] |= 1 << (pos as usize % 64);
        s
    }

    /// A copy with `pos` removed.
    #[must_use]
    pub fn without(&self, pos: u32) -> Subtree {
        let mut s = self.clone();
        s.words[pos as usize / 64] &= !(1 << (pos as usize % 64));
        s
    }

    /// Subset test (`self ⊆ other`).
    pub fn is_subset_of(&self, other: &Subtree) -> bool {
        self.words.iter().zip(other.words.iter()).all(|(a, b)| a & !b == 0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersect(&self, other: &Subtree) -> Subtree {
        let words = self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| a & b)
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Subtree { words }
    }

    /// Set union.
    #[must_use]
    pub fn union(&self, other: &Subtree) -> Subtree {
        let words = self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| a | b)
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Subtree { words }
    }

    /// Largest set position, if any.
    pub fn max_pos(&self) -> Option<u32> {
        for (wi, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return Some((wi * 64 + 63 - w.leading_zeros() as usize) as u32);
            }
        }
        None
    }

    /// Iterates set positions in increasing order.
    pub fn positions(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(wi as u32 * 64 + b)
                }
            })
        })
    }
}

/// The frozen search space for one query: `T(q)` in DFS preorder.
#[derive(Clone, Debug)]
pub struct QuerySpace {
    labels: Vec<LabelId>,
    parent_pos: Vec<u32>,
    children_pos: Vec<Vec<u32>>,
    pos_of: FxHashMap<LabelId, u32>,
    words: usize,
}

impl QuerySpace {
    /// Freezes `tq` (which must be a P-tree over `tax`) into a search
    /// space. Positions follow a DFS preorder of `tq` under the
    /// taxonomy's child ordering, so parents precede children.
    pub fn new(tax: &Taxonomy, tq: &PTree) -> Result<Self> {
        for &id in tq.nodes() {
            if id as usize >= tax.len() {
                return Err(PTreeError::UnknownLabel(id));
            }
        }
        let mut labels = Vec::with_capacity(tq.len());
        let mut parent_pos = Vec::with_capacity(tq.len());
        let mut children_pos: Vec<Vec<u32>> = Vec::with_capacity(tq.len());
        let mut pos_of = FxHashMap::default();
        // Iterative DFS preorder; taxonomy children are visited in
        // reverse so the stack pops them in ascending-id order.
        let mut stack: Vec<(LabelId, u32)> = vec![(Taxonomy::ROOT, 0)];
        while let Some((id, par)) = stack.pop() {
            let pos = labels.len() as u32;
            labels.push(id);
            parent_pos.push(if pos == 0 { 0 } else { par });
            children_pos.push(Vec::new());
            if pos != 0 {
                children_pos[par as usize].push(pos);
            }
            pos_of.insert(id, pos);
            for &c in tax.children(id).iter().rev() {
                if tq.contains(c) {
                    stack.push((c, pos));
                }
            }
        }
        debug_assert_eq!(labels.len(), tq.len());
        let words = labels.len().div_ceil(64).max(1);
        Ok(QuerySpace { labels, parent_pos, children_pos, pos_of, words })
    }

    /// Number of nodes in `T(q)`.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// A query space is never empty (it contains at least the root).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Taxonomy label at a DFS position.
    #[inline]
    pub fn label_at(&self, pos: u32) -> LabelId {
        self.labels[pos as usize]
    }

    /// DFS position of a taxonomy label, if it is part of `T(q)`.
    pub fn position_of(&self, label: LabelId) -> Option<u32> {
        self.pos_of.get(&label).copied()
    }

    /// DFS position of `pos`'s parent (0 maps to itself).
    #[inline]
    pub fn parent_of(&self, pos: u32) -> u32 {
        self.parent_pos[pos as usize]
    }

    /// Children positions of `pos` in ascending DFS order.
    #[inline]
    pub fn children_of(&self, pos: u32) -> &[u32] {
        &self.children_pos[pos as usize]
    }

    /// The empty candidate (lattice bottom).
    pub fn empty(&self) -> Subtree {
        Subtree::zeroed(self.words)
    }

    /// The single-node candidate containing only the root.
    pub fn root_only(&self) -> Subtree {
        self.empty().with(0)
    }

    /// The full candidate `T(q)` itself (lattice top).
    pub fn full(&self) -> Subtree {
        let mut s = self.empty();
        for p in 0..self.len() as u32 {
            s = s.with(p);
        }
        s
    }

    /// True when `s` is downward-closed (a legal induced rooted subtree,
    /// or the empty tree).
    pub fn is_valid(&self, s: &Subtree) -> bool {
        s.positions().all(|p| p == 0 || s.contains(self.parent_of(p)))
    }

    /// Non-redundant rightmost-path extensions (Asai et al.): positions
    /// `p` greater than every position in `s` whose parent is in `s`.
    /// For the empty tree the only extension is the root. Each subtree
    /// of `T(q)` is generated exactly once along the chain of its
    /// preorder prefixes.
    pub fn rightmost_extensions(&self, s: &Subtree) -> Vec<u32> {
        if s.is_empty() {
            return vec![0];
        }
        let lo = s.max_pos().unwrap() + 1;
        (lo..self.len() as u32).filter(|&p| s.contains(self.parent_of(p))).collect()
    }

    /// All lattice children: positions addable while keeping closure
    /// (MARGIN's one-step supersets).
    pub fn lattice_children(&self, s: &Subtree) -> Vec<u32> {
        if s.is_empty() {
            return vec![0];
        }
        (1..self.len() as u32)
            .filter(|&p| !s.contains(p) && s.contains(self.parent_of(p)))
            .collect()
    }

    /// All lattice parents: removable positions = leaves of `s` (nodes
    /// with no child inside `s`). Removing the root is only possible
    /// when it is alone (yielding the empty tree).
    pub fn lattice_parents(&self, s: &Subtree) -> Vec<u32> {
        self.leaves(s).into_iter().filter(|&p| p != 0 || s.count() == 1).collect()
    }

    /// Leaves of `s`: members with no member child.
    pub fn leaves(&self, s: &Subtree) -> Vec<u32> {
        s.positions()
            .filter(|&p| self.children_pos[p as usize].iter().all(|&c| !s.contains(c)))
            .collect()
    }

    /// Materializes a candidate as a [`PTree`] (panics if `s` is the
    /// empty tree — use [`QuerySpace::is_valid`] + emptiness checks
    /// first; the empty tree is not a P-tree).
    pub fn to_ptree(&self, s: &Subtree) -> PTree {
        assert!(!s.is_empty(), "the empty candidate is not a P-tree");
        debug_assert!(self.is_valid(s));
        let mut nodes: Vec<LabelId> = s.positions().map(|p| self.label_at(p)).collect();
        nodes.sort_unstable();
        PTree::from_closed_sorted_unchecked(nodes)
    }

    /// Converts a P-tree into a candidate, if all its labels appear in
    /// `T(q)`.
    pub fn from_ptree(&self, p: &PTree) -> Option<Subtree> {
        let mut s = self.empty();
        for &id in p.nodes() {
            s = s.with(self.position_of(id)?);
        }
        Some(s)
    }

    /// Upward closure: the smallest valid subtree containing `positions`.
    pub fn closure<I: IntoIterator<Item = u32>>(&self, positions: I) -> Subtree {
        let mut s = self.empty();
        for p in positions {
            let mut cur = p;
            loop {
                s = s.with(cur);
                if cur == 0 {
                    break;
                }
                cur = self.parent_of(cur);
            }
        }
        s
    }

    /// The path-subtree from the root down to `pos` (inclusive) — used
    /// by `find-P`'s per-path verification.
    pub fn path_to(&self, pos: u32) -> Subtree {
        self.closure([pos])
    }
}

impl PTree {
    /// Internal constructor used by [`QuerySpace::to_ptree`]: the input
    /// is sorted and closed by construction.
    pub(crate) fn from_closed_sorted_unchecked(nodes: Vec<LabelId>) -> PTree {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        // SAFETY-like invariant: callers guarantee ancestor closure.
        // PTree fields are private to this crate, so go through a
        // crate-private path.
        PTree::new_unchecked(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// r -> {a, b}; a -> {c, d}; b -> {e}.  Preorder: r a c d b e.
    fn space() -> (Taxonomy, QuerySpace) {
        let mut t = Taxonomy::new("r");
        let a = t.add_child(0, "a").unwrap();
        let b = t.add_child(0, "b").unwrap();
        let c = t.add_child(a, "c").unwrap();
        let d = t.add_child(a, "d").unwrap();
        let e = t.add_child(b, "e").unwrap();
        let tq = PTree::from_labels(&t, [c, d, e]).unwrap();
        let qs = QuerySpace::new(&t, &tq).unwrap();
        (t, qs)
    }

    #[test]
    fn preorder_layout() {
        let (t, qs) = space();
        let names: Vec<&str> = (0..qs.len() as u32).map(|p| t.label(qs.label_at(p))).collect();
        assert_eq!(names, vec!["r", "a", "c", "d", "b", "e"]);
        assert_eq!(qs.parent_of(0), 0);
        assert_eq!(qs.parent_of(2), 1);
        assert_eq!(qs.parent_of(4), 0);
        assert_eq!(qs.parent_of(5), 4);
        assert_eq!(qs.children_of(1), &[2, 3]);
    }

    #[test]
    fn subtree_bit_ops() {
        let (_, qs) = space();
        let s = qs.root_only().with(1).with(2);
        assert_eq!(s.count(), 3);
        assert!(s.contains(2) && !s.contains(3));
        assert_eq!(s.max_pos(), Some(2));
        assert_eq!(s.positions().collect::<Vec<_>>(), vec![0, 1, 2]);
        let t = s.without(2);
        assert!(t.is_subset_of(&s));
        assert!(!s.is_subset_of(&t));
        assert_eq!(s.intersect(&t), t);
        assert_eq!(s.union(&t), s);
        assert!(qs.empty().is_empty());
        assert_eq!(qs.full().count(), 6);
    }

    #[test]
    fn validity_is_downward_closure() {
        let (_, qs) = space();
        assert!(qs.is_valid(&qs.empty()));
        assert!(qs.is_valid(&qs.root_only()));
        assert!(qs.is_valid(&qs.root_only().with(1).with(3)));
        // c without a is invalid.
        assert!(!qs.is_valid(&qs.root_only().with(2)));
        // a without r is invalid.
        assert!(!qs.is_valid(&qs.empty().with(1)));
    }

    #[test]
    fn rightmost_extensions_are_nonredundant_and_complete() {
        let (_, qs) = space();
        // Generate everything reachable via rightmost extension.
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![qs.empty()];
        while let Some(s) = stack.pop() {
            for p in qs.rightmost_extensions(&s) {
                let child = s.with(p);
                assert!(qs.is_valid(&child), "invalid candidate generated");
                assert!(seen.insert(child.clone()), "duplicate candidate {child:?}");
                stack.push(child);
            }
        }
        // Count all valid non-empty subtrees by brute force.
        let mut brute = 0;
        for mask in 1u32..(1 << 6) {
            let mut s = qs.empty();
            for p in 0..6 {
                if mask & (1 << p) != 0 {
                    s = s.with(p);
                }
            }
            if qs.is_valid(&s) {
                brute += 1;
            }
        }
        assert_eq!(seen.len(), brute);
    }

    #[test]
    fn lattice_moves() {
        let (_, qs) = space();
        let s = qs.root_only().with(1); // {r, a}
        let kids = qs.lattice_children(&s);
        assert_eq!(kids, vec![2, 3, 4]); // c, d, b
        let parents = qs.lattice_parents(&s);
        assert_eq!(parents, vec![1]); // only `a` removable
        assert_eq!(qs.lattice_parents(&qs.root_only()), vec![0]);
        assert_eq!(qs.lattice_children(&qs.empty()), vec![0]);
        assert!(qs.lattice_children(&qs.full()).is_empty());
    }

    #[test]
    fn leaves_of_candidate() {
        let (_, qs) = space();
        let s = qs.root_only().with(1).with(2).with(4); // r a c b
        let mut leaves = qs.leaves(&s);
        leaves.sort_unstable();
        assert_eq!(leaves, vec![2, 4]);
    }

    #[test]
    fn ptree_roundtrip() {
        let (t, qs) = space();
        let s = qs.closure([2, 5]); // c and e with ancestors
        let p = qs.to_ptree(&s);
        assert!(t.is_ancestor_closed(p.nodes()));
        assert_eq!(qs.from_ptree(&p).unwrap(), s);
        // A P-tree outside T(q) yields None.
        let mut t2 = t.clone();
        let z = t2.add_child(0, "z").unwrap();
        let foreign = PTree::from_labels(&t2, [z]).unwrap();
        assert!(qs.from_ptree(&foreign).is_none());
    }

    #[test]
    fn path_to_builds_root_paths() {
        let (t, qs) = space();
        let path = qs.path_to(5); // e -> b -> r
        let labels: Vec<&str> = path.positions().map(|p| t.label(qs.label_at(p))).collect();
        assert_eq!(labels, vec!["r", "b", "e"]);
    }

    #[test]
    #[should_panic(expected = "empty candidate")]
    fn empty_to_ptree_panics() {
        let (_, qs) = space();
        qs.to_ptree(&qs.empty());
    }
}

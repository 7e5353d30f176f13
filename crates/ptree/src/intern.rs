//! Dense interning of the subtree lattice of one [`QuerySpace`].
//!
//! The MARGIN boundary walk and the Apriori enumerations revisit the
//! same candidate subtrees over and over — as memo keys, seen-set
//! entries, queue elements, and cut pairs. Keeping those structures
//! keyed by [`Subtree`] bitsets means hashing and cloning a boxed word
//! slice at every single step. The [`SubtreeInterner`] removes all of
//! that from the hot path:
//!
//! * every distinct subtree is assigned a dense [`SubtreeId`] (`u32`)
//!   the **first** time it is seen — the only moment its word image is
//!   hashed or stored;
//! * the ±one-node lattice moves (`with`/`without`) are memoized in
//!   flat id tables (`id × position → id`), so re-deriving a
//!   neighbour that was seen before is a single array read — no bitset
//!   materialization, no hashing;
//! * memo tables, visited sets, and result sets downstream become
//!   `Vec`s indexed by `SubtreeId`.
//!
//! The lattice is exponential in `|T(q)|`, so ids are assigned lazily
//! for exactly the subtrees a query actually touches (the boundary
//! neighbourhood — a small fraction of the lattice, which is the whole
//! point of the advanced algorithms).

use pcs_graph::FxHashMap;

use crate::query::{QuerySpace, Subtree};

/// Sentinel inside the adjacency caches: move not computed yet.
const UNSET: u32 = u32::MAX;

/// Dense id of an interned subtree. Ids are contiguous from 0 in
/// first-seen order, so `Vec`s indexed by [`SubtreeId::index`] are
/// perfect hash tables over every subtree a query has touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubtreeId(u32);

impl SubtreeId {
    /// The id as a dense array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw id value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Interner for the subtrees of one query's search space.
///
/// All word images live in one flat arena (`words_per` consecutive
/// `u64`s per id); the id-keyed `with`/`without` tables make repeated
/// lattice moves allocation- and hash-free.
pub struct SubtreeInterner<'s> {
    space: &'s QuerySpace,
    words_per: usize,
    len: usize,
    /// Flat arena: id `i` owns `words[i*words_per .. (i+1)*words_per]`.
    words: Vec<u64>,
    /// Node count per id (lattice level), kept for O(1) access.
    counts: Vec<u32>,
    /// Word image → id; consulted once per *distinct* subtree.
    map: FxHashMap<Box<[u64]>, u32>,
    /// `with_cache[i*len + pos]` = id of subtree `i` ∪ {pos}.
    with_cache: Vec<u32>,
    /// `without_cache[i*len + pos]` = id of subtree `i` \ {pos}.
    without_cache: Vec<u32>,
    /// Scratch word buffer for computing new images.
    tmp: Vec<u64>,
}

impl<'s> SubtreeInterner<'s> {
    /// Creates an empty interner over `space`.
    pub fn new(space: &'s QuerySpace) -> Self {
        let len = space.len();
        SubtreeInterner {
            space,
            words_per: len.div_ceil(64).max(1),
            len,
            words: Vec::new(),
            counts: Vec::new(),
            map: FxHashMap::default(),
            with_cache: Vec::new(),
            without_cache: Vec::new(),
            tmp: Vec::new(),
        }
    }

    /// The search space this interner serves.
    #[inline]
    pub fn space(&self) -> &'s QuerySpace {
        self.space
    }

    /// Number of distinct subtrees interned so far.
    #[inline]
    pub fn num_interned(&self) -> usize {
        self.counts.len()
    }

    /// The word image of `id`.
    #[inline]
    pub fn words_of(&self, id: SubtreeId) -> &[u64] {
        let start = id.index() * self.words_per;
        &self.words[start..start + self.words_per]
    }

    /// Node count (lattice level) of `id`.
    #[inline]
    pub fn count(&self, id: SubtreeId) -> u32 {
        self.counts[id.index()]
    }

    /// Membership of a DFS position in `id`.
    #[inline]
    pub fn contains(&self, id: SubtreeId, pos: u32) -> bool {
        self.words_of(id)[pos as usize / 64] & (1 << (pos as usize % 64)) != 0
    }

    /// True when every position of `id` is set in the raw word image
    /// `mask` (the per-vertex profile-projection subset test of
    /// Lemma 3's filter).
    #[inline]
    pub fn is_subset_of_words(&self, id: SubtreeId, mask: &[u64]) -> bool {
        self.words_of(id).iter().zip(mask.iter()).all(|(a, b)| a & !b == 0)
    }

    /// Iterates the positions of `id` in increasing order.
    pub fn positions(&self, id: SubtreeId) -> impl Iterator<Item = u32> + Clone + '_ {
        self.words_of(id).iter().enumerate().flat_map(|(wi, &w)| {
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

    /// Materializes `id` as an owned [`Subtree`] (result assembly and
    /// tests only — never needed inside the search loops).
    pub fn subtree(&self, id: SubtreeId) -> Subtree {
        Subtree::from_words(self.words_of(id).to_vec().into_boxed_slice())
    }

    /// Interns a subtree, hashing its word image at most once ever.
    pub fn intern(&mut self, s: &Subtree) -> SubtreeId {
        self.intern_words(s.words())
    }

    /// The id of the root-only subtree `{0}`.
    pub fn root_only(&mut self) -> SubtreeId {
        let mut tmp = std::mem::take(&mut self.tmp);
        tmp.clear();
        tmp.resize(self.words_per, 0);
        tmp[0] = 1;
        let id = self.intern_words(&tmp);
        self.tmp = tmp;
        id
    }

    /// The id of the full query tree `T(q)`.
    pub fn full(&mut self) -> SubtreeId {
        let mut tmp = std::mem::take(&mut self.tmp);
        tmp.clear();
        tmp.resize(self.words_per, 0);
        for p in 0..self.len {
            tmp[p / 64] |= 1 << (p % 64);
        }
        let id = self.intern_words(&tmp);
        self.tmp = tmp;
        id
    }

    /// Interns a raw word image (one bit per DFS position, as
    /// [`SubtreeInterner::words_of`] returns it) — for callers that
    /// assemble an image in their own scratch, so a derived subtree
    /// costs one hash and no intermediate [`Subtree`].
    pub fn intern_words(&mut self, image: &[u64]) -> SubtreeId {
        debug_assert_eq!(image.len(), self.words_per);
        if let Some(&id) = self.map.get(image) {
            return SubtreeId(id);
        }
        let id = self.counts.len() as u32;
        self.words.extend_from_slice(image);
        self.counts.push(image.iter().map(|w| w.count_ones()).sum());
        self.map.insert(image.to_vec().into_boxed_slice(), id);
        self.with_cache.extend(std::iter::repeat_n(UNSET, self.len));
        self.without_cache.extend(std::iter::repeat_n(UNSET, self.len));
        SubtreeId(id)
    }

    /// `id ∪ {pos}` — memoized: an array read after the first call for
    /// this `(id, pos)` pair.
    pub fn with(&mut self, id: SubtreeId, pos: u32) -> SubtreeId {
        let slot = id.index() * self.len + pos as usize;
        let cached = self.with_cache[slot];
        if cached != UNSET {
            return SubtreeId(cached);
        }
        let mut tmp = std::mem::take(&mut self.tmp);
        tmp.clear();
        tmp.extend_from_slice(self.words_of(id));
        tmp[pos as usize / 64] |= 1 << (pos as usize % 64);
        let out = self.intern_words(&tmp);
        self.tmp = tmp;
        self.with_cache[slot] = out.raw();
        out
    }

    /// `id \ {pos}` — memoized like [`SubtreeInterner::with`].
    pub fn without(&mut self, id: SubtreeId, pos: u32) -> SubtreeId {
        let slot = id.index() * self.len + pos as usize;
        let cached = self.without_cache[slot];
        if cached != UNSET {
            return SubtreeId(cached);
        }
        let mut tmp = std::mem::take(&mut self.tmp);
        tmp.clear();
        tmp.extend_from_slice(self.words_of(id));
        tmp[pos as usize / 64] &= !(1 << (pos as usize % 64));
        let out = self.intern_words(&tmp);
        self.tmp = tmp;
        self.without_cache[slot] = out.raw();
        out
    }

    /// `a ∪ b` (the Upper-◇ step and `find-P`'s path unions).
    pub fn union(&mut self, a: SubtreeId, b: SubtreeId) -> SubtreeId {
        if a == b {
            return a;
        }
        let mut tmp = std::mem::take(&mut self.tmp);
        tmp.clear();
        tmp.extend(self.words_of(a).iter().zip(self.words_of(b)).map(|(x, y)| x | y));
        let out = self.intern_words(&tmp);
        self.tmp = tmp;
        out
    }

    /// `a ⊆ b`.
    #[inline]
    pub fn is_subset(&self, a: SubtreeId, b: SubtreeId) -> bool {
        self.words_of(a).iter().zip(self.words_of(b)).all(|(x, y)| x & !y == 0)
    }

    /// Largest set position of `id`, if any.
    pub fn max_pos(&self, id: SubtreeId) -> Option<u32> {
        for (wi, &w) in self.words_of(id).iter().enumerate().rev() {
            if w != 0 {
                return Some((wi * 64 + 63 - w.leading_zeros() as usize) as u32);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Move generators: the id-space analogues of the QuerySpace methods,
    // writing into a caller-owned scratch vector so steady-state queries
    // never allocate. (The O(|T(q)|) bit scans are already cheap — what
    // these avoid is the per-call Vec the owned generators return.)
    // ------------------------------------------------------------------

    /// Non-redundant rightmost-path extensions of `id`, appended to
    /// `out` (cleared first).
    pub fn rightmost_extensions_into(&self, id: SubtreeId, out: &mut Vec<u32>) {
        out.clear();
        if self.count(id) == 0 {
            out.push(0);
            return;
        }
        let lo = self.max_pos(id).unwrap() + 1;
        for p in lo..self.len as u32 {
            if self.contains(id, self.space.parent_of(p)) {
                out.push(p);
            }
        }
    }

    /// All lattice children (addable positions) of `id`, into `out`.
    pub fn lattice_children_into(&self, id: SubtreeId, out: &mut Vec<u32>) {
        out.clear();
        if self.count(id) == 0 {
            out.push(0);
            return;
        }
        for p in 1..self.len as u32 {
            if !self.contains(id, p) && self.contains(id, self.space.parent_of(p)) {
                out.push(p);
            }
        }
    }

    /// All lattice parents (removable leaves) of `id`, into `out`.
    pub fn lattice_parents_into(&self, id: SubtreeId, out: &mut Vec<u32>) {
        self.leaves_into(id, out);
        if self.count(id) != 1 {
            out.retain(|&p| p != 0);
        }
    }

    /// Leaves of `id` (members with no member child), into `out`.
    pub fn leaves_into(&self, id: SubtreeId, out: &mut Vec<u32>) {
        out.clear();
        for p in self.positions(id) {
            if self.space.children_of(p).iter().all(|&c| !self.contains(id, c)) {
                out.push(p);
            }
        }
    }
}

/// A growable flat bitset keyed by [`SubtreeId`] — the seen-sets and
/// visited-sets of the search algorithms, with O(1) insert/contains and
/// no hashing.
#[derive(Clone, Debug, Default)]
pub struct SubtreeIdSet {
    words: Vec<u64>,
}

impl SubtreeIdSet {
    /// An empty set.
    pub fn new() -> Self {
        SubtreeIdSet::default()
    }

    /// Inserts `id`; returns true when newly inserted.
    #[inline]
    pub fn insert(&mut self, id: SubtreeId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: SubtreeId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }
}

impl std::fmt::Debug for SubtreeInterner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubtreeInterner")
            .field("space_len", &self.len)
            .field("num_interned", &self.num_interned())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptree::PTree;
    use crate::taxonomy::Taxonomy;

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
    fn intern_is_stable_and_dense() {
        let (_, qs) = space();
        let mut it = SubtreeInterner::new(&qs);
        let root = it.root_only();
        assert_eq!(root.index(), 0);
        assert_eq!(it.root_only(), root);
        let full = it.full();
        assert_ne!(full, root);
        assert_eq!(it.num_interned(), 2);
        assert_eq!(it.count(root), 1);
        assert_eq!(it.count(full), 6);
        assert!(it.is_subset(root, full));
        assert!(!it.is_subset(full, root));
    }

    #[test]
    fn roundtrips_through_subtree() {
        let (_, qs) = space();
        let mut it = SubtreeInterner::new(&qs);
        let s = qs.root_only().with(1).with(3);
        let id = it.intern(&s);
        assert_eq!(it.subtree(id), s);
        assert_eq!(it.intern(&s), id);
        assert_eq!(it.positions(id).collect::<Vec<_>>(), vec![0, 1, 3]);
    }

    #[test]
    fn with_without_match_owned_ops() {
        let (_, qs) = space();
        let mut it = SubtreeInterner::new(&qs);
        let s = qs.root_only().with(1);
        let id = it.intern(&s);
        let id2 = it.with(id, 2);
        assert_eq!(it.subtree(id2), s.with(2));
        // Cached second call.
        assert_eq!(it.with(id, 2), id2);
        assert_eq!(it.without(id2, 2), id);
        let other = it.intern(&qs.root_only().with(4));
        let u = it.union(id2, other);
        assert_eq!(it.subtree(u), s.with(2).with(4));
    }

    #[test]
    fn move_generators_match_query_space() {
        let (_, qs) = space();
        let mut it = SubtreeInterner::new(&qs);
        let mut buf = Vec::new();
        // Exhaustively compare against the owned generators over every
        // valid subtree of the 6-node space.
        for mask in 0u32..(1 << 6) {
            let mut s = qs.empty();
            for p in 0..6 {
                if mask & (1 << p) != 0 {
                    s = s.with(p);
                }
            }
            if !qs.is_valid(&s) {
                continue;
            }
            let id = it.intern(&s);
            it.rightmost_extensions_into(id, &mut buf);
            assert_eq!(buf, qs.rightmost_extensions(&s), "ext {mask:b}");
            it.lattice_children_into(id, &mut buf);
            assert_eq!(buf, qs.lattice_children(&s), "children {mask:b}");
            it.lattice_parents_into(id, &mut buf);
            assert_eq!(buf, qs.lattice_parents(&s), "parents {mask:b}");
            it.leaves_into(id, &mut buf);
            assert_eq!(buf, qs.leaves(&s), "leaves {mask:b}");
            assert_eq!(it.max_pos(id), s.max_pos());
            assert_eq!(it.count(id) as usize, s.count());
        }
    }
}

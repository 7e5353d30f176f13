//! The index-backed verifier: what `incre`, adv-I/D/P and `closed` run.
//!
//! It holds the CP-tree index outright and alone owns everything that
//! reads it — the per-label `Gk` bitsets, leaf-ĉore seeding, Lemma-3
//! narrowing, the closure and the index's closed-community table — over
//! the same [`VerifyCore`](crate::verify) as `basic`'s verifier.

use std::sync::Arc;

use pcs_graph::VertexId;
use pcs_index::ShardedCpIndex;
use pcs_ptree::{LabelId, QuerySpace, SubtreeId, SubtreeInterner, Taxonomy};

use crate::problem::QueryContext;
use crate::verify::{shared, Community, QueryScratch, VerifyCore};

/// One label's k-ĉore of the query vertex, as a bitset over vertex ids.
#[derive(Clone, Debug)]
enum LabelCoreSet {
    /// Not asked for yet.
    Unbuilt,
    /// `I.get(k, q, label)` does not exist.
    Missing,
    /// The ĉore's members, as set bits over vertex ids.
    Built { bits: Box<[u64]>, count: u32 },
}

/// The shared fallback for out-of-range label positions (impossible by
/// construction — `label_sets` is sized to the query space — but the
/// checked accessor needs a value, and "missing" is the conservative
/// answer: the candidate is simply infeasible).
const MISSING_SET: LabelCoreSet = LabelCoreSet::Missing;

/// Checked [`LabelCoreSet`] lookup. A free function (not a method) so
/// callers holding disjoint `&mut` borrows of other verifier fields can
/// still use it.
#[inline]
fn label_set(sets: &[LabelCoreSet], pos: u32) -> &LabelCoreSet {
    sets.get(pos as usize).unwrap_or(&MISSING_SET)
}

/// Checked bit test on a word image (out of range reads as unset).
#[inline]
fn bit_is_set(words: &[u64], i: u32) -> bool {
    words.get(i as usize / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
}

/// The memoized `Gk[T]` oracle of the index-based algorithms, seeded
/// from the CP-tree index `I`:
///
/// * with a parent community `Gk[T']` in hand (`incre`, `closed`, and
///   every maximality check): candidates = `Gk[T'] ∩ I.get(k, q, t)`
///   where `t` is the newly added label — Lemma 3
///   ([`IndexVerifier::verify_from_base_id`]);
/// * with no parent (`advanced`'s `verifyPtree`): candidates =
///   `⋂ I.get(k, q, tni)` over the candidate's leaves — the paper's
///   bound, which by ancestor closure already implies the profile
///   containment test ([`IndexVerifier::verify_id`]).
///
/// Index probes use [`ShardedCpIndex::get_ref`], a **borrowed arena
/// slice** (O(CL-tree depth), zero-copy). Each probed ĉore is cached per
/// query as a **bitset over vertex ids**: seeding a candidate is a
/// handful of word-wise ANDs, and `base ∩ I.get(...)` is one bit test
/// per base member.
pub struct IndexVerifier<'a> {
    pub(crate) core: VerifyCore<'a>,
    index: &'a ShardedCpIndex,
    /// Per DFS position of `T(q)`: `I.get(k, q, label)` as a bitset
    /// over vertex ids. Built lazily, once per query.
    label_sets: Vec<LabelCoreSet>,
    /// Maximality verdicts per id: 0 = unknown, 1 = maximal, 2 = not.
    /// The boundary walk asks about the same subtree from many cuts;
    /// the verdict is a pure function of the subtree.
    maximal_memo: Vec<u8>,
    /// Scratch for leaf-position scans.
    leaf_buf: Vec<u32>,
    /// Scratch for `is_maximal_feasible_id`'s child scan.
    children_buf: Vec<u32>,
    /// Scratch for `close_id`: the closure's word image under
    /// construction.
    closure_words: Vec<u64>,
}

impl<'a> IndexVerifier<'a> {
    /// Creates the oracle for `(q, k)` on `scratch` and finds `Gk` once.
    /// `Gk` is the community of the root-only label set, so it comes
    /// from the index's community table when an earlier query stored it,
    /// and from a BFS over the core decomposition otherwise. `index` must be
    /// the index `ctx` was assembled with.
    pub fn new(
        ctx: &'a QueryContext<'a>,
        index: &'a ShardedCpIndex,
        space: &'a QuerySpace,
        q: VertexId,
        k: u32,
        scratch: &'a mut QueryScratch,
    ) -> Self {
        let proven = index.proven_community(k, [Taxonomy::ROOT], q).map(|(_, gk)| gk);
        let hit = proven.is_some();
        let gk = proven.or_else(|| ctx.cores.kcore_component(ctx.graph, q, k).map(shared));
        let mut core = VerifyCore::new(ctx, space, q, k, scratch, gk);
        core.stats.memo_hits += u64::from(hit);
        IndexVerifier {
            core,
            index,
            label_sets: vec![LabelCoreSet::Unbuilt; space.len()],
            maximal_memo: Vec::new(),
            leaf_buf: Vec::new(),
            children_buf: Vec::new(),
            closure_words: Vec::new(),
        }
    }

    /// The query's subtree interner (for id-space lattice moves).
    pub fn ids(&self) -> &SubtreeInterner<'a> {
        &self.core.interner
    }

    /// Mutable interner access (interning and memoized ±one-node moves).
    pub fn ids_mut(&mut self) -> &mut SubtreeInterner<'a> {
        &mut self.core.interner
    }

    /// The global k-ĉore `Gk` of the query vertex (the community of the
    /// empty and root-only candidates), if it exists.
    pub fn gk(&self) -> Community {
        self.core.gk.clone()
    }

    /// `Gk[T]` with no parent community, memoized per [`SubtreeId`]:
    /// the candidates are `⋂ I.get(k, q, leaf)` over **every** leaf of
    /// the candidate — by ancestor closure, a vertex inside all leaf
    /// ĉores carries the whole subtree, so no mask pass is needed —
    /// computed as word-wise ANDs of the per-label bitsets into reusable
    /// scratch. No allocation unless the candidate turns out feasible
    /// (the answer vector).
    pub fn verify_id(&mut self, id: SubtreeId) -> Community {
        if let Some(known) = self.core.known(id) {
            return known;
        }
        // Leaves of `id` (into reusable scratch).
        let mut leaves = std::mem::take(&mut self.leaf_buf);
        self.core.interner.leaves_into(id, &mut leaves);
        debug_assert!(!leaves.is_empty(), "non-empty candidate has a leaf");
        // Ensure every leaf's ĉore bitset exists; find the smallest. A
        // missing ĉore makes the candidate infeasible.
        let mut best: Option<(u32, u32)> = None; // (count, pos)
        for &p in &leaves {
            match self.ensure_label_set(p) {
                LabelCoreSet::Built { count, .. } => {
                    let count = *count;
                    if best.is_none_or(|(c, _)| count < c) {
                        best = Some((count, p));
                    }
                }
                _ => {
                    best = None;
                    break;
                }
            }
        }
        let result = match best {
            Some((best_count, best_pos)) => {
                self.core.stats.seed_scanned += best_count as u64;
                // AND all leaf sets into the scratch word buffer.
                let QueryScratch { words_buf, seed, .. } = &mut *self.core.scratch;
                words_buf.clear();
                if let LabelCoreSet::Built { bits, .. } = label_set(&self.label_sets, best_pos) {
                    words_buf.extend_from_slice(bits);
                }
                for &p in &leaves {
                    if p != best_pos {
                        if let LabelCoreSet::Built { bits, .. } = label_set(&self.label_sets, p) {
                            for (a, b) in words_buf.iter_mut().zip(bits.iter()) {
                                *a &= *b;
                            }
                        }
                    }
                }
                // Materialize: bits run in vertex-id order, so the seed
                // comes out sorted.
                seed.clear();
                for (wi, &w) in words_buf.iter().enumerate() {
                    let mut bits = w;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        bits &= bits - 1;
                        seed.push((wi * 64) as VertexId + b);
                    }
                }
                if seed.len() == best_count as usize {
                    // The smallest leaf ĉore survived the intersection
                    // whole: the candidates ARE that ĉore — a connected
                    // k-core containing q — so the peel is a no-op.
                    self.core.stats.verifications += 1;
                    Some(Arc::new(seed.clone()))
                } else {
                    self.core.peel()
                }
            }
            // Some leaf's ĉore does not exist.
            None => None,
        };
        self.leaf_buf = leaves;
        self.core.record(id, result)
    }

    /// Builds (once) the bitset of `I.get(k, q, label_at(pos))`.
    fn ensure_label_set(&mut self, pos: u32) -> &LabelCoreSet {
        if matches!(label_set(&self.label_sets, pos), LabelCoreSet::Unbuilt) {
            let core = &self.core;
            let label = core.space.label_at(pos);
            let built = match self.index.get_ref(core.k, core.q, label) {
                None => LabelCoreSet::Missing,
                Some(slice) => {
                    let n = core.ctx.graph.num_vertices();
                    let mut bits = vec![0u64; n.div_ceil(64)].into_boxed_slice();
                    for &v in slice {
                        if let Some(w) = bits.get_mut(v as usize / 64) {
                            *w |= 1 << (v % 64);
                        }
                    }
                    LabelCoreSet::Built { bits, count: slice.len() as u32 }
                }
            };
            if let Some(slot) = self.label_sets.get_mut(pos as usize) {
                *slot = built;
            }
        }
        label_set(&self.label_sets, pos)
    }

    /// `Gk[T]` computed by narrowing a known parent community
    /// (`incre`'s Lemma 3 step): candidates = `base ∩ I.get(k,q,t)`
    /// where `t` is the label at the freshly added position. The
    /// intersection never walks the label's (potentially huge) ĉore:
    /// each `base` vertex is one bit test against the label's cached
    /// bitset — total O(|base|), allocation-free. The peel is
    /// skipped whenever one side contains the other (`base ⊆ ĉore` or
    /// `ĉore ⊆ base`): the smaller set is then the answer as it stands.
    pub fn verify_from_base_id(
        &mut self,
        id: SubtreeId,
        base: &Arc<Vec<VertexId>>,
        added_pos: u32,
    ) -> Community {
        if let Some(known) = self.core.known(id) {
            return known;
        }
        self.ensure_label_set(added_pos);
        let result = match label_set(&self.label_sets, added_pos) {
            LabelCoreSet::Built { bits, count } => {
                let label_core_len = *count as usize;
                self.core.stats.seed_scanned += base.len() as u64;
                // candidates = base ∩ I.get(k, q, t): one O(1) bit test
                // per base member, never a walk of the label's ĉore.
                // Branch-free: every member is stored, and the cursor
                // moves past it only when its bit is set.
                let seed = &mut self.core.scratch.seed;
                seed.clear();
                seed.resize(base.len(), 0);
                let mut kept = 0;
                for &v in base.iter() {
                    if let Some(slot) = seed.get_mut(kept) {
                        *slot = v;
                    }
                    kept += usize::from(bit_is_set(bits, v));
                }
                seed.truncate(kept);
                if seed.len() == base.len() {
                    // The label removed nothing: `base` is already a
                    // connected k-core containing q made of carriers of
                    // the grown subtree, so it IS the answer — share
                    // the Arc, skip the peel.
                    self.core.stats.verifications += 1;
                    Some(Arc::clone(base))
                } else if seed.len() == label_core_len {
                    // The mirror case: the label's ĉore lies inside
                    // `base`, so its members all carry the parent
                    // subtree too — a connected k-core containing q of
                    // carriers of the grown subtree, and nothing outside
                    // it carries the label. It IS the answer; `base` is
                    // sorted, so the seed already is.
                    self.core.stats.verifications += 1;
                    Some(Arc::new(seed.clone()))
                } else {
                    self.core.peel()
                }
            }
            // A missing label ĉore: the narrowed candidate is infeasible.
            _ => None,
        };
        self.core.record(id, result)
    }

    /// The closure `cl(T) = { p ∈ T(q) : C ⊆ I.get(k, q, label(p)) }`
    /// of a feasible `T = id` whose community is `C = Gk[T]`: every
    /// node of `T(q)` that all of `C` carries. Extensive, idempotent,
    /// monotone and ancestor-closed, and `Gk[cl(T)] = C` with no peel
    /// (⊇: `C` is a connected k-core containing q whose members carry
    /// `cl(T)`; ⊆: anti-monotonicity) — recorded in the memo, so the
    /// closed subtree is never verified.
    ///
    /// Reads only the cached per-label bitsets, never a profile.
    /// Positions run in DFS preorder, so a position is tested only
    /// once its parent is in; a ĉore smaller than `C` is rejected by
    /// its count, the rest by one bit test per member, stopping at the
    /// first miss.
    pub fn close_id(&mut self, id: SubtreeId, community: &Arc<Vec<VertexId>>) -> SubtreeId {
        let mut words = std::mem::take(&mut self.closure_words);
        words.clear();
        words.extend_from_slice(self.core.interner.words_of(id));
        let space = self.core.space;
        for p in 1..space.len() as u32 {
            if bit_is_set(&words, p) || !bit_is_set(&words, space.parent_of(p)) {
                continue;
            }
            let carried = match self.ensure_label_set(p) {
                LabelCoreSet::Built { bits, count } => {
                    *count as usize >= community.len()
                        && community.iter().all(|&v| bit_is_set(bits, v))
                }
                _ => false,
            };
            if carried {
                if let Some(w) = words.get_mut(p as usize / 64) {
                    *w |= 1 << (p % 64);
                }
            }
        }
        let closed = self.core.interner.intern_words(&words);
        self.closure_words = words;
        self.core.remember(closed, community);
        closed
    }

    /// `(cl(child), Gk[child])` for the lattice child `child = t +
    /// added_pos` of a closed `t` whose community is `base`, or `None`
    /// when the child is infeasible. The index's community table is
    /// asked first: a stored community of `child`'s label set that
    /// contains `q` is `q`'s own, so a hit skips the narrowing, the peel
    /// and the closure, and counts as a memo hit.
    pub(crate) fn closed_child(
        &mut self,
        child: SubtreeId,
        base: &Arc<Vec<VertexId>>,
        added_pos: u32,
    ) -> Option<(SubtreeId, Arc<Vec<VertexId>>)> {
        let known = self.core.known(child);
        if known.is_none() {
            if let Some((closed, community)) = self.proven(child) {
                self.core.stats.memo_hits += 1;
                self.core.record(child, Some(Arc::clone(&community)));
                self.core.remember(closed, &community);
                return Some((closed, community));
            }
        }
        let community = match known {
            Some(known) => known?,
            None => self.verify_from_base_id(child, base, added_pos)?,
        };
        Some((self.closure(child, &community), community))
    }

    /// `cl(id)` for a feasible `id` whose community is `community`: from
    /// the community table when stored, else [`close_id`](Self::close_id),
    /// then stored under both `id`'s and the closure's label sets.
    pub(crate) fn closure(&mut self, id: SubtreeId, community: &Arc<Vec<VertexId>>) -> SubtreeId {
        if let Some((closed, _)) = self.proven(id) {
            self.core.remember(closed, community);
            return closed;
        }
        let closed = self.close_id(id, community);
        self.index.remember_community(self.core.k, self.labels(id), self.labels(closed), community);
        closed
    }

    /// The table's `(cl(id), Gk[id])`, when a stored community of `id`'s
    /// label set contains `q`. `q` carries every label of the stored
    /// closure, so each maps back into `T(q)`.
    fn proven(&mut self, id: SubtreeId) -> Option<(SubtreeId, Arc<Vec<VertexId>>)> {
        let (closed_labels, community) =
            self.index.proven_community(self.core.k, self.labels(id), self.core.q)?;
        let mut closed = self.core.space.empty();
        for &label in closed_labels.iter() {
            closed.insert(self.core.space.position_of(label)?);
        }
        Some((self.core.interner.intern(&closed), community))
    }

    /// The taxonomy labels of `id`, in position order: its label set in
    /// the community table.
    fn labels(&self, id: SubtreeId) -> impl Iterator<Item = LabelId> + Clone + '_ {
        let space = self.core.space;
        self.core.interner.positions(id).map(move |p| space.label_at(p))
    }

    /// True when `id` is feasible and every lattice child is infeasible
    /// — the paper's "T′ is maximal" check, memoized per id. Each child
    /// is verified by Lemma-3 narrowing from `id`'s own (already
    /// memoized) community, so the scan costs O(children ·
    /// |community|) instead of O(children · |label ĉore|).
    pub(crate) fn is_maximal_feasible_id(&mut self, id: SubtreeId) -> bool {
        if id.index() >= self.maximal_memo.len() {
            self.maximal_memo.resize(self.core.interner.num_interned().max(id.index() + 1), 0);
        }
        match self.maximal_memo.get(id.index()).copied() {
            Some(1) => return true,
            Some(2) => return false,
            _ => {}
        }
        let maximal = match self.verify_id(id) {
            None => false,
            Some(community) => {
                let mut children = std::mem::take(&mut self.children_buf);
                self.core.interner.lattice_children_into(id, &mut children);
                let mut maximal = true;
                for &p in &children {
                    self.core.stats.subtrees_generated += 1;
                    let child = self.core.interner.with(id, p);
                    if self.verify_from_base_id(child, &community, p).is_some() {
                        maximal = false;
                        break;
                    }
                }
                self.children_buf = children;
                maximal
            }
        };
        // The table was grown above; the checked write tolerates a
        // stale length.
        if let Some(slot) = self.maximal_memo.get_mut(id.index()) {
            *slot = if maximal { 1 } else { 2 };
        }
        maximal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{figure1, Probe};

    #[test]
    fn verify_from_base_agrees_with_direct() {
        let (g, t, profiles) = figure1();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&index);
        let q = 3u32;
        let k = 2;
        let space = ctx.space_for(q).unwrap();
        let (mut direct_scratch, mut incr_scratch) =
            (QueryScratch::new(g.num_vertices()), QueryScratch::new(g.num_vertices()));
        let mut direct = IndexVerifier::new(&ctx, &index, &space, q, k, &mut direct_scratch);
        let mut incr = IndexVerifier::new(&ctx, &index, &space, q, k, &mut incr_scratch);
        // Walk rightmost extensions, comparing incremental narrowing
        // against direct verification at every step.
        let mut stack = vec![(space.root_only(), incr.gk())];
        while let Some((s, community)) = stack.pop() {
            let Some(base) = community else { continue };
            for p in space.rightmost_extensions(&s) {
                let child = s.with(p);
                let child_id = incr.ids_mut().intern(&child);
                let via_base = incr.verify_from_base_id(child_id, &base, p);
                let via_direct = direct.verify(&child);
                assert_eq!(
                    via_base.as_ref().map(|r| r.as_ref()),
                    via_direct.as_ref().map(|r| r.as_ref())
                );
                stack.push((child, via_base));
            }
        }
    }
}

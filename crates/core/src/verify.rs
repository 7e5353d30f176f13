//! The shared, memoized community-verification engine.
//!
//! Every PCS algorithm ultimately asks one question over and over: given
//! a candidate subtree `T ⊆ T(q)`, does `Gk[T]` — the connected k-core
//! containing `q` restricted to vertices whose P-trees contain `T` —
//! exist, and what are its vertices? This module centralizes that
//! question and keeps it off the allocator:
//!
//! * candidates are **interned** ([`pcs_ptree::SubtreeInterner`]) into
//!   dense [`SubtreeId`]s, so the memo table is a flat `Vec` indexed by
//!   id — no `Subtree` cloning or hashing per probe (each distinct
//!   subtree is hashed exactly once, at interning time);
//! * index probes use [`pcs_index::ShardedCpIndex::get_ref`], a **borrowed
//!   arena slice** (O(CL-tree depth), zero-copy) instead of the owned
//!   collect-and-sort `get`;
//! * all intermediate buffers live in a reusable [`QueryScratch`]
//!   (candidate seeds, per-vertex profile masks, the localized-peel
//!   state, the `Gk` position index), which an engine can pool across
//!   queries;
//! * every level-k label ĉore is a subset of the global k-ĉore `Gk`,
//!   so `I.get(k, q, ·)` results are cached per query as **bitsets
//!   over `Gk` positions** — seeding a candidate is a handful of
//!   word-wise ANDs, and `base ∩ I.get(...)` is one bit test per base
//!   member.
//!
//! Candidate seeding follows the paper:
//! * without an index (`basic`): candidates = `Gk` (the global k-ĉore
//!   of `q`) filtered by lazy per-vertex profile masks — Algorithm 1's
//!   "compute `Gk[T]` from `Gk`";
//! * with an index and a parent community (`incre`): candidates =
//!   `Gk[T'] ∩ I.get(k, q, t)` where `t` is the newly added label —
//!   Lemma 3;
//! * with an index and no parent (`advanced`'s `verifyPtree`):
//!   candidates = `⋂ I.get(k, q, tni)` over the candidate's leaves —
//!   the paper's bound, which by ancestor closure already implies the
//!   profile containment test.

use std::rc::Rc;

use pcs_graph::core::SubsetCore;
use pcs_graph::VertexId;
use pcs_ptree::{QuerySpace, Subtree, SubtreeId, SubtreeInterner};

use crate::problem::{QueryContext, QueryStats};

/// A verification answer: `None` ⇔ infeasible, otherwise the sorted
/// community vertices (shared, since the memo and callers both hold
/// them).
pub type Community = Option<Rc<Vec<VertexId>>>;

/// Reusable per-query working memory: everything a [`Verifier`] needs
/// beyond the answer vectors themselves. Creating one is O(n); reusing
/// one across queries (see [`Verifier::with_scratch`]) makes the whole
/// verification loop allocation-free in steady state — per-vertex state
/// is invalidated by epoch stamping, never re-zeroed.
#[derive(Debug)]
pub struct QueryScratch {
    /// The localized k-core peel engine (itself epoch-stamped).
    core: SubsetCore,
    /// Per-vertex projection of `T(v)` onto the current query space.
    masks: Vec<Option<Subtree>>,
    /// `masks[v]` is valid iff `mask_epoch[v] == epoch`.
    mask_epoch: Vec<u32>,
    epoch: u32,
    /// Filtered candidate seed for the localized peel.
    seed: Vec<VertexId>,
    /// `gk_pos[v]` = dense index of `v` inside the current query's `Gk`
    /// (valid iff `gk_pos_epoch[v] == epoch`). Lets label-ĉore bitsets
    /// over `Gk` answer membership in O(1).
    gk_pos: Vec<u32>,
    gk_pos_epoch: Vec<u32>,
    /// Word buffer for ANDing label-ĉore bitsets.
    words_buf: Vec<u64>,
}

impl QueryScratch {
    /// Creates scratch state for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        QueryScratch {
            core: SubsetCore::new(n),
            masks: vec![None; n],
            mask_epoch: vec![0; n],
            epoch: 0,
            seed: Vec::new(),
            gk_pos: vec![0; n],
            gk_pos_epoch: vec![0; n],
            words_buf: Vec::new(),
        }
    }

    /// Readies the scratch for a new query over `n` vertices:
    /// invalidates all cached masks in O(1) and grows per-vertex state
    /// if the graph outgrew the scratch.
    fn begin(&mut self, n: usize) {
        if n > self.masks.len() {
            self.core = SubsetCore::new(n);
            self.masks.resize(n, None);
            self.mask_epoch.resize(n, 0);
            self.gk_pos.resize(n, 0);
            self.gk_pos_epoch.resize(n, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.mask_epoch.iter_mut().for_each(|e| *e = 0);
                self.gk_pos_epoch.iter_mut().for_each(|e| *e = 0);
                1
            }
        };
    }

    /// The dense `Gk` position of `v`, if `v` was stamped this epoch.
    /// Fully bounds-checked: a vertex beyond the scratch (impossible
    /// after `begin(n)`) reads as unstamped.
    #[inline]
    fn gk_pos_of(&self, v: VertexId) -> Option<u32> {
        let vi = v as usize;
        if self.gk_pos_epoch.get(vi).copied() == Some(self.epoch) {
            self.gk_pos.get(vi).copied()
        } else {
            None
        }
    }

    /// Stamps `v` at dense `Gk` position `i` for the current epoch.
    #[inline]
    fn stamp_gk_pos(&mut self, v: VertexId, i: u32) {
        let vi = v as usize;
        if let (Some(p), Some(e)) = (self.gk_pos.get_mut(vi), self.gk_pos_epoch.get_mut(vi)) {
            *p = i;
            *e = self.epoch;
        }
    }
}

/// One label's k-ĉore of the query vertex, as a bitset over `Gk`.
#[derive(Clone, Debug)]
enum LabelCoreSet {
    /// Not asked for yet.
    Unbuilt,
    /// `I.get(k, q, label)` does not exist.
    Missing,
    /// The ĉore's members, as set bits over `Gk` positions.
    Built { bits: Box<[u64]>, count: u32 },
}

/// The shared fallback for out-of-range label positions (impossible by
/// construction — `label_sets` is sized to the query space — but the
/// checked accessor needs a value, and "missing" is the conservative
/// answer: the candidate is simply infeasible).
const MISSING_SET: LabelCoreSet = LabelCoreSet::Missing;

/// Checked [`LabelCoreSet`] lookup. A free function (not a method) so
/// callers holding disjoint `&mut` borrows of other `Verifier` fields
/// can still use it.
#[inline]
fn label_set(sets: &[LabelCoreSet], pos: u32) -> &LabelCoreSet {
    sets.get(pos as usize).unwrap_or(&MISSING_SET)
}

/// Either owned (one-shot queries) or borrowed (pooled) scratch.
enum ScratchSlot<'a> {
    Owned(Box<QueryScratch>),
    Borrowed(&'a mut QueryScratch),
}

impl ScratchSlot<'_> {
    #[inline]
    fn get(&mut self) -> &mut QueryScratch {
        match self {
            ScratchSlot::Owned(s) => s,
            ScratchSlot::Borrowed(s) => s,
        }
    }
}

/// Memoized `Gk[T]` oracle for one query `(q, k)`.
///
/// Also owns the query's [`SubtreeInterner`]: the algorithms run
/// entirely in [`SubtreeId`] space and only materialize owned
/// [`Subtree`]s when assembling the final outcome.
pub struct Verifier<'a> {
    ctx: &'a QueryContext<'a>,
    space: &'a QuerySpace,
    q: VertexId,
    k: u32,
    interner: SubtreeInterner<'a>,
    /// Memo table indexed by [`SubtreeId`]; `None` = not verified yet.
    memo: Vec<Option<Community>>,
    /// Maximality verdicts per id: 0 = unknown, 1 = maximal, 2 = not.
    /// The boundary walk asks about the same subtree from many cuts;
    /// the verdict is a pure function of the subtree.
    maximal_memo: Vec<u8>,
    /// Per DFS position of `T(q)`: `I.get(k, q, label)` as a bitset
    /// over `Gk` indices (every label ĉore at level k is a subset of
    /// the global k-ĉore `Gk`). Built lazily, once per query; turns
    /// candidate seeding into word-wise ANDs and base intersection
    /// into O(1) bit tests.
    label_sets: Vec<LabelCoreSet>,
    /// Scratch for leaf-position scans.
    leaf_buf: Vec<u32>,
    scratch: ScratchSlot<'a>,
    /// Scratch for `is_maximal_feasible_id`'s child scan.
    maximal_buf: Vec<u32>,
    /// Scratch for `close_id`: the community's `Gk` positions and the
    /// closure's word image under construction.
    member_buf: Vec<u32>,
    closure_words: Vec<u64>,
    /// `Gk`: the global k-ĉore containing `q` (feasibility of the
    /// root-only candidate — and of the empty tree).
    gk: Community,
    /// Instrumentation counters.
    pub stats: QueryStats,
}

impl<'a> Verifier<'a> {
    /// Creates the oracle with its own scratch and computes `Gk` once.
    pub fn new(ctx: &'a QueryContext<'a>, space: &'a QuerySpace, q: VertexId, k: u32) -> Self {
        let scratch = ScratchSlot::Owned(Box::new(QueryScratch::new(ctx.graph.num_vertices())));
        Self::build(ctx, space, q, k, scratch)
    }

    /// Creates the oracle on pooled scratch (the engine's hot path):
    /// repeated queries over one graph reuse every buffer.
    pub fn with_scratch(
        ctx: &'a QueryContext<'a>,
        space: &'a QuerySpace,
        q: VertexId,
        k: u32,
        scratch: &'a mut QueryScratch,
    ) -> Self {
        Self::build(ctx, space, q, k, ScratchSlot::Borrowed(scratch))
    }

    fn build(
        ctx: &'a QueryContext<'a>,
        space: &'a QuerySpace,
        q: VertexId,
        k: u32,
        mut scratch: ScratchSlot<'a>,
    ) -> Self {
        let scr = scratch.get();
        scr.begin(ctx.graph.num_vertices());
        let gk = ctx.cores.kcore_component(ctx.graph, q, k).map(Rc::new);
        // Stamp every Gk member with its dense Gk index, so label-ĉore
        // bitsets over Gk answer membership in O(1).
        if let Some(gk) = &gk {
            for (i, &v) in gk.iter().enumerate() {
                scr.stamp_gk_pos(v, i as u32);
            }
        }
        let stats = QueryStats { query_tree_size: space.len() as u32, ..Default::default() };
        Verifier {
            ctx,
            space,
            q,
            k,
            interner: SubtreeInterner::new(space),
            memo: Vec::new(),
            maximal_memo: Vec::new(),
            label_sets: vec![LabelCoreSet::Unbuilt; space.len()],
            leaf_buf: Vec::new(),
            scratch,
            maximal_buf: Vec::new(),
            member_buf: Vec::new(),
            closure_words: Vec::new(),
            gk,
            stats,
        }
    }

    /// The query vertex.
    pub fn q(&self) -> VertexId {
        self.q
    }

    /// The degree bound.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The frozen search space (borrowed from the caller, so the
    /// reference outlives any later `&mut self` use).
    pub fn space(&self) -> &'a QuerySpace {
        self.space
    }

    /// The query's subtree interner (for id-space lattice moves).
    pub fn ids(&self) -> &SubtreeInterner<'a> {
        &self.interner
    }

    /// Mutable interner access (interning and memoized ±one-node moves).
    pub fn ids_mut(&mut self) -> &mut SubtreeInterner<'a> {
        &mut self.interner
    }

    /// The global k-ĉore `Gk` of the query vertex (the community of the
    /// empty and root-only candidates), if it exists.
    pub fn gk(&self) -> Community {
        self.gk.clone()
    }

    /// True when vertex `v`'s profile contains candidate `s`.
    pub fn vertex_contains(&mut self, v: VertexId, s: &Subtree) -> bool {
        let id = self.interner.intern(s);
        let ctx = self.ctx;
        let space = self.space;
        let scr = self.scratch.get();
        let interner = &self.interner;
        ensure_mask(scr, ctx, space, v)
            .is_some_and(|mask| interner.is_subset_of_words(id, mask.words()))
    }

    /// The memoized verdict for `id`, growing the table on first sight.
    fn memo_get(&mut self, id: SubtreeId) -> Option<Community> {
        if id.index() >= self.memo.len() {
            self.memo.resize(self.interner.num_interned().max(id.index() + 1), None);
        }
        self.memo.get(id.index()).and_then(Clone::clone)
    }

    fn memo_set(&mut self, id: SubtreeId, result: Community) {
        if let Some(slot) = self.memo.get_mut(id.index()) {
            *slot = Some(result);
        }
    }

    /// `Gk[T]` with automatic candidate seeding, memoized per
    /// [`SubtreeId`]. The indexed path probes a borrowed CL-tree arena
    /// slice and filters it into reusable scratch — no allocation
    /// unless the candidate turns out feasible (the answer vector).
    pub fn verify_id(&mut self, id: SubtreeId) -> Community {
        if self.interner.count(id) <= 1 {
            // The empty tree and the root-only tree constrain nothing:
            // every vertex contains the taxonomy root.
            return self.gk.clone();
        }
        if let Some(hit) = self.memo_get(id) {
            self.stats.memo_hits += 1;
            return hit;
        }
        let result = if self.ctx.index.is_some() {
            self.verify_indexed(id)
        } else {
            // Algorithm 1: start from the global k-ĉore, filtered by
            // the per-vertex profile masks.
            match &self.gk {
                Some(gk) => {
                    let gk = Rc::clone(gk);
                    self.stats.seed_scanned += gk.len() as u64;
                    let (ctx, space) = (self.ctx, self.space);
                    filter_seed(&self.interner, id, ctx, space, self.scratch.get(), gk.as_slice());
                    self.peel()
                }
                None => None,
            }
        };
        if result.is_some() {
            self.stats.feasible += 1;
        }
        self.memo_set(id, result.clone());
        result
    }

    /// Indexed seeding (the `verifyPtree` bound, strengthened): the
    /// candidates are `⋂ I.get(k, q, leaf)` over **every** leaf of the
    /// candidate — by ancestor closure, a vertex inside all leaf ĉores
    /// carries the whole subtree, so no mask pass is needed — computed
    /// as word-wise ANDs of the per-label bitsets over `Gk`.
    fn verify_indexed(&mut self, id: SubtreeId) -> Community {
        // Leaves of `id` (into reusable scratch).
        let mut leaves = std::mem::take(&mut self.leaf_buf);
        self.interner.leaves_into(id, &mut leaves);
        debug_assert!(!leaves.is_empty(), "non-empty candidate has a leaf");
        // Ensure every leaf's ĉore bitset exists; find the smallest.
        // `ensure_label_set` never leaves a set `Unbuilt`, so an
        // `Unbuilt` here is a logic error — treated as missing (the
        // conservative verdict) rather than a panic.
        let mut best: Option<(u32, u32)> = None; // (count, pos)
        let mut missing = false;
        for &p in &leaves {
            match self.ensure_label_set(p) {
                LabelCoreSet::Built { count, .. } => {
                    let count = *count;
                    if best.is_none_or(|(c, _)| count < c) {
                        best = Some((count, p));
                    }
                }
                state => {
                    debug_assert!(
                        matches!(state, LabelCoreSet::Missing),
                        "ensure_label_set builds"
                    );
                    missing = true;
                    break;
                }
            }
        }
        let best = if missing { None } else { best };
        let result = match (best, self.gk.clone()) {
            (Some((best_count, best_pos)), Some(gk)) => {
                self.stats.seed_scanned += best_count as u64;
                // AND all leaf sets into the scratch word buffer.
                let scr = self.scratch.get();
                let QueryScratch { words_buf, seed, .. } = scr;
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
                // Materialize: Gk is sorted, so the seed comes out
                // sorted. Set bits only exist at stamped Gk positions,
                // so the checked lookup never actually misses.
                seed.clear();
                for (wi, &w) in words_buf.iter().enumerate() {
                    let mut bits = w;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if let Some(&v) = gk.get(wi * 64 + b) {
                            seed.push(v);
                        }
                    }
                }
                if seed.len() == best_count as usize {
                    // The smallest leaf ĉore survived the intersection
                    // whole: the candidates ARE that ĉore — a connected
                    // k-core containing q — so the peel is a no-op.
                    self.stats.verifications += 1;
                    Some(Rc::new(seed.clone()))
                } else {
                    self.peel()
                }
            }
            (Some(_), None) => {
                debug_assert!(false, "a built label ĉore implies Gk exists");
                None
            }
            (None, _) => None,
        };
        self.leaf_buf = leaves;
        result
    }

    /// Builds (once) the bitset of `I.get(k, q, label_at(pos))` over
    /// `Gk` positions. Only meaningful on the indexed path; with no
    /// index attached the set reads as `Missing` (callers guard on
    /// `ctx.index` before reaching here).
    fn ensure_label_set(&mut self, pos: u32) -> &LabelCoreSet {
        if matches!(label_set(&self.label_sets, pos), LabelCoreSet::Unbuilt) {
            let built = match self.ctx.index {
                None => {
                    debug_assert!(false, "ensure_label_set on the unindexed path");
                    LabelCoreSet::Missing
                }
                Some(index) => {
                    let label = self.space.label_at(pos);
                    match index.get_ref(self.k, self.q, label) {
                        None => LabelCoreSet::Missing,
                        Some(slice) => {
                            let gk_len = self.gk.as_ref().map_or(0, |g| g.len());
                            let mut bits =
                                vec![0u64; gk_len.div_ceil(64).max(1)].into_boxed_slice();
                            let scr = self.scratch.get();
                            let mut count = 0u32;
                            for &v in slice {
                                // Every level-k label ĉore is a subset
                                // of Gk; an unstamped vertex would mean
                                // the index disagrees with the core
                                // decomposition, so skip it.
                                if let Some(i) = scr.gk_pos_of(v) {
                                    if let Some(w) = bits.get_mut(i as usize / 64) {
                                        *w |= 1 << (i % 64);
                                        count += 1;
                                    }
                                }
                            }
                            LabelCoreSet::Built { bits, count }
                        }
                    }
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
    /// `Gk` bitset — total O(|base|), allocation-free. The peel is
    /// skipped whenever one side contains the other (`base ⊆ ĉore` or
    /// `ĉore ⊆ base`): the smaller set is then the answer as it stands.
    pub fn verify_from_base_id(
        &mut self,
        id: SubtreeId,
        base: &Rc<Vec<VertexId>>,
        added_pos: u32,
    ) -> Community {
        if let Some(hit) = self.memo_get(id) {
            self.stats.memo_hits += 1;
            return hit;
        }
        debug_assert!(
            self.ctx.index.is_some(),
            "verify_from_base is only used by index-based algorithms"
        );
        self.ensure_label_set(added_pos);
        let result = match label_set(&self.label_sets, added_pos) {
            LabelCoreSet::Built { bits, count } => {
                let label_core_len = *count as usize;
                self.stats.seed_scanned += base.len() as u64;
                // candidates = base ∩ I.get(k, q, t): one O(1) bit test
                // per base member, never a walk of the label's ĉore.
                let scr = self.scratch.get();
                let epoch = scr.epoch;
                let QueryScratch { seed, gk_pos, gk_pos_epoch, .. } = scr;
                seed.clear();
                for &v in base.iter() {
                    let vi = v as usize;
                    if gk_pos_epoch.get(vi).copied() == Some(epoch) {
                        let i = gk_pos.get(vi).copied().unwrap_or(u32::MAX);
                        if bit_is_set(bits, i) {
                            seed.push(v);
                        }
                    }
                }
                if seed.len() == base.len() {
                    // The label removed nothing: `base` is already a
                    // connected k-core containing q made of carriers of
                    // the grown subtree, so it IS the answer — share
                    // the Rc, skip the peel.
                    self.stats.verifications += 1;
                    Some(Rc::clone(base))
                } else if seed.len() == label_core_len {
                    // The mirror case: the label's ĉore lies inside
                    // `base`, so its members all carry the parent
                    // subtree too — a connected k-core containing q of
                    // carriers of the grown subtree, and nothing outside
                    // it carries the label. It IS the answer; `base` is
                    // sorted, so the seed already is.
                    self.stats.verifications += 1;
                    Some(Rc::new(seed.clone()))
                } else {
                    self.peel()
                }
            }
            // `ensure_label_set` never leaves `Unbuilt`; either way a
            // non-built set means the narrowed candidate is infeasible.
            _ => None,
        };
        if result.is_some() {
            self.stats.feasible += 1;
        }
        self.memo_set(id, result.clone());
        result
    }

    /// The closure `cl(T) = { p ∈ T(q) : C ⊆ I.get(k, q, label(p)) }`
    /// of a feasible `T = id` whose community is `C = Gk[T]`: every
    /// node of `T(q)` that all of `C` carries. Extensive, idempotent,
    /// monotone and ancestor-closed, and `Gk[cl(T)] = C` with no peel
    /// (⊇: `C` is a connected k-core containing q whose members carry
    /// `cl(T)`; ⊆: anti-monotonicity) — recorded in the memo, so the
    /// closed subtree is never verified.
    ///
    /// Reads only the cached per-label `Gk` bitsets, never a profile.
    /// Positions run in DFS preorder, so a position is tested only
    /// once its parent is in; a ĉore smaller than `C` is rejected by
    /// its count, the rest by one bit test per member, stopping at the
    /// first miss.
    pub fn close_id(&mut self, id: SubtreeId, community: &Rc<Vec<VertexId>>) -> SubtreeId {
        debug_assert!(self.ctx.index.is_some(), "close_id reads the index's label ĉores");
        let mut members = std::mem::take(&mut self.member_buf);
        let scr = self.scratch.get();
        members.clear();
        members.extend(community.iter().filter_map(|&v| scr.gk_pos_of(v)));
        let mut words = std::mem::take(&mut self.closure_words);
        words.clear();
        words.extend_from_slice(self.interner.words_of(id));
        let space = self.space;
        for p in 1..space.len() as u32 {
            if bit_is_set(&words, p) || !bit_is_set(&words, space.parent_of(p)) {
                continue;
            }
            let carried = match self.ensure_label_set(p) {
                LabelCoreSet::Built { bits, count } => {
                    *count as usize >= members.len() && members.iter().all(|&i| bit_is_set(bits, i))
                }
                _ => false,
            };
            if carried {
                if let Some(w) = words.get_mut(p as usize / 64) {
                    *w |= 1 << (p % 64);
                }
            }
        }
        let closed = self.interner.intern_words(&words);
        self.member_buf = members;
        self.closure_words = words;
        if closed != id && self.memo_get(closed).is_none() {
            self.memo_set(closed, Some(Rc::clone(community)));
        }
        closed
    }

    /// Localized peel over the candidates currently in `scratch.seed`.
    fn peel(&mut self) -> Community {
        self.stats.verifications += 1;
        self.stats.peel_candidates += self.scratch.get().seed.len() as u64;
        let graph = self.ctx.graph;
        let (q, k) = (self.q, self.k);
        let scr = self.scratch.get();
        let QueryScratch { core, seed, .. } = scr;
        core.kcore_component_within(graph, seed, q, k).map(Rc::new)
    }

    /// Feasibility shorthand.
    pub fn is_feasible_id(&mut self, id: SubtreeId) -> bool {
        self.verify_id(id).is_some()
    }

    /// True when `id` is feasible and every lattice child is infeasible
    /// — the paper's "T′ is maximal" check.
    ///
    /// With an index attached, each child is verified by Lemma-3
    /// narrowing from `id`'s own (already memoized) community, so the
    /// scan costs O(children · |community|) instead of O(children ·
    /// |label ĉore|).
    pub fn is_maximal_feasible_id(&mut self, id: SubtreeId) -> bool {
        if id.index() >= self.maximal_memo.len() {
            self.maximal_memo.resize(self.interner.num_interned().max(id.index() + 1), 0);
        }
        match self.maximal_memo.get(id.index()).copied() {
            Some(1) => return true,
            Some(2) => return false,
            _ => {}
        }
        let Some(community) = self.verify_id(id) else {
            self.set_maximal_verdict(id, 2);
            return false;
        };
        let mut buf = std::mem::take(&mut self.maximal_buf);
        self.interner.lattice_children_into(id, &mut buf);
        let use_base = self.ctx.index.is_some();
        let mut maximal = true;
        for &p in &buf {
            self.stats.subtrees_generated += 1;
            let child = self.interner.with(id, p);
            let feasible = if use_base {
                self.verify_from_base_id(child, &community, p).is_some()
            } else {
                self.verify_id(child).is_some()
            };
            if feasible {
                maximal = false;
                break;
            }
        }
        self.maximal_buf = buf;
        self.set_maximal_verdict(id, if maximal { 1 } else { 2 });
        maximal
    }

    /// Records a maximality verdict (the table was grown by the caller;
    /// the checked write tolerates a stale length).
    #[inline]
    fn set_maximal_verdict(&mut self, id: SubtreeId, verdict: u8) {
        if let Some(slot) = self.maximal_memo.get_mut(id.index()) {
            *slot = verdict;
        }
    }

    // ------------------------------------------------------------------
    // Owned-`Subtree` compatibility layer: interns and delegates. Fine
    // for tests and one-shot probes; the algorithms stay in id space.
    // ------------------------------------------------------------------

    /// `Gk[T]` for an owned candidate (interns `s` first).
    pub fn verify(&mut self, s: &Subtree) -> Community {
        if s.is_empty() {
            return self.gk.clone();
        }
        let id = self.interner.intern(s);
        self.verify_id(id)
    }

    /// [`Verifier::verify_from_base_id`] for an owned candidate.
    pub fn verify_from_base(
        &mut self,
        s: &Subtree,
        base: &Rc<Vec<VertexId>>,
        added_pos: u32,
    ) -> Community {
        let id = self.interner.intern(s);
        self.verify_from_base_id(id, base, added_pos)
    }

    /// Feasibility shorthand for an owned candidate.
    pub fn is_feasible(&mut self, s: &Subtree) -> bool {
        self.verify(s).is_some()
    }

    /// [`Verifier::is_maximal_feasible_id`] for an owned candidate.
    pub fn is_maximal_feasible(&mut self, s: &Subtree) -> bool {
        let id = self.interner.intern(s);
        self.is_maximal_feasible_id(id)
    }

    /// Count one generated candidate (enumeration bookkeeping).
    pub fn note_generated(&mut self, n: u64) {
        self.stats.subtrees_generated += n;
    }
}

/// Builds (or revalidates) the lazy mask of `v`: `T(v)` projected onto
/// the query space's bit positions. Returns the mask, or `None` for a
/// vertex with no profile (out of range — impossible after `begin(n)`,
/// but the conservative answer is "contains nothing").
fn ensure_mask<'s>(
    scr: &'s mut QueryScratch,
    ctx: &QueryContext<'_>,
    space: &QuerySpace,
    v: VertexId,
) -> Option<&'s Subtree> {
    let vi = v as usize;
    if scr.mask_epoch.get(vi).copied() != Some(scr.epoch) {
        let profile = ctx.profiles.get(vi)?;
        let mut m = space.empty();
        for pos in 0..space.len() as u32 {
            if profile.contains(space.label_at(pos)) {
                m.insert(pos);
            }
        }
        let ep = scr.epoch;
        if let (Some(slot), Some(e)) = (scr.masks.get_mut(vi), scr.mask_epoch.get_mut(vi)) {
            *slot = Some(m);
            *e = ep;
        }
    }
    scr.masks.get(vi)?.as_ref()
}

/// Filters `seed` by the per-vertex mask test for candidate `id` into
/// `scr.seed` (cleared first).
fn filter_seed(
    interner: &SubtreeInterner<'_>,
    id: SubtreeId,
    ctx: &QueryContext<'_>,
    space: &QuerySpace,
    scr: &mut QueryScratch,
    seed: &[VertexId],
) {
    scr.seed.clear();
    for &v in seed {
        let ok = ensure_mask(scr, ctx, space, v)
            .is_some_and(|mask| interner.is_subset_of_words(id, mask.words()));
        if ok {
            scr.seed.push(v);
        }
    }
}

/// Checked bit test on a word image (out of range reads as unset).
#[inline]
fn bit_is_set(words: &[u64], i: u32) -> bool {
    words.get(i as usize / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::QueryContext;
    use pcs_graph::Graph;
    use pcs_index::ShardedCpIndex;
    use pcs_ptree::{PTree, Taxonomy};

    fn setup() -> (Graph, Taxonomy, Vec<PTree>) {
        // Fig. 1(a) again: the canonical 8-vertex example.
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (0, 3),
                (0, 4),
                (1, 3),
                (1, 4),
                (3, 4),
                (1, 2),
                (2, 3),
                (4, 5),
                (5, 6),
                (5, 7),
                (6, 7),
            ],
        )
        .unwrap();
        let mut t = Taxonomy::new("r");
        let cm = t.add_child(0, "CM").unwrap();
        let is = t.add_child(0, "IS").unwrap();
        let hw = t.add_child(0, "HW").unwrap();
        let ml = t.add_child(cm, "ML").unwrap();
        let ai = t.add_child(cm, "AI").unwrap();
        let dms = t.add_child(is, "DMS").unwrap();
        let profiles = vec![
            PTree::from_labels(&t, [dms, hw]).unwrap(),
            PTree::from_labels(&t, [ml, ai]).unwrap(),
            PTree::from_labels(&t, [ml, ai, is]).unwrap(),
            PTree::from_labels(&t, [ml, ai, dms, hw]).unwrap(),
            PTree::from_labels(&t, [dms, hw]).unwrap(),
            PTree::from_labels(&t, [is, hw]).unwrap(),
            PTree::from_labels(&t, [hw, cm]).unwrap(),
            PTree::from_labels(&t, [is, hw]).unwrap(),
        ];
        (g, t, profiles)
    }

    #[test]
    fn verifier_matches_bruteforce_with_and_without_index() {
        let (g, t, profiles) = setup();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        for use_index in [false, true] {
            let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
            let ctx = if use_index { ctx.with_index(&index) } else { ctx };
            for q in [3u32, 0, 5] {
                for k in 1..=3u32 {
                    let space = ctx.space_for(q).unwrap();
                    let mut ver = Verifier::new(&ctx, &space, q, k);
                    // Brute force every valid candidate.
                    let all = pcs_ptree::enumerate::enumerate_rooted_subtrees(&space);
                    for s in &all {
                        let expect = brute_gk(&g, &profiles, &space, s, q, k);
                        let got = ver.verify(s).map(|rc| rc.as_ref().clone());
                        assert_eq!(got, expect, "use_index={use_index} q={q} k={k}");
                        // Second call hits the memo and agrees.
                        let again = ver.verify(s).map(|rc| rc.as_ref().clone());
                        assert_eq!(again, expect);
                    }
                }
            }
        }
    }

    /// Pooled scratch answers exactly like fresh scratch across a
    /// sequence of different queries (mask epochs must isolate them).
    #[test]
    fn scratch_reuse_is_transparent() {
        let (g, t, profiles) = setup();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&index);
        let mut scratch = QueryScratch::new(g.num_vertices());
        for q in 0..8u32 {
            for k in 1..=3u32 {
                let space = ctx.space_for(q).unwrap();
                let mut pooled = Verifier::with_scratch(&ctx, &space, q, k, &mut scratch);
                let mut fresh = Verifier::new(&ctx, &space, q, k);
                for s in pcs_ptree::enumerate::enumerate_rooted_subtrees(&space) {
                    assert_eq!(
                        pooled.verify(&s).map(|rc| rc.as_ref().clone()),
                        fresh.verify(&s).map(|rc| rc.as_ref().clone()),
                        "q={q} k={k}"
                    );
                }
            }
        }
    }

    /// Reference implementation: filter all vertices, peel naively.
    fn brute_gk(
        g: &Graph,
        profiles: &[PTree],
        space: &QuerySpace,
        s: &Subtree,
        q: VertexId,
        k: u32,
    ) -> Option<Vec<VertexId>> {
        let want = space.to_ptree(s);
        let cands: Vec<VertexId> = (0..g.num_vertices() as u32)
            .filter(|&v| want.is_subtree_of(&profiles[v as usize]))
            .collect();
        let mut sc = SubsetCore::new(g.num_vertices());
        sc.kcore_component_within(g, &cands, q, k)
    }

    #[test]
    fn verify_from_base_agrees_with_direct() {
        let (g, t, profiles) = setup();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&index);
        let q = 3u32;
        let k = 2;
        let space = ctx.space_for(q).unwrap();
        let mut direct = Verifier::new(&ctx, &space, q, k);
        let mut incr = Verifier::new(&ctx, &space, q, k);
        // Walk rightmost extensions, comparing incremental narrowing
        // against direct verification at every step.
        let mut stack = vec![(space.root_only(), incr.gk())];
        while let Some((s, community)) = stack.pop() {
            let Some(base) = community else { continue };
            for p in space.rightmost_extensions(&s) {
                let child = s.with(p);
                let via_base = incr.verify_from_base(&child, &base, p);
                let via_direct = direct.verify(&child);
                assert_eq!(
                    via_base.as_ref().map(|r| r.as_ref()),
                    via_direct.as_ref().map(|r| r.as_ref())
                );
                stack.push((child, via_base));
            }
        }
    }

    #[test]
    fn maximality_check() {
        let (g, t, profiles) = setup();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        let q = 3u32;
        let space = ctx.space_for(q).unwrap();
        let mut ver = Verifier::new(&ctx, &space, q, 2);
        // Fig. 2(b): {B,C,D} share r->CM->{ML,AI}; that candidate is
        // feasible and maximal at k=2.
        let cm = space.position_of(t.id_of("CM").unwrap()).unwrap();
        let ml = space.position_of(t.id_of("ML").unwrap()).unwrap();
        let ai = space.position_of(t.id_of("AI").unwrap()).unwrap();
        let cand = space.closure([cm, ml, ai]);
        assert!(ver.is_feasible(&cand));
        assert!(ver.is_maximal_feasible(&cand));
        assert_eq!(
            ver.verify(&cand).unwrap().as_ref(),
            &vec![1, 2, 3] // B, C, D
        );
        // The root-only candidate is feasible but NOT maximal.
        assert!(ver.is_feasible(&space.root_only()));
        assert!(!ver.is_maximal_feasible(&space.root_only()));
    }

    #[test]
    fn vertex_contains_matches_profiles() {
        let (g, t, profiles) = setup();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        let space = ctx.space_for(3).unwrap();
        let mut ver = Verifier::new(&ctx, &space, 3, 2);
        for v in 0..8u32 {
            for s in pcs_ptree::enumerate::enumerate_rooted_subtrees(&space) {
                let expect = space.to_ptree(&s).is_subtree_of(&profiles[v as usize]);
                assert_eq!(ver.vertex_contains(v, &s), expect, "v={v}");
            }
        }
    }

    #[test]
    fn infeasible_when_gk_missing() {
        let (g, t, profiles) = setup();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        let space = ctx.space_for(2).unwrap();
        // Vertex C has core 2; k=3 leaves no Gk.
        let mut ver = Verifier::new(&ctx, &space, 2, 3);
        assert!(ver.gk().is_none());
        assert!(!ver.is_feasible(&space.root_only()));
        assert!(!ver.is_feasible(&space.full()));
    }

    #[test]
    fn stats_accumulate() {
        let (g, t, profiles) = setup();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        let space = ctx.space_for(3).unwrap();
        let mut ver = Verifier::new(&ctx, &space, 3, 2);
        let full = space.full();
        let _ = ver.verify(&full);
        let _ = ver.verify(&full);
        assert_eq!(ver.stats.verifications, 1);
        assert_eq!(ver.stats.memo_hits, 1);
        ver.note_generated(3);
        assert_eq!(ver.stats.subtrees_generated, 3);
        assert_eq!(ver.stats.query_tree_size, space.len() as u32);
    }

    use pcs_graph::core::SubsetCore;
}

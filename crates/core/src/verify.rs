//! The shared, memoized core of community verification, and Algorithm
//! 1's index-free [`Verifier`] over it.
//!
//! Every PCS algorithm ultimately asks one question over and over: given
//! a candidate subtree `T ⊆ T(q)`, does `Gk[T]` — the connected k-core
//! containing `q` restricted to vertices whose P-trees contain `T` —
//! exist, and what are its vertices? The core answers it once per
//! candidate and keeps it off the allocator:
//!
//! * candidates are **interned** ([`pcs_ptree::SubtreeInterner`]) into
//!   dense [`SubtreeId`]s, so the memo table is a flat `Vec` indexed by
//!   id — no `Subtree` cloning or hashing per probe (each distinct
//!   subtree is hashed exactly once, at interning time);
//! * all intermediate buffers live in a borrowed [`QueryScratch`]
//!   (candidate seeds, per-vertex profile masks, the localized-peel
//!   state), which an engine pools across queries.
//!
//! Two verifiers run over the core, one per seeding regime, and the type
//! an algorithm holds fixes its regime: [`Verifier`] here for `basic`,
//! and [`IndexVerifier`](crate::indexed::IndexVerifier) for `incre`,
//! adv-I/D/P and `closed`.

use std::sync::Arc;

use pcs_graph::core::SubsetCore;
use pcs_graph::VertexId;
use pcs_ptree::{QuerySpace, Subtree, SubtreeId, SubtreeInterner};

use crate::problem::{QueryContext, QueryStats};

/// A verification answer: `None` ⇔ infeasible, otherwise the sorted
/// community vertices (shared, since the memo, callers and the index's
/// community table all hold them).
pub type Community = Option<Arc<Vec<VertexId>>>;

/// Shares a fresh community, exact-sized: the community table may keep it.
pub(crate) fn shared(mut vertices: Vec<VertexId>) -> Arc<Vec<VertexId>> {
    vertices.shrink_to_fit();
    Arc::new(vertices)
}

/// Reusable per-query working memory: everything a verifier needs
/// beyond the answer vectors themselves. Creating one is O(n); reusing
/// one across queries makes the whole verification loop allocation-free
/// in steady state. The peel's bits are cleared by each peel; `basic`'s
/// profile masks are invalidated per query by an epoch, never re-zeroed.
#[derive(Debug)]
pub struct QueryScratch {
    /// The localized k-core peel engine (one bit per vertex).
    core: SubsetCore,
    /// Per-vertex projection of `T(v)` onto the current query space.
    masks: Vec<Option<Subtree>>,
    /// `masks[v]` is valid iff `mask_epoch[v] == epoch`.
    mask_epoch: Vec<u32>,
    epoch: u32,
    /// Filtered candidate seed for the localized peel.
    pub(crate) seed: Vec<VertexId>,
    /// Word buffer for ANDing label-ĉore bitsets.
    pub(crate) words_buf: Vec<u64>,
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
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.mask_epoch.iter_mut().for_each(|e| *e = 0);
                1
            }
        };
    }
}

/// What both verifiers share for one query `(q, k)`: the subtree
/// interner, the verdict memo, `Gk`, the effort counters and the
/// borrowed scratch. The algorithms run entirely in [`SubtreeId`] space;
/// [`crate::basic::assemble`] turns the core back into an outcome.
pub(crate) struct VerifyCore<'a> {
    pub(crate) ctx: &'a QueryContext<'a>,
    pub(crate) space: &'a QuerySpace,
    pub(crate) q: VertexId,
    pub(crate) k: u32,
    pub(crate) interner: SubtreeInterner<'a>,
    /// Memo table indexed by [`SubtreeId`]; `None` = not verified yet.
    memo: Vec<Option<Community>>,
    pub(crate) scratch: &'a mut QueryScratch,
    /// `Gk`: the global k-ĉore containing `q` (feasibility of the
    /// root-only candidate — and of the empty tree).
    pub(crate) gk: Community,
    pub(crate) stats: QueryStats,
}

impl<'a> VerifyCore<'a> {
    /// Readies `scratch` for the query, whose `Gk` the caller found.
    pub(crate) fn new(
        ctx: &'a QueryContext<'a>,
        space: &'a QuerySpace,
        q: VertexId,
        k: u32,
        scratch: &'a mut QueryScratch,
        gk: Community,
    ) -> Self {
        scratch.begin(ctx.graph.num_vertices());
        let stats = QueryStats { query_tree_size: space.len() as u32, ..Default::default() };
        VerifyCore {
            ctx,
            space,
            q,
            k,
            interner: SubtreeInterner::new(space),
            memo: Vec::new(),
            scratch,
            gk,
            stats,
        }
    }

    /// The answer for `id` that needs no verification, if there is one:
    /// `Gk` for the empty and root-only trees (they constrain nothing —
    /// every vertex contains the taxonomy root), else a memo hit.
    pub(crate) fn known(&mut self, id: SubtreeId) -> Option<Community> {
        if self.interner.count(id) <= 1 {
            return Some(self.gk.clone());
        }
        let hit = self.memo_get(id);
        if hit.is_some() {
            self.stats.memo_hits += 1;
        }
        hit
    }

    /// Memoizes a fresh verification of `id` (asked about through
    /// [`VerifyCore::known`] first) and counts it if feasible.
    pub(crate) fn record(&mut self, id: SubtreeId, result: Community) -> Community {
        if result.is_some() {
            self.stats.feasible += 1;
        }
        self.memo_set(id, result.clone());
        result
    }

    /// Memoizes `community` for `id` — proven without a verification —
    /// unless the memo already holds an answer.
    pub(crate) fn remember(&mut self, id: SubtreeId, community: &Arc<Vec<VertexId>>) {
        if self.memo_get(id).is_none() {
            self.memo_set(id, Some(Arc::clone(community)));
        }
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

    /// Localized peel over the candidates currently in `scratch.seed`.
    pub(crate) fn peel(&mut self) -> Community {
        self.stats.verifications += 1;
        self.stats.peel_candidates += self.scratch.seed.len() as u64;
        let QueryScratch { core, seed, .. } = &mut *self.scratch;
        core.kcore_component_within(self.ctx.graph, seed, self.q, self.k).map(shared)
    }

    /// Count generated candidates (enumeration bookkeeping).
    pub(crate) fn note_generated(&mut self, n: u64) {
        self.stats.subtrees_generated += n;
    }
}

/// Algorithm 1's verifier — what `basic` runs, with no index at all:
/// candidates = `Gk` (the global k-ĉore of `q`) filtered by lazy
/// per-vertex profile masks, the paper's "compute `Gk[T]` from `Gk`".
/// It reads the profiles and the core decomposition, nothing else.
pub struct Verifier<'a> {
    pub(crate) core: VerifyCore<'a>,
    /// Scratch for `is_maximal_feasible_id`'s child scan.
    children_buf: Vec<u32>,
}

impl<'a> Verifier<'a> {
    /// Creates the oracle for `(q, k)` on `scratch` (pooled by an
    /// engine, or fresh) and computes `Gk` once, by BFS over the core
    /// decomposition.
    pub fn new(
        ctx: &'a QueryContext<'a>,
        space: &'a QuerySpace,
        q: VertexId,
        k: u32,
        scratch: &'a mut QueryScratch,
    ) -> Self {
        let gk = ctx.cores.kcore_component(ctx.graph, q, k).map(shared);
        Verifier { core: VerifyCore::new(ctx, space, q, k, scratch, gk), children_buf: Vec::new() }
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

    /// `Gk[T]`, memoized per [`SubtreeId`]: the members of `Gk` whose
    /// profile masks contain `id`, peeled.
    pub fn verify_id(&mut self, id: SubtreeId) -> Community {
        if let Some(known) = self.core.known(id) {
            return known;
        }
        let result = match self.core.gk.clone() {
            Some(gk) => {
                self.core.stats.seed_scanned += gk.len() as u64;
                let VerifyCore { ctx, space, interner, scratch, .. } = &mut self.core;
                scratch.seed.clear();
                for &v in gk.iter() {
                    if ensure_mask(scratch, ctx, space, v)
                        .is_some_and(|mask| interner.is_subset_of_words(id, mask.words()))
                    {
                        scratch.seed.push(v);
                    }
                }
                self.core.peel()
            }
            None => None,
        };
        self.core.record(id, result)
    }

    /// True when `id` is feasible and every lattice child is infeasible
    /// — the paper's "T′ is maximal" check. `basic`'s enumeration asks
    /// about each subtree once, so the verdict is not memoized.
    pub(crate) fn is_maximal_feasible_id(&mut self, id: SubtreeId) -> bool {
        if self.verify_id(id).is_none() {
            return false;
        }
        let mut children = std::mem::take(&mut self.children_buf);
        self.core.interner.lattice_children_into(id, &mut children);
        let mut maximal = true;
        for &p in &children {
            self.core.stats.subtrees_generated += 1;
            let child = self.core.interner.with(id, p);
            if self.verify_id(child).is_some() {
                maximal = false;
                break;
            }
        }
        self.children_buf = children;
        maximal
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexed::IndexVerifier;
    use crate::testkit::{figure1, Probe};
    use pcs_graph::Graph;
    use pcs_index::ShardedCpIndex;
    use pcs_ptree::PTree;

    /// `basic`'s verifier without an index, the index-backed one with.
    fn verifier<'a>(
        ctx: &'a QueryContext<'a>,
        index: Option<&'a ShardedCpIndex>,
        space: &'a QuerySpace,
        q: VertexId,
        k: u32,
        scratch: &'a mut QueryScratch,
    ) -> Box<dyn Probe + 'a> {
        match index {
            Some(index) => Box::new(IndexVerifier::new(ctx, index, space, q, k, scratch)),
            None => Box::new(Verifier::new(ctx, space, q, k, scratch)),
        }
    }

    #[test]
    fn verifier_matches_bruteforce_with_and_without_index() {
        let (g, t, profiles) = figure1();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        for index in [None, Some(&index)] {
            let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
            let ctx = if let Some(index) = index { ctx.with_index(index) } else { ctx };
            for q in [3u32, 0, 5] {
                for k in 1..=3u32 {
                    let space = ctx.space_for(q).unwrap();
                    let mut scratch = QueryScratch::new(g.num_vertices());
                    let mut ver = verifier(&ctx, index, &space, q, k, &mut scratch);
                    // Brute force every valid candidate.
                    let all = pcs_ptree::enumerate::enumerate_rooted_subtrees(&space);
                    for s in &all {
                        let expect = brute_gk(&g, &profiles, &space, s, q, k);
                        let got = ver.verify(s).map(|c| c.to_vec());
                        assert_eq!(got, expect, "index={} q={q} k={k}", index.is_some());
                        // Second call hits the memo and agrees.
                        let again = ver.verify(s).map(|c| c.to_vec());
                        assert_eq!(again, expect);
                    }
                }
            }
        }
    }

    /// Pooled scratch answers exactly like fresh scratch across a
    /// sequence of different queries (mask epochs and the peel's
    /// cleared bits must isolate them), for both verifiers.
    #[test]
    fn scratch_reuse_is_transparent() {
        let (g, t, profiles) = figure1();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&index);
        let mut pooled_scratch = QueryScratch::new(g.num_vertices());
        for index in [None, Some(&index)] {
            for q in 0..8u32 {
                for k in 1..=3u32 {
                    let space = ctx.space_for(q).unwrap();
                    let mut pooled = verifier(&ctx, index, &space, q, k, &mut pooled_scratch);
                    let mut fresh_scratch = QueryScratch::new(g.num_vertices());
                    let mut fresh = verifier(&ctx, index, &space, q, k, &mut fresh_scratch);
                    for s in pcs_ptree::enumerate::enumerate_rooted_subtrees(&space) {
                        assert_eq!(
                            pooled.verify(&s).map(|c| c.to_vec()),
                            fresh.verify(&s).map(|c| c.to_vec()),
                            "q={q} k={k}"
                        );
                    }
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
    fn maximality_check() {
        let (g, t, profiles) = figure1();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        let q = 3u32;
        let space = ctx.space_for(q).unwrap();
        let mut scratch = QueryScratch::new(g.num_vertices());
        let mut ver = Verifier::new(&ctx, &space, q, 2, &mut scratch);
        // Fig. 2(b): {B,C,D} share r->CM->{ML,AI}; that candidate is
        // feasible and maximal at k=2.
        let cm = space.position_of(t.id_of("CM").unwrap()).unwrap();
        let ml = space.position_of(t.id_of("ML").unwrap()).unwrap();
        let ai = space.position_of(t.id_of("AI").unwrap()).unwrap();
        let cand = ver.ids_mut().intern(&space.closure([cm, ml, ai]));
        assert!(ver.is_maximal_feasible_id(cand));
        assert_eq!(
            ver.verify_id(cand).unwrap().as_ref(),
            &vec![1, 2, 3] // B, C, D
        );
        // The root-only candidate is feasible but NOT maximal.
        let root = ver.ids_mut().root_only();
        assert!(ver.verify_id(root).is_some());
        assert!(!ver.is_maximal_feasible_id(root));
    }

    #[test]
    fn infeasible_when_gk_missing() {
        let (g, t, profiles) = figure1();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        let space = ctx.space_for(2).unwrap();
        // Vertex C has core 2; k=3 leaves no Gk.
        let mut scratch = QueryScratch::new(g.num_vertices());
        let mut ver = Verifier::new(&ctx, &space, 2, 3, &mut scratch);
        assert!(ver.gk().is_none());
        assert!(ver.verify(&space.root_only()).is_none());
        assert!(ver.verify(&space.full()).is_none());
    }

    #[test]
    fn stats_accumulate() {
        let (g, t, profiles) = figure1();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        let space = ctx.space_for(3).unwrap();
        let mut scratch = QueryScratch::new(g.num_vertices());
        let mut ver = Verifier::new(&ctx, &space, 3, 2, &mut scratch);
        let full = space.full();
        let _ = ver.verify(&full);
        let _ = ver.verify(&full);
        assert_eq!(ver.core.stats.verifications, 1);
        assert_eq!(ver.core.stats.memo_hits, 1);
        ver.core.note_generated(3);
        assert_eq!(ver.core.stats.subtrees_generated, 3);
        assert_eq!(ver.core.stats.query_tree_size, space.len() as u32);
    }
}

//! Algorithms 4–8 — the `advanced` methods.
//!
//! Instead of sweeping the subtree lattice bottom-up, the advanced
//! methods adapt MARGIN (Thomas et al., maximal frequent subgraph
//! mining) to PCS: find one **initial cut** — a pair `(IF, F)` where
//! `F` is feasible and `IF = F + one node` is not — then walk the
//! feasible/infeasible boundary with `expandPtree` (Algorithm 4),
//! recording every feasible subtree that proves maximal. Because
//! maximal feasible subtrees lie *on* the boundary (Table 3 shows they
//! cluster in the middle of the lattice), only a small fraction of the
//! search space is ever verified.
//!
//! Three seeding strategies match the paper's `find-I` (Algorithm 5),
//! `find-D` (Algorithm 6), and `find-P` (Algorithm 7).
//!
//! The entire walk runs in [`SubtreeId`] space: queue entries, the
//! seen-set, and the visited-set are flat id-keyed structures
//! ([`SubtreeIdSet`]), and ±one-node lattice moves come from the
//! interner's memoized id tables — no `Subtree` clone or hash happens
//! anywhere inside a query.

use std::collections::VecDeque;
use std::sync::Arc;

use pcs_graph::VertexId;
use pcs_index::ShardedCpIndex;
use pcs_ptree::{SubtreeId, SubtreeIdSet};

use crate::indexed::IndexVerifier;
use crate::problem::{PcsOutcome, QueryContext};
use crate::verify::QueryScratch;
use crate::Result;

/// How the advanced method finds its initial cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[expect(clippy::exhaustive_enums, reason = "the paper's three find procedures")]
pub enum FindStrategy {
    /// `find-I`: bottom-up enumeration until the first maximal feasible
    /// subtree (Algorithm 5).
    Incremental,
    /// `find-D`: top-down leaf removal from `T(q)` until a feasible
    /// subtree appears (Algorithm 6).
    Decremental,
    /// `find-P`: probe whole root-to-leaf paths through the CP-tree,
    /// then binary-walk one path to the boundary (Algorithm 7).
    Path,
}

impl FindStrategy {
    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            FindStrategy::Incremental => "find-I",
            FindStrategy::Decremental => "find-D",
            FindStrategy::Path => "find-P",
        }
    }

    /// All strategies in the paper's order.
    pub const ALL: [FindStrategy; 3] =
        [FindStrategy::Incremental, FindStrategy::Decremental, FindStrategy::Path];
}

/// An initial cut: `feasible` is a feasible subtree; `infeasible`, when
/// present, is `feasible` plus exactly one node and is infeasible.
/// `infeasible == None` encodes the degenerate case `F = T(q)` (the
/// whole query tree is feasible, so it is the unique maximal subtree).
/// Both sides are ids into the query's interner ([`IndexVerifier::ids`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cut {
    /// The infeasible upper side of the cut, if any.
    pub infeasible: Option<SubtreeId>,
    /// The feasible lower side.
    pub feasible: SubtreeId,
}

/// Runs the advanced method (Algorithm 8) for `(q, k)` against `ctx`'s
/// `index` on `scratch`.
pub(crate) fn query_scratch(
    ctx: &QueryContext<'_>,
    index: &ShardedCpIndex,
    q: VertexId,
    k: u32,
    strategy: FindStrategy,
    scratch: &mut QueryScratch,
) -> Result<PcsOutcome> {
    let space = ctx.space_for(q)?;
    Ok(run(IndexVerifier::new(ctx, index, &space, q, k, scratch), strategy))
}

fn run(mut ver: IndexVerifier<'_>, strategy: FindStrategy) -> PcsOutcome {
    let mut results: Vec<(SubtreeId, Arc<Vec<VertexId>>)> = Vec::new();
    if ver.gk().is_some() {
        let cut = find_cut(&mut ver, strategy);
        expand_ptree(&mut ver, cut, &mut results);
    }
    crate::basic::assemble(results, ver.core)
}

/// Dispatches to the chosen `find` function. The caller guarantees
/// `Gk ≠ ∅` (so the root-only subtree is feasible and a cut exists).
pub fn find_cut(ver: &mut IndexVerifier<'_>, strategy: FindStrategy) -> Cut {
    match strategy {
        FindStrategy::Incremental => find_i(ver),
        FindStrategy::Decremental => find_d(ver),
        FindStrategy::Path => find_p(ver),
    }
}

/// Algorithm 5 (`find-I`): run the `incre` enumeration until the first
/// maximal feasible subtree, and pair it with one infeasible child.
fn find_i(ver: &mut IndexVerifier<'_>) -> Cut {
    let root = ver.ids_mut().root_only();
    let Some(gk) = ver.gk() else {
        // Callers guarantee Gk ≠ ∅; degrade to the trivially feasible
        // root-only subtree rather than panic.
        debug_assert!(false, "find functions require Gk");
        return Cut { infeasible: None, feasible: root };
    };
    let mut stack: Vec<(SubtreeId, Arc<Vec<VertexId>>)> = vec![(root, gk)];
    ver.core.note_generated(1);
    let mut ext: Vec<u32> = Vec::new();
    while let Some((t_prime, community)) = stack.pop() {
        let mut flag = true;
        let mut last_infeasible: Option<SubtreeId> = None;
        ver.ids().rightmost_extensions_into(t_prime, &mut ext);
        ver.core.note_generated(ext.len() as u64);
        for &pos in &ext {
            let t = ver.ids_mut().with(t_prime, pos);
            match ver.verify_from_base_id(t, &community, pos) {
                Some(sub) => {
                    flag = false;
                    stack.push((t, sub));
                }
                None => last_infeasible = Some(t),
            }
        }
        if flag && ver.is_maximal_feasible_id(t_prime) {
            // Any lattice child works as IF (they are all infeasible by
            // maximality); prefer one we already verified.
            let infeasible = match last_infeasible {
                Some(inf) => Some(inf),
                None => {
                    ver.ids().lattice_children_into(t_prime, &mut ext);
                    ext.first().copied().map(|p| ver.ids_mut().with(t_prime, p))
                }
            };
            return Cut { infeasible, feasible: t_prime };
        }
    }
    // The enumeration reaches the full tree via feasible prefixes only
    // when T(q) itself is feasible; in that case the loop above returned
    // at the full tree (no extensions ⇒ flag stays true, and the full
    // tree is trivially maximal). Reaching this point means every
    // branch died infeasible *after* a feasible prefix whose maximality
    // check failed — impossible, because a failed maximality check
    // implies a feasible child, which the rightmost enumeration visits.
    // Degrade to the root-only cut rather than panic.
    debug_assert!(false, "find-I always locates a maximal feasible subtree when Gk exists");
    Cut { infeasible: None, feasible: root }
}

/// Algorithm 6 (`find-D`): descend from `T(q)`, removing one leaf at a
/// time, until a feasible subtree appears.
fn find_d(ver: &mut IndexVerifier<'_>) -> Cut {
    let full = ver.ids_mut().full();
    ver.core.note_generated(1);
    if ver.verify_id(full).is_some() {
        return Cut { infeasible: None, feasible: full };
    }
    let mut stack: Vec<SubtreeId> = vec![full];
    let mut visited = SubtreeIdSet::new();
    let mut parents: Vec<u32> = Vec::new();
    while let Some(t) = stack.pop() {
        ver.ids().lattice_parents_into(t, &mut parents);
        for &leaf in &parents {
            let smaller = ver.ids_mut().without(t, leaf);
            ver.core.note_generated(1);
            if ver.verify_id(smaller).is_some() {
                return Cut { infeasible: Some(t), feasible: smaller };
            }
            if visited.insert(smaller) {
                stack.push(smaller);
            }
        }
    }
    // The descent always bottoms out at the root-only subtree, which is
    // feasible when Gk exists — so the loop above must have returned.
    debug_assert!(false, "the root-only subtree is feasible when Gk exists");
    let root = ver.ids_mut().root_only();
    Cut { infeasible: None, feasible: root }
}

/// Algorithm 7 (`find-P`): verify whole root-to-leaf paths — for a path
/// `P` ending at leaf `t`, `Gk[P] = I.get(k, q, t)` — then grow a
/// feasible union of paths and walk the first failing path down to the
/// boundary.
fn find_p(ver: &mut IndexVerifier<'_>) -> Cut {
    let space = ver.core.space;
    // S starts as the leaf positions of T(q); while no single path is
    // feasible, lift S to the parents (lines 12-14 of Algorithm 7).
    let full = ver.ids_mut().full();
    let mut s: Vec<u32> = Vec::new();
    ver.ids().leaves_into(full, &mut s);
    let mut f = 'seed: loop {
        for &t in &s {
            let path = ver.ids_mut().intern(&space.path_to(t));
            ver.core.note_generated(1);
            if ver.verify_id(path).is_some() {
                break 'seed path;
            }
        }
        // Lift to parents (dedup, drop the root's self-parent loop).
        let mut parents: Vec<u32> = s.iter().map(|&t| space.parent_of(t)).collect();
        parents.sort_unstable();
        parents.dedup();
        if parents == [0] {
            // Only the root path remains; it is feasible since Gk ≠ ∅.
            break 'seed ver.ids_mut().root_only();
        }
        s = parents;
    };

    // Lines 4-11: extend F by each remaining path; on the first failure
    // walk that path from F downward to locate the exact boundary.
    for &t in &s {
        let path = ver.ids_mut().intern(&space.path_to(t));
        let target = ver.ids_mut().union(f, path);
        if target == f {
            continue;
        }
        ver.core.note_generated(1);
        if ver.verify_id(target).is_some() {
            f = target;
            continue;
        }
        // The path nodes missing from F, in root-to-leaf (ascending
        // preorder) order; adding them one by one keeps closure.
        let missing: Vec<u32> =
            ver.ids().positions(path).filter(|&p| !ver.ids().contains(f, p)).collect();
        let mut cur = f;
        let mut boundary: Option<Cut> = None;
        for p in missing {
            let cand = ver.ids_mut().with(cur, p);
            ver.core.note_generated(1);
            if ver.verify_id(cand).is_some() {
                cur = cand;
            } else {
                boundary = Some(Cut { infeasible: Some(cand), feasible: cur });
                break;
            }
        }
        if let Some(cut) = boundary {
            return cut;
        }
        // Adding every missing node reassembles `target`, which was
        // infeasible — some step must have failed. If the memo somehow
        // disagrees, keep the feasible `cur` and move on.
        debug_assert!(false, "target was infeasible, so some step must fail");
        f = cur;
    }

    // Every probed path fit into F. Climb greedily until F is maximal
    // or an infeasible child provides the cut (completion of the
    // abstract's elided "complete subtrees IF, F" step).
    let mut children: Vec<u32> = Vec::new();
    loop {
        ver.ids().lattice_children_into(f, &mut children);
        if children.is_empty() {
            return Cut { infeasible: None, feasible: f };
        }
        let mut grew = false;
        let mut first_infeasible = None;
        for &p in &children {
            let cand = ver.ids_mut().with(f, p);
            ver.core.note_generated(1);
            if ver.verify_id(cand).is_some() {
                f = cand;
                grew = true;
                break;
            } else if first_infeasible.is_none() {
                first_infeasible = Some(cand);
            }
        }
        if !grew {
            // With children nonempty and none feasible, the scan always
            // recorded a first infeasible child.
            debug_assert!(first_infeasible.is_some(), "children nonempty");
            return Cut { infeasible: first_infeasible, feasible: f };
        }
    }
}

/// Algorithm 4 (`expandPtree`): walk the feasible/infeasible boundary
/// from the initial cut, recording every maximal feasible subtree into
/// `results`.
///
/// The queue holds the infeasible side of each cut only: Algorithm 4
/// never reads the feasible side of a dequeued pair, so deduplicating
/// by `IF` alone (a flat [`SubtreeIdSet`]) visits every boundary
/// neighbourhood exactly once while provably recording the same result
/// set as pair-keyed dedup.
pub fn expand_ptree(
    ver: &mut IndexVerifier<'_>,
    cut: Cut,
    results: &mut Vec<(SubtreeId, Arc<Vec<VertexId>>)>,
) {
    // Line 2: IF = ∅ with F ≠ ∅ means F = T(q) is feasible — it is the
    // unique maximal subtree.
    let Some(if0) = cut.infeasible else {
        if let Some(community) = ver.verify_id(cut.feasible) {
            results.push((cut.feasible, community));
        } else {
            debug_assert!(false, "cut.feasible is feasible");
        }
        return;
    };
    let mut recorded = SubtreeIdSet::new();
    // Record the seed F when maximal (it lies on the boundary too;
    // maximal implies feasible, so the verify always succeeds).
    if ver.is_maximal_feasible_id(cut.feasible) {
        if let Some(community) = ver.verify_id(cut.feasible) {
            recorded.insert(cut.feasible);
            results.push((cut.feasible, community));
        }
    }

    let mut queue: VecDeque<SubtreeId> = VecDeque::new();
    let mut seen = SubtreeIdSet::new();
    // Infeasible Yi whose boundary-membership scan already ran (the
    // scan is a pure function of Yi, so one pass settles it).
    let mut checked = SubtreeIdSet::new();
    seen.insert(if0);
    queue.push_back(if0);

    let mut parents: Vec<u32> = Vec::new();
    let mut children: Vec<u32> = Vec::new();
    let mut parents2: Vec<u32> = Vec::new();
    while let Some(inf) = queue.pop_front() {
        // Lines 7-17: examine every parent Yi of IF.
        ver.ids().lattice_parents_into(inf, &mut parents);
        for &leaf in &parents {
            let yi = ver.ids_mut().without(inf, leaf);
            if let Some(yi_community) = ver.verify_id(yi) {
                if ver.is_maximal_feasible_id(yi) && recorded.insert(yi) {
                    results.push((yi, Arc::clone(&yi_community)));
                }
                ver.ids().lattice_children_into(yi, &mut children);
                for &pos in &children {
                    let k_sub = ver.ids_mut().with(yi, pos);
                    ver.core.note_generated(1);
                    // Lemma-3 narrowing: K = Yi + one node, and Yi's
                    // community is in hand — candidates shrink to
                    // `Gk[Yi] ∩ I.get(k, q, t)`.
                    if ver.verify_from_base_id(k_sub, &yi_community, pos).is_none() {
                        // New cut (K, Yi).
                        if seen.insert(k_sub) {
                            queue.push_back(k_sub);
                        }
                    } else {
                        // Common child of K and IF (Upper-◇-Property):
                        // C = K ∪ IF differs from K by exactly the node
                        // IF \ Yi and is infeasible because C ⊇ IF.
                        let c = ver.ids_mut().union(k_sub, inf);
                        if c != k_sub && seen.insert(c) {
                            queue.push_back(c);
                        }
                    }
                }
            } else if checked.insert(yi) {
                // Yi infeasible: it is a boundary cut iff some lattice
                // parent of Yi is feasible. One scan settles Yi forever.
                ver.ids().lattice_parents_into(yi, &mut parents2);
                for &leaf2 in &parents2 {
                    let k_sub = ver.ids_mut().without(yi, leaf2);
                    ver.core.note_generated(1);
                    if ver.verify_id(k_sub).is_some() {
                        if seen.insert(yi) {
                            queue.push_back(yi);
                        }
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Algorithm;
    use crate::testkit::figure1;
    use pcs_graph::Graph;
    use pcs_ptree::{PTree, Taxonomy};

    #[test]
    fn strategies_have_names() {
        assert_eq!(FindStrategy::Incremental.name(), "find-I");
        assert_eq!(FindStrategy::Decremental.name(), "find-D");
        assert_eq!(FindStrategy::Path.name(), "find-P");
        assert_eq!(FindStrategy::ALL.len(), 3);
    }

    #[test]
    fn all_advanced_variants_match_basic() {
        let (g, t, profiles) = figure1();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let plain = QueryContext::new(&g, &t, &profiles).unwrap();
        let indexed = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&index);
        for q in 0..8u32 {
            for k in 0..=3u32 {
                let expect = plain.query(q, k, Algorithm::Basic).unwrap().communities;
                for algo in [Algorithm::AdvI, Algorithm::AdvD, Algorithm::AdvP] {
                    let got = indexed.query(q, k, algo).unwrap().communities;
                    assert_eq!(expect, got, "q={q} k={k} algo={}", algo.name());
                }
            }
        }
    }

    #[test]
    fn cuts_are_well_formed() {
        let (g, t, profiles) = figure1();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&index);
        for q in 0..8u32 {
            for k in 1..=3u32 {
                let space = ctx.space_for(q).unwrap();
                for strategy in FindStrategy::ALL {
                    let mut scratch = QueryScratch::new(g.num_vertices());
                    let mut ver = IndexVerifier::new(&ctx, &index, &space, q, k, &mut scratch);
                    if ver.gk().is_none() {
                        continue;
                    }
                    let cut = find_cut(&mut ver, strategy);
                    assert!(
                        ver.verify_id(cut.feasible).is_some(),
                        "q={q} k={k} {strategy:?}: F must be feasible"
                    );
                    match cut.infeasible {
                        None => assert_eq!(ver.ids().subtree(cut.feasible), space.full()),
                        Some(inf) => {
                            assert!(ver.verify_id(inf).is_none(), "IF must be infeasible");
                            assert_eq!(ver.ids().count(inf), ver.ids().count(cut.feasible) + 1);
                            assert!(ver.ids().is_subset(cut.feasible, inf));
                            assert!(space.is_valid(&ver.ids().subtree(inf)));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn full_tree_feasible_short_circuits() {
        // A clique where everyone shares an identical deep P-tree: the
        // full T(q) is feasible and all strategies return IF = None.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let mut t = Taxonomy::new("r");
        let a = t.add_child(0, "a").unwrap();
        let b = t.add_child(a, "b").unwrap();
        let profiles: Vec<PTree> = (0..4).map(|_| PTree::from_labels(&t, [b]).unwrap()).collect();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&index);
        let space = ctx.space_for(0).unwrap();
        for strategy in FindStrategy::ALL {
            let mut scratch = QueryScratch::new(g.num_vertices());
            let mut ver = IndexVerifier::new(&ctx, &index, &space, 0, 3, &mut scratch);
            let cut = find_cut(&mut ver, strategy);
            assert_eq!(cut.infeasible, None, "{strategy:?}");
            assert_eq!(ver.ids().subtree(cut.feasible), space.full());
        }
        let out = ctx.query(0, 3, Algorithm::AdvP).unwrap();
        assert_eq!(out.communities.len(), 1);
        assert_eq!(out.communities[0].vertices, vec![0, 1, 2, 3]);
        assert_eq!(out.communities[0].subtree.len(), 3);
    }

    #[test]
    fn advanced_examines_fewer_candidates_than_basic_on_middle_heavy_space() {
        // A larger instance where the maximal subtrees sit mid-lattice:
        // advanced should verify fewer candidates than basic generates.
        let (g, t, profiles) = figure1();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let plain = QueryContext::new(&g, &t, &profiles).unwrap();
        let indexed = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&index);
        let b = plain.query(3, 2, Algorithm::Basic).unwrap();
        let a = indexed.query(3, 2, Algorithm::AdvP).unwrap();
        assert_eq!(a.communities, b.communities);
        // Not a strict guarantee on tiny instances, but stats must at
        // least be tracked for both.
        assert!(a.stats.verifications > 0 && b.stats.verifications > 0);
    }
}

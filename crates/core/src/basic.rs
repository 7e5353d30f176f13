//! Algorithm 1 — the `basic` query.
//!
//! Bottom-up enumeration of the subtrees of `T(q)` by rightmost-path
//! extension, pruned by anti-monotonicity (Lemma 2: once a candidate is
//! infeasible, nothing above it can be feasible). Each verification
//! recomputes `Gk[T]` from the global k-ĉore `Gk` with the index-free
//! [`Verifier`] — `basic` cannot reach an index. Worst case
//! `O(2^{|T(q)|} · m)` as analyzed in the paper.
//!
//! The enumeration runs in [`SubtreeId`] space: the stack, the memo,
//! and the result set are all id-keyed, so no `Subtree` is cloned or
//! hashed inside the loop.

use std::sync::Arc;

use pcs_graph::VertexId;
use pcs_ptree::SubtreeId;

use crate::problem::{PcsOutcome, ProfiledCommunity, QueryContext};
use crate::verify::{QueryScratch, Verifier, VerifyCore};
use crate::Result;

/// Runs Algorithm 1 for `(q, k)` on `scratch`.
pub(crate) fn query_scratch(
    ctx: &QueryContext<'_>,
    q: VertexId,
    k: u32,
    scratch: &mut QueryScratch,
) -> Result<PcsOutcome> {
    let space = ctx.space_for(q)?;
    Ok(run(Verifier::new(ctx, &space, q, k, scratch)))
}

fn run(mut ver: Verifier<'_>) -> PcsOutcome {
    let mut results: Vec<(SubtreeId, Arc<Vec<VertexId>>)> = Vec::new();

    // Line 3-4: compute Gk; nothing to do if it is empty.
    if ver.gk().is_some() {
        // Line 5: Ψ ← generateSubtree(∅, T(q)) = the root-only subtree
        // (feasible because every P-tree contains the taxonomy root).
        let root = ver.ids_mut().root_only();
        let mut stack: Vec<SubtreeId> = vec![root];
        ver.core.note_generated(1);
        let mut ext: Vec<u32> = Vec::new();
        // Lines 6-13.
        while let Some(t_prime) = stack.pop() {
            let mut flag = true;
            ver.ids().rightmost_extensions_into(t_prime, &mut ext);
            ver.core.note_generated(ext.len() as u64);
            for &pos in &ext {
                let t = ver.ids_mut().with(t_prime, pos);
                if ver.verify_id(t).is_some() {
                    flag = false;
                    stack.push(t);
                }
            }
            if flag && ver.is_maximal_feasible_id(t_prime) {
                // Maximal implies feasible, so the verify (a memo hit)
                // always yields a community. Rightmost enumeration
                // generates each subtree exactly once — no dedup needed.
                if let Some(community) = ver.verify_id(t_prime) {
                    results.push((t_prime, community));
                }
            }
        }
    }
    assemble(results, ver.core)
}

/// Turns the list of maximal feasible subtrees into a sorted outcome.
/// Shared by all algorithms; the only place interned ids are
/// materialized back into owned [`pcs_ptree::PTree`]s.
pub(crate) fn assemble(
    results: Vec<(SubtreeId, Arc<Vec<VertexId>>)>,
    core: VerifyCore<'_>,
) -> PcsOutcome {
    let mut communities: Vec<ProfiledCommunity> = results
        .into_iter()
        .map(|(id, vs)| ProfiledCommunity {
            subtree: core.space.to_ptree(&core.interner.subtree(id)),
            vertices: vs.to_vec(),
        })
        .collect();
    communities.sort_by(|a, b| a.subtree.cmp(&b.subtree));
    // Maximal feasible subtrees are pairwise incomparable, which is
    // exactly the paper's profile-cohesiveness property.
    debug_assert!(communities.iter().all(|a| {
        communities
            .iter()
            .filter(|b| a.subtree != b.subtree)
            .all(|b| !a.subtree.is_subtree_of(&b.subtree))
    }));
    PcsOutcome { communities, stats: core.stats }
}

#[cfg(test)]
mod tests {
    use crate::problem::{Algorithm, QueryContext};
    use crate::testkit::figure1;
    use pcs_ptree::PTree;

    #[test]
    fn paper_example_two_pcs_of_d() {
        // Fig. 2: query D (=3), k=2 yields {B,C,D} with theme
        // r->CM->{ML,AI} and {A,D,E} with theme r->{IS->DMS, HW}.
        let (g, t, profiles) = figure1();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        let out = ctx.query(3, 2, Algorithm::Basic).unwrap();
        let mut sets: Vec<Vec<u32>> = out.communities.iter().map(|c| c.vertices.clone()).collect();
        sets.sort();
        assert!(sets.contains(&vec![1, 2, 3]), "expected {{B,C,D}}, got {sets:?}");
        assert!(sets.contains(&vec![0, 3, 4]), "expected {{A,D,E}}, got {sets:?}");
        // Theme subtrees match Fig. 2(b)/(c).
        for c in &out.communities {
            if c.vertices == vec![1, 2, 3] {
                let expect =
                    PTree::from_labels(&t, [t.id_of("ML").unwrap(), t.id_of("AI").unwrap()])
                        .unwrap();
                assert_eq!(c.subtree, expect);
            }
            if c.vertices == vec![0, 3, 4] {
                let expect =
                    PTree::from_labels(&t, [t.id_of("DMS").unwrap(), t.id_of("HW").unwrap()])
                        .unwrap();
                assert_eq!(c.subtree, expect);
            }
        }
    }

    #[test]
    fn every_community_satisfies_problem_1() {
        let (g, t, profiles) = figure1();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        for q in 0..8u32 {
            for k in 0..=3u32 {
                let out = ctx.query(q, k, Algorithm::Basic).unwrap();
                for c in &out.communities {
                    // Connectivity + membership.
                    assert!(c.vertices.binary_search(&q).is_ok());
                    assert!(pcs_graph::components::is_connected_subset(&g, &c.vertices));
                    // Structure cohesiveness.
                    for &v in &c.vertices {
                        let deg = g
                            .neighbors(v)
                            .iter()
                            .filter(|u| c.vertices.binary_search(u).is_ok())
                            .count();
                        assert!(deg >= k as usize, "q={q} k={k} v={v} deg={deg}");
                    }
                    // Reported subtree = actual maximal common subtree.
                    let m = PTree::intersect_all(c.vertices.iter().map(|&v| &profiles[v as usize]))
                        .unwrap();
                    assert_eq!(m, c.subtree, "q={q} k={k}");
                }
                // Profile cohesiveness: themes pairwise incomparable.
                for a in &out.communities {
                    for b in &out.communities {
                        if a.subtree != b.subtree {
                            assert!(!a.subtree.is_subtree_of(&b.subtree));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn no_gk_means_no_community() {
        let (g, t, profiles) = figure1();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        let out = ctx.query(2, 3, Algorithm::Basic).unwrap(); // C has core 2
        assert!(out.communities.is_empty());
        let out = ctx.query(0, 9, Algorithm::Basic).unwrap();
        assert!(out.communities.is_empty());
    }

    #[test]
    fn k_zero_returns_components_with_themes() {
        let (g, t, profiles) = figure1();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        let out = ctx.query(6, 0, Algorithm::Basic).unwrap();
        assert!(!out.communities.is_empty());
        for c in &out.communities {
            assert!(c.vertices.contains(&6));
        }
    }

    #[test]
    fn stats_are_populated() {
        let (g, t, profiles) = figure1();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        let out = ctx.query(3, 2, Algorithm::Basic).unwrap();
        assert!(out.stats.subtrees_generated > 0);
        assert!(out.stats.verifications > 0);
        assert!(out.stats.feasible > 0);
        assert_eq!(out.stats.query_tree_size, 7);
        assert_eq!(out.subtree_sizes().len(), out.communities.len());
    }
}

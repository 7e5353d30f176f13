//! The closed-subtree search — what [`Algorithm::Auto`] runs when an
//! index exists.
//!
//! The lattice of feasible subtrees is large, the set of *distinct
//! communities* behind it is small: most feasible subtrees of `T(q)`
//! share their `Gk[T]` with a neighbour. For feasible `T` with
//! community `C = Gk[T]`, the **closure** `cl(T)` is every node of
//! `T(q)` that all of `C` carries ([`IndexVerifier::close_id`]). `cl(T)` is
//! the largest subtree with community `C`, so no subtree strictly
//! between `T` and `cl(T)` can be maximal, and `Gk[cl(T)] = C` needs no
//! verification. The search therefore visits closed subtrees only:
//!
//! * start at `cl(root-only)` with community `Gk`;
//! * from a closed `t` with community `C`, narrow `C` by each lattice
//!   child's label ĉore (Lemma 3, as `incre` does) and jump straight to
//!   the closure of every feasible child, deduplicated by id;
//! * `t` is maximal — and reported — iff no child was feasible.
//!
//! Every maximal feasible subtree is closed, and every closed feasible
//! `S` is reached: for a reached closed `t ⊂ S` some lattice child
//! `p ∈ S \ t` exists, `t + p ⊆ S` is feasible by anti-monotonicity,
//! and `cl(t + p) ⊆ cl(S) = S` by monotonicity — strictly larger than
//! `t`, so the chain ends at `S`. One verification per (closed subtree,
//! lattice child) pair instead of one per feasible subtree, and no
//! separate maximality pass.
//!
//! What one query proves, later ones reuse: every community found is
//! stored with its closure in the index's community table under the
//! label sets of `T + p` and `cl(T + p)`, and a child whose label set
//! holds a stored community containing `q` takes that community and
//! closure with no verification (`IndexVerifier::closed_child`). `Gk`
//! is the root-only entry. A write keeps every entry its batch cannot
//! change: a `(key S, community C)` pair goes only when a reprofiled
//! vertex carries `S`, an added edge joins two carriers of `S` not both
//! in `C`, or a removed edge lies inside `C`. A kept pair has the same
//! carriers of `S` and the same member profiles on both sides, every
//! added edge among the carriers inside `C` and every removed one
//! outside it, so `C` is still the component and `cl(C)` its closure
//! (`CommunityTable::carry` in `pcs-index` has the proof).
//!
//! [`Algorithm::Auto`]: crate::Algorithm::Auto

use std::sync::Arc;

use pcs_graph::VertexId;
use pcs_index::ShardedCpIndex;
use pcs_ptree::{SubtreeId, SubtreeIdSet};

use crate::indexed::IndexVerifier;
use crate::problem::{PcsOutcome, QueryContext};
use crate::verify::QueryScratch;
use crate::Result;

/// Runs the closed-subtree search for `(q, k)` against `ctx`'s `index`
/// on `scratch`.
pub(crate) fn query_scratch(
    ctx: &QueryContext<'_>,
    index: &ShardedCpIndex,
    q: VertexId,
    k: u32,
    scratch: &mut QueryScratch,
) -> Result<PcsOutcome> {
    let space = ctx.space_for(q)?;
    Ok(run(IndexVerifier::new(ctx, index, &space, q, k, scratch)))
}

fn run(mut ver: IndexVerifier<'_>) -> PcsOutcome {
    let mut results: Vec<(SubtreeId, Arc<Vec<VertexId>>)> = Vec::new();

    if let Some(gk) = ver.gk() {
        let root = ver.ids_mut().root_only();
        ver.core.note_generated(1);
        let start = ver.closure(root, &gk);
        let mut seen = SubtreeIdSet::new();
        seen.insert(start);
        let mut stack: Vec<(SubtreeId, Arc<Vec<VertexId>>)> = vec![(start, gk)];
        let mut children: Vec<u32> = Vec::new();
        while let Some((t, community)) = stack.pop() {
            let mut maximal = true;
            ver.ids().lattice_children_into(t, &mut children);
            ver.core.note_generated(children.len() as u64);
            for &pos in &children {
                let child = ver.ids_mut().with(t, pos);
                if let Some((closed, sub)) = ver.closed_child(child, &community, pos) {
                    maximal = false;
                    if seen.insert(closed) {
                        stack.push((closed, sub));
                    }
                }
            }
            if maximal {
                results.push((t, community));
            }
        }
    }
    crate::basic::assemble(results, ver.core)
}

#[cfg(test)]
mod tests {
    use crate::problem::{Algorithm, QueryContext};
    use crate::testkit::figure1;
    use pcs_index::ShardedCpIndex;

    #[test]
    fn closed_equals_basic_on_paper_example() {
        let (g, t, profiles) = figure1();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let plain = QueryContext::new(&g, &t, &profiles).unwrap();
        let indexed = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&index);
        for q in 0..8u32 {
            for k in 0..=3u32 {
                let a = plain.query(q, k, Algorithm::Basic).unwrap();
                let b = indexed.query(q, k, Algorithm::Closed).unwrap();
                assert_eq!(a.communities, b.communities, "q={q} k={k}");
            }
        }
    }

    /// Fig. 2 at q = D, k = 2: one feasible step into `CM` closes to
    /// {B,C,D}'s whole theme `CM → {ML, AI}`, one into `IS` or `HW` to
    /// {A,D,E}'s `{IS → DMS, HW}`; the bottom-up sweep verifies every
    /// subtree on the way there.
    #[test]
    fn closure_jumps_straight_to_the_themes() {
        let (g, t, profiles) = figure1();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&index);
        let closed = ctx.query(3, 2, Algorithm::Closed).unwrap();
        let incre = ctx.query(3, 2, Algorithm::Incre).unwrap();
        assert_eq!(closed.communities, incre.communities);
        assert_eq!(closed.communities.len(), 2);
        assert!(closed.stats.verifications < incre.stats.verifications);
        assert!(closed.stats.subtrees_generated < incre.stats.subtrees_generated);
    }
}

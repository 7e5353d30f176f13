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
//! **Dead positions.** A lattice child `t + p` found infeasible under a
//! closed `t` stays infeasible under every closed `t' ⊇ t` that has `p`
//! as a lattice child: `t' + p ⊇ t + p`, so by anti-monotonicity
//! `Gk[t' + p] ⊆ Gk[t + p] = ∅`. Skipping `p` there changes neither
//! `t'`'s maximality (an infeasible child never refutes it) nor the
//! closed subtrees reached (it pushes nothing). Every stack entry
//! therefore carries the dead positions of the closed subtrees on its
//! path — each a subset of it — as a word image as wide as a subtree's,
//! and a dead position is skipped before the table lookup and the
//! narrowing. A node's feasible children are pushed after its child
//! loop, so each inherits every infeasible sibling. Dedup by id keeps
//! the first path's set, which is sound like any other path's.
//!
//! What one query proves, later ones reuse: every community found is
//! stored with its closure in the index's community table under the
//! label sets of `T + p` and `cl(T + p)`, each in any order. A child
//! whose label set holds a stored community containing `q` takes that
//! community and closure unverified (`IndexVerifier::closed_child`).
//! `Gk` is the root-only entry. A write keeps every entry its batch
//! provably leaves unchanged (`pcs-index`'s `CommunityTable::carry`).
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
        // The dead positions of `stack[i]`, a word image as wide as a
        // subtree's, at `dead_stack[i * width..(i + 1) * width]`.
        let width = ver.ids().words_of(start).len();
        let mut dead_stack: Vec<u64> = vec![0; width];
        let mut dead: Vec<u64> = Vec::with_capacity(width);
        let mut feasible: Vec<(SubtreeId, Arc<Vec<VertexId>>)> = Vec::new();
        let mut children: Vec<u32> = Vec::new();
        while let Some((t, community)) = stack.pop() {
            dead.clear();
            dead.extend(dead_stack.drain(stack.len() * width..));
            let mut maximal = true;
            ver.ids().lattice_children_into(t, &mut children);
            ver.core.note_generated(children.len() as u64);
            for &pos in &children {
                let (word, bit) = (pos as usize / 64, 1u64 << (pos % 64));
                if dead.get(word).is_some_and(|w| w & bit != 0) {
                    continue;
                }
                let child = ver.ids_mut().with(t, pos);
                match ver.closed_child(child, &community, pos) {
                    Some((closed, sub)) => {
                        maximal = false;
                        if seen.insert(closed) {
                            feasible.push((closed, sub));
                        }
                    }
                    None => {
                        if let Some(w) = dead.get_mut(word) {
                            *w |= bit;
                        }
                    }
                }
            }
            // Pushed after the loop, so each inherits every infeasible
            // sibling.
            for entry in feasible.drain(..) {
                stack.push(entry);
                dead_stack.extend_from_slice(&dead);
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
    use pcs_graph::Graph;
    use pcs_index::ShardedCpIndex;
    use pcs_ptree::{PTree, Taxonomy};

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

    /// Taxonomy `r → a → b`, `r → c`; q = 0 carries all four labels and
    /// sits on three triangles: `{0,1,2}` carrying `b`, `{0,3,4}`
    /// carrying `a`, `{0,5,6}` carrying `c`. At k = 2 the search visits
    /// `{r}` (children `a`, `c`: two verifications), then `{r,c}`
    /// (`{r,a,c}` infeasible: one), then `{r,a}` (`{r,a,b}` feasible:
    /// one; `{r,a,c}` memoized). `c` died under `{r,a}`, so the deeper
    /// closed `{r,a,b}` skips its child `{r,a,b,c}` instead of peeling
    /// it: four verifications, not five.
    #[test]
    fn a_dead_position_is_skipped_under_a_deeper_closed_subtree() {
        let mut t = Taxonomy::new("r");
        let a = t.add_child(Taxonomy::ROOT, "a").unwrap();
        let b = t.add_child(a, "b").unwrap();
        let c = t.add_child(Taxonomy::ROOT, "c").unwrap();
        let g = Graph::from_edges(
            7,
            &[(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)],
        )
        .unwrap();
        let carry = |labels: &[u32]| PTree::from_labels(&t, labels.iter().copied()).unwrap();
        let profiles = vec![
            carry(&[b, c]),
            carry(&[b]),
            carry(&[b]),
            carry(&[a]),
            carry(&[a]),
            carry(&[c]),
            carry(&[c]),
        ];
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let plain = QueryContext::new(&g, &t, &profiles).unwrap();
        let indexed = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&index);
        let closed = indexed.query(0, 2, Algorithm::Closed).unwrap();
        assert_eq!(closed.communities, plain.query(0, 2, Algorithm::Basic).unwrap().communities);
        assert_eq!(closed.communities.len(), 2);
        assert_eq!(closed.stats.verifications, 4);
        for q in 0..7u32 {
            for k in 0..=3u32 {
                assert_eq!(
                    indexed.query(q, k, Algorithm::Closed).unwrap().communities,
                    plain.query(q, k, Algorithm::Basic).unwrap().communities,
                    "q={q} k={k}"
                );
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

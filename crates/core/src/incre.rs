//! Algorithm 3 — the `incre` query.
//!
//! Same Apriori-style bottom-up enumeration as `basic`, but every
//! verification narrows the parent's community instead of starting from
//! `Gk`: by Lemma 3, `Gk[T] ⊆ Gk[T'] ∩ I.get(k, q, T \ T')`, so the
//! localized peel runs on candidates already restricted by both the
//! parent subtree and the freshly added label's k-ĉore from the CP-tree
//! index.

use std::sync::Arc;

use pcs_graph::VertexId;
use pcs_index::ShardedCpIndex;
use pcs_ptree::SubtreeId;

use crate::indexed::IndexVerifier;
use crate::problem::{PcsOutcome, QueryContext};
use crate::verify::QueryScratch;
use crate::Result;

/// Runs Algorithm 3 for `(q, k)` against `ctx`'s `index` on `scratch`.
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
        // Line 3: Ψ initialized with the root-only subtree whose
        // community is Gk itself.
        let root = ver.ids_mut().root_only();
        let mut stack: Vec<(SubtreeId, Arc<Vec<VertexId>>)> = vec![(root, gk)];
        ver.core.note_generated(1);
        let mut ext: Vec<u32> = Vec::new();
        // Lines 4-11.
        while let Some((t_prime, community)) = stack.pop() {
            let mut flag = true;
            ver.ids().rightmost_extensions_into(t_prime, &mut ext);
            ver.core.note_generated(ext.len() as u64);
            for &pos in &ext {
                let t = ver.ids_mut().with(t_prime, pos);
                // Line 8: Gk[T] from Gk[T'] ∩ I.get(k, q, T\T').
                if let Some(sub) = ver.verify_from_base_id(t, &community, pos) {
                    flag = false;
                    stack.push((t, sub));
                }
            }
            if flag && ver.is_maximal_feasible_id(t_prime) {
                results.push((t_prime, community));
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
    fn incre_equals_basic_on_paper_example() {
        let (g, t, profiles) = figure1();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let plain = QueryContext::new(&g, &t, &profiles).unwrap();
        let indexed = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&index);
        for q in 0..8u32 {
            for k in 0..=3u32 {
                let a = plain.query(q, k, Algorithm::Basic).unwrap();
                let b = indexed.query(q, k, Algorithm::Incre).unwrap();
                assert_eq!(a.communities, b.communities, "q={q} k={k}");
            }
        }
    }

    #[test]
    fn incre_paper_example_communities() {
        let (g, t, profiles) = figure1();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&index);
        let out = ctx.query(3, 2, Algorithm::Incre).unwrap();
        let sets: Vec<Vec<u32>> = out.communities.iter().map(|c| c.vertices.clone()).collect();
        assert!(sets.contains(&vec![1, 2, 3]));
        assert!(sets.contains(&vec![0, 3, 4]));
    }

    #[test]
    fn incre_restores_tq_from_headmap() {
        // Even though the context also has the raw profiles, incre's
        // space comes from the index's restored T(q) — they must agree.
        let (g, t, profiles) = figure1();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&index);
        for q in 0..8u32 {
            let space = ctx.space_for(q).unwrap();
            assert_eq!(space.len(), profiles[q as usize].len());
        }
    }
}

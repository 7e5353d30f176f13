//! Property tests for the paper's Lemmas 1-3 across crate boundaries,
//! and for the two facts the closed-subtree search adds to them: the
//! closure operator and the no-peel narrowing.

mod common;

use common::{OwnedNarrow, OwnedVerify};
use pcs::core::{IndexVerifier, QueryScratch, Verifier};
use pcs::prelude::*;
use pcs::ptree::enumerate::{count_all_subtrees, enumerate_rooted_subtrees, lemma1_upper_bound};
use pcs::ptree::QuerySpace;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_instance(seed: u64) -> (Graph, Taxonomy, Vec<PTree>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let labels = rng.gen_range(5..=12usize);
    let mut tax = Taxonomy::new("r");
    let mut ids = vec![Taxonomy::ROOT];
    for i in 1..labels {
        let parent = ids[rng.gen_range(0..ids.len())];
        ids.push(tax.add_child(parent, &format!("n{i}")).unwrap());
    }
    let n = rng.gen_range(8..=20usize);
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            if rng.gen_bool(0.25) {
                edges.push((a, b));
            }
        }
    }
    let g = Graph::from_edges(n, &edges).unwrap();
    let profiles: Vec<PTree> = (0..n)
        .map(|_| {
            let count = rng.gen_range(0..=5usize);
            let picks: Vec<LabelId> =
                (0..count).map(|_| ids[rng.gen_range(0..ids.len())]).collect();
            PTree::from_labels(&tax, picks).unwrap()
        })
        .collect();
    (g, tax, profiles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Lemma 2: if Gk[T] exists then Gk[T'] exists for every T' ⊆ T,
    /// and moreover Gk[T] ⊆ Gk[T'] (Proposition 1).
    #[test]
    fn anti_monotonicity_holds(seed in 0u64..5_000) {
        let (g, tax, profiles) = random_instance(seed);
        let ctx = QueryContext::new(&g, &tax, &profiles).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x11);
        let q = rng.gen_range(0..g.num_vertices() as u32);
        let k = rng.gen_range(1..3u32);
        let space = ctx.space_for(q).unwrap();
        let mut scratch = QueryScratch::new(g.num_vertices());
        let mut ver = Verifier::new(&ctx, &space, q, k, &mut scratch);
        for s in enumerate_rooted_subtrees(&space) {
            if let Some(comm) = ver.verify(&s) {
                // Every lattice parent is feasible and contains Gk[T].
                for leaf in space.lattice_parents(&s) {
                    let smaller = s.without(leaf);
                    let parent_comm = ver.verify(&smaller);
                    if smaller.is_empty() {
                        continue; // empty tree == Gk, handled below
                    }
                    let parent_comm = parent_comm.expect("anti-monotonicity violated");
                    for v in comm.iter() {
                        prop_assert!(parent_comm.binary_search(v).is_ok(),
                            "Gk[T] ⊄ Gk[T'] (seed {seed})");
                    }
                }
            }
        }
    }

    /// Lemma 1: the subtree count of T(q) never exceeds 2^(x-1)+1 and
    /// the enumerator produces exactly the counted number.
    #[test]
    fn lemma1_bound_and_enumeration(seed in 0u64..5_000) {
        let (g, tax, profiles) = random_instance(seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x22);
        let q = rng.gen_range(0..g.num_vertices() as u32);
        let space = QuerySpace::new(&tax, &profiles[q as usize]).unwrap();
        let x = space.len();
        let total = count_all_subtrees(&space);
        prop_assert!(total <= lemma1_upper_bound(x));
        let all = enumerate_rooted_subtrees(&space);
        prop_assert_eq!(all.len() as u128 + 1, total); // +1 = the empty tree
    }

    /// `close_id` is a closure operator on the feasible subtrees of
    /// `T(q)`, it equals `T(q) ∩ ⋂_{v ∈ Gk[T]} T(v)` read off the raw
    /// profiles, and closing changes no community.
    #[test]
    fn closure_is_a_closure_operator_and_keeps_the_community(seed in 0u64..5_000) {
        let (g, tax, profiles) = random_instance(seed);
        let index = ShardedCpIndex::build_resident(&g, &tax, &profiles).unwrap();
        let ctx = QueryContext::new(&g, &tax, &profiles).unwrap().with_index(&index);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x33);
        let q = rng.gen_range(0..g.num_vertices() as u32);
        let k = rng.gen_range(0..4u32);
        let space = ctx.space_for(q).unwrap();
        let mut scratch = QueryScratch::new(g.num_vertices());
        let mut ver = IndexVerifier::new(&ctx, &index, &space, q, k, &mut scratch);
        // A second oracle that never sees a closure, so its verdict on
        // cl(T) is a real verification and not `close_id`'s memo entry.
        let mut direct_scratch = QueryScratch::new(g.num_vertices());
        let mut direct = IndexVerifier::new(&ctx, &index, &space, q, k, &mut direct_scratch);
        for s in enumerate_rooted_subtrees(&space) {
            let Some(comm) = ver.verify(&s) else { continue };
            let id = ver.ids_mut().intern(&s);
            let closed = ver.close_id(id, &comm);
            let closed_tree = ver.ids().subtree(closed);
            prop_assert!(s.is_subset_of(&closed_tree), "not extensive (seed {seed})");
            prop_assert_eq!(ver.close_id(closed, &comm), closed, "not idempotent (seed {})", seed);
            let mut carried_by_all = space.empty();
            for pos in 0..space.len() as u32 {
                if comm.iter().all(|&v| profiles[v as usize].contains(space.label_at(pos))) {
                    carried_by_all.insert(pos);
                }
            }
            prop_assert_eq!(
                &closed_tree, &carried_by_all,
                "cl(T) ≠ T(q) ∩ ⋂ T(v) (seed {})", seed
            );
            prop_assert_eq!(direct.verify(&closed_tree), Some(comm), "Gk[cl(T)] ≠ Gk[T]");
            // Monotone: along every cover T' ⊂ T, hence along every chain.
            for leaf in space.lattice_parents(&s) {
                let smaller = s.without(leaf);
                if smaller.is_empty() {
                    continue;
                }
                let parent_comm = ver.verify(&smaller).expect("anti-monotonicity");
                let smaller_id = ver.ids_mut().intern(&smaller);
                let smaller_closed = ver.close_id(smaller_id, &parent_comm);
                prop_assert!(
                    ver.ids().is_subset(smaller_closed, closed),
                    "not monotone (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn gk_monotone_in_k() {
    // The k-ĉore shrinks as k grows (nestedness used by the CL-tree).
    let (g, tax, profiles) = random_instance(99);
    let ctx = QueryContext::new(&g, &tax, &profiles).unwrap();
    for q in 0..g.num_vertices() as u32 {
        let mut prev: Option<Vec<VertexId>> = None;
        for k in (0..5u32).rev() {
            let space = ctx.space_for(q).unwrap();
            let mut scratch = QueryScratch::new(g.num_vertices());
            let ver = Verifier::new(&ctx, &space, q, k, &mut scratch);
            let cur = ver.gk().map(|rc| rc.as_ref().clone());
            if let (Some(p), Some(c)) = (&prev, &cur) {
                for v in p {
                    assert!(c.binary_search(v).is_ok(), "higher-k core not nested");
                }
            }
            if cur.is_some() {
                prev = cur;
            }
        }
    }
}

/// Lemma-3 narrowing answers exactly like a from-scratch verification
/// whichever way it gets there: the peel, the `base ⊆ ĉore` shortcut
/// (the label removed nothing) or the `ĉore ⊆ base` one (the label's
/// ĉore is the answer) — and the instances reach both shortcuts.
#[test]
fn narrowing_from_a_base_matches_direct_verification() {
    let (mut core_inside_base, mut base_inside_core) = (0usize, 0usize);
    for seed in 0..60u64 {
        let (g, tax, profiles) = random_instance(seed);
        let index = ShardedCpIndex::build_resident(&g, &tax, &profiles).unwrap();
        let ctx = QueryContext::new(&g, &tax, &profiles).unwrap().with_index(&index);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x44);
        let q = rng.gen_range(0..g.num_vertices() as u32);
        let k = rng.gen_range(0..4u32);
        let space = ctx.space_for(q).unwrap();
        let mut direct_scratch = QueryScratch::new(g.num_vertices());
        let mut direct = IndexVerifier::new(&ctx, &index, &space, q, k, &mut direct_scratch);
        let mut fresh_scratch = QueryScratch::new(g.num_vertices());
        for s in enumerate_rooted_subtrees(&space) {
            let Some(base) = direct.verify(&s) else { continue };
            for p in space.lattice_children(&s) {
                let child = s.with(p);
                // Fresh memo, so the narrowing itself runs.
                let mut fresh = IndexVerifier::new(&ctx, &index, &space, q, k, &mut fresh_scratch);
                let got = fresh.verify_from_base(&child, &base, p);
                assert_eq!(got, direct.verify(&child), "seed {seed} q {q} k {k}");
                let core = index.get_ref(k, q, space.label_at(p)).map_or(0, <[_]>::len);
                match got {
                    Some(c) if c.len() == core && core < base.len() => core_inside_base += 1,
                    Some(c) if c.len() == base.len() && core > base.len() => base_inside_core += 1,
                    _ => {}
                }
            }
        }
    }
    assert!(core_inside_base > 0, "no case with the label ĉore strictly inside the base");
    assert!(base_inside_core > 0, "no case with the base strictly inside the label ĉore");
}

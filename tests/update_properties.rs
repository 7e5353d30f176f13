//! Property tests for the update subsystem: randomized `UpdateBatch`
//! sequences — interleaved edge insertions/removals and profile
//! rewrites, seasoned with deliberate no-ops and duplicate edges — must
//! preserve the paper's structural invariants on the mutated graph:
//!
//! * **anti-monotonicity** (Lemma 2): if `Gk[T]` exists, `Gk[T']`
//!   exists for every `T' ⊆ T` and contains it;
//! * **maximality** (Problem 1): every reported community is exactly
//!   `Gk[theme]` recomputed from scratch, and themes are pairwise
//!   incomparable;
//! * **differential agreement**: the mutated engine answers exactly
//!   like an engine built from scratch on the mutated data.

mod common;

use common::OwnedVerify;
use pcs::core::{QueryScratch, Verifier};
use pcs::graph::core::SubsetCore;
use pcs::prelude::*;
use pcs::ptree::enumerate::enumerate_rooted_subtrees;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_instance(seed: u64) -> (Graph, Taxonomy, Vec<PTree>, Vec<LabelId>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let labels = rng.gen_range(6..=12usize);
    let mut tax = Taxonomy::new("r");
    let mut ids = vec![Taxonomy::ROOT];
    for i in 1..labels {
        let parent = ids[rng.gen_range(0..ids.len())];
        ids.push(tax.add_child(parent, &format!("n{i}")).unwrap());
    }
    let n = rng.gen_range(10..=22usize);
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            if rng.gen_bool(0.2) {
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
    (g, tax, profiles, ids)
}

/// A seed-driven sequence of batches, including duplicate edges within
/// one batch, guaranteed no-ops, and profile rewrites.
fn random_batches(seed: u64, n: u32, tax: &Taxonomy, ids: &[LabelId]) -> Vec<UpdateBatch> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xbadc0de);
    let mut batches = Vec::new();
    for _ in 0..rng.gen_range(2..=4usize) {
        let mut batch = UpdateBatch::new();
        for _ in 0..rng.gen_range(1..=6usize) {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            match rng.gen_range(0..6) {
                0 | 1 => {
                    if a != b {
                        batch = batch.add_edge(a, b);
                        if rng.gen_bool(0.3) {
                            batch = batch.add_edge(b, a); // duplicate in-batch
                        }
                    }
                }
                2 => {
                    if a != b {
                        batch = batch.remove_edge(a, b); // possibly absent: no-op
                    }
                }
                3 => {
                    if a != b {
                        // add-then-remove: net no-op pair
                        batch = batch.add_edge(a, b).remove_edge(a, b);
                    }
                }
                _ => {
                    let count = rng.gen_range(0..=4usize);
                    let picks: Vec<LabelId> =
                        (0..count).map(|_| ids[rng.gen_range(0..ids.len())]).collect();
                    batch = batch.set_profile(a, PTree::from_labels(tax, picks).unwrap());
                }
            }
        }
        batches.push(batch);
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Anti-monotonicity survives arbitrary mutation: on the mutated
    /// graph, every feasible subtree's lattice parents are feasible and
    /// contain it.
    #[test]
    fn anti_monotonicity_survives_mutation(seed in 0u64..5_000) {
        let (g, tax, profiles, ids) = random_instance(seed);
        let n = g.num_vertices() as u32;
        let engine = PcsEngine::builder()
            .graph(g)
            .taxonomy(tax.clone())
            .profiles(profiles)
            .index_mode(if seed % 2 == 0 { IndexMode::Eager } else { IndexMode::Lazy })
            .build()
            .unwrap();
        for batch in random_batches(seed, n, &tax, &ids) {
            engine.apply(&batch).unwrap();
        }
        let snap = engine.snapshot();
        let ctx = pcs::core::QueryContext::new(snap.graph(), &tax, snap.profiles()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x11);
        let q = rng.gen_range(0..n);
        let k = rng.gen_range(1..3u32);
        let space = ctx.space_for(q).unwrap();
        let mut scratch = QueryScratch::new(snap.graph().num_vertices());
        let mut ver = Verifier::new(&ctx, &space, q, k, &mut scratch);
        for s in enumerate_rooted_subtrees(&space) {
            if let Some(comm) = ver.verify(&s) {
                for leaf in space.lattice_parents(&s) {
                    let smaller = s.without(leaf);
                    if smaller.is_empty() {
                        continue;
                    }
                    let parent_comm =
                        ver.verify(&smaller).expect("anti-monotonicity violated post-mutation");
                    for v in comm.iter() {
                        prop_assert!(
                            parent_comm.binary_search(v).is_ok(),
                            "Gk[T] ⊄ Gk[T'] after mutation (seed {seed})"
                        );
                    }
                }
            }
        }
    }

    /// Maximality survives mutation, and the mutated engine matches a
    /// from-scratch engine query for query.
    #[test]
    fn maximality_and_differential_agreement_survive_mutation(seed in 0u64..5_000) {
        let (g, tax, profiles, ids) = random_instance(seed);
        let n = g.num_vertices() as u32;
        let engine = PcsEngine::builder()
            .graph(g)
            .taxonomy(tax.clone())
            .profiles(profiles)
            .index_mode(IndexMode::Eager)
            .build()
            .unwrap();
        let mut epochs = vec![engine.epoch()];
        for batch in random_batches(seed, n, &tax, &ids) {
            epochs.push(engine.apply(&batch).unwrap().epoch);
        }
        prop_assert!(epochs.windows(2).all(|w| w[0] <= w[1]), "epochs monotone");
        let snap = engine.snapshot();
        let fresh = PcsEngine::builder()
            .graph(snap.graph().clone())
            .taxonomy(tax.clone())
            .profiles(snap.profiles().to_vec())
            .index_mode(IndexMode::Eager)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x77);
        for _ in 0..3 {
            let q = rng.gen_range(0..n);
            let k = rng.gen_range(1..3u32);
            let live = engine.query(&QueryRequest::vertex(q).k(k)).unwrap();
            let refr = fresh.query(&QueryRequest::vertex(q).k(k)).unwrap();
            prop_assert_eq!(
                &live.outcome.communities, &refr.outcome.communities,
                "mutated engine disagrees with rebuild (seed {}, q {}, k {})", seed, q, k
            );
            // Structure maximality: each community is exactly Gk[theme]
            // recomputed from scratch on the mutated graph.
            let mut sc = SubsetCore::new(snap.graph().num_vertices());
            for c in live.communities() {
                let cands: Vec<VertexId> = snap
                    .graph()
                    .vertices()
                    .filter(|&v| c.subtree.is_subtree_of(&snap.profiles()[v as usize]))
                    .collect();
                let full = sc
                    .kcore_component_within(snap.graph(), &cands, q, k)
                    .expect("community members survive their own theme");
                prop_assert_eq!(&full, &c.vertices);
            }
            // Profile maximality: themes pairwise incomparable.
            for a in live.communities() {
                for b in live.communities() {
                    if a.subtree != b.subtree {
                        prop_assert!(
                            !a.subtree.is_subtree_of(&b.subtree),
                            "theme subsumed post-mutation (seed {})", seed
                        );
                    }
                }
            }
        }
    }
}

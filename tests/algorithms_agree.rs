//! The workspace's central correctness property: all six PCS query
//! algorithms return exactly the community set index-free `basic`
//! computes, and every returned community satisfies Problem 1 of the
//! paper.

use pcs::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A reproducible random profiled graph driven by a single seed.
fn random_instance(seed: u64) -> (Graph, Taxonomy, Vec<PTree>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Taxonomy of 6..=16 labels.
    let labels = rng.gen_range(6..=16usize);
    let mut tax = Taxonomy::new("r");
    let mut ids = vec![Taxonomy::ROOT];
    for i in 1..labels {
        let parent = ids[rng.gen_range(0..ids.len())];
        ids.push(tax.add_child(parent, &format!("n{i}")).unwrap());
    }
    // Graph of 8..=26 vertices with density 0.15..0.35.
    let n = rng.gen_range(8..=26usize);
    let p = rng.gen_range(0.15..0.35);
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            if rng.gen_bool(p) {
                edges.push((a, b));
            }
        }
    }
    let g = Graph::from_edges(n, &edges).unwrap();
    // Profiles: each vertex picks 0..=6 random labels (closed upward).
    let profiles: Vec<PTree> = (0..n)
        .map(|_| {
            let count = rng.gen_range(0..=6usize);
            let picks: Vec<LabelId> =
                (0..count).map(|_| ids[rng.gen_range(0..ids.len())]).collect();
            PTree::from_labels(&tax, picks).unwrap()
        })
        .collect();
    (g, tax, profiles)
}

/// Checks Problem 1 for one outcome.
fn check_problem1(
    g: &Graph,
    profiles: &[PTree],
    q: VertexId,
    k: u32,
    communities: &[ProfiledCommunity],
) {
    for c in communities {
        // Connectivity and membership.
        assert!(c.vertices.binary_search(&q).is_ok(), "q missing");
        assert!(
            pcs::graph::components::is_connected_subset(g, &c.vertices),
            "community disconnected"
        );
        // Structure cohesiveness.
        for &v in &c.vertices {
            let deg = g.neighbors(v).iter().filter(|u| c.vertices.binary_search(u).is_ok()).count();
            assert!(deg >= k as usize, "degree bound violated");
        }
        // The reported subtree is the true maximal common subtree.
        let m = PTree::intersect_all(c.vertices.iter().map(|&v| &profiles[v as usize]))
            .expect("non-empty community");
        assert_eq!(m, c.subtree, "reported theme is not M(Gq)");
        // Every member's profile contains the theme.
        for &v in &c.vertices {
            assert!(c.subtree.is_subtree_of(&profiles[v as usize]));
        }
    }
    // Profile cohesiveness: themes pairwise incomparable.
    for a in communities {
        for b in communities {
            if a.subtree != b.subtree {
                assert!(
                    !a.subtree.is_subtree_of(&b.subtree),
                    "theme {:?} subsumed by {:?}",
                    a.subtree,
                    b.subtree
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_algorithms_return_identical_communities(seed in 0u64..10_000) {
        let (g, tax, profiles) = random_instance(seed);
        let index = ShardedCpIndex::build_resident(&g, &tax, &profiles).unwrap();
        let plain = QueryContext::new(&g, &tax, &profiles).unwrap();
        let indexed = QueryContext::new(&g, &tax, &profiles).unwrap().with_index(&index);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
        let q = rng.gen_range(0..g.num_vertices() as u32);
        let k = rng.gen_range(0..4u32);

        let reference = plain.query(q, k, Algorithm::Basic).unwrap().communities;
        check_problem1(&g, &profiles, q, k, &reference);
        for algo in Algorithm::ALL {
            let got = indexed.query(q, k, algo).unwrap().communities;
            prop_assert_eq!(
                &reference, &got,
                "algorithm {} disagrees with basic (seed {}, q {}, k {})",
                algo.name(), seed, q, k
            );
        }
    }

    /// The central property extends to *mutated* graphs: after a
    /// random update batch flows through the engine's incremental
    /// maintenance, all six algorithms still return what index-free
    /// `basic` computes from scratch on the post-update graph, and
    /// those communities satisfy Problem 1 there.
    #[test]
    fn all_algorithms_agree_after_mutation(seed in 0u64..10_000) {
        let (g, tax, profiles) = random_instance(seed);
        let n = g.num_vertices() as u32;
        let engine = PcsEngine::builder()
            .graph(g)
            .taxonomy(tax)
            .profiles(profiles)
            .index_mode(IndexMode::Eager)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0d1f);
        let mut batch = UpdateBatch::new();
        for _ in 0..rng.gen_range(2..10usize) {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a == b {
                continue;
            }
            if rng.gen_bool(0.6) {
                batch = batch.add_edge(a, b);
            } else {
                batch = batch.remove_edge(a, b);
            }
        }
        engine.apply(&batch).unwrap();
        let snap = engine.snapshot();
        let q = rng.gen_range(0..n);
        let k = rng.gen_range(0..4u32);
        let reference = QueryContext::new(snap.graph(), engine.taxonomy(), snap.profiles())
            .unwrap()
            .query(q, k, Algorithm::Basic)
            .unwrap()
            .communities;
        check_problem1(snap.graph(), snap.profiles(), q, k, &reference);
        for algo in Algorithm::ALL {
            let got = engine.query(&QueryRequest::vertex(q).k(k).algorithm(algo)).unwrap();
            prop_assert_eq!(
                &reference, &got.outcome.communities,
                "algorithm {} disagrees with basic after mutation (seed {}, q {}, k {})",
                algo.name(), seed, q, k
            );
        }
    }

    #[test]
    fn maximal_structure_property(seed in 0u64..3_000) {
        // No strict superset of a returned community is a connected
        // k-core with the same theme: adding any adjacent vertex whose
        // profile contains the theme must break something.
        let (g, tax, profiles) = random_instance(seed);
        let ctx = QueryContext::new(&g, &tax, &profiles).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x77);
        let q = rng.gen_range(0..g.num_vertices() as u32);
        let k = rng.gen_range(1..3u32);
        let out = ctx.query(q, k, Algorithm::Basic).unwrap();
        for c in &out.communities {
            // Gk[theme] recomputed from scratch must equal the community.
            let cands: Vec<VertexId> = g
                .vertices()
                .filter(|&v| c.subtree.is_subtree_of(&profiles[v as usize]))
                .collect();
            let mut sc = pcs::graph::core::SubsetCore::new(g.num_vertices());
            let full = sc.kcore_component_within(&g, &cands, q, k).unwrap();
            prop_assert_eq!(&full, &c.vertices);
        }
    }
}

#[test]
fn agreement_on_dataset_generator_output() {
    // Beyond uniform-random graphs: the community-structured generator.
    let tax = pcs::datasets::taxonomy::random_taxonomy(120, 5, 8, 3);
    let spec = DatasetSpec::small("agree", 260, 17);
    let ds = pcs::datasets::gen::generate(&spec, tax);
    let index = ShardedCpIndex::build_resident(&ds.graph, &ds.tax, &ds.profiles).unwrap();
    let plain = QueryContext::new(&ds.graph, &ds.tax, &ds.profiles).unwrap();
    let indexed = QueryContext::new(&ds.graph, &ds.tax, &ds.profiles).unwrap().with_index(&index);
    let (queries, level) = pcs::datasets::sample_query_vertices(&ds, 5, 8, 5);
    assert!(!queries.is_empty());
    // Effort gate: the closed-subtree search never verifies more than
    // `incre` on a query, and strictly less over the sample.
    let (mut closed_total, mut incre_total) = (0u64, 0u64);
    for &q in &queries {
        let reference = plain.query(q, level, Algorithm::Basic).unwrap().communities;
        check_problem1(&ds.graph, &ds.profiles, q, level, &reference);
        assert!(!reference.is_empty(), "queries come from the {level}-core");
        for algo in Algorithm::ALL {
            let got = indexed.query(q, level, algo).unwrap().communities;
            assert_eq!(reference, got, "q={q} algo={}", algo.name());
        }
        let verified = |algo| indexed.query(q, level, algo).unwrap().stats.verifications;
        let (closed, incre) = (verified(Algorithm::Closed), verified(Algorithm::Incre));
        assert!(closed <= incre, "q={q}: closed verified {closed} subtrees, incre {incre}");
        closed_total += closed;
        incre_total += incre;
    }
    assert!(closed_total < incre_total, "closed {closed_total} vs incre {incre_total}");
}

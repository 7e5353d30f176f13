//! `closed`, `incre` and adv-P agree with index-free `basic` on profiled
//! graphs of 65–200 vertices, so every per-vertex bitset on the query
//! path (the peel's, and the index verifier's label-ĉore sets) spans
//! more than one 64-bit word. One pooled `QueryScratch` serves every
//! query of an instance, as an engine's pool would.

use pcs::core::verify::QueryScratch;
use pcs::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A reproducible random profiled graph of 65..=200 vertices whose
/// k-cores reach k = 4.
fn random_instance(seed: u64) -> (Graph, Taxonomy, Vec<PTree>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tax = Taxonomy::new("r");
    let mut ids = vec![Taxonomy::ROOT];
    for i in 1..rng.gen_range(6..=16usize) {
        let parent = ids[rng.gen_range(0..ids.len())];
        ids.push(tax.add_child(parent, &format!("n{i}")).unwrap());
    }
    let n = rng.gen_range(65..=200usize);
    let p = rng.gen_range(4.0..10.0) / n as f64;
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            if rng.gen_bool(p) {
                edges.push((a, b));
            }
        }
    }
    let g = Graph::from_edges(n, &edges).unwrap();
    let profiles: Vec<PTree> = (0..n)
        .map(|_| {
            let picks: Vec<LabelId> =
                (0..rng.gen_range(1..=6usize)).map(|_| ids[rng.gen_range(0..ids.len())]).collect();
            PTree::from_labels(&tax, picks).unwrap()
        })
        .collect();
    (g, tax, profiles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn index_algorithms_match_basic_past_one_word(seed in 0u64..10_000) {
        let (g, tax, profiles) = random_instance(seed);
        let index = ShardedCpIndex::build_resident(&g, &tax, &profiles).unwrap();
        let plain = QueryContext::new(&g, &tax, &profiles).unwrap();
        let indexed = QueryContext::new(&g, &tax, &profiles).unwrap().with_index(&index);
        let mut scratch = QueryScratch::new(g.num_vertices());
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..6 {
            let q = rng.gen_range(0..g.num_vertices() as u32);
            let k = rng.gen_range(1..=4u32);
            let reference = plain.query(q, k, Algorithm::Basic).unwrap().communities;
            for algo in [Algorithm::Closed, Algorithm::Incre, Algorithm::AdvP] {
                let got = indexed.query_with_scratch(q, k, algo, &mut scratch).unwrap();
                prop_assert_eq!(
                    &reference, &got.communities,
                    "{} disagrees with basic (seed {}, q {}, k {})", algo.name(), seed, q, k
                );
            }
        }
    }
}

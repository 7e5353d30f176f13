//! The round-trip invariant, property-tested: for random taxonomies,
//! graphs, and profiles (including empty root-only profiles and
//! isolated vertices), an engine loaded from its own snapshot answers
//! **identically** to the source engine — across all five PCS
//! algorithms and a sweep of `k` — and keeps answering identically
//! after both engines absorb the same mutation.

use pcs_datasets::taxonomy::random_taxonomy;
use pcs_engine::{IndexMode, PcsEngine, QueryRequest, QueryResponse};
use pcs_graph::Graph;
use pcs_ptree::{PTree, Taxonomy};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

mod common;

/// Unique-per-case snapshot path (cases may run concurrently).
fn tmp_path() -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "pcs-proptest-roundtrip-{}-{}.snapshot",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One community: its theme subtree's labels and its vertex set.
type CommunityPrint = (Vec<u32>, Vec<u32>);

/// Everything observable about a response that callers can depend on.
fn fingerprint(resp: &QueryResponse) -> (Vec<CommunityPrint>, usize, u64) {
    let communities = resp
        .communities()
        .iter()
        .map(|c| (c.subtree.nodes().to_vec(), c.vertices.clone()))
        .collect();
    (communities, resp.total_communities, resp.epoch)
}

/// A random profiled graph: `n` vertices, a random edge subset (leaving
/// some vertices isolated), and profiles where some vertices carry no
/// labels at all (`PTree::root_only`).
#[derive(Debug, Clone)]
struct Instance {
    labels: u8,
    n: u8,
    edges: Vec<(u8, u8)>,
    profile_picks: Vec<Vec<u8>>, // empty inner vec = root-only profile
    seed: u64,
}

fn instance() -> impl Strategy<Value = Instance> {
    (2u8..28, 2u8..24, any::<u64>())
        .prop_flat_map(|(labels, n, seed)| {
            (
                Just(labels),
                Just(n),
                proptest::collection::vec((0..n, 0..n), 0..(n as usize * 2)),
                proptest::collection::vec(
                    proptest::collection::vec(0u8..labels, 0..5),
                    n as usize..n as usize + 1,
                ),
                Just(seed),
            )
        })
        .prop_map(|(labels, n, edges, profile_picks, seed)| Instance {
            labels,
            n,
            edges,
            profile_picks,
            seed,
        })
}

fn build_instance(inst: &Instance) -> (Graph, Taxonomy, Vec<PTree>) {
    let tax = random_taxonomy(inst.labels as usize, 4, 5, inst.seed);
    let edges: Vec<(u32, u32)> =
        inst.edges.iter().filter(|(a, b)| a != b).map(|&(a, b)| (a as u32, b as u32)).collect();
    let g = Graph::from_edges(inst.n as usize, &edges).unwrap();
    let profiles: Vec<PTree> = inst
        .profile_picks
        .iter()
        .map(|picks| {
            if picks.is_empty() {
                PTree::root_only()
            } else {
                PTree::from_labels(&tax, picks.iter().map(|&p| p as u32 % tax.len() as u32))
                    .unwrap()
            }
        })
        .collect();
    (g, tax, profiles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// save → load → query is indistinguishable from the source engine.
    #[test]
    fn loaded_engine_answers_identically(inst in instance()) {
        let (g, tax, profiles) = build_instance(&inst);
        let engine = PcsEngine::builder()
            .graph(g.clone())
            .taxonomy(tax)
            .profiles(profiles)
            .index_mode(IndexMode::Eager)
            .build()
            .unwrap();
        let path = tmp_path();
        engine.save(&path).unwrap();
        let loaded = PcsEngine::builder().index_mode(IndexMode::Eager).load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        prop_assert_eq!(loaded.epoch(), engine.epoch());
        let (snap_a, snap_b) = (engine.snapshot(), loaded.snapshot());
        prop_assert_eq!(snap_b.cores().core_numbers(), snap_a.cores().core_numbers());
        let max_k = snap_a.cores().max_core() + 2;
        for q in 0..g.num_vertices() as u32 {
            for k in 0..=max_k {
                for algo in pcs_engine::Algorithm::ALL {
                    let req = QueryRequest::vertex(q).k(k).algorithm(algo);
                    let a = engine.query(&req).unwrap();
                    let b = loaded.query(&req).unwrap();
                    prop_assert_eq!(
                        fingerprint(&a),
                        fingerprint(&b),
                        "q={} k={} algo={}",
                        q,
                        k,
                        algo.name()
                    );
                }
            }
        }

        // Same mutation applied to both keeps them in lockstep: the
        // loaded engine is as mutable as the built one.
        let (u, v) = (0u32, (g.num_vertices() as u32).saturating_sub(1));
        if u != v {
            let ra = engine.apply(&pcs_engine::UpdateBatch::new().add_edge(u, v)).unwrap();
            let rb = loaded.apply(&pcs_engine::UpdateBatch::new().add_edge(u, v)).unwrap();
            prop_assert_eq!(ra.epoch, rb.epoch);
            prop_assert_eq!(ra.edges_added, rb.edges_added);
            let (snap_a, snap_b) = (engine.snapshot(), loaded.snapshot());
            prop_assert_eq!(snap_b.cores().core_numbers(), snap_a.cores().core_numbers());
            for q in 0..g.num_vertices() as u32 {
                let req = QueryRequest::vertex(q).k(2);
                prop_assert_eq!(
                    fingerprint(&engine.query(&req).unwrap()),
                    fingerprint(&loaded.query(&req).unwrap()),
                    "post-update q={}", q
                );
            }
        }
    }

    /// The raw byte container also round-trips: what the reader parses
    /// out of what the writer serialized is exactly the original
    /// sections.
    #[test]
    fn container_round_trips_random_sections(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            0..6
        )
    ) {
        let sections: Vec<(u32, Vec<u8>)> =
            payloads.into_iter().enumerate().map(|(i, p)| (i as u32 + 1, p)).collect();
        let path = tmp_path();
        common::write_sections(&path, &sections);
        let back = common::read_sections(&path);
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(back, sections);
    }
}

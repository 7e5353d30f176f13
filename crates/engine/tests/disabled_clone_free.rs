//! Regression pin: building a lazy engine and serving index-free
//! (`basic`) queries performs **zero taxonomy deep copies**.
//! The builder takes ownership and validation borrows; the index-less
//! query path borrows the query vertex's P-tree instead of cloning it
//! (and must never clone the taxonomy to restore anything).
//!
//! Lives in its own integration-test binary on purpose: the clone
//! counter ([`Taxonomy::clone_count`]) is process-wide, and a dedicated
//! process keeps it deterministic.

use pcs_engine::{Algorithm, IndexMode, PcsEngine, QueryRequest, UpdateBatch};
use pcs_graph::Graph;
use pcs_ptree::{PTree, Taxonomy};

#[test]
fn disabled_engine_never_clones_the_taxonomy() {
    let mut tax = Taxonomy::new("r");
    let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
    let b = tax.add_child(a, "b").unwrap();
    let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]).unwrap();
    let profiles = vec![
        PTree::from_labels(&tax, [a]).unwrap(),
        PTree::from_labels(&tax, [b]).unwrap(),
        PTree::from_labels(&tax, [a, b]).unwrap(),
        PTree::from_labels(&tax, [b]).unwrap(),
        PTree::root_only(),
    ];

    let before = Taxonomy::clone_count();
    // Build: ownership moves in, validation borrows.
    let engine = PcsEngine::builder()
        .graph(g)
        .taxonomy(tax)
        .profiles(profiles)
        .index_mode(IndexMode::Lazy)
        .build()
        .unwrap();
    assert_eq!(
        Taxonomy::clone_count(),
        before,
        "EngineBuilder::build(Lazy) deep-copied the taxonomy"
    );

    // Serve: `basic` never builds the index, repeatedly.
    let basic = |q: u32, k: u32| QueryRequest::vertex(q).k(k).algorithm(Algorithm::Basic);
    for q in 0..5u32 {
        for k in 1..4u32 {
            engine.query(&basic(q, k)).unwrap();
        }
    }
    assert_eq!(
        Taxonomy::clone_count(),
        before,
        "the index-free query path deep-copied the taxonomy"
    );

    // Mutate: the update path validates profiles against a borrowed
    // taxonomy too.
    engine.apply(&UpdateBatch::new().add_edge(0, 3)).unwrap();
    engine.query(&basic(0, 2)).unwrap();
    assert_eq!(Taxonomy::clone_count(), before, "the update path deep-copied the taxonomy");
}

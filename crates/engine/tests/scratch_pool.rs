//! Scratch-pool hardening: a poisoned pool mutex must recover (one
//! panicking query must never become a permanent denial of service),
//! and the pool must never retain more scratches than its cap even
//! after a concurrency spike.

use pcs_engine::{PcsEngine, QueryRequest};
use pcs_graph::Graph;
use pcs_ptree::{PTree, Taxonomy};

/// A small instance every query succeeds on.
fn engine() -> PcsEngine {
    let mut tax = Taxonomy::new("r");
    let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
    let b = tax.add_child(Taxonomy::ROOT, "b").unwrap();
    let n = 24usize;
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for d in 1..=3u32 {
            let v = (u + d) % n as u32;
            let (lo, hi) = (u.min(v), u.max(v));
            if !edges.contains(&(lo, hi)) {
                edges.push((lo, hi));
            }
        }
    }
    let g = Graph::from_edges(n, &edges).unwrap();
    let profiles: Vec<PTree> = (0..n)
        .map(|v| PTree::from_labels(&tax, if v % 2 == 0 { [a] } else { [b] }).unwrap())
        .collect();
    PcsEngine::builder().graph(g).taxonomy(tax).profiles(profiles).build().unwrap()
}

#[test]
fn queries_survive_a_poisoned_scratch_pool() {
    let engine = engine();
    // Seed the pool with a scratch so recovery demonstrably discards
    // the poisoned contents rather than just limping along empty.
    let before = engine.query(&QueryRequest::vertex(0).k(2)).unwrap();
    assert_eq!(engine.pooled_scratches(), 1);

    engine.poison_scratch_pool_for_test();

    // The next query must recover the lock (discarding the pool) and
    // answer identically — not panic on a poisoned mutex.
    let after = engine.query(&QueryRequest::vertex(0).k(2)).unwrap();
    assert_eq!(before.communities(), after.communities());
    // The recovered pool works normally again: the query above
    // returned its scratch.
    assert_eq!(engine.pooled_scratches(), 1);

    // And the engine keeps serving across many subsequent queries.
    for v in 0..24u32 {
        engine.query(&QueryRequest::vertex(v).k(2)).unwrap();
    }
    assert!(engine.pooled_scratches() >= 1);
}

#[test]
fn poisoning_between_queries_is_recovered_repeatedly() {
    let engine = engine();
    for round in 0..3 {
        engine.poison_scratch_pool_for_test();
        let resp = engine.query(&QueryRequest::vertex(1).k(2));
        assert!(resp.is_ok(), "round {round}: query failed after poisoning");
    }
}

#[test]
fn scratch_pool_never_exceeds_its_cap_under_a_spike() {
    let engine = engine();
    let cap = engine.pooled_scratch_cap();
    let engine = &engine;

    // Spike: more concurrent query threads than the cap, several
    // rounds so returns land on a full pool repeatedly.
    std::thread::scope(|s| {
        for t in 0..(cap + 4) as u32 {
            s.spawn(move || {
                for i in 0..8u32 {
                    let v = (t * 7 + i) % 24;
                    engine.query(&QueryRequest::vertex(v).k(2)).unwrap();
                }
            });
        }
    });

    let pooled = engine.pooled_scratches();
    assert!(pooled <= cap, "pool retained {pooled} scratches, cap is {cap}");
    // The pool did retain something (the spike ended with returns).
    assert!(pooled >= 1, "pool should retain up to the cap after load");

    // query_batch fan-out respects the same cap.
    let requests: Vec<_> = (0..24u32).map(|v| QueryRequest::vertex(v).k(2)).collect();
    for r in engine.query_batch(&requests) {
        r.unwrap();
    }
    assert!(engine.pooled_scratches() <= cap);
}

#[test]
fn default_cap_tracks_batch_threads() {
    let engine = engine();
    let cap = engine.pooled_scratch_cap();
    assert!((4..=64).contains(&cap), "default cap {cap} outside 4..=64");
}

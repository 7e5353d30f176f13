//! Integration tests for the serving facade: builder validation,
//! `Algorithm::Auto` resolution, batch ordering, and thread safety.

use pcs_core::{Algorithm, PcsError, QueryContext};
use pcs_engine::{BuildError, CacheMode, EngineBuilder, Error, IndexMode, PcsEngine, QueryRequest};
use pcs_graph::Graph;
use pcs_index::ShardedCpIndex;
use pcs_ptree::{PTree, Taxonomy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Compile-time proof that the engine crosses threads: the whole point
/// of the owned facade.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PcsEngine>();
    assert_send_sync::<QueryRequest>();
    assert_send_sync::<Error>();
};

/// Two triangles sharing vertex 0, with incomparable themes: the first
/// is labelled `a`, the second `b`, and vertex 0 carries both — so a
/// k = 2 query at vertex 0 yields exactly two differently-themed
/// communities.
fn fixture() -> (Graph, Taxonomy, Vec<PTree>) {
    let mut tax = Taxonomy::new("r");
    let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
    let b = tax.add_child(Taxonomy::ROOT, "b").unwrap();
    let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]).unwrap();
    let profiles = vec![
        PTree::from_labels(&tax, [a, b]).unwrap(),
        PTree::from_labels(&tax, [a]).unwrap(),
        PTree::from_labels(&tax, [a]).unwrap(),
        PTree::from_labels(&tax, [b]).unwrap(),
        PTree::from_labels(&tax, [b]).unwrap(),
    ];
    (g, tax, profiles)
}

fn engine_with(mode: IndexMode) -> PcsEngine {
    let (g, tax, profiles) = fixture();
    PcsEngine::builder().graph(g).taxonomy(tax).profiles(profiles).index_mode(mode).build().unwrap()
}

#[test]
fn builder_rejects_mismatched_profile_count() {
    let (g, tax, mut profiles) = fixture();
    profiles.pop();
    let err = PcsEngine::builder().graph(g).taxonomy(tax).profiles(profiles).build().unwrap_err();
    assert!(matches!(
        err,
        Error::Build(BuildError::ProfileCountMismatch { vertices: 5, profiles: 4 })
    ));
    // The unified error type surfaces the cause through Display too.
    assert!(err.to_string().contains("5 vertices"));
}

#[test]
fn builder_rejects_missing_components() {
    let (g, tax, profiles) = fixture();
    assert!(matches!(
        EngineBuilder::new().taxonomy(tax.clone()).profiles(profiles.clone()).build(),
        Err(Error::Build(BuildError::MissingGraph))
    ));
    assert!(matches!(
        EngineBuilder::new().graph(g).profiles(profiles).build(),
        Err(Error::Build(BuildError::MissingTaxonomy))
    ));
}

#[test]
fn builder_rejects_profiles_outside_taxonomy() {
    let (g, tax, mut profiles) = fixture();
    // A profile minted against a larger taxonomy refers to labels the
    // engine's taxonomy does not have.
    let mut bigger = tax.clone();
    let extra = bigger.add_child(Taxonomy::ROOT, "x").unwrap();
    profiles[3] = PTree::from_labels(&bigger, [extra]).unwrap();
    let err = PcsEngine::builder().graph(g).taxonomy(tax).profiles(profiles).build().unwrap_err();
    assert!(matches!(err, Error::Build(BuildError::InvalidProfile { vertex: 3 })));
}

#[test]
fn auto_resolves_to_closed_when_index_allowed() {
    let engine = engine_with(IndexMode::Lazy);
    assert_eq!(engine.resolve_algorithm(Algorithm::Auto), Algorithm::Closed);
    assert!(!engine.index_built(), "lazy mode builds nothing up front");
    let resp = engine.query(&QueryRequest::vertex(0).k(2)).unwrap();
    assert_eq!(resp.algorithm, Algorithm::Closed);
    assert!(resp.index_used);
    assert!(engine.index_built(), "first Auto query built the index");
}

/// `index_used` reports what was attached to the context that
/// answered: an index-based algorithm gets the index, `basic` never
/// does — not even from an engine whose facade is already built.
#[test]
fn index_used_is_true_exactly_when_an_index_was_attached() {
    let basic = QueryRequest::vertex(0).k(2).algorithm(Algorithm::Basic);
    let warm = engine_with(IndexMode::Eager);
    assert!(!warm.query(&basic).unwrap().index_used);
    assert!(warm.query(&QueryRequest::vertex(0).k(2)).unwrap().index_used);
    let cold = engine_with(IndexMode::Lazy);
    assert!(!cold.query(&basic).unwrap().index_used, "basic never triggers the build");
}

/// The paper's running example (Fig. 1): eight authors under a
/// seven-label taxonomy.
fn figure1() -> (Graph, Taxonomy, Vec<PTree>) {
    let g = Graph::from_edges(
        8,
        &[
            (0, 1),
            (0, 3),
            (0, 4),
            (1, 3),
            (1, 4),
            (3, 4),
            (1, 2),
            (2, 3),
            (4, 5),
            (5, 6),
            (5, 7),
            (6, 7),
        ],
    )
    .unwrap();
    let mut t = Taxonomy::new("r");
    let cm = t.add_child(0, "CM").unwrap();
    let is = t.add_child(0, "IS").unwrap();
    let hw = t.add_child(0, "HW").unwrap();
    let ml = t.add_child(cm, "ML").unwrap();
    let ai = t.add_child(cm, "AI").unwrap();
    let dms = t.add_child(is, "DMS").unwrap();
    let profiles = [
        vec![dms, hw],
        vec![ml, ai],
        vec![ml, ai, is],
        vec![ml, ai, dms, hw],
        vec![dms, hw],
        vec![is, hw],
        vec![hw, cm],
        vec![is, hw],
    ]
    .into_iter()
    .map(|labels| PTree::from_labels(&t, labels).unwrap())
    .collect();
    (g, t, profiles)
}

/// A seeded random profiled graph: 30 vertices, a 10-label taxonomy.
fn generated(seed: u64) -> (Graph, Taxonomy, Vec<PTree>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tax = Taxonomy::new("r");
    let mut ids = vec![Taxonomy::ROOT];
    for i in 1..10 {
        let parent = ids[rng.gen_range(0..ids.len())];
        ids.push(tax.add_child(parent, &format!("n{i}")).unwrap());
    }
    let n = 30usize;
    let edges: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|a| ((a + 1)..n as u32).map(move |b| (a, b)))
        .filter(|_| rng.gen_bool(0.2))
        .collect();
    let g = Graph::from_edges(n, &edges).unwrap();
    let profiles = (0..n)
        .map(|_| {
            let picks: Vec<u32> =
                (0..rng.gen_range(0..=5usize)).map(|_| ids[rng.gen_range(0..ids.len())]).collect();
            PTree::from_labels(&tax, picks).unwrap()
        })
        .collect();
    (g, tax, profiles)
}

/// `basic` is Algorithm 1 on every engine: a built index changes
/// neither its communities nor any of its effort counters.
#[test]
fn basic_answers_and_effort_do_not_depend_on_the_index_mode() {
    for (g, tax, profiles) in [figure1(), generated(7)] {
        let engines: Vec<PcsEngine> = [IndexMode::Lazy, IndexMode::Eager]
            .into_iter()
            .map(|mode| {
                PcsEngine::builder()
                    .graph(g.clone())
                    .taxonomy(tax.clone())
                    .profiles(profiles.clone())
                    .index_mode(mode)
                    .build()
                    .unwrap()
            })
            .collect();
        for q in 0..g.num_vertices() as u32 {
            for k in 0..=3u32 {
                let request =
                    QueryRequest::vertex(q).k(k).algorithm(Algorithm::Basic).collect_stats(true);
                let answers: Vec<_> = engines
                    .iter()
                    .map(|engine| {
                        let resp = engine.query(&request).unwrap();
                        assert!(resp.stats.is_some());
                        (resp.outcome.communities, resp.stats)
                    })
                    .collect();
                assert_eq!(answers[0], answers[1], "cold Lazy vs warm Eager, q={q} k={k}");
            }
        }
        assert!(!engines[0].index_built(), "basic never triggers the build");
        assert!(engines[1].index_built());
    }
}

#[test]
fn auto_resolution_matches_query_context_semantics() {
    // The same rule applies at the borrowed layer: Auto follows the
    // attached index.
    let (g, tax, profiles) = fixture();
    let ctx = QueryContext::new(&g, &tax, &profiles).unwrap();
    let no_index = ctx.query(0, 2, Algorithm::Auto).unwrap();
    let index = ShardedCpIndex::build_resident(&g, &tax, &profiles).unwrap();
    let ctx = ctx.with_index(&index);
    let with_index = ctx.query(0, 2, Algorithm::Auto).unwrap();
    assert_eq!(no_index.communities, with_index.communities);
}

#[test]
fn eager_mode_builds_index_at_construction() {
    let engine = engine_with(IndexMode::Eager);
    assert!(engine.index_built());
}

#[test]
fn all_algorithms_agree_through_the_engine() {
    let engine = engine_with(IndexMode::Lazy);
    let auto = engine.query(&QueryRequest::vertex(0).k(2)).unwrap();
    for algo in Algorithm::ALL {
        let resp = engine.query(&QueryRequest::vertex(0).k(2).algorithm(algo)).unwrap();
        assert_eq!(
            resp.outcome.communities,
            auto.outcome.communities,
            "{} disagrees with auto",
            algo.name()
        );
    }
}

#[test]
fn query_errors_flow_through_unified_error() {
    let engine = engine_with(IndexMode::Lazy);
    let err = engine.query(&QueryRequest::vertex(99).k(2)).unwrap_err();
    assert!(matches!(err, Error::Query(PcsError::QueryVertexOutOfRange { vertex: 99, n: 5 })));
    // One std::error::Error with a causal chain.
    let dyn_err: &dyn std::error::Error = &err;
    assert!(dyn_err.source().is_some());
}

#[test]
fn batch_preserves_request_order() {
    let engine = engine_with(IndexMode::Lazy);
    // Interleave valid and invalid requests so slots are distinguishable.
    let requests: Vec<QueryRequest> = vec![
        QueryRequest::vertex(3).k(2),
        QueryRequest::vertex(99).k(2), // out of range
        QueryRequest::vertex(0).k(2),
        QueryRequest::vertex(1).k(2),
        QueryRequest::vertex(4).k(2),
    ];
    let batch = engine.query_batch(&requests);
    assert_eq!(batch.len(), requests.len());
    for (req, result) in requests.iter().zip(&batch) {
        match result {
            Ok(resp) => {
                let sequential = engine.query(req).unwrap();
                assert_eq!(resp.outcome.communities, sequential.outcome.communities);
                // Every community contains its own query vertex: the
                // response really belongs to this slot.
                for c in resp.communities() {
                    assert!(c.vertices.binary_search(&req.vertex_id()).is_ok());
                }
            }
            Err(e) => {
                assert_eq!(req.vertex_id(), 99);
                assert!(matches!(
                    e,
                    Error::Query(PcsError::QueryVertexOutOfRange { vertex: 99, .. })
                ));
            }
        }
    }
}

#[test]
fn batch_and_sequential_agree_on_larger_fanout() {
    let engine = engine_with(IndexMode::Eager);
    let requests: Vec<QueryRequest> =
        (0..5).cycle().take(40).map(|v| QueryRequest::vertex(v).k(2)).collect();
    let batch = engine.query_batch(&requests);
    for (req, result) in requests.iter().zip(batch) {
        let got = result.unwrap();
        let want = engine.query(req).unwrap();
        assert_eq!(got.outcome.communities, want.outcome.communities);
    }
}

/// `query_batch` is where the result cache is read and written: a
/// request `query_cached` already answered is one hit sharing the
/// cached `Arc`, its bypassing twin counts nothing, and a new request
/// is one miss.
#[test]
fn query_batch_answers_hits_from_the_result_cache() {
    let (g, tax, profiles) = fixture();
    let engine = PcsEngine::builder()
        .graph(g)
        .taxonomy(tax)
        .profiles(profiles)
        .result_cache(CacheMode::Wholesale)
        .build()
        .unwrap();
    let a = QueryRequest::vertex(0).k(2);
    let b = QueryRequest::vertex(3).k(2);
    let cached = engine.query_cached(&a).unwrap();
    let before = engine.cache_stats();

    let requests = [a.clone(), a.clone().bypass_cache(true), b];
    let batch = engine.query_batch(&requests);
    let after = engine.cache_stats();
    assert_eq!((after.hits - before.hits, after.misses - before.misses), (1, 1));
    for (req, result) in requests.iter().zip(&batch) {
        let got = result.as_ref().unwrap();
        let want = engine.query(req).unwrap();
        assert_eq!(got.outcome.communities, want.outcome.communities, "{req:?}");
        assert_eq!((got.algorithm, got.epoch), (want.algorithm, want.epoch), "{req:?}");
    }
    assert!(std::sync::Arc::ptr_eq(batch[0].as_ref().unwrap(), &cached));
}

#[test]
fn engine_is_usable_from_scoped_threads() {
    let engine = engine_with(IndexMode::Lazy);
    let engine = &engine;
    let results: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                s.spawn(move || {
                    // All threads race the lazy index build; OnceLock
                    // hands every one the same instance.
                    let resp = engine.query(&QueryRequest::vertex(t % 5).k(2)).unwrap();
                    resp.communities().len()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(results.len(), 4);
    assert!(results.iter().all(|&n| n >= 1));
}

#[test]
fn max_communities_truncates_response_only() {
    let engine = engine_with(IndexMode::Lazy);
    let full = engine.query(&QueryRequest::vertex(0).k(2)).unwrap();
    assert!(full.communities().len() >= 2, "fixture has two themes at v0");
    assert!(!full.truncated());
    let capped = engine.query(&QueryRequest::vertex(0).k(2).max_communities(1)).unwrap();
    assert_eq!(capped.communities().len(), 1);
    assert_eq!(capped.total_communities, full.communities().len());
    assert!(capped.truncated());
}

#[test]
fn stats_surface_only_when_requested() {
    let engine = engine_with(IndexMode::Lazy);
    let without = engine.query(&QueryRequest::vertex(0).k(2)).unwrap();
    assert!(without.stats.is_none());
    let with = engine.query(&QueryRequest::vertex(0).k(2).collect_stats(true)).unwrap();
    let stats = with.stats.expect("requested");
    assert!(stats.verifications > 0);
}

#[test]
fn snapshot_context_bridges_to_the_paper_layer() {
    let engine = engine_with(IndexMode::Eager);
    let snap = engine.snapshot();
    let ctx = QueryContext::from_parts(
        snap.graph(),
        engine.taxonomy(),
        snap.profiles(),
        snap.index(),
        snap.cores(),
    )
    .unwrap();
    let via_ctx = ctx.query(0, 2, Algorithm::AdvP).unwrap();
    let via_engine =
        engine.query(&QueryRequest::vertex(0).k(2).algorithm(Algorithm::AdvP)).unwrap();
    assert_eq!(via_ctx.communities, via_engine.outcome.communities);
}

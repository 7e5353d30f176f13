//! Integration tests for the update subsystem: batch semantics, epoch
//! snapshots, validation atomicity, and index maintenance policies.

use pcs_core::Algorithm;
use pcs_engine::{
    Error, IndexMaintenance, IndexMode, PcsEngine, QueryRequest, UpdateBatch, UpdateError,
};
use pcs_graph::Graph;
use pcs_index::CpPatchStats;
use pcs_ptree::{PTree, Taxonomy};

/// Two triangles sharing vertex 0 (labels `a` and `b`), plus an
/// isolated vertex 5 for edge growth.
fn fixture() -> (Graph, Taxonomy, Vec<PTree>) {
    let mut tax = Taxonomy::new("r");
    let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
    let b = tax.add_child(Taxonomy::ROOT, "b").unwrap();
    let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]).unwrap();
    let profiles = vec![
        PTree::from_labels(&tax, [a, b]).unwrap(),
        PTree::from_labels(&tax, [a]).unwrap(),
        PTree::from_labels(&tax, [a]).unwrap(),
        PTree::from_labels(&tax, [b]).unwrap(),
        PTree::from_labels(&tax, [b]).unwrap(),
        PTree::from_labels(&tax, [a]).unwrap(),
    ];
    (g, tax, profiles)
}

fn engine_with(mode: IndexMode) -> PcsEngine {
    let (g, tax, profiles) = fixture();
    PcsEngine::builder().graph(g).taxonomy(tax).profiles(profiles).index_mode(mode).build().unwrap()
}

#[test]
fn add_edge_changes_answers_and_bumps_epoch() {
    let engine = engine_with(IndexMode::Eager);
    assert_eq!(engine.epoch(), 0);
    // Vertex 5 is isolated: no community at k=2.
    let before = engine.query(&QueryRequest::vertex(5).k(2)).unwrap();
    assert!(before.communities().is_empty());
    assert_eq!(before.epoch, 0);
    // Wire 5 into the `a` triangle.
    let report = engine.apply(&UpdateBatch::new().add_edge(5, 1).add_edge(5, 2)).unwrap();
    assert_eq!(report.epoch, 1);
    assert_eq!(report.edges_added, 2);
    assert_eq!(report.noops, 0);
    assert!(report.changed());
    assert!(report.cores_changed > 0, "5 joins the 2-core");
    assert_eq!(engine.epoch(), 1);
    let after = engine.query(&QueryRequest::vertex(5).k(2)).unwrap();
    assert_eq!(after.epoch, 1);
    assert_eq!(after.communities().len(), 1);
    // The whole `a`-labelled 2-core: triangle {0,1,2} plus the newcomer.
    assert_eq!(after.communities()[0].vertices, vec![0, 1, 2, 5]);
}

#[test]
fn old_snapshots_keep_answering_the_old_graph() {
    let engine = engine_with(IndexMode::Eager);
    let old = engine.snapshot();
    engine.add_edge(5, 1).unwrap();
    engine.add_edge(5, 2).unwrap();
    // The pinned snapshot still shows the pre-update graph...
    assert_eq!(old.epoch(), 0);
    assert_eq!(old.graph().num_edges(), 6);
    assert!(!old.graph().has_edge(5, 1));
    // ...while the engine serves the new epoch.
    let now = engine.snapshot();
    assert_eq!(now.epoch(), 2);
    assert!(now.graph().has_edge(5, 1));
    assert_eq!(now.cores().core_number(5), 2);
}

#[test]
fn noop_batch_publishes_nothing() {
    let engine = engine_with(IndexMode::Eager);
    let report = engine
        .apply(&UpdateBatch::new().add_edge(0, 1).remove_edge(2, 4)) // both no-ops
        .unwrap();
    assert_eq!(report.epoch, 0, "epoch unchanged");
    assert_eq!(report.noops, 2);
    assert!(!report.changed());
    assert_eq!(report.index, IndexMaintenance::Unchanged);
    assert_eq!(engine.epoch(), 0);
}

#[test]
fn profile_rewrite_to_identical_value_is_a_noop() {
    let engine = engine_with(IndexMode::Eager);
    let (_, tax, profiles) = fixture();
    let report = engine.update_profile(1, profiles[1].clone()).unwrap();
    assert_eq!(report.noops, 1);
    assert_eq!(report.profiles_changed, 0);
    assert_eq!(engine.epoch(), 0);
    // A sequence of writes that ends where it started is also a no-op.
    let a_only = profiles[1].clone();
    let b_only = PTree::from_labels(&tax, [tax.id_of("b").unwrap()]).unwrap();
    let report =
        engine.apply(&UpdateBatch::new().set_profile(1, b_only).set_profile(1, a_only)).unwrap();
    assert_eq!(report.profiles_changed, 0);
    assert_eq!(engine.epoch(), 0);
}

#[test]
fn profile_update_retargets_communities() {
    let engine = engine_with(IndexMode::Eager);
    let tax = engine.taxonomy().clone();
    let b = tax.id_of("b").unwrap();
    // Re-profile vertex 1 from `a` to `b`: the a-triangle loses its
    // shared theme below the root.
    let report = engine.update_profile(1, PTree::from_labels(&tax, [b]).unwrap()).unwrap();
    assert_eq!(report.profiles_changed, 1);
    let resp = engine.query(&QueryRequest::vertex(1).k(2)).unwrap();
    // 1's communities now carry either the root-only theme or b-themes;
    // none may claim `a`.
    let a = tax.id_of("a").unwrap();
    assert!(resp.communities().iter().all(|c| !c.subtree.contains(a)));
}

#[test]
fn rejected_batches_leave_the_engine_untouched() {
    let engine = engine_with(IndexMode::Eager);
    let baseline = engine.query(&QueryRequest::vertex(0).k(2)).unwrap();
    // Valid first op, invalid second: the whole batch must bounce.
    let err = engine.apply(&UpdateBatch::new().add_edge(5, 1).add_edge(0, 99)).unwrap_err();
    assert!(matches!(err, Error::Update(UpdateError::VertexOutOfRange { vertex: 99, n: 6 })));
    assert_eq!(engine.epoch(), 0, "nothing was applied");
    assert!(!engine.snapshot().graph().has_edge(5, 1), "batch rejected atomically");
    let after = engine.query(&QueryRequest::vertex(0).k(2)).unwrap();
    assert_eq!(baseline.outcome.communities, after.outcome.communities);

    let err = engine.add_edge(2, 2).unwrap_err();
    assert!(matches!(err, Error::Update(UpdateError::SelfLoop { vertex: 2 })));
    // Removing a self-loop names an edge that cannot exist: a counted
    // no-op like any other absent removal, never an error.
    let report = engine.remove_edge(2, 2).unwrap();
    assert_eq!(report.noops, 1);
    assert!(!report.changed());

    // A profile minted against a foreign taxonomy is rejected.
    let mut bigger = engine.taxonomy().clone();
    let alien = bigger.add_child(Taxonomy::ROOT, "alien").unwrap();
    let err = engine.update_profile(1, PTree::from_labels(&bigger, [alien]).unwrap()).unwrap_err();
    assert!(matches!(err, Error::Update(UpdateError::InvalidProfile { vertex: 1 })));
    assert_eq!(engine.epoch(), 0);
}

#[test]
fn eager_engine_patches_incrementally_on_small_deltas() {
    let engine = engine_with(IndexMode::Eager);
    let report = engine.add_edge(5, 1).unwrap();
    match report.index {
        IndexMaintenance::Patched(stats) => {
            assert!(stats.labels_touched >= 1);
            assert_eq!(stats.labels_rebuilt, stats.labels_touched);
        }
        other => panic!("expected incremental patch, got {other:?}"),
    }
    assert!(engine.index_built());
}

#[test]
fn redundant_edge_inside_a_community_is_rebuilt() {
    // 4-cycle of `a`-vertices: the diagonal changes no cores and merges
    // no ĉores, yet both touched resident labels are rebuilt, and every
    // answer afterwards equals index-free `basic`.
    let mut tax = Taxonomy::new("r");
    let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
    let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
    let profiles: Vec<PTree> = (0..4).map(|_| PTree::from_labels(&tax, [a]).unwrap()).collect();
    let engine = PcsEngine::builder()
        .graph(g)
        .taxonomy(tax)
        .profiles(profiles)
        .index_mode(IndexMode::Eager)
        .build()
        .unwrap();
    let report = engine.add_edge(0, 2).unwrap();
    match report.index {
        IndexMaintenance::Patched(stats) => {
            assert_eq!(stats.labels_rebuilt, 2, "root and `a` are both rebuilt");
        }
        other => panic!("expected incremental patch, got {other:?}"),
    }
    for q in 0..4u32 {
        for k in 1..=3u32 {
            let reference =
                engine.query(&QueryRequest::vertex(q).k(k).algorithm(Algorithm::Basic)).unwrap();
            for algo in Algorithm::ALL {
                let resp = engine.query(&QueryRequest::vertex(q).k(k).algorithm(algo)).unwrap();
                assert_eq!(
                    resp.outcome.communities,
                    reference.outcome.communities,
                    "{} disagrees with basic (q={q}, k={k})",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn oversized_deltas_patch_on_every_policy() {
    // Taxonomy with 8 leaf labels; rewriting a profile from everything
    // to root-only touches all of them at once — still one patch.
    let mut tax = Taxonomy::new("r");
    let leaves: Vec<_> =
        (0..8).map(|i| tax.add_child(Taxonomy::ROOT, &format!("l{i}")).unwrap()).collect();
    let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
    let profiles: Vec<PTree> =
        (0..3).map(|_| PTree::from_labels(&tax, leaves.iter().copied()).unwrap()).collect();
    let full = PTree::from_labels(&tax, leaves.iter().copied()).unwrap();

    // Eager: patched, and still fully resident.
    let eager = PcsEngine::builder()
        .graph(g.clone())
        .taxonomy(tax.clone())
        .profiles(profiles.clone())
        .index_mode(IndexMode::Eager)
        .build()
        .unwrap();
    let report = eager.update_profile(0, PTree::root_only()).unwrap();
    match report.index {
        IndexMaintenance::Patched(stats) => assert!(stats.labels_touched >= 8, "{stats:?}"),
        other => panic!("expected a patch, got {other:?}"),
    }
    let snap = eager.snapshot();
    assert_eq!(snap.resident_shards(), snap.index().unwrap().num_populated_labels());

    // Lazy with a built index: patched, and answers correctly.
    let lazy = PcsEngine::builder()
        .graph(g.clone())
        .taxonomy(tax.clone())
        .profiles(profiles.clone())
        .index_mode(IndexMode::Lazy)
        .build()
        .unwrap();
    lazy.warm().unwrap();
    assert!(lazy.index_built());
    let report = lazy.update_profile(0, PTree::root_only()).unwrap();
    assert!(lazy.index_built());
    // The write built no shard: the eight touched leaves wait for their
    // next probe, only the untouched root stays resident.
    assert_eq!(
        report.index,
        IndexMaintenance::Patched(CpPatchStats {
            labels_touched: 8,
            labels_rebuilt: 8,
            labels_invalidated: 0
        })
    );
    assert_eq!(lazy.snapshot().resident_shards(), 1);
    let resp = lazy.query(&QueryRequest::vertex(1).k(2).algorithm(Algorithm::AdvP)).unwrap();
    assert_eq!(resp.communities().len(), 1);
    let basic = lazy.query(&QueryRequest::vertex(1).k(2).algorithm(Algorithm::Basic)).unwrap();
    assert_eq!(resp.communities(), basic.communities());
    // Restoring the full profile goes back through the update path.
    let report = lazy.update_profile(0, full).unwrap();
    assert!(matches!(report.index, IndexMaintenance::Patched(_)));

    // Lazy with no index yet: stays unbuilt.
    let cold = PcsEngine::builder()
        .graph(g)
        .taxonomy(tax)
        .profiles(profiles)
        .index_mode(IndexMode::Lazy)
        .build()
        .unwrap();
    let report = cold.add_edge(0, 1); // duplicate -> noop, no publish
    assert_eq!(report.unwrap().index, IndexMaintenance::Unchanged);
    let report = cold.remove_edge(0, 1).unwrap();
    assert_eq!(report.index, IndexMaintenance::NotBuilt);
    assert!(!cold.index_built());
}

#[test]
fn updated_engine_agrees_across_all_algorithms() {
    let engine = engine_with(IndexMode::Eager);
    engine.apply(&UpdateBatch::new().add_edge(5, 1).add_edge(5, 2).remove_edge(0, 3)).unwrap();
    for q in [0u32, 1, 5] {
        let reference =
            engine.query(&QueryRequest::vertex(q).k(2).algorithm(Algorithm::Basic)).unwrap();
        for algo in Algorithm::ALL {
            let resp = engine.query(&QueryRequest::vertex(q).k(2).algorithm(algo)).unwrap();
            assert_eq!(
                resp.outcome.communities,
                reference.outcome.communities,
                "{} disagrees after updates (q={q})",
                algo.name()
            );
        }
    }
}

#[test]
fn query_batch_runs_against_one_epoch() {
    let engine = engine_with(IndexMode::Eager);
    engine.add_edge(5, 1).unwrap();
    let requests: Vec<QueryRequest> =
        (0..6).cycle().take(30).map(|v| QueryRequest::vertex(v).k(2)).collect();
    let responses = engine.query_batch(&requests);
    let epochs: Vec<u64> = responses.iter().map(|r| r.as_ref().unwrap().epoch).collect();
    assert!(epochs.iter().all(|&e| e == epochs[0]), "one snapshot answers the whole batch");
    assert_eq!(epochs[0], 1);
}

#[test]
fn snapshot_sees_the_latest_epoch() {
    let engine = engine_with(IndexMode::Eager);
    engine.apply(&UpdateBatch::new().add_edge(5, 1).add_edge(5, 2)).unwrap();
    assert_eq!(engine.snapshot().graph().num_edges(), 8);
}

#[test]
fn builder_rejects_malformed_graphs() {
    // Valid canonical graphs pass...
    let (g, tax, profiles) = fixture();
    assert!(PcsEngine::builder()
        .graph(g)
        .taxonomy(tax.clone())
        .profiles(profiles.clone())
        .build()
        .is_ok());
    // ...and a foreign CSR layout with a self-loop is rejected by
    // Graph::from_csr before it can ever reach an engine. (From_edges
    // canonicalizes; from_csr refuses — no silent indexing either way.)
    let err = Graph::from_csr(vec![0, 1, 1], vec![0]).unwrap_err();
    assert!(err.to_string().contains("self-loop"));
}

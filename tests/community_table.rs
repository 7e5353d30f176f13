//! The index's closed-community table: however warm it is, and however
//! it got warm, every answer equals what index-free `basic` computes on
//! the same graph — and what a hit saves never shows up as extra work.

use std::sync::Arc;

use pcs::core::QueryScratch;
use pcs::index::GraphDelta;
use pcs::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A reproducible random profiled graph driven by a single seed.
fn random_instance(seed: u64) -> (Graph, Taxonomy, Vec<PTree>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let labels = rng.gen_range(4..=12usize);
    let mut tax = Taxonomy::new("r");
    let mut ids = vec![Taxonomy::ROOT];
    for i in 1..labels {
        let parent = ids[rng.gen_range(0..ids.len())];
        ids.push(tax.add_child(parent, &format!("n{i}")).unwrap());
    }
    let n = rng.gen_range(10..=28usize);
    let p = rng.gen_range(0.15..0.4);
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            if rng.gen_bool(p) {
                edges.push((a, b));
            }
        }
    }
    let g = Graph::from_edges(n, &edges).unwrap();
    let profiles = (0..n).map(|_| random_profile(&mut rng, &tax, &ids)).collect();
    (g, tax, profiles)
}

fn random_profile(rng: &mut SmallRng, tax: &Taxonomy, ids: &[LabelId]) -> PTree {
    let count = rng.gen_range(0..=5usize);
    let picks: Vec<LabelId> = (0..count).map(|_| ids[rng.gen_range(0..ids.len())]).collect();
    PTree::from_labels(tax, picks).unwrap()
}

/// `basic`'s answer for every `(k, q)`, `k ∈ 0..=3`, in that order.
fn basic_answers(g: &Graph, tax: &Taxonomy, profiles: &[PTree]) -> Vec<Vec<ProfiledCommunity>> {
    let plain = QueryContext::new(g, tax, profiles).unwrap();
    let n = g.num_vertices() as u32;
    (0..=3u32)
        .flat_map(|k| (0..n).map(move |q| (q, k)))
        .map(|(q, k)| plain.query(q, k, Algorithm::Basic).unwrap().communities)
        .collect()
}

/// Every `(k, q)` through `closed`, `incre` and adv-P on one shared
/// index, forward and then in reverse, each answer checked against
/// `expected`.
fn check_on_shared_index(
    g: &Graph,
    tax: &Taxonomy,
    profiles: &[PTree],
    index: &ShardedCpIndex,
    expected: &[Vec<ProfiledCommunity>],
    label: &str,
) {
    let ctx = QueryContext::new(g, tax, profiles).unwrap().with_index(index);
    let n = g.num_vertices() as u32;
    let keys: Vec<(u32, u32)> = (0..=3u32).flat_map(|k| (0..n).map(move |q| (q, k))).collect();
    let mut scratch = QueryScratch::new(g.num_vertices());
    for pass in [false, true] {
        for i in 0..keys.len() {
            let i = if pass { keys.len() - 1 - i } else { i };
            let (q, k) = keys[i];
            for algo in [Algorithm::Closed, Algorithm::Incre, Algorithm::AdvP] {
                let got = ctx.query_with_scratch(q, k, algo, &mut scratch).unwrap();
                assert_eq!(
                    got.communities,
                    expected[i],
                    "{label}: {} q={q} k={k} reverse={pass}",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn shared_index_answers_every_vertex_like_basic() {
    for seed in 0..24u64 {
        let (g, tax, profiles) = random_instance(seed);
        let index = ShardedCpIndex::build_resident(&g, &tax, &profiles).unwrap();
        let expected = basic_answers(&g, &tax, &profiles);
        check_on_shared_index(&g, &tax, &profiles, &index, &expected, &format!("seed {seed}"));
    }
}

#[test]
fn shared_index_answers_the_generator_corpus_like_basic() {
    let tax = pcs::datasets::taxonomy::random_taxonomy(60, 4, 6, 3);
    let spec = DatasetSpec::small("table", 90, 23);
    let ds = pcs::datasets::gen::generate(&spec, tax);
    let index = ShardedCpIndex::build_resident(&ds.graph, &ds.tax, &ds.profiles).unwrap();
    let expected = basic_answers(&ds.graph, &ds.tax, &ds.profiles);
    assert!(expected.iter().any(|c| c.len() > 1), "the corpus reaches multi-community answers");
    check_on_shared_index(&ds.graph, &ds.tax, &ds.profiles, &index, &expected, "corpus");
}

/// Two triangles carry label `a` and are joined only through a `b`
/// triangle: at k = 2 `Gk` holds all nine vertices, and the label set
/// `{r, a}` has two disjoint communities. Each query gets its own.
#[test]
fn disjoint_components_of_one_label_set_stay_apart() {
    let mut tax = Taxonomy::new("r");
    let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
    let b = tax.add_child(Taxonomy::ROOT, "b").unwrap();
    let triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8), (6, 8)];
    let bridges = [(2, 6), (5, 7)];
    let g = Graph::from_edges(9, &[&triangles[..], &bridges[..]].concat()).unwrap();
    let profiles: Vec<PTree> =
        (0..9).map(|v| PTree::from_labels(&tax, [if v < 6 { a } else { b }]).unwrap()).collect();
    let index = ShardedCpIndex::build_resident(&g, &tax, &profiles).unwrap();
    let ctx = QueryContext::new(&g, &tax, &profiles).unwrap().with_index(&index);
    let theme = PTree::from_labels(&tax, [a]).unwrap();
    let query = |q| ctx.query(q, 2, Algorithm::Closed).unwrap();
    for (q, want) in [(0, [0, 1, 2]), (3, [3, 4, 5]), (1, [0, 1, 2]), (5, [3, 4, 5])] {
        let out = query(q);
        assert_eq!(out.communities.len(), 1, "q={q}");
        assert_eq!(out.communities[0].vertices, want, "q={q}");
        assert_eq!(out.communities[0].subtree, theme, "q={q}");
    }
    // The second query into a component is answered by the table alone.
    let again = query(4);
    assert_eq!(again.communities[0].vertices, [3, 4, 5]);
    assert_eq!(again.stats.verifications, 0);
    assert!(again.stats.memo_hits >= 2, "Gk and {{r, a}} both hit");
}

/// A random batch of edge and profile changes, applied to `g` and
/// `profiles` in place; returns the deltas.
fn mutate(
    rng: &mut SmallRng,
    g: &mut Graph,
    tax: &Taxonomy,
    profiles: &mut [PTree],
) -> Vec<GraphDelta> {
    let n = g.num_vertices() as u32;
    let ids: Vec<LabelId> = (0..tax.len() as LabelId).collect();
    let mut dyn_g = pcs::graph::dynamic::DynamicGraph::from_graph(g);
    let mut deltas = Vec::new();
    let mut reprofiled = Vec::new();
    for _ in 0..rng.gen_range(3..10usize) {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        match rng.gen_range(0..3u32) {
            0 if u != v && dyn_g.add_edge(u, v).unwrap() => {
                deltas.push(GraphDelta::EdgeAdded { u, v });
            }
            1 if u != v && dyn_g.remove_edge(u, v).unwrap() => {
                deltas.push(GraphDelta::EdgeRemoved { u, v });
            }
            2 if !reprofiled.contains(&u) => {
                let p = random_profile(rng, tax, &ids);
                if p != profiles[u as usize] {
                    profiles[u as usize] = p;
                    reprofiled.push(u);
                    deltas.push(GraphDelta::ProfileChanged { v: u });
                }
            }
            _ => {}
        }
    }
    *g = dyn_g.to_graph();
    deltas
}

/// `apply_batch` on an index whose table earlier queries filled: the
/// patched index answers like `basic` on the mutated graph.
#[test]
fn apply_batch_on_a_warm_table_answers_the_mutated_graph() {
    for seed in 0..16u64 {
        let (mut g, tax, mut profiles) = random_instance(seed);
        let mut index = ShardedCpIndex::build_resident(&g, &tax, &profiles).unwrap();
        let before = basic_answers(&g, &tax, &profiles);
        check_on_shared_index(&g, &tax, &profiles, &index, &before, "warm-up");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7ab1e);
        let deltas = mutate(&mut rng, &mut g, &tax, &mut profiles);
        if deltas.is_empty() {
            continue;
        }
        let (g_after, profiles_after) = (Arc::new(g.clone()), Arc::new(profiles.clone()));
        index.apply_batch(&g_after, &profiles_after, &deltas, None);
        let after = basic_answers(&g, &tax, &profiles);
        check_on_shared_index(&g, &tax, &profiles, &index, &after, &format!("seed {seed}"));
    }
}

/// An engine's query → apply → query: every epoch answers like `basic`
/// on that epoch's graph, though each query before a write warmed the
/// index the write patches.
#[test]
fn engine_answers_every_epoch_like_basic() {
    for seed in 0..8u64 {
        let (g, tax, profiles) = random_instance(seed);
        let n = g.num_vertices() as u32;
        let engine = PcsEngine::builder()
            .graph(g)
            .taxonomy(tax)
            .profiles(profiles)
            .index_mode(IndexMode::Eager)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xe90c);
        for epoch in 0..4 {
            let snap = engine.snapshot();
            let plain =
                QueryContext::new(snap.graph(), engine.taxonomy(), snap.profiles()).unwrap();
            for q in 0..n {
                let k = rng.gen_range(0..=3u32);
                let want = plain.query(q, k, Algorithm::Basic).unwrap().communities;
                let got = engine.query(&QueryRequest::vertex(q).k(k)).unwrap();
                assert_eq!(got.outcome.communities, want, "seed {seed} epoch {epoch} q={q} k={k}");
            }
            let mut batch = UpdateBatch::new();
            for _ in 0..rng.gen_range(2..8usize) {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u == v {
                    continue;
                }
                batch =
                    if rng.gen_bool(0.6) { batch.add_edge(u, v) } else { batch.remove_edge(u, v) };
            }
            engine.apply(&batch).unwrap();
        }
    }
}

/// The effort gate on a cold table: on a freshly built index `closed`
/// never verifies more than `incre`, and re-running every query on the
/// index the whole sample warmed never verifies more than the cold run.
#[test]
fn closed_effort_gate_on_a_cold_and_a_warm_table() {
    let tax = pcs::datasets::taxonomy::random_taxonomy(120, 5, 8, 3);
    let spec = DatasetSpec::small("agree", 260, 17);
    let ds = pcs::datasets::gen::generate(&spec, tax);
    let (queries, level) = pcs::datasets::sample_query_vertices(&ds, 5, 8, 5);
    assert!(!queries.is_empty());
    let build = || ShardedCpIndex::build_resident(&ds.graph, &ds.tax, &ds.profiles).unwrap();
    let warm = build();
    let warm_ctx = QueryContext::new(&ds.graph, &ds.tax, &ds.profiles).unwrap().with_index(&warm);
    let mut cold_runs = Vec::new();
    for &q in &queries {
        let cold = build();
        let ctx = QueryContext::new(&ds.graph, &ds.tax, &ds.profiles).unwrap().with_index(&cold);
        let verified = |algo| ctx.query(q, level, algo).unwrap().stats.verifications;
        let (incre, closed) = (verified(Algorithm::Incre), verified(Algorithm::Closed));
        assert!(closed <= incre, "q={q}: cold closed verified {closed} subtrees, incre {incre}");
        cold_runs.push(closed);
        warm_ctx.query(q, level, Algorithm::Closed).unwrap();
    }
    for (&q, &cold) in queries.iter().zip(&cold_runs) {
        let warm = warm_ctx.query(q, level, Algorithm::Closed).unwrap().stats.verifications;
        assert!(warm <= cold, "q={q}: warm closed verified {warm} subtrees, cold {cold}");
    }
}

/// Taxonomy `r → {a, b}` and its two labels.
fn two_labels() -> (Taxonomy, LabelId, LabelId) {
    let mut tax = Taxonomy::new("r");
    let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
    let b = tax.add_child(Taxonomy::ROOT, "b").unwrap();
    (tax, a, b)
}

fn profile(tax: &Taxonomy, labels: &[LabelId]) -> PTree {
    PTree::from_labels(tax, labels.iter().copied()).unwrap()
}

/// Warms a resident index's table with every query on `before`,
/// applies the one `delta` that turns it into `after`, and checks the
/// patched index answers `after` like `basic`. The answer at `(q, 2)`
/// must differ between the two, so a stale entry would show.
fn warm_then_patch(
    tax: &Taxonomy,
    before: (&[(u32, u32)], Vec<PTree>),
    after: (&[(u32, u32)], Vec<PTree>),
    delta: GraphDelta,
    q: usize,
    label: &str,
) -> ShardedCpIndex {
    let graph = |edges: &[(u32, u32)], n| Graph::from_edges(n, edges).unwrap();
    let (g, profiles) = (graph(before.0, before.1.len()), before.1);
    let (g2, profiles2) = (graph(after.0, after.1.len()), after.1);
    let (want_before, want) =
        (basic_answers(&g, tax, &profiles), basic_answers(&g2, tax, &profiles2));
    let at = 2 * g.num_vertices() + q;
    assert_ne!(want_before[at], want[at], "{label}: the delta changes the answer at q={q} k=2");
    let mut index = ShardedCpIndex::build_resident(&g, tax, &profiles).unwrap();
    check_on_shared_index(&g, tax, &profiles, &index, &want_before, label);
    index.apply_batch(&Arc::new(g2.clone()), &Arc::new(profiles2.clone()), &[delta], None);
    check_on_shared_index(&g2, tax, &profiles2, &index, &want, label);
    index
}

/// Triangle `{0, 1, 2}` carries `a`; so do 3 (hanging off 0) and 4
/// (hanging off 1). The edge 3–4 closes the cycle 0–3–4–1, pulling
/// both into the 2-core of the `a`-carriers though neither endpoint
/// was in the stored community.
#[test]
fn an_edge_between_carriers_outside_the_community_drops_it() {
    let (tax, a, _) = two_labels();
    let before = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)];
    let after = [&before[..], &[(3, 4)]].concat();
    let profiles = vec![profile(&tax, &[a]); 5];
    let delta = GraphDelta::EdgeAdded { u: 3, v: 4 };
    warm_then_patch(&tax, (&before, profiles.clone()), (&after, profiles), delta, 0, "join");
}

/// The 4-cycle 0–1–2–3 carries `a` and hangs off the `b` triangle
/// `{4, 5, 6}` by 3–4. Removing 0–1 peels the whole cycle at k = 2.
#[test]
fn a_removal_inside_the_community_that_cascades_drops_it() {
    let (tax, a, b) = two_labels();
    let after = [(1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (4, 6)];
    let before = [&after[..], &[(0, 1)]].concat();
    let profiles: Vec<PTree> =
        (0..7).map(|v| profile(&tax, &[if v < 4 { a } else { b }])).collect();
    let delta = GraphDelta::EdgeRemoved { u: 0, v: 1 };
    warm_then_patch(&tax, (&before, profiles.clone()), (&after, profiles), delta, 2, "cascade");
}

/// Vertex 3 is adjacent to two members of the `a` triangle but carries
/// only `b`; taking on `a` makes it a member.
#[test]
fn a_neighbour_becoming_a_carrier_drops_the_community() {
    let (tax, a, b) = two_labels();
    let edges = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)];
    let mut profiles = vec![profile(&tax, &[a]); 3];
    profiles.push(profile(&tax, &[b]));
    let mut after = profiles.clone();
    after[3] = profile(&tax, &[a]);
    let delta = GraphDelta::ProfileChanged { v: 3 };
    warm_then_patch(&tax, (&edges, profiles), (&edges, after), delta, 0, "neighbour");
}

/// The `a` triangle's members 0 and 1 also carry `b`. Vertex 2 gaining
/// `b` grows the community's closure to `{r, a, b}`; losing it again
/// shrinks the closure back.
#[test]
fn a_member_changing_labels_drops_the_closure() {
    let (tax, a, b) = two_labels();
    let edges = [(0, 1), (1, 2), (0, 2)];
    let mut short = vec![profile(&tax, &[a, b]); 2];
    short.push(profile(&tax, &[a]));
    let full = vec![profile(&tax, &[a, b]); 3];
    let delta = GraphDelta::ProfileChanged { v: 2 };
    warm_then_patch(&tax, (&edges, short.clone()), (&edges, full.clone()), delta, 0, "gains");
    warm_then_patch(&tax, (&edges, full), (&edges, short), delta, 0, "loses");
}

/// An added edge whose endpoints share no label of the key but the
/// root leaves the `{r, a}` entry in place; the root entry goes.
#[test]
fn an_edge_off_the_key_labels_keeps_the_entry() {
    let (tax, a, b) = two_labels();
    let edges = [(0, 1), (1, 2), (0, 2), (3, 5), (4, 5), (0, 3)];
    let profiles: Vec<PTree> =
        (0..6).map(|v| profile(&tax, &[if v < 3 { a } else { b }])).collect();
    let g = Graph::from_edges(6, &edges).unwrap();
    let mut index = ShardedCpIndex::build_resident(&g, &tax, &profiles).unwrap();
    check_on_shared_index(&g, &tax, &profiles, &index, &basic_answers(&g, &tax, &profiles), "warm");
    let key = [Taxonomy::ROOT, a];
    let stored = index.proven_community(2, &key, 0).expect("the warm-up stored {r, a}").1;
    assert_eq!(*stored, [0, 1, 2]);
    let g2 = Graph::from_edges(6, &[&edges[..], &[(3, 4)]].concat()).unwrap();
    let deltas = [GraphDelta::EdgeAdded { u: 3, v: 4 }];
    index.apply_batch(&Arc::new(g2.clone()), &Arc::new(profiles.clone()), &deltas, None);
    let kept = index.proven_community(2, &key, 1).expect("the entry survives the edge").1;
    assert!(Arc::ptr_eq(&kept, &stored), "carried, not recomputed");
    assert!(index.proven_community(2, &[Taxonomy::ROOT], 0).is_none(), "Gk grew: 3–4–5");
    check_on_shared_index(
        &g2,
        &tax,
        &profiles,
        &index,
        &basic_answers(&g2, &tax, &profiles),
        "off",
    );
}

/// Engines of both index modes through ten epochs of query-all →
/// apply, each batch mixing edge adds, edge removes and profile
/// rewrites: every `(q, k ≤ 3)` answer equals `basic` on that epoch,
/// though each write carries the table the queries before it filled.
#[test]
fn carried_table_answers_every_epoch_like_basic() {
    for mode in [IndexMode::Eager, IndexMode::Lazy] {
        for seed in 0..6u64 {
            let (g, tax, profiles) = random_instance(seed);
            let n = g.num_vertices() as u32;
            let ids: Vec<LabelId> = (0..tax.len() as LabelId).collect();
            let engine = PcsEngine::builder()
                .graph(g)
                .taxonomy(tax)
                .profiles(profiles)
                .index_mode(mode)
                .build()
                .unwrap();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xca77);
            for epoch in 0..10 {
                let snap = engine.snapshot();
                let plain =
                    QueryContext::new(snap.graph(), engine.taxonomy(), snap.profiles()).unwrap();
                for (k, q) in (0..=3u32).flat_map(|k| (0..n).map(move |q| (k, q))) {
                    let want = plain.query(q, k, Algorithm::Basic).unwrap().communities;
                    let got = engine.query(&QueryRequest::vertex(q).k(k)).unwrap();
                    let at = format!("{mode:?} seed {seed} epoch {epoch} q={q} k={k}");
                    assert_eq!(got.outcome.communities, want, "{at}");
                }
                let mut batch = UpdateBatch::new();
                for _ in 0..rng.gen_range(2..8usize) {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    batch = match rng.gen_range(0..3u32) {
                        0 if u != v => batch.add_edge(u, v),
                        1 => batch.remove_edge(u, v),
                        _ => {
                            batch.set_profile(u, random_profile(&mut rng, engine.taxonomy(), &ids))
                        }
                    };
                }
                engine.apply(&batch).unwrap();
            }
        }
    }
}

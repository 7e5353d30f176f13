//! Concurrency stress: N reader threads issue queries while a writer
//! applies update batches. Requirements under test:
//!
//! * no panics, poisoned locks, or torn state;
//! * every response is **snapshot-consistent** — its communities equal
//!   what a from-scratch engine built for the graph/profiles of the
//!   epoch stamped on the response would return;
//! * every observed epoch is one the writer actually published.

use pcs_core::{Algorithm, QueryContext};
use pcs_engine::{EngineSnapshot, IndexMode, PcsEngine, QueryRequest, UpdateBatch};
use pcs_graph::{Graph, VertexId};
use pcs_ptree::{PTree, Taxonomy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

fn random_instance(seed: u64) -> (Graph, Taxonomy, Vec<PTree>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let labels = 10usize;
    let mut tax = Taxonomy::new("r");
    let mut ids = vec![Taxonomy::ROOT];
    for i in 1..labels {
        let parent = ids[rng.gen_range(0..ids.len())];
        ids.push(tax.add_child(parent, &format!("n{i}")).unwrap());
    }
    let n = 36usize;
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            if rng.gen_bool(0.16) {
                edges.push((a, b));
            }
        }
    }
    let g = Graph::from_edges(n, &edges).unwrap();
    let profiles: Vec<PTree> = (0..n)
        .map(|_| {
            let count = rng.gen_range(0..=5usize);
            let picks: Vec<u32> = (0..count).map(|_| ids[rng.gen_range(0..ids.len())]).collect();
            PTree::from_labels(&tax, picks).unwrap()
        })
        .collect();
    (g, tax, profiles)
}

/// A scripted batch of 1–3 random mutations.
fn random_batch(rng: &mut SmallRng, n: u32, tax: &Taxonomy, label_pool: &[u32]) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for _ in 0..rng.gen_range(1..=3) {
        match rng.gen_range(0..4) {
            0 | 1 => {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b {
                    batch = batch.add_edge(a, b); // may be a no-op: fine
                }
            }
            2 => {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b {
                    batch = batch.remove_edge(a, b);
                }
            }
            _ => {
                let v = rng.gen_range(0..n);
                let count = rng.gen_range(0..=4usize);
                let picks: Vec<u32> =
                    (0..count).map(|_| label_pool[rng.gen_range(0..label_pool.len())]).collect();
                batch = batch.set_profile(v, PTree::from_labels(tax, picks).unwrap());
            }
        }
    }
    batch
}

fn stress(mode: IndexMode, seed: u64) {
    let (g, tax, profiles) = random_instance(seed);
    let n = g.num_vertices() as u32;
    let label_pool: Vec<u32> = (0..tax.len() as u32).collect();
    let engine = PcsEngine::builder()
        .graph(g)
        .taxonomy(tax.clone())
        .profiles(profiles)
        .index_mode(mode)
        .build()
        .unwrap();
    let engine = &engine;

    // Epoch -> pinned snapshot, recorded by the writer as it publishes.
    let published: Mutex<Vec<EngineSnapshot>> = Mutex::new(vec![engine.snapshot()]);
    let done = AtomicBool::new(false);
    // (epoch, q, k, community vertex sets) per reader observation.
    type Observation = (u64, VertexId, u32, Vec<Vec<VertexId>>);
    let observations: Mutex<Vec<Observation>> = Mutex::new(Vec::new());

    let published_ref = &published;
    let done_ref = &done;
    let observations_ref = &observations;
    std::thread::scope(|s| {
        // Writer: 36 batches, recording each published snapshot.
        s.spawn(|| {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xa0f3);
            for _ in 0..36 {
                let batch = random_batch(&mut rng, n, &tax, &label_pool);
                let report = engine.apply(&batch).expect("scripted batches are valid");
                if report.changed() {
                    published_ref.lock().unwrap().push(engine.snapshot());
                }
            }
            done_ref.store(true, Ordering::Release);
        });
        // Readers: hammer queries until the writer finishes.
        for t in 0..4u64 {
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (0x4ead + t));
                let mut local = Vec::new();
                // At least 12 queries per reader even when the writer
                // finishes first (tiny batches apply very fast), so the
                // final epoch is always observed and verified too.
                while local.len() < 12 || !done_ref.load(Ordering::Acquire) {
                    let q = rng.gen_range(0..n);
                    let k = rng.gen_range(1..3u32);
                    let resp = engine
                        .query(&QueryRequest::vertex(q).k(k))
                        .expect("in-range query never fails");
                    let comms: Vec<Vec<VertexId>> =
                        resp.communities().iter().map(|c| c.vertices.clone()).collect();
                    local.push((resp.epoch, q, k, comms));
                }
                observations_ref.lock().unwrap().extend(local);
            });
        }
    });

    // Verify: every observation matches a from-scratch reference for
    // the snapshot of its epoch.
    let published = published.into_inner().unwrap();
    let observations = observations.into_inner().unwrap();
    assert!(!observations.is_empty(), "readers observed something");
    let find = |epoch: u64| -> &EngineSnapshot {
        published
            .iter()
            .find(|s| s.epoch() == epoch)
            .unwrap_or_else(|| panic!("epoch {epoch} was never published"))
    };
    let mut checked = 0usize;
    for (epoch, q, k, comms) in &observations {
        let snap = find(*epoch);
        let ctx = QueryContext::new(snap.graph(), &tax, snap.profiles()).unwrap();
        let reference = ctx.query(*q, *k, Algorithm::Basic).unwrap();
        let expect: Vec<Vec<VertexId>> =
            reference.communities.iter().map(|c| c.vertices.clone()).collect();
        assert_eq!(
            comms, &expect,
            "epoch {epoch} q {q} k {k}: response is not snapshot-consistent"
        );
        checked += 1;
    }
    assert!(checked >= observations.len());
}

#[test]
fn readers_stay_consistent_under_eager_updates() {
    stress(IndexMode::Eager, 41);
}

#[test]
fn readers_stay_consistent_under_lazy_updates() {
    // Lazy mode races reader-triggered index builds and shard
    // materializations against writer publications of patched clones.
    stress(IndexMode::Lazy, 42);
}

/// Concurrent writers go one at a time: every `apply` caller gets its
/// own report for its own batch, each effective batch publishes its own
/// epoch (so the reported epochs are distinct and consecutive), and a
/// malformed batch fails only its own submitter.
#[test]
fn coalesced_writers_each_get_a_report_and_bad_batches_fail_alone() {
    let (g, tax, profiles) = random_instance(77);
    let n = g.num_vertices() as u32;
    let engine = PcsEngine::builder()
        .graph(g)
        .taxonomy(tax.clone())
        .profiles(profiles)
        .index_mode(IndexMode::Eager)
        .build()
        .unwrap();

    // Clear the writer vertices' profiles first (serially), so each
    // concurrent writer's set-to-full below is a guaranteed change —
    // an UpdateBatch keeps only the last profile op per vertex, and a
    // random profile may already be empty.
    let writers = 8u32;
    let clear: UpdateBatch = (0..writers)
        .map(|t| (t, PTree::from_labels(&tax, []).unwrap()))
        .fold(UpdateBatch::new(), |b, (t, p)| b.set_profile(t, p));
    engine.apply(&clear).unwrap();

    let reports = Mutex::new(Vec::new());
    let bad = Mutex::new(Vec::new());
    // Release every writer at once, so they contend for the writer lock.
    let start = std::sync::Barrier::new(writers as usize + 2);
    std::thread::scope(|s| {
        for t in 0..writers {
            let (engine, tax, reports, start) = (&engine, &tax, &reports, &start);
            s.spawn(move || {
                let full =
                    PTree::from_labels(tax, (1..tax.len() as u32).collect::<Vec<_>>()).unwrap();
                let batch = UpdateBatch::new().set_profile(t, full);
                start.wait();
                let report = engine.apply(&batch).expect("valid batch applies");
                reports.lock().unwrap().push(report);
            });
        }
        // Two writers submit batches naming an out-of-range vertex:
        // validation must bounce them without touching anyone else's
        // write.
        for _ in 0..2 {
            let (engine, bad, start) = (&engine, &bad, &start);
            s.spawn(move || {
                let batch = UpdateBatch::new().add_edge(0, n + 100);
                start.wait();
                bad.lock().unwrap().push(engine.apply(&batch));
            });
        }
    });

    let reports = reports.into_inner().unwrap();
    assert_eq!(reports.len(), writers as usize);
    // Every report describes exactly its own batch: one changed profile.
    for r in &reports {
        assert_eq!(r.profiles_changed, 1, "a report must describe its own batch: {r:?}");
    }
    let snap = engine.snapshot();
    for t in 0..writers {
        assert_eq!(
            snap.profiles()[t as usize].nodes().len(),
            tax.len(),
            "vertex {t}'s full profile did not land"
        );
    }
    let mut epochs: Vec<u64> = reports.iter().map(|r| r.epoch).collect();
    epochs.sort_unstable();
    assert!(
        epochs.windows(2).all(|w| w[1] == w[0] + 1),
        "each write publishes its own next epoch: {epochs:?}"
    );
    assert_eq!(epochs.last(), Some(&snap.epoch()), "the last write's epoch is the engine's");

    for err in bad.into_inner().unwrap() {
        assert!(err.is_err(), "out-of-range batch must be rejected to its own caller");
    }
}

//! The differential harness for the update subsystem: after randomized
//! update sequences, the engine's incrementally maintained state —
//! graph, core decomposition, sharded CP-tree index — must be
//! indistinguishable from a from-scratch rebuild (a fresh
//! `ShardedCpIndex::build_resident`), and queries must agree with a
//! fresh reference engine. Lazily and eagerly patched indexes are held
//! equivalent to a rebuild at every checked step, including when cold
//! shards are materialized mid-stream between updates.

use pcs::datasets::taxonomy::random_taxonomy;
use pcs::graph::core::CoreDecomposition;
use pcs::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Set-equality of the whole index query surface: a lazily patched
/// serving index, an eagerly materialized one, and a from-scratch
/// rebuild are all compared through the same probes — per-label member
/// lists, every `get_ref(k, q, label)` (sorted copies), and profile
/// restoration. Probing materializes a side's cold shards —
/// deliberately: the contract is that materialization-on-demand
/// answers exactly like an eager build.
fn assert_index_equivalent(
    a: &ShardedCpIndex,
    b: &ShardedCpIndex,
    tax: &Taxonomy,
    n: usize,
    max_k: u32,
) {
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.num_populated_labels(), b.num_populated_labels());
    for v in 0..n as u32 {
        assert_eq!(a.restore_ptree(v), b.restore_ptree(v), "profile of {v}");
    }
    let slice_as_set = |idx: &ShardedCpIndex, k, q, label| {
        idx.get_ref(k, q, label).map(|s| {
            let mut v = s.to_vec();
            v.sort_unstable();
            v
        })
    };
    for label in 0..tax.len() as u32 {
        assert_eq!(
            a.vertices_with_label(label),
            b.vertices_with_label(label),
            "members of label {label}"
        );
        for &q in a.vertices_with_label(label) {
            for k in 0..=max_k {
                assert_eq!(
                    slice_as_set(a, k, q, label),
                    slice_as_set(b, k, q, label),
                    "label={label} q={q} k={k}"
                );
            }
        }
    }
}

fn communities_of(resp: &QueryResponse) -> Vec<(Vec<u32>, Vec<u32>)> {
    resp.communities().iter().map(|c| (c.subtree.nodes().to_vec(), c.vertices.clone())).collect()
}

/// Under `--features debug-invariants`, every checked step of the
/// harness additionally runs the deep invariant verifier (CSR
/// symmetry, core/profile closure, member-table ⇄ profile agreement,
/// resident-shard arena geometry, epoch monotonicity) on the engine;
/// without the feature this is a no-op and the harness is unchanged.
#[cfg(feature = "debug-invariants")]
fn verify_deep(engine: &PcsEngine, at: &str) {
    engine.verify_deep().unwrap_or_else(|e| panic!("{at}: deep invariant violated: {e}"));
}
#[cfg(not(feature = "debug-invariants"))]
fn verify_deep(_engine: &PcsEngine, _at: &str) {}

/// The acceptance-criteria run: > 500 singleton update steps, with the
/// incremental index and cores checked against a full rebuild after
/// every single step.
#[test]
fn incremental_state_matches_rebuild_over_500_steps() {
    let tax = random_taxonomy(40, 4, 6, 21);
    let ds = pcs::datasets::gen::generate(&DatasetSpec::small("diff", 56, 33), tax);
    let stream = update_stream(&ds, &UpdateStreamSpec::new(510, 7));
    assert!(stream.len() >= 500);
    let engine = PcsEngine::builder()
        .graph(ds.graph.clone())
        .taxonomy(ds.tax.clone())
        .profiles(ds.profiles.clone())
        .index_mode(IndexMode::Eager)
        .build()
        .unwrap();
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let mut patched = 0usize;
    for (step, timed) in stream.iter().enumerate() {
        let batch = match &timed.op {
            StreamOp::AddEdge(a, b) => UpdateBatch::new().add_edge(*a, *b),
            StreamOp::RemoveEdge(a, b) => UpdateBatch::new().remove_edge(*a, *b),
            StreamOp::SetProfile(v, p) => UpdateBatch::new().set_profile(*v, p.clone()),
        };
        let report = engine.apply(&batch).unwrap();
        if let pcs::engine::IndexMaintenance::Patched(stats) = report.index {
            patched += 1;
            assert_eq!(
                stats.labels_rebuilt + stats.labels_invalidated,
                stats.labels_touched,
                "step {step}: patch accounting must cover every touched label"
            );
            // Eager engines re-materialize anything the patch left
            // cold (e.g. a newly populated label), so the index stays
            // fully resident after every batch.
            let snap = engine.snapshot();
            let idx = snap.index().unwrap();
            assert_eq!(
                snap.resident_shards(),
                idx.num_populated_labels(),
                "step {step}: eager engine must stay fully resident"
            );
        }
        let snap = engine.snapshot();
        // Cores: incremental subcore traversals vs full bucket peel.
        let full_cores = CoreDecomposition::new(snap.graph());
        assert_eq!(
            snap.cores().core_numbers(),
            full_cores.core_numbers(),
            "step {step}: incremental cores diverged"
        );
        // Index: patched clone vs from-scratch build on the new state.
        // Release CI verifies every step; the unoptimized debug run
        // samples every 3rd (cores are still verified at every step).
        let index_check_stride = if cfg!(debug_assertions) { 3 } else { 1 };
        if step % index_check_stride == 0 {
            verify_deep(&engine, &format!("step {step}"));
            let fresh =
                ShardedCpIndex::build_resident(snap.graph(), engine.taxonomy(), snap.profiles())
                    .unwrap();
            let max_k = full_cores.max_core() + 1;
            assert_index_equivalent(
                snap.index().expect("eager engine keeps the index fresh"),
                &fresh,
                engine.taxonomy(),
                snap.graph().num_vertices(),
                max_k,
            );
        }
        // Queries: every 25 steps, all algorithm families agree with a
        // reference engine built from scratch on the mutated data.
        if step % 25 == 0 {
            let reference = PcsEngine::builder()
                .graph(snap.graph().clone())
                .taxonomy(engine.taxonomy().clone())
                .profiles(snap.profiles().to_vec())
                .index_mode(IndexMode::Eager)
                .build()
                .unwrap();
            for _ in 0..3 {
                let q = rng.gen_range(0..snap.graph().num_vertices() as u32);
                let k = rng.gen_range(1..4u32);
                for algo in [Algorithm::Basic, Algorithm::Incre, Algorithm::AdvP] {
                    let live = engine.query(&QueryRequest::vertex(q).k(k).algorithm(algo)).unwrap();
                    let refr =
                        reference.query(&QueryRequest::vertex(q).k(k).algorithm(algo)).unwrap();
                    assert_eq!(
                        communities_of(&live),
                        communities_of(&refr),
                        "step {step} q {q} k {k} algo {}",
                        algo.name()
                    );
                }
            }
        }
    }
    assert!(patched > 400, "the incremental path carried the run: {patched}");
}

/// The per-shard laziness differential: a lazy sharded engine absorbs
/// the same churn as an eager one and a from-scratch rebuild, while cold
/// shards are deliberately queried mid-stream (materializing them
/// between patches) and further churn then patches or invalidates
/// them. At every checked step all three shapes are set-equal across
/// the whole index surface, and the lazy engine's resident shard count
/// stays a strict subset of the populated labels until probed.
#[test]
fn lazy_sharded_engine_interleaves_cold_queries_with_churn() {
    let tax = random_taxonomy(34, 4, 6, 47);
    let ds = pcs::datasets::gen::generate(&DatasetSpec::small("coldshards", 50, 13), tax);
    let stream = update_stream(&ds, &UpdateStreamSpec::new(180, 29));
    let build = |mode: IndexMode| {
        PcsEngine::builder()
            .graph(ds.graph.clone())
            .taxonomy(ds.tax.clone())
            .profiles(ds.profiles.clone())
            .index_mode(mode)
            .build()
            .unwrap()
    };
    let lazy = build(IndexMode::Lazy);
    let eager = build(IndexMode::Eager);
    // First indexed query creates the lazy facade and materializes
    // only the touched shards.
    let (queries, _) = pcs::datasets::sample_query_vertices(&ds, 2, 6, 0xc01d);
    let q0 = queries[0];
    let first = lazy.query(&QueryRequest::vertex(q0).k(2).algorithm(Algorithm::AdvP)).unwrap();
    let eager_first =
        eager.query(&QueryRequest::vertex(q0).k(2).algorithm(Algorithm::AdvP)).unwrap();
    assert_eq!(communities_of(&first), communities_of(&eager_first));
    let resident = lazy.resident_shards();
    let populated = lazy.snapshot().index().unwrap().num_populated_labels();
    assert!(resident > 0, "an indexed query materializes at least one shard");
    assert!(
        resident < populated,
        "one query must not materialize the whole index ({resident}/{populated})"
    );
    assert_eq!(eager.resident_shards(), populated, "eager mode starts fully resident");

    let mut rng = SmallRng::seed_from_u64(0xabcd);
    let mut saw_cold_after_update = false;
    for (step, timed) in stream.iter().enumerate() {
        let batch = match &timed.op {
            StreamOp::AddEdge(a, b) => UpdateBatch::new().add_edge(*a, *b),
            StreamOp::RemoveEdge(a, b) => UpdateBatch::new().remove_edge(*a, *b),
            StreamOp::SetProfile(v, p) => UpdateBatch::new().set_profile(*v, p.clone()),
        };
        let rl = lazy.apply(&batch).unwrap();
        let re = eager.apply(&batch).unwrap();
        assert_eq!(rl.epoch, re.epoch, "step {step}: epochs diverged");
        assert_eq!(rl.noops, re.noops, "step {step}: no-op classification diverged");
        // Mid-stream cold-shard probe: a query on a random vertex
        // materializes whatever shards its lattice needs *after* the
        // index was already patched/invalidated this step.
        if step % 5 == 0 {
            let q = rng.gen_range(0..ds.graph.num_vertices() as u32);
            let k = rng.gen_range(1..4u32);
            let snap_resident = lazy.resident_shards();
            let a = lazy.query(&QueryRequest::vertex(q).k(k).algorithm(Algorithm::AdvP)).unwrap();
            let b = eager.query(&QueryRequest::vertex(q).k(k).algorithm(Algorithm::AdvP)).unwrap();
            assert_eq!(communities_of(&a), communities_of(&b), "step {step} q {q} k {k}");
            saw_cold_after_update |= lazy.resident_shards() > snap_resident;
        }
        // Checked steps: all three shapes (lazy sharded, eager sharded,
        // from-scratch rebuild) set-equal across the full surface.
        let stride = if cfg!(debug_assertions) { 9 } else { 3 };
        if step % stride == 0 {
            verify_deep(&lazy, &format!("lazy, step {step}"));
            verify_deep(&eager, &format!("eager, step {step}"));
            let (sl, se) = (lazy.snapshot(), eager.snapshot());
            let fresh =
                ShardedCpIndex::build_resident(sl.graph(), lazy.taxonomy(), sl.profiles()).unwrap();
            let max_k = CoreDecomposition::new(sl.graph()).max_core() + 1;
            let n = sl.graph().num_vertices();
            let lazy_idx = sl.index().expect("facade survives patching");
            assert_index_equivalent(lazy_idx, &fresh, lazy.taxonomy(), n, max_k);
            assert_index_equivalent(
                se.index().expect("eager index fresh"),
                &fresh,
                lazy.taxonomy(),
                n,
                max_k,
            );
        }
    }
    assert!(
        saw_cold_after_update,
        "the run never materialized a cold shard after an update — widen the stream"
    );
}

/// A third engine is saved and loaded mid-stream, then receives the
/// remaining updates: the persisted engine must stay indistinguishable
/// from both the continuously incremental engine and a from-scratch
/// rebuild at every checked step — the proof that a snapshot is a
/// faithful resume point, not just a read-only export.
#[test]
fn engine_saved_and_loaded_mid_stream_stays_equivalent() {
    let tax = random_taxonomy(32, 4, 6, 91);
    let ds = pcs::datasets::gen::generate(&DatasetSpec::small("persisted", 52, 61), tax);
    let stream = update_stream(&ds, &UpdateStreamSpec::new(160, 17));
    let incremental = PcsEngine::builder()
        .graph(ds.graph.clone())
        .taxonomy(ds.tax.clone())
        .profiles(ds.profiles.clone())
        .index_mode(IndexMode::Eager)
        .build()
        .unwrap();
    let as_batch = |timed: &TimedOp| match &timed.op {
        StreamOp::AddEdge(a, b) => UpdateBatch::new().add_edge(*a, *b),
        StreamOp::RemoveEdge(a, b) => UpdateBatch::new().remove_edge(*a, *b),
        StreamOp::SetProfile(v, p) => UpdateBatch::new().set_profile(*v, p.clone()),
    };
    let split = stream.len() / 2;
    for timed in &stream[..split] {
        incremental.apply(&as_batch(timed)).unwrap();
    }
    // Persist mid-stream and resume from disk.
    let path = std::env::temp_dir().join(format!("pcs-midstream-{}.snapshot", std::process::id()));
    incremental.save(&path).unwrap();
    let loaded = PcsEngine::builder().index_mode(IndexMode::Eager).load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(loaded.epoch(), incremental.epoch(), "epoch resumes at the save point");

    let index_check_stride = if cfg!(debug_assertions) { 3 } else { 1 };
    for (step, timed) in stream[split..].iter().enumerate() {
        let batch = as_batch(timed);
        let ra = incremental.apply(&batch).unwrap();
        let rb = loaded.apply(&batch).unwrap();
        assert_eq!(ra.epoch, rb.epoch, "step {step}: epochs diverged");
        assert_eq!(ra.noops, rb.noops, "step {step}: no-op classification diverged");
        let (sa, sb) = (incremental.snapshot(), loaded.snapshot());
        // Cores: loaded engine vs live engine vs full bucket peel.
        let rebuilt_cores = CoreDecomposition::new(sb.graph());
        assert_eq!(
            sb.cores().core_numbers(),
            sa.cores().core_numbers(),
            "step {step}: loaded cores diverged from the incremental engine"
        );
        assert_eq!(
            sb.cores().core_numbers(),
            rebuilt_cores.core_numbers(),
            "step {step}: loaded cores diverged from a rebuild"
        );
        // Index: loaded-and-patched vs live-patched vs from-scratch.
        if step % index_check_stride == 0 {
            verify_deep(&incremental, &format!("incremental, step {step}"));
            verify_deep(&loaded, &format!("loaded, step {step}"));
            let fresh =
                ShardedCpIndex::build_resident(sb.graph(), loaded.taxonomy(), sb.profiles())
                    .unwrap();
            let max_k = rebuilt_cores.max_core() + 1;
            let n = sb.graph().num_vertices();
            assert_index_equivalent(
                sb.index().expect("eager loaded engine keeps its index fresh"),
                sa.index().expect("eager incremental engine keeps its index fresh"),
                loaded.taxonomy(),
                n,
                max_k,
            );
            assert_index_equivalent(sb.index().unwrap(), &fresh, loaded.taxonomy(), n, max_k);
        }
    }
}

/// The replica-convergence differential: a *durable* primary absorbs a
/// 300+-step mixed stream while an [`HttpFollower`] tails its
/// write-ahead log through a loopback [`PcsServer`]'s `/wal` feed. At
/// every synced epoch the follower must be set-equal to the primary —
/// profiles, cores, and sampled community answers — because both ran
/// the identical batches through the identical staging path. The
/// follower is torn down and re-seeded twice mid-stream (once replaying
/// the full log from the epoch-0 snapshot, once from a checkpoint
/// snapshot after the primary reclaimed covered segments), so
/// convergence is proven across restarts and log truncation, not just
/// along one warm tail.
#[test]
fn wal_follower_stays_equivalent_at_every_synced_epoch() {
    let tax = random_taxonomy(30, 4, 6, 77);
    let ds = pcs::datasets::gen::generate(&DatasetSpec::small("replica", 48, 19), tax);
    let stream = update_stream(&ds, &UpdateStreamSpec::new(310, 41));
    assert!(stream.len() >= 300, "the stream must exercise 300+ steps");
    let dir = std::env::temp_dir().join(format!("pcs-replica-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let primary = Arc::new(
        PcsEngine::builder()
            .graph(ds.graph.clone())
            .taxonomy(ds.tax.clone())
            .profiles(ds.profiles.clone())
            .index_mode(IndexMode::Eager)
            .durable(&dir)
            .build()
            .unwrap(),
    );
    let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
    let server = PcsServer::start(Arc::clone(&primary), "127.0.0.1:0", cfg).unwrap();
    // A follower boots the way a real one does: load the primary's
    // current checkpoint snapshot, then tail `/wal` from its epoch.
    let seed = || {
        let engine = PcsEngine::builder().load(dir.join(pcs::engine::SNAPSHOT_FILE)).unwrap();
        let mut follower = HttpFollower::new(engine, server.local_addr(), ReplicaConfig::default());
        follower.poll().unwrap();
        follower
    };
    let as_batch = |timed: &TimedOp| match &timed.op {
        StreamOp::AddEdge(a, b) => UpdateBatch::new().add_edge(*a, *b),
        StreamOp::RemoveEdge(a, b) => UpdateBatch::new().remove_edge(*a, *b),
        StreamOp::SetProfile(v, p) => UpdateBatch::new().set_profile(*v, p.clone()),
    };
    let sync_and_check = |follower: &mut HttpFollower, rng: &mut SmallRng, at: &str| {
        follower.poll().unwrap_or_else(|e| panic!("{at}: poll failed: {e}"));
        assert_eq!(follower.epoch(), primary.epoch(), "{at}: follower missed epochs");
        let (fs, ps) = (follower.engine().snapshot(), primary.snapshot());
        assert_eq!(fs.profiles(), ps.profiles(), "{at}: profiles diverged");
        assert_eq!(
            fs.cores().core_numbers(),
            ps.cores().core_numbers(),
            "{at}: core numbers diverged"
        );
        for _ in 0..3 {
            let q = rng.gen_range(0..ds.graph.num_vertices() as u32);
            let k = rng.gen_range(1..4u32);
            let f = follower.engine().query(&QueryRequest::vertex(q).k(k)).unwrap();
            let p = primary.query(&QueryRequest::vertex(q).k(k)).unwrap();
            assert_eq!(communities_of(&f), communities_of(&p), "{at}: q {q} k {k} diverged");
        }
    };

    let mut follower = Some(seed());
    let mut rng = SmallRng::seed_from_u64(0xf0110);
    let (third, half, two_thirds) = (stream.len() / 3, stream.len() / 2, 2 * stream.len() / 3);
    let mut checkpoint_epoch = 0u64;
    for (step, timed) in stream.iter().enumerate() {
        primary.apply(&as_batch(timed)).unwrap();
        // Restart #1: drop the follower entirely and re-seed from the
        // epoch-0 snapshot — the full log tail must replay cleanly.
        if step == third {
            drop(follower.take());
            follower = Some(seed());
        }
        // Checkpoint: the primary advances its snapshot and reclaims
        // covered segments. Reclaim drops *every* epoch at or below
        // the watermark, so the live follower is synced first — the
        // operational contract: reclaim only past your replicas (a
        // follower left behind gets the typed gap error and re-seeds,
        // which restart #2 below exercises).
        if step == half {
            follower.as_mut().unwrap().poll().unwrap();
            checkpoint_epoch = primary.checkpoint().unwrap();
            assert_eq!(checkpoint_epoch, primary.epoch());
        }
        // Restart #2: re-seed after the reclaim — the new follower
        // must boot from the checkpoint snapshot plus the short tail,
        // since the epoch-0 log prefix no longer exists.
        if step == two_thirds {
            drop(follower.take());
            follower = Some(seed());
            assert!(
                follower.as_ref().unwrap().epoch() >= checkpoint_epoch,
                "restart after checkpoint must seed from the advanced snapshot"
            );
        }
        // Sync points: every 5th step, plus a deep verify on a stride.
        if step % 5 == 0 {
            let f = follower.as_mut().unwrap();
            sync_and_check(f, &mut rng, &format!("step {step}"));
            if step % 45 == 0 {
                verify_deep(f.engine(), &format!("follower, step {step}"));
            }
        }
    }
    // Final barrier: full surface equivalence of the follower against
    // both the primary and a from-scratch rebuild of the final state.
    let mut f = follower.unwrap();
    f.poll().unwrap();
    assert_eq!(f.epoch(), primary.epoch());
    let (fs, ps) = (f.engine().snapshot(), primary.snapshot());
    let fresh =
        ShardedCpIndex::build_resident(fs.graph(), f.engine().taxonomy(), fs.profiles()).unwrap();
    let max_k = CoreDecomposition::new(fs.graph()).max_core() + 1;
    let n = fs.graph().num_vertices();
    // Probing materializes the (lazy) follower index shard by shard;
    // it must answer exactly like the primary's eagerly patched index
    // and the from-scratch rebuild. A follower that was never queried
    // may not have an index facade yet; one indexed query creates it
    // on the snapshot `fs` already holds.
    if fs.index().is_none() {
        f.engine().query(&QueryRequest::vertex(0).k(1).algorithm(Algorithm::AdvP)).unwrap();
    }
    let follower_idx = fs.index().expect("an indexed query creates the facade");
    assert_index_equivalent(
        follower_idx,
        ps.index().expect("eager primary keeps its index fresh"),
        f.engine().taxonomy(),
        n,
        max_k,
    );
    assert_index_equivalent(follower_idx, &fresh, f.engine().taxonomy(), n, max_k);
    verify_deep(f.engine(), "follower, final state");
    verify_deep(&primary, "primary, final state");
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The result-cache differential: engines with the cache on (both
/// invalidation modes) must be response-equal to a cache-disabled
/// engine at every checked step of a mixed read/write stream. The read
/// pattern deliberately revisits a hot set so the caches actually
/// serve hits (asserted at the end) — a cache that was never hit would
/// make this test vacuous — and the stream's profile-only batches give
/// surgical mode real carry-over to prove sound.
#[test]
fn cached_engines_stay_equivalent_to_uncached_across_mixed_stream() {
    let tax = random_taxonomy(32, 4, 6, 63);
    let ds = pcs::datasets::gen::generate(&DatasetSpec::small("cached", 50, 27), tax);
    let stream = update_stream(&ds, &UpdateStreamSpec::new(120, 53));
    let build = |mode: CacheMode| {
        PcsEngine::builder()
            .graph(ds.graph.clone())
            .taxonomy(ds.tax.clone())
            .profiles(ds.profiles.clone())
            .index_mode(IndexMode::Eager)
            .result_cache(mode)
            .build()
            .unwrap()
    };
    let wholesale = build(CacheMode::Wholesale);
    let surgical = build(CacheMode::Surgical);
    let uncached = build(CacheMode::Off);
    let as_batch = |timed: &TimedOp| match &timed.op {
        StreamOp::AddEdge(a, b) => UpdateBatch::new().add_edge(*a, *b),
        StreamOp::RemoveEdge(a, b) => UpdateBatch::new().remove_edge(*a, *b),
        StreamOp::SetProfile(v, p) => UpdateBatch::new().set_profile(*v, p.clone()),
    };
    let mut rng = SmallRng::seed_from_u64(0xcac4e);
    let n = ds.graph.num_vertices() as u32;
    for (step, timed) in stream.iter().enumerate() {
        let batch = as_batch(timed);
        let r0 = uncached.apply(&batch).unwrap();
        for (name, engine) in [("wholesale", &wholesale), ("surgical", &surgical)] {
            let r = engine.apply(&batch).unwrap();
            assert_eq!(r.epoch, r0.epoch, "step {step}: {name} epoch diverged");
            assert_eq!(r.noops, r0.noops, "step {step}: {name} no-ops diverged");
        }
        // Mixed reads: mostly a small hot set (so later steps hit the
        // cache), occasionally a cold probe. Each request is asked
        // twice per cached engine — the second ask within a step must
        // be a same-epoch hit and still answer identically.
        for _ in 0..3 {
            let q =
                if rng.gen_bool(0.7) { rng.gen_range(0..8u32.min(n)) } else { rng.gen_range(0..n) };
            let k = rng.gen_range(1..4u32);
            let req = QueryRequest::vertex(q).k(k);
            let reference = uncached.query(&req).unwrap();
            for (name, engine) in [("wholesale", &wholesale), ("surgical", &surgical)] {
                for ask in 0..2 {
                    let resp = engine.query_cached(&req).unwrap();
                    assert_eq!(
                        communities_of(&reference),
                        communities_of(&resp),
                        "step {step} ask {ask}: {name} diverged at q {q} k {k}"
                    );
                    assert_eq!(
                        reference.total_communities, resp.total_communities,
                        "step {step} ask {ask}: {name} total diverged at q {q} k {k}"
                    );
                    assert_eq!(
                        reference.truncated(),
                        resp.truncated(),
                        "step {step} ask {ask}: {name} truncation diverged at q {q} k {k}"
                    );
                }
            }
        }
    }
    let (ws, ss, off) = (wholesale.cache_stats(), surgical.cache_stats(), uncached.cache_stats());
    assert!(ws.hits > 0, "wholesale cache never hit — the differential was vacuous");
    assert!(ss.hits > 0, "surgical cache never hit — the differential was vacuous");
    assert_eq!((off.hits, off.misses), (0, 0), "CacheMode::Off must not touch cache counters");
    // Dense random profiles share labels heavily, so cross-epoch
    // survival is rare on this stream; the carry-over semantics are
    // pinned by `surgical_cache_carries_unrelated_entries` below on a
    // taxonomy built to guarantee disjointness.
    verify_deep(&wholesale, "final state, wholesale cache");
    verify_deep(&surgical, "final state, surgical cache");
}

/// Surgical carry-over, pinned on a taxonomy with two disjoint
/// branches: a cached answer for a branch-`a` vertex must survive a
/// profile-only update confined to branch `b` (and keep answering
/// identically to a recompute), while a cached answer whose profile
/// meets the changed labels must be invalidated.
#[test]
fn surgical_cache_carries_unrelated_entries() {
    let mut tax = Taxonomy::new("root");
    let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
    let b = tax.add_child(Taxonomy::ROOT, "b").unwrap();
    let a1 = tax.add_child(a, "a1").unwrap();
    let b1 = tax.add_child(b, "b1").unwrap();
    // An 8-ring with chords: every vertex sits in a 2-core.
    let n = 8usize;
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for d in 1..=2u32 {
            let v = (u + d) % n as u32;
            let (lo, hi) = (u.min(v), u.max(v));
            if !edges.contains(&(lo, hi)) {
                edges.push((lo, hi));
            }
        }
    }
    let graph = Graph::from_edges(n, &edges).unwrap();
    let profiles: Vec<PTree> = (0..n)
        .map(|v| {
            let leaf = if v < 4 { a1 } else { b1 };
            PTree::from_labels(&tax, [leaf]).unwrap()
        })
        .collect();
    let engine = PcsEngine::builder()
        .graph(graph)
        .taxonomy(tax.clone())
        .profiles(profiles)
        .result_cache(CacheMode::Surgical)
        .build()
        .unwrap();

    // Cache one answer per branch.
    let req_a = QueryRequest::vertex(0).k(2);
    let req_b = QueryRequest::vertex(5).k(2);
    let before_a = engine.query_cached(&req_a).unwrap();
    let before_b = engine.query_cached(&req_b).unwrap();
    let seeded = engine.cache_stats();
    assert_eq!(seeded.misses, 2);

    // Reprofile vertex 7 inside branch b: symdiff = {b1}.
    let shrunk = PTree::from_labels(&tax, [b]).unwrap();
    engine.apply(&UpdateBatch::new().set_profile(7, shrunk)).unwrap();
    let carried = engine.cache_stats();
    assert_eq!(
        carried.surgical_survivals, 1,
        "exactly the branch-a entry survives the branch-b update"
    );

    // The survivor is a hit at the new epoch and equals a recompute.
    let after_a = engine.query_cached(&req_a).unwrap();
    assert_eq!(engine.cache_stats().hits, seeded.hits + 1, "branch-a entry must hit");
    assert_eq!(communities_of(&before_a), communities_of(&after_a));
    let recomputed = engine.query(&req_a).unwrap();
    assert_eq!(communities_of(&after_a), communities_of(&recomputed));

    // The branch-b entry was invalidated: a fresh miss, and the new
    // answer reflects the shrunken profile (vertex 7 left G_{b1}).
    let after_b = engine.query_cached(&req_b).unwrap();
    assert_eq!(engine.cache_stats().misses, seeded.misses + 1, "branch-b entry must miss");
    let recomputed_b = engine.query(&req_b).unwrap();
    assert_eq!(communities_of(&after_b), communities_of(&recomputed_b));
    assert_ne!(
        communities_of(&before_b),
        communities_of(&after_b),
        "the branch-b answer must actually change — otherwise this test proves nothing"
    );
}

/// Multi-op batches, both index policies side by side, and index-free
/// `basic` on the Eager engine's snapshot as the oracle — every engine
/// must answer identically after every batch.
#[test]
fn batched_updates_agree_across_policies_and_fallback() {
    let tax = random_taxonomy(36, 4, 6, 5);
    let ds = pcs::datasets::gen::generate(&DatasetSpec::small("batched", 48, 9), tax);
    let stream = update_stream(&ds, &UpdateStreamSpec::new(168, 23));
    let build = |mode: IndexMode| {
        PcsEngine::builder()
            .graph(ds.graph.clone())
            .taxonomy(ds.tax.clone())
            .profiles(ds.profiles.clone())
            .index_mode(mode)
            .build()
            .unwrap()
    };
    let incremental = build(IndexMode::Eager);
    let lazy = build(IndexMode::Lazy);
    let mut rng = SmallRng::seed_from_u64(77);
    for chunk in stream.chunks(7) {
        let mut batch = UpdateBatch::new();
        for timed in chunk {
            batch.push(match &timed.op {
                StreamOp::AddEdge(a, b) => Update::AddEdge { u: *a, v: *b },
                StreamOp::RemoveEdge(a, b) => Update::RemoveEdge { u: *a, v: *b },
                StreamOp::SetProfile(v, p) => Update::SetProfile { vertex: *v, profile: p.clone() },
            });
        }
        let r1 = incremental.apply(&batch).unwrap();
        let r3 = lazy.apply(&batch).unwrap();
        assert_eq!(r1.edges_added, r3.edges_added);
        assert_eq!(r1.noops, r3.noops);
        // Both engines answer the same queries as index-free `basic`
        // over the same epoch's graph.
        let snap = incremental.snapshot();
        let oracle =
            QueryContext::new(snap.graph(), incremental.taxonomy(), snap.profiles()).unwrap();
        let n = ds.graph.num_vertices() as u32;
        for _ in 0..4 {
            let q = rng.gen_range(0..n);
            let k = rng.gen_range(1..4u32);
            let a = incremental.query(&QueryRequest::vertex(q).k(k)).unwrap();
            let c = lazy.query(&QueryRequest::vertex(q).k(k)).unwrap();
            let b = oracle.query(q, k, Algorithm::Basic).unwrap();
            assert_eq!(a.outcome.communities, b.communities, "q {q} k {k}");
            assert_eq!(communities_of(&a), communities_of(&c), "q {q} k {k}");
        }
    }
    verify_deep(&incremental, "final state, eager policy");
    verify_deep(&lazy, "final state, lazy policy");
    // Final state: the always-patched index equals a fresh build.
    let snap = incremental.snapshot();
    let fresh =
        ShardedCpIndex::build_resident(snap.graph(), incremental.taxonomy(), snap.profiles())
            .unwrap();
    let max_k = CoreDecomposition::new(snap.graph()).max_core() + 1;
    assert_index_equivalent(
        snap.index().unwrap(),
        &fresh,
        incremental.taxonomy(),
        snap.graph().num_vertices(),
        max_k,
    );
}

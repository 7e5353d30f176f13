//! Crash-fault matrix for the WAL-backed durable engine.
//!
//! The contract under test (ISSUE 8): for every kill point on the
//! log → fsync → publish pipeline, and for every torn / truncated /
//! bit-flipped final record, recovery yields either a typed error or a
//! **prefix-consistent** engine — one whose cores, profiles, and
//! answers are set-equal to a from-scratch engine fed exactly the
//! recovered prefix of batches. Never a panic, hang, or wrong answer.

use pcs_engine::{
    BuildError, Error, PcsEngine, QueryRequest, UpdateBatch, UpdateError, WalOptions,
};
use pcs_graph::Graph;
use pcs_ptree::{PTree, Taxonomy};
use pcs_store::faults;
use pcs_store::wal::{encode_records, WalRecord};
use std::path::{Path, PathBuf};

/// Two triangles sharing vertex 0 plus an isolated vertex 5; labels
/// `a`, `b` under the root.
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

/// A deterministic stream of batches, each *effective* on the state
/// left by its predecessors — so any prefix replays cleanly and maps
/// 1:1 onto WAL epochs (batch `i` publishes epoch `i + 1`).
fn scripted_batches(tax: &Taxonomy) -> Vec<UpdateBatch> {
    let a = tax.id_of("a").unwrap();
    let b = tax.id_of("b").unwrap();
    vec![
        UpdateBatch::new().add_edge(5, 1),
        UpdateBatch::new().add_edge(5, 2),
        UpdateBatch::new().set_profile(3, PTree::from_labels(tax, [a]).unwrap()),
        UpdateBatch::new().remove_edge(0, 3),
        UpdateBatch::new().add_edge(2, 3),
        UpdateBatch::new().set_profile(5, PTree::from_labels(tax, [a, b]).unwrap()),
        UpdateBatch::new().remove_edge(5, 1),
        UpdateBatch::new().add_edge(1, 3),
    ]
}

fn durable_engine(dir: &Path, opts: WalOptions) -> PcsEngine {
    let (g, tax, profiles) = fixture();
    PcsEngine::builder()
        .graph(g)
        .taxonomy(tax)
        .profiles(profiles)
        .durable(dir)
        .wal_options(opts)
        .build()
        .unwrap()
}

/// A from-scratch, in-memory engine fed the first `prefix` scripted
/// batches — the ground truth a recovered engine must equal.
fn reference_engine(prefix: usize) -> PcsEngine {
    let (g, tax, profiles) = fixture();
    let batches = scripted_batches(&tax);
    let engine = PcsEngine::builder().graph(g).taxonomy(tax).profiles(profiles).build().unwrap();
    for batch in batches.iter().take(prefix) {
        engine.apply(batch).unwrap();
    }
    engine
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pcs-durability-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Set-equality of everything a recovered engine serves: profiles,
/// core numbers, and the k=2 community answer from every vertex.
/// (Epochs are asserted separately where they matter.)
fn assert_equivalent(got: &PcsEngine, want: &PcsEngine, context: &str) {
    let gs = got.snapshot();
    let ws = want.snapshot();
    assert_eq!(gs.profiles(), ws.profiles(), "{context}: profiles diverge");
    assert_eq!(
        gs.cores().core_numbers(),
        ws.cores().core_numbers(),
        "{context}: core numbers diverge"
    );
    for v in 0..gs.graph().num_vertices() as u32 {
        let req = QueryRequest::vertex(v).k(2);
        let g_comms: Vec<Vec<u32>> =
            got.query(&req).unwrap().communities().iter().map(|c| c.vertices.clone()).collect();
        let w_comms: Vec<Vec<u32>> =
            want.query(&req).unwrap().communities().iter().map(|c| c.vertices.clone()).collect();
        assert_eq!(g_comms, w_comms, "{context}: answers diverge at vertex {v}");
    }
}

#[test]
fn durable_build_apply_reopen_roundtrip() {
    let dir = tmp_dir("roundtrip");
    let engine = durable_engine(&dir, WalOptions::default());
    assert_eq!(engine.durable_epoch(), Some(0));
    let batches = scripted_batches(engine.taxonomy());
    for (i, batch) in batches.iter().enumerate() {
        let report = engine.apply(batch).unwrap();
        assert_eq!(report.epoch, i as u64 + 1);
        let durable = report.durable_epoch.expect("durable engine reports durable_epoch");
        assert!(
            durable >= report.epoch,
            "acknowledged epoch {} must be fsynced (durable_epoch {durable})",
            report.epoch
        );
    }
    assert_eq!(engine.epoch(), 8);
    assert_eq!(engine.durable_epoch(), Some(8));
    drop(engine);

    let reopened = PcsEngine::builder().durable(&dir).open().unwrap();
    assert_eq!(reopened.epoch(), 8, "recovery resumes at the exact pre-crash epoch");
    assert_eq!(reopened.durable_epoch(), Some(8));
    assert_equivalent(&reopened, &reference_engine(8), "reopen");
    // The recovered engine stays fully mutable and durable.
    let report = reopened.apply(&UpdateBatch::new().add_edge(4, 5)).unwrap();
    assert_eq!(report.epoch, 9);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_build_into_nonempty_dir_is_rejected() {
    let dir = tmp_dir("nonempty");
    drop(durable_engine(&dir, WalOptions::default()));
    let (g, tax, profiles) = fixture();
    let err = PcsEngine::builder()
        .graph(g)
        .taxonomy(tax)
        .profiles(profiles)
        .durable(&dir)
        .build()
        .unwrap_err();
    assert!(matches!(err, Error::Build(BuildError::DurableDirNotEmpty { .. })), "got {err:?}");
    // The state the builder refused to shadow is still recoverable.
    assert_eq!(PcsEngine::builder().durable(&dir).open().unwrap().epoch(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole matrix: one kill point per pipeline stage. After the
/// injected crash the engine must fail-stop (typed errors, no panic,
/// no hang), and reopening the directory must recover a prefix of the
/// acknowledged epochs that is set-equal to a from-scratch engine fed
/// the same prefix.
#[test]
fn kill_point_matrix_recovers_prefix_consistent() {
    const PRE: usize = 3; // batches applied (and acked) before the crash
    let kill_points: &[(&str, bool)] = &[
        // (point, record may survive the simulated crash)
        ("wal.append", false),
        ("wal.torn_append", false),
        ("wal.after_append", true),
        ("wal.before_fsync", true),
        ("wal.after_fsync", true),
        ("engine.before_publish", true),
    ];
    for &(point, may_survive) in kill_points {
        let dir = tmp_dir(&format!("kill-{}", point.replace('.', "-")));
        let engine = durable_engine(&dir, WalOptions::default());
        let batches = scripted_batches(engine.taxonomy());
        for batch in batches.iter().take(PRE) {
            engine.apply(batch).unwrap();
        }
        faults::arm(point);
        let err = engine.apply(&batches[PRE]).expect_err(point);
        assert!(matches!(err, Error::Store(_)), "{point}: expected a store error, got {err:?}");
        assert_eq!(faults::armed_count(), 0, "{point}: kill point was never reached");
        // Fail-stop: every later apply errors; the published prefix
        // keeps serving.
        let err2 = engine.apply(&batches[PRE + 1]).expect_err(point);
        assert!(matches!(err2, Error::Store(_)), "{point}: post-crash apply must stay typed");
        assert!(engine.epoch() <= PRE as u64 + 1, "{point}: reader-visible epoch ran ahead");
        assert_equivalent(
            &engine,
            &reference_engine(engine.epoch() as usize),
            &format!("{point}: published prefix"),
        );
        drop(engine);

        let recovered = PcsEngine::builder().durable(&dir).open().unwrap();
        let e = recovered.epoch() as usize;
        if may_survive {
            // The frame reached the file before the simulated death, so
            // recovery may legitimately resurface it — but never more.
            assert!(
                (PRE..=PRE + 1).contains(&e),
                "{point}: recovered epoch {e}, expected {PRE} or {}",
                PRE + 1
            );
        } else {
            assert_eq!(e, PRE, "{point}: nothing past epoch {PRE} was written");
        }
        assert_equivalent(&recovered, &reference_engine(e), point);
        // Recovery restores full service: the durable pipeline accepts
        // the remaining batches.
        for batch in batches.iter().skip(e) {
            recovered.apply(batch).unwrap();
        }
        assert_eq!(recovered.epoch(), batches.len() as u64);
        assert_equivalent(&recovered, &reference_engine(batches.len()), point);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Torn-write corruption matrix on the log's final record: truncations
/// of every flavor (mid-payload, mid-header) and bit flips. Each must
/// recover exactly the 7-batch prefix — the final record is damaged,
/// everything before it is intact — and never panic or mis-answer.
#[test]
fn damaged_final_record_recovers_the_prefix() {
    let dir = tmp_dir("damaged-tail");
    let engine = durable_engine(&dir, WalOptions::default());
    let batches = scripted_batches(engine.taxonomy());
    for batch in &batches {
        engine.apply(batch).unwrap();
    }
    drop(engine);
    let wal_dir = dir.join(pcs_engine::WAL_DIR);
    let segments = pcs_store::list_segments(&wal_dir).unwrap();
    let last_seg = segments.last().unwrap().path.clone();
    let pristine = std::fs::read(&last_seg).unwrap();

    // The final record frames batch 8 (`add_edge`): 20-byte header +
    // 16-byte payload. Damage strictly inside those 36 bytes.
    type Damage = fn(&mut Vec<u8>);
    let cases: &[(&str, Damage)] = &[
        ("truncate 1 byte (checksum torn)", |b| b.truncate(b.len() - 1)),
        ("truncate 7 bytes (mid payload)", |b| b.truncate(b.len() - 7)),
        ("truncate 21 bytes (mid header)", |b| b.truncate(b.len() - 21)),
        ("bit flip in final payload", |b| {
            let i = b.len() - 1;
            b[i] ^= 0x40;
        }),
        ("bit flip in final length field", |b| {
            let i = b.len() - 36;
            b[i] ^= 0x04;
        }),
    ];
    for (name, damage) in cases {
        let mut bytes = pristine.clone();
        damage(&mut bytes);
        std::fs::write(&last_seg, &bytes).unwrap();
        let recovered = PcsEngine::builder().durable(&dir).open().unwrap();
        assert_eq!(recovered.epoch(), 7, "{name}: must recover exactly the undamaged prefix");
        assert_equivalent(&recovered, &reference_engine(7), name);
        drop(recovered);
        // Recovery *truncated* the damaged tail, so put the pristine
        // segment back for the next case. (This also re-checks that
        // truncation only ever removes the damaged suffix.)
        std::fs::write(&last_seg, &pristine).unwrap();
    }
    // And with the pristine bytes restored, the full log is intact.
    let recovered = PcsEngine::builder().durable(&dir).open().unwrap();
    assert_eq!(recovered.epoch(), 8);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: the snapshot-save kill points. A death before the
/// rename must leave the previous checkpoint untouched; a failed
/// checkpoint must not poison the running engine or the log.
#[test]
fn snapshot_kill_points_keep_previous_checkpoint() {
    let dir = tmp_dir("snap-kill");
    let engine = durable_engine(&dir, WalOptions::default());
    let batches = scripted_batches(engine.taxonomy());
    for batch in batches.iter().take(2) {
        engine.apply(batch).unwrap();
    }
    for point in ["snapshot.before_rename", "snapshot.after_rename"] {
        faults::arm(point);
        let err = engine.checkpoint().expect_err(point);
        assert!(matches!(err, Error::Store(_)), "{point}: got {err:?}");
        assert_eq!(faults::armed_count(), 0, "{point}: kill point was never reached");
    }
    // The failed checkpoints neither advanced nor corrupted anything:
    // the engine still applies durably, and recovery still works from
    // the epoch-0 snapshot + full log tail.
    engine.apply(&batches[2]).unwrap();
    assert_eq!(engine.epoch(), 3);
    drop(engine);
    let recovered = PcsEngine::builder().durable(&dir).open().unwrap();
    assert_eq!(recovered.epoch(), 3);
    assert_equivalent(&recovered, &reference_engine(3), "after failed checkpoints");
    // A clean checkpoint now succeeds and is itself recoverable.
    assert_eq!(recovered.checkpoint().unwrap(), 3);
    drop(recovered);
    let again = PcsEngine::builder().durable(&dir).open().unwrap();
    assert_eq!(again.epoch(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A death during fresh durable initialization (before the epoch-0
/// snapshot lands) leaves a directory that `build` can simply retry.
#[test]
fn death_during_fresh_init_is_retryable() {
    let dir = tmp_dir("init-kill");
    faults::arm("snapshot.before_rename");
    let (g, tax, profiles) = fixture();
    let err = PcsEngine::builder()
        .graph(g)
        .taxonomy(tax)
        .profiles(profiles)
        .durable(&dir)
        .build()
        .unwrap_err();
    assert!(matches!(err, Error::Store(_)), "got {err:?}");
    assert_eq!(faults::armed_count(), 0);
    // No snapshot was published, so the directory is still "empty" and
    // a retry initializes it cleanly.
    let engine = durable_engine(&dir, WalOptions::default());
    assert_eq!(engine.epoch(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_rotates_and_reclaims_covered_segments() {
    let dir = tmp_dir("reclaim");
    // Tiny segments: every batch rotates, so reclaim has work to do.
    let engine = durable_engine(&dir, WalOptions { segment_bytes: 40 });
    let batches = scripted_batches(engine.taxonomy());
    for batch in &batches {
        engine.apply(batch).unwrap();
    }
    let wal_dir = dir.join(pcs_engine::WAL_DIR);
    let before = pcs_store::list_segments(&wal_dir).unwrap().len();
    assert!(before > 4, "tiny segments must have forced rotations (got {before})");
    assert_eq!(engine.checkpoint().unwrap(), 8);
    let after = pcs_store::list_segments(&wal_dir).unwrap();
    assert!(
        after.len() < before,
        "checkpoint must reclaim covered segments ({before} -> {})",
        after.len()
    );
    // The tail a brand-new follower would need from epoch 0 is gone —
    // that is a typed gap, not silence or a wrong answer.
    let err = engine.wal_tail_since(0, u64::MAX).unwrap_err();
    assert!(matches!(err, Error::Store(pcs_store::StoreError::Corrupt { .. })), "got {err:?}");
    // But recovery never needed it: the fresh checkpoint covers it.
    drop(engine);
    let recovered = PcsEngine::builder().durable(&dir).open().unwrap();
    assert_eq!(recovered.epoch(), 8);
    assert_equivalent(&recovered, &reference_engine(8), "post-reclaim recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent appliers on one durable engine: writers go one at a
/// time, so every effective call publishes its own epoch (one record,
/// one fsync), every acknowledged epoch is fsynced, and recovery
/// replays the whole interleaving.
#[test]
fn concurrent_durable_appliers_share_group_commits() {
    const THREADS: u32 = 4;
    const PER_THREAD: u32 = 8;
    let dir = tmp_dir("group-commit");
    let mut tax = Taxonomy::new("r");
    tax.add_child(Taxonomy::ROOT, "a").unwrap();
    let n = 2 + THREADS * PER_THREAD;
    let g = Graph::from_edges(n as usize, &[(0, 1)]).unwrap();
    let profiles = vec![PTree::root_only(); n as usize];
    let engine = PcsEngine::builder()
        .graph(g)
        .taxonomy(tax)
        .profiles(profiles)
        .durable(&dir)
        .build()
        .unwrap();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let engine = &engine;
            s.spawn(move || {
                for k in 0..PER_THREAD {
                    // Distinct endpoints per (t, k): always effective.
                    let v = 2 + t * PER_THREAD + k;
                    let report = engine.apply(&UpdateBatch::new().add_edge(0, v)).unwrap();
                    assert!(report.durable_epoch.unwrap() >= report.epoch);
                }
            });
        }
    });
    let total = u64::from(THREADS * PER_THREAD);
    // One epoch — one WAL record, one fsync — per call.
    assert_eq!(engine.epoch(), total, "each write publishes exactly one epoch");
    assert_eq!(engine.durable_epoch(), Some(total));
    drop(engine);
    let recovered = PcsEngine::builder().durable(&dir).open().unwrap();
    assert_eq!(recovered.epoch(), total);
    assert_eq!(
        recovered.snapshot().graph().num_edges(),
        1 + total as usize,
        "every concurrently acknowledged edge survived recovery"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The network-replication surface: `wal_tail_since` frames the fsynced
/// tail, `apply_wal_frames` applies it on the other side, and a damaged
/// stream is a typed error, not a divergent replica.
#[test]
fn wal_frame_streaming_replicates_and_rejects_damage() {
    let dir = tmp_dir("frames");
    let primary = durable_engine(&dir, WalOptions::default());
    let batches = scripted_batches(primary.taxonomy());
    for batch in batches.iter().take(4) {
        primary.apply(batch).unwrap();
    }
    let frames = primary.wal_tail_since(0, u64::MAX).unwrap();
    assert!(!frames.is_empty());
    assert!(primary.wal_tail_since(4, u64::MAX).unwrap().is_empty(), "caught-up tail is empty");

    let replica = reference_engine(0);
    assert_eq!(replica.apply_wal_frames(&frames).unwrap(), 4);
    assert_eq!(replica.epoch(), 4);
    assert_equivalent(&replica, &primary, "frame-streamed replica");
    // Idempotent: re-applying the same stream is a no-op.
    assert_eq!(replica.apply_wal_frames(&frames).unwrap(), 0);

    // A flipped byte anywhere in the stream is caught by the per-record
    // checksum before anything applies.
    let mut damaged = frames.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x10;
    let fresh = reference_engine(0);
    let err = fresh.apply_wal_frames(&damaged).unwrap_err();
    assert!(matches!(err, Error::Store(_)), "got {err:?}");
    assert_eq!(fresh.epoch(), 0, "nothing may apply from a damaged stream");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay stamping is strict: wrong epoch and no-effect replays are
/// typed divergence errors that leave the engine untouched.
#[test]
fn stamped_replay_is_strict_about_epochs_and_effects() {
    let engine = reference_engine(2);
    let replay = |batch: &UpdateBatch, epoch: u64| {
        let payload = pcs_engine::encode_update_batch(batch).unwrap();
        let frames = encode_records(&[WalRecord { epoch, payload }]).unwrap();
        engine.apply_wal_frames(&frames)
    };
    let err = replay(&UpdateBatch::new().add_edge(4, 5), 7).unwrap_err();
    assert!(
        matches!(err, Error::Update(UpdateError::EpochMismatch { expected: 7, next: 3 })),
        "got {err:?}"
    );
    // Batch 1 (add_edge(5, 1)) is already applied: replaying it at the
    // next epoch is all no-ops — divergence, not silence.
    let scripted = scripted_batches(engine.taxonomy());
    let err = replay(&scripted[0], 3).unwrap_err();
    assert!(matches!(err, Error::Update(UpdateError::ReplayNoEffect { epoch: 3 })), "got {err:?}");
    assert_eq!(engine.epoch(), 2, "rejected replays leave the engine untouched");
}

/// Round-trip of the batch codec through every operation kind, plus
/// typed rejection of malformed payloads.
#[test]
fn batch_codec_roundtrip_and_rejection() {
    let (_, tax, _) = fixture();
    let a = tax.id_of("a").unwrap();
    let batch = UpdateBatch::new()
        .add_edge(1, 2)
        .remove_edge(0, 3)
        .set_profile(4, PTree::from_labels(&tax, [a]).unwrap());
    let payload = pcs_engine::encode_update_batch(&batch).unwrap();
    let decoded = pcs_engine::decode_update_batch(&payload, &tax).unwrap();
    assert_eq!(decoded, batch);

    // Truncation, trailing garbage, bad tags, and out-of-taxonomy
    // profiles are all typed `Corrupt`/`Truncated`-class errors.
    assert!(pcs_engine::decode_update_batch(&payload[..payload.len() - 2], &tax).is_err());
    let mut trailing = payload.clone();
    trailing.push(0);
    assert!(pcs_engine::decode_update_batch(&trailing, &tax).is_err());
    let mut bad_tag = payload.clone();
    bad_tag[4] = 0xEE;
    assert!(pcs_engine::decode_update_batch(&bad_tag, &tax).is_err());
    let smaller_tax = Taxonomy::new("r");
    assert!(
        pcs_engine::decode_update_batch(&payload, &smaller_tax).is_err(),
        "profiles must be re-validated against the decoding taxonomy"
    );
}

#[test]
fn non_durable_engines_report_not_durable() {
    let engine = reference_engine(0);
    assert_eq!(engine.durable_epoch(), None);
    assert!(matches!(engine.checkpoint(), Err(Error::NotDurable)));
    assert!(matches!(engine.wal_tail_since(0, u64::MAX), Err(Error::NotDurable)));
    let report = engine.apply(&UpdateBatch::new().add_edge(4, 5)).unwrap();
    assert_eq!(report.durable_epoch, None);
}

/// A seeded fixture for the replay tests: 24 vertices, ~50 random
/// edges, and random profiles of one or two leaves of a taxonomy with
/// four topics of two leaves each, so an edge touches few labels.
fn seeded_fixture(seed: u64) -> (Graph, Taxonomy, Vec<PTree>) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut tax = Taxonomy::new("r");
    for topic in ["a", "b", "c", "d"] {
        let t = tax.add_child(Taxonomy::ROOT, topic).unwrap();
        for leaf in 1..=2 {
            tax.add_child(t, &format!("{topic}{leaf}")).unwrap();
        }
    }
    let n = 24u32;
    let edges: Vec<(u32, u32)> = (0..50)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .filter(|(u, v)| u != v)
        .collect();
    let g = Graph::from_edges(n as usize, &edges).unwrap();
    let profiles = (0..n).map(|_| random_profile(&mut rng, &tax)).collect();
    (g, tax, profiles)
}

fn random_profile(rng: &mut impl rand::Rng, tax: &Taxonomy) -> PTree {
    let leaves: Vec<u32> = (1..tax.len() as u32).filter(|&l| tax.children(l).is_empty()).collect();
    let picks = rng.gen_range(1..=2);
    let labels: Vec<u32> = (0..picks).map(|_| leaves[rng.gen_range(0..leaves.len())]).collect();
    PTree::from_labels(tax, labels).unwrap()
}

/// A seeded stream of `4 × rounds` batches, each effective on the state
/// its predecessors leave. Every round of four records carries two
/// net-zero pairs that span records (an edge added in the first and
/// removed in the third; a profile set in the second and restored in
/// the fourth), and each record adds one random edge flip or reprofile
/// that stays clear of both pairs.
fn seeded_batches(seed: u64, rounds: usize) -> Vec<UpdateBatch> {
    use rand::{Rng, SeedableRng};
    let (g, tax, mut profiles) = seeded_fixture(seed);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x5eed);
    let n = g.num_vertices() as u32;
    let mut edges: std::collections::BTreeSet<(u32, u32)> = g.edges().collect();
    let key = |u: u32, v: u32| (u.min(v), u.max(v));
    let mut batches = Vec::new();
    for _ in 0..rounds {
        let pair_edge = loop {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v && !edges.contains(&key(u, v)) {
                break key(u, v);
            }
        };
        let pair_vertex = rng.gen_range(0..n);
        let restored = profiles[pair_vertex as usize].clone();
        let changed = loop {
            let p = random_profile(&mut rng, &tax);
            if p != restored {
                break p;
            }
        };
        let mut round = [
            UpdateBatch::new().add_edge(pair_edge.0, pair_edge.1),
            UpdateBatch::new().set_profile(pair_vertex, changed),
            UpdateBatch::new().remove_edge(pair_edge.0, pair_edge.1),
            UpdateBatch::new().set_profile(pair_vertex, restored),
        ];
        for batch in &mut round {
            let extra = loop {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if rng.gen_range(0..4) == 0 && u != pair_vertex {
                    let p = random_profile(&mut rng, &tax);
                    if p != profiles[u as usize] {
                        profiles[u as usize] = p.clone();
                        break UpdateBatch::new().set_profile(u, p);
                    }
                } else if u != v && key(u, v) != pair_edge {
                    break if edges.remove(&key(u, v)) {
                        UpdateBatch::new().remove_edge(u, v)
                    } else {
                        edges.insert(key(u, v));
                        UpdateBatch::new().add_edge(u, v)
                    };
                }
            };
            *batch = batch.ops().iter().chain(extra.ops()).cloned().collect();
        }
        batches.extend(round);
    }
    batches
}

fn seeded_engine(seed: u64, mode: pcs_engine::IndexMode, dir: Option<&Path>) -> PcsEngine {
    let (g, tax, profiles) = seeded_fixture(seed);
    let builder = PcsEngine::builder().graph(g).taxonomy(tax).profiles(profiles).index_mode(mode);
    match dir {
        Some(dir) => builder.durable(dir).build().unwrap(),
        None => builder.build().unwrap(),
    }
}

/// Epoch, graph, cores and profiles equal, and every algorithm's
/// answer on `got` equals `basic` on `want` for every `(q, k ≤ 3)`.
fn assert_same_as_reference(got: &PcsEngine, want: &PcsEngine, context: &str) {
    use pcs_engine::Algorithm;
    assert_eq!(got.epoch(), want.epoch(), "{context}: epochs diverge");
    let (gs, ws) = (got.snapshot(), want.snapshot());
    assert_eq!(gs.graph(), ws.graph(), "{context}: graphs diverge");
    assert_eq!(gs.cores().core_numbers(), ws.cores().core_numbers(), "{context}: cores diverge");
    assert_eq!(gs.profiles(), ws.profiles(), "{context}: profiles diverge");
    for q in 0..gs.graph().num_vertices() as u32 {
        for k in 0..=3u32 {
            let req = QueryRequest::vertex(q).k(k);
            let basic = want.query(&req.clone().algorithm(Algorithm::Basic)).unwrap();
            for algo in Algorithm::ALL {
                let resp = got.query(&req.clone().algorithm(algo)).unwrap();
                assert_eq!(
                    resp.outcome.communities,
                    basic.outcome.communities,
                    "{context}: {} disagrees with basic (q={q}, k={k})",
                    algo.name()
                );
            }
        }
    }
}

/// Recovery stages a whole WAL tail and publishes it once; the result
/// must equal applying the same batches one at a time, including net-
/// zero edge and profile pairs whose halves sit in different records.
#[test]
fn replayed_tail_equals_one_by_one_apply() {
    use pcs_engine::IndexMode;
    for (seed, mode) in [(1, IndexMode::Eager), (2, IndexMode::Lazy), (3, IndexMode::Eager)] {
        let context = format!("seed {seed}, {mode:?}");
        let dir = tmp_dir(&format!("replay-run-{seed}"));
        let batches = seeded_batches(seed, 6);
        let primary = seeded_engine(seed, mode, Some(&dir));
        let reference = seeded_engine(seed, mode, None);
        for (i, batch) in batches.iter().enumerate() {
            assert_eq!(primary.apply(batch).unwrap().epoch, i as u64 + 1, "{context}");
            reference.apply(batch).unwrap();
            // Checkpoint mid-stream, so the tail starts past epoch 0.
            if i == 2 {
                assert_eq!(primary.checkpoint().unwrap(), 3);
            }
        }
        drop(primary);
        let recovered = PcsEngine::builder().durable(&dir).index_mode(mode).open().unwrap();
        assert_eq!(recovered.epoch(), batches.len() as u64, "{context}");
        assert_same_as_reference(&recovered, &reference, &context);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A run that fails at record 4 publishes records 1–3 as one epoch and
/// returns the typed error: the engine sits exactly at the prefix.
#[test]
fn mid_stream_replay_failure_publishes_exactly_the_prefix() {
    let (_, tax, _) = fixture();
    let scripted = scripted_batches(&tax);
    let record = |batch: &UpdateBatch, epoch: u64| WalRecord {
        epoch,
        payload: pcs_engine::encode_update_batch(batch).unwrap(),
    };
    let good: Vec<WalRecord> =
        scripted.iter().take(3).zip(1..).map(|(batch, epoch)| record(batch, epoch)).collect();
    // An epoch gap (5 after 3), and a record with no effect: batch 1's
    // edge is already present at epoch 4.
    for (bad, want) in [
        (record(&scripted[3], 5), UpdateError::EpochMismatch { expected: 5, next: 4 }),
        (record(&scripted[0], 4), UpdateError::ReplayNoEffect { epoch: 4 }),
    ] {
        let mut stream = good.clone();
        stream.push(bad);
        let engine = reference_engine(0);
        let err = engine.apply_wal_frames(&encode_records(&stream).unwrap()).unwrap_err();
        match err {
            Error::Update(got) => assert_eq!(got, want),
            other => panic!("expected {want:?}, got {other:?}"),
        }
        assert_eq!(engine.epoch(), 3, "the good prefix is published");
        assert_same_as_reference(&engine, &reference_engine(3), &format!("{want:?}"));
    }
}

/// A durable engine fed frames re-logs every record at its own epoch
/// with its original bytes, and recovers from its own directory.
#[test]
fn chained_durable_replica_relogs_the_primary_records() {
    let (primary_dir, replica_dir) = (tmp_dir("chain-primary"), tmp_dir("chain-replica"));
    let primary = durable_engine(&primary_dir, WalOptions::default());
    for batch in scripted_batches(primary.taxonomy()) {
        primary.apply(&batch).unwrap();
    }
    let frames = primary.wal_tail_since(0, u64::MAX).unwrap();
    let replica = durable_engine(&replica_dir, WalOptions::default());
    assert_eq!(replica.apply_wal_frames(&frames).unwrap(), 8);
    assert_eq!(replica.durable_epoch(), Some(8));
    assert_eq!(replica.wal_tail_since(0, u64::MAX).unwrap(), frames, "re-logged bytes differ");
    drop(replica);

    let reopened = PcsEngine::builder().durable(&replica_dir).open().unwrap();
    assert_eq!(reopened.epoch(), 8);
    assert_same_as_reference(&reopened, &primary, "reopened chained replica");
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

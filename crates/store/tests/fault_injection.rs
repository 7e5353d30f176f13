//! The corruption matrix: every way a snapshot file can be damaged —
//! truncation at arbitrary points, bit flips in the header, the
//! section table, and every section payload, wrong magic, any format
//! version but the current one, and section-length overflows — must surface as a
//! typed [`StoreError`], never as a panic, a hang, or a silently wrong
//! engine. Each case runs under `std::panic::catch_unwind` so a panic
//! anywhere in the load path fails the test with the offending case.

use pcs_engine::UpdateBatch;
use pcs_engine::{Error, IndexMode, PcsEngine, QueryRequest, StoreError};
use pcs_graph::Graph;
use pcs_ptree::{PTree, Taxonomy};
use pcs_store::{xxh64, FORMAT_VERSION, SECTION_TABLE};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

mod common;

fn tmp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "pcs-fault-{}-{tag}-{}.snapshot",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A healthy snapshot (graph + profiles + cores + built index) plus the
/// engine that wrote it.
fn healthy_snapshot() -> (Vec<u8>, PcsEngine) {
    let mut tax = Taxonomy::new("r");
    let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
    let b = tax.add_child(a, "b").unwrap();
    let c = tax.add_child(Taxonomy::ROOT, "c").unwrap();
    let g = Graph::from_edges(
        8,
        &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (5, 6), (4, 6)],
    )
    .unwrap();
    let profiles = vec![
        PTree::from_labels(&tax, [a]).unwrap(),
        PTree::from_labels(&tax, [b]).unwrap(),
        PTree::from_labels(&tax, [b, c]).unwrap(),
        PTree::from_labels(&tax, [a, c]).unwrap(),
        PTree::from_labels(&tax, [b]).unwrap(),
        PTree::from_labels(&tax, [c]).unwrap(),
        PTree::from_labels(&tax, [a]).unwrap(),
        PTree::root_only(), // isolated vertex
    ];
    let engine = PcsEngine::builder()
        .graph(g)
        .taxonomy(tax)
        .profiles(profiles)
        .index_mode(IndexMode::Eager)
        .build()
        .unwrap();
    let path = tmp_path("healthy");
    engine.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    (bytes, engine)
}

/// Loads corrupted bytes through the full *eager* engine path inside
/// `catch_unwind`; returns the typed error. Panics (= test failure)
/// when the load panicked or — worse — succeeded. Eager mode drains
/// the reader (every section checksummed and decoded) before `load`
/// returns, so all damage must be caught at load time; the lazy path's
/// deferred-validation contract is pinned separately by the
/// first-touch tests below.
fn must_fail_typed(bytes: &[u8], case: &str) -> Error {
    must_fail_typed_in(IndexMode::Eager, bytes, case)
}

/// [`must_fail_typed`] under an explicit load mode, for damage the
/// container prefix check catches on either path.
fn must_fail_typed_in(mode: IndexMode, bytes: &[u8], case: &str) -> Error {
    let path = tmp_path("case");
    std::fs::write(&path, bytes).unwrap();
    let result = catch_unwind(|| PcsEngine::builder().index_mode(mode).load(&path));
    std::fs::remove_file(&path).unwrap();
    match result {
        Err(_) => panic!("case {case}: load PANICKED instead of returning an error"),
        Ok(Ok(_)) => panic!("case {case}: corrupted snapshot loaded successfully"),
        Ok(Err(e)) => e,
    }
}

/// `bytes` with section `target`'s payload passed through `mutate` and
/// the container re-serialized around it (production reader and
/// writer, so table and section checksums are valid again): only the
/// validators behind the container can catch the change.
fn reforge(bytes: &[u8], target: u32, mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let path = tmp_path("forge");
    std::fs::write(&path, bytes).unwrap();
    let mut sections = common::read_sections(&path);
    let (_, payload) = sections.iter_mut().find(|(id, _)| *id == target).unwrap();
    mutate(payload);
    common::write_sections(&path, &sections);
    let forged = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    forged
}

/// The section table region, as (start, end) byte offsets.
fn table_range(bytes: &[u8]) -> (usize, usize) {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    (24, 24 + 32 * count)
}

#[test]
fn truncation_at_every_interesting_length_is_typed() {
    let (bytes, _engine) = healthy_snapshot();
    let (_, table_end) = table_range(&bytes);
    // Every header byte, every table boundary, a sweep through the
    // payloads, and one-short-of-complete.
    let mut cuts: Vec<usize> = (0..24.min(bytes.len())).collect();
    cuts.extend([24, table_end - 1, table_end]);
    cuts.extend((table_end..bytes.len()).step_by(97));
    cuts.push(bytes.len() - 1);
    for cut in cuts {
        let err = must_fail_typed(&bytes[..cut], &format!("truncate@{cut}"));
        assert!(
            matches!(
                err,
                Error::Store(
                    StoreError::Truncated { .. }
                        | StoreError::BadMagic { .. }
                        | StoreError::SectionOverflow { .. }
                        | StoreError::ChecksumMismatch { .. }
                )
            ),
            "truncate@{cut}: unexpected error {err:?}"
        );
    }
    // The empty file too.
    let err = must_fail_typed(&[], "empty");
    assert!(matches!(err, Error::Store(StoreError::Truncated { needed: 24, actual: 0 })));
}

#[test]
fn bit_flips_in_every_region_are_typed() {
    let (bytes, _engine) = healthy_snapshot();
    let (table_start, table_end) = table_range(&bytes);
    // Flip one bit at a spread of positions covering the magic, the
    // version, the count, the table checksum, every table entry, and
    // every payload (all six sections lie in [table_end, len)).
    let mut positions: Vec<usize> = (0..table_end).step_by(3).collect();
    positions.extend((table_end..bytes.len()).step_by(53));
    positions.push(bytes.len() - 1);
    for pos in positions {
        for bit in [0u8, 7] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 1 << bit;
            let case = format!("flip byte {pos} bit {bit}");
            let err = must_fail_typed(&corrupted, &case);
            let expected_class = match pos {
                0..=7 => matches!(err, Error::Store(StoreError::BadMagic { .. })),
                8..=11 => matches!(err, Error::Store(StoreError::UnsupportedVersion { .. })),
                // Count / table checksum: the section-count cap, the
                // table checksum, or a bounds check on the re-declared
                // layout must catch it.
                p if p < table_start => matches!(
                    err,
                    Error::Store(
                        StoreError::ChecksumMismatch { .. }
                            | StoreError::Truncated { .. }
                            | StoreError::Corrupt { section: SECTION_TABLE, .. }
                    )
                ),
                p if p < table_end => matches!(
                    err,
                    Error::Store(StoreError::ChecksumMismatch { section: SECTION_TABLE, .. })
                ),
                // Payload flips: the per-section checksum names the
                // damaged section.
                _ => matches!(
                    err,
                    Error::Store(StoreError::ChecksumMismatch { section, .. })
                        if section != SECTION_TABLE
                ),
            };
            assert!(expected_class, "{case}: unexpected error {err:?}");
        }
    }
}

#[test]
fn wrong_magic_is_typed() {
    let (bytes, _engine) = healthy_snapshot();
    let mut corrupted = bytes.clone();
    corrupted[..8].copy_from_slice(b"NOTASNAP");
    assert_eq!(
        must_fail_typed(&corrupted, "wrong magic"),
        Error::Store(StoreError::BadMagic { found: *b"NOTASNAP" })
    );
    // A zip file, say.
    let err = must_fail_typed(b"PK\x03\x04 anything else entirely", "zip");
    assert!(matches!(err, Error::Store(StoreError::BadMagic { .. })));
}

/// Exactly one format version loads: a header declaring a newer one —
/// or the retired v1/v2 layouts, or 0 — is rejected typed under both
/// the eager and the lazy load, before any section is interpreted in
/// the wrong layout.
#[test]
fn future_format_version_is_typed() {
    let (bytes, _engine) = healthy_snapshot();
    assert_eq!(FORMAT_VERSION, 3);
    for found in [FORMAT_VERSION + 1, 2, 1, 0] {
        let mut corrupted = bytes.clone();
        corrupted[8..12].copy_from_slice(&found.to_le_bytes());
        for mode in [IndexMode::Eager, IndexMode::Lazy] {
            assert_eq!(
                must_fail_typed_in(mode, &corrupted, &format!("version {found}, {mode:?}")),
                Error::Store(StoreError::UnsupportedVersion { found, supported: 3 })
            );
        }
    }
}

/// Crafting an *internally consistent* overflow: the table entry's
/// length is inflated and the table checksum recomputed, so the read
/// reaches the dedicated bounds check rather than the checksum guard.
#[test]
fn section_length_overflow_is_typed() {
    let (bytes, _engine) = healthy_snapshot();
    for (case, new_len) in [("huge", u64::MAX), ("past-eof", bytes.len() as u64)] {
        let mut corrupted = bytes.clone();
        let (table_start, table_end) = table_range(&corrupted);
        // First entry: id at +0, offset at +8, len at +16.
        corrupted[table_start + 16..table_start + 24].copy_from_slice(&new_len.to_le_bytes());
        let table_sum = xxh64(&corrupted[table_start..table_end], FORMAT_VERSION as u64);
        corrupted[16..24].copy_from_slice(&table_sum.to_le_bytes());
        let err = must_fail_typed(&corrupted, case);
        assert!(
            matches!(err, Error::Store(StoreError::SectionOverflow { len, .. }) if len == new_len),
            "{case}: unexpected error {err:?}"
        );
    }
}

/// A forged header declaring an absurd section count must be rejected
/// up front (bounded work), not ground through a quadratic table scan
/// or a giant allocation.
#[test]
fn absurd_section_count_is_rejected_fast() {
    let (bytes, _engine) = healthy_snapshot();
    let mut forged = bytes.clone();
    forged[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    let start = std::time::Instant::now();
    let err = must_fail_typed(&forged, "forged count");
    assert!(
        matches!(err, Error::Store(StoreError::Corrupt { section: SECTION_TABLE, .. })),
        "unexpected error {err:?}"
    );
    assert!(start.elapsed().as_secs() < 5, "count check must run before any scaled work");
}

/// Saves are atomic: overwriting an existing snapshot goes through a
/// temp file + rename, so the destination always holds either the old
/// or the new complete file (and no temp litter survives).
#[test]
fn save_over_existing_snapshot_is_atomic_and_clean() {
    let (bytes, engine) = healthy_snapshot();
    let path = tmp_path("atomic");
    std::fs::write(&path, b"previous contents, not even a snapshot").unwrap();
    engine.save(&path).unwrap();
    let reread = std::fs::read(&path).unwrap();
    assert_eq!(reread, bytes, "rename replaced the file with the complete new snapshot");
    let dir = path.parent().unwrap();
    let stem = path.file_name().unwrap().to_string_lossy().into_owned();
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&stem) && n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
    std::fs::remove_file(&path).unwrap();
}

/// A checksum-valid file whose *contents* lie (a section decodes but
/// disagrees with its siblings) must still be rejected: swap in a
/// cores section computed for a different graph.
#[test]
fn internally_inconsistent_sections_are_typed() {
    let (bytes, _engine) = healthy_snapshot();
    // Degree-violating core numbers for vertex 7 (isolated), written
    // at the file's (narrow) id width so the decode reaches the
    // semantic degree check.
    let forged = reforge(&bytes, pcs_store::section::CORES, |payload| {
        let mut w = pcs_store::SectionWriter::new();
        w.put_u64(8);
        w.put_id_slice(&[2, 2, 3, 2, 3, 2, 2, 9], true);
        *payload = w.finish();
    });
    let err = must_fail_typed(&forged, "forged cores");
    assert!(
        matches!(err, Error::Store(StoreError::Corrupt { section: pcs_store::section::CORES, .. })),
        "unexpected error {err:?}"
    );
}

/// After surviving the whole gauntlet, the pristine bytes still load
/// and answer like the source engine — the matrix harness itself is
/// not what makes loads fail.
#[test]
fn pristine_bytes_still_load_and_answer() {
    let (bytes, engine) = healthy_snapshot();
    let path = tmp_path("pristine");
    std::fs::write(&path, &bytes).unwrap();
    let loaded = PcsEngine::builder().index_mode(IndexMode::Eager).load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    for q in 0..8u32 {
        let a = engine.query(&QueryRequest::vertex(q).k(2)).unwrap();
        let b = loaded.query(&QueryRequest::vertex(q).k(2)).unwrap();
        assert_eq!(a.communities(), b.communities(), "q={q}");
    }
}

// ---------------------------------------------------------------------
// Lazy-path corruption matrix: the lazy load defers GRAPH and PROFILES
// payload validation to first touch. The contract is *fail-stop, never
// wrong*: a bit flip in a deferred range may let the load succeed, but
// the first query (or materialization) that touches the damaged bytes
// must surface a typed ChecksumMismatch/Corrupt naming the section —
// and every answer produced before that moment must equal the healthy
// engine's. No panic, no silent drift.
// ---------------------------------------------------------------------

/// All section (id, start, end) byte ranges, decoded from the table.
fn section_ranges(bytes: &[u8]) -> Vec<(u32, usize, usize)> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let at = 24 + 32 * i;
            let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let off = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap()) as usize;
            (id, off, off + len)
        })
        .collect()
}

#[test]
fn lazy_graph_and_profile_flips_are_typed_on_first_touch_never_wrong() {
    let (bytes, healthy) = healthy_snapshot();
    let deferred: Vec<(u32, usize, usize)> = section_ranges(&bytes)
        .into_iter()
        .filter(|(id, _, _)| {
            *id == pcs_store::section::GRAPH || *id == pcs_store::section::PROFILES
        })
        .collect();
    assert_eq!(deferred.len(), 2, "fixture persists both deferred sections");
    for (id, start, end) in deferred {
        let mut positions: Vec<usize> = (start..end).step_by(11).collect();
        positions.push(end - 1);
        for pos in positions {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x10;
            let case = format!("section {id} flip byte {pos}");
            let path = tmp_path("lazyflip");
            std::fs::write(&path, &corrupted).unwrap();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let loaded = match PcsEngine::builder().index_mode(IndexMode::Lazy).load(&path) {
                    // Structural prefixes (the profile chunk directory)
                    // are validated at open; failing there is fine as
                    // long as the error is typed.
                    Err(e) => return e,
                    Ok(engine) => engine,
                };
                // Drive the replica through a full first touch: every
                // vertex at several k, then force both deferred
                // sections all the way resident. The first typed error
                // wins; until then every answer must match the healthy
                // engine bit for bit.
                for q in 0..8u32 {
                    for k in 1..4u32 {
                        match loaded.query(&QueryRequest::vertex(q).k(k)) {
                            Ok(resp) => {
                                let want = healthy.query(&QueryRequest::vertex(q).k(k)).unwrap();
                                assert_eq!(
                                    want.communities(),
                                    resp.communities(),
                                    "{case}: WRONG ANSWER at q={q} k={k}"
                                );
                            }
                            Err(e) => return e,
                        }
                    }
                }
                let snap = loaded.snapshot();
                if let Err(e) = snap.try_graph().map(|_| ()) {
                    return e;
                }
                match snap.try_profiles() {
                    Err(e) => e,
                    Ok(_) => panic!("{case}: damage never surfaced after full touch"),
                }
            }));
            std::fs::remove_file(&path).unwrap();
            let err = match outcome {
                Err(_) => panic!("{case}: PANICKED instead of returning a typed error"),
                Ok(e) => e,
            };
            let named_ok = matches!(
                &err,
                Error::Store(
                    StoreError::ChecksumMismatch { section, .. }
                        | StoreError::Corrupt { section, .. }
                ) if *section == id
            );
            let structural_ok = matches!(
                &err,
                Error::Store(StoreError::Truncated { .. } | StoreError::SectionOverflow { .. })
            );
            assert!(named_ok || structural_ok, "{case}: unexpected error {err:?}");
        }
    }
}

/// The differential pin: an eager-loaded replica, a lazily-loaded
/// replica, and the original from-scratch engine stay answer-equal
/// through a mixed stream of edge and profile updates. Lazy loading
/// changes *when* bytes are read, never *what* the engine computes.
#[test]
fn eager_lazy_and_scratch_engines_agree_under_a_mixed_update_stream() {
    let (bytes, scratch) = healthy_snapshot();
    let path = tmp_path("diff");
    std::fs::write(&path, &bytes).unwrap();
    let eager = PcsEngine::builder().index_mode(IndexMode::Eager).load(&path).unwrap();
    let lazy = PcsEngine::builder().index_mode(IndexMode::Lazy).load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    // Same taxonomy shape as the fixture, so label ids line up.
    let mut tax = Taxonomy::new("r");
    let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
    let b = tax.add_child(a, "b").unwrap();
    let c = tax.add_child(Taxonomy::ROOT, "c").unwrap();
    let batches = [
        UpdateBatch::new().add_edge(7, 0).add_edge(7, 1),
        UpdateBatch::new()
            .remove_edge(2, 3)
            .set_profile(5, PTree::from_labels(&tax, [a, b]).unwrap()),
        UpdateBatch::new().add_edge(3, 5).add_edge(3, 6).remove_edge(7, 0),
        UpdateBatch::new().set_profile(7, PTree::from_labels(&tax, [c]).unwrap()).add_edge(0, 4),
    ];
    for (i, batch) in batches.iter().enumerate() {
        scratch.apply(batch).unwrap();
        eager.apply(batch).unwrap();
        lazy.apply(batch).unwrap();
        for q in 0..8u32 {
            for k in 1..4u32 {
                let want = scratch.query(&QueryRequest::vertex(q).k(k)).unwrap();
                let from_eager = eager.query(&QueryRequest::vertex(q).k(k)).unwrap();
                let from_lazy = lazy.query(&QueryRequest::vertex(q).k(k)).unwrap();
                assert_eq!(
                    want.communities(),
                    from_eager.communities(),
                    "batch {i} q={q} k={k}: eager replica diverged"
                );
                assert_eq!(
                    want.communities(),
                    from_lazy.communities(),
                    "batch {i} q={q} k={k}: lazy replica diverged"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sharded-INDEX corruption matrix (v3 layout): forged (re-checksummed)
// INDEX sections whose shard directory lies must fail with typed
// errors — the directory is validated eagerly in *both* eager and
// lazy load modes. Forged shard *payloads* are rejected by the
// eager load (per-shard checksum, then `ClTree::from_flat`); the lazy
// path defers their decode and transparently rebuilds the shard from
// the graph instead, so a bad payload can never produce a wrong
// answer.
// ---------------------------------------------------------------------

/// Byte offset of the shard directory inside the healthy v3 INDEX
/// payload, plus the shard count found there. Mirrors the reader's
/// cursor walk (n, num_labels, member lens, per-label member sums,
/// total, member ids, then the directory); META's `narrow` flag
/// decides the id width.
fn index_directory_offset(index_payload: &[u8], num_labels: usize, narrow: bool) -> (usize, usize) {
    let id = if narrow { 2 } else { 4 };
    let mut at = 16; // n + num_labels
    at += 4 * num_labels; // member lens (u32 each)
    at += 8 * num_labels; // v3 per-label member checksums (u64 each)
    let total = u64::from_le_bytes(index_payload[at..at + 8].try_into().unwrap()) as usize;
    at += 8 + id * total;
    let count = u64::from_le_bytes(index_payload[at..at + 8].try_into().unwrap()) as usize;
    (at + 8, count)
}

/// Rebuilds the container around a mutated INDEX payload (checksums
/// recomputed, so only the validators behind the container can catch
/// it) and returns the typed rejection — under the eager load path,
/// where every shard is decoded up front.
fn forge_index(bytes: &[u8], case: &str, mutate: impl FnOnce(&mut Vec<u8>)) -> Error {
    must_fail_typed(&reforge(bytes, pcs_store::section::INDEX, mutate), case)
}

#[test]
fn v2_shard_table_corruptions_are_typed() {
    let (bytes, _engine) = healthy_snapshot();
    let (_, start, end) = section_ranges(&bytes)
        .into_iter()
        .find(|(id, ..)| *id == pcs_store::section::INDEX)
        .unwrap();
    let payload = &bytes[start..end];
    let num_labels = u64::from_le_bytes(payload[8..16].try_into().unwrap()) as usize;
    let (dir_at, shard_count) = index_directory_offset(payload, num_labels, true);
    assert!(shard_count >= 2, "healthy eager snapshot persists several shards");
    let expect_corrupt = |case: &str, err: Error| {
        assert!(
            matches!(
                err,
                Error::Store(StoreError::Corrupt { section: pcs_store::section::INDEX, .. })
            ),
            "{case}: unexpected error {err:?}"
        );
    };
    // Entry layout: u32 label, u64 offset, u64 len, u64 payload
    // checksum (28 bytes each in v3).
    expect_corrupt(
        "label out of range",
        forge_index(&bytes, "label out of range", |p| {
            p[dir_at..dir_at + 4].copy_from_slice(&(num_labels as u32).to_le_bytes());
        }),
    );
    expect_corrupt(
        "labels not ascending",
        forge_index(&bytes, "labels not ascending", |p| {
            let second = u32::from_le_bytes(p[dir_at + 28..dir_at + 32].try_into().unwrap());
            p[dir_at..dir_at + 4].copy_from_slice(&second.to_le_bytes());
        }),
    );
    expect_corrupt(
        "offset does not tile",
        forge_index(&bytes, "offset does not tile", |p| {
            p[dir_at + 4..dir_at + 12].copy_from_slice(&1u64.to_le_bytes());
        }),
    );
    expect_corrupt(
        "length overflows",
        forge_index(&bytes, "length overflows", |p| {
            p[dir_at + 12..dir_at + 20].copy_from_slice(&u64::MAX.to_le_bytes());
        }),
    );
    expect_corrupt(
        "more shards than labels",
        forge_index(&bytes, "more shards than labels", |p| {
            p[dir_at - 8..dir_at].copy_from_slice(&(num_labels as u64 + 1).to_le_bytes());
        }),
    );
    // Member-table lie that keeps the list sorted and the grand total
    // intact, so only the carrier cross-pin can catch it: label "b"
    // (id 2) is carried by vertices [1, 2, 4]; replacing the trailing
    // 4 with 3 (vertex 3 carries a and c, not b) stays strictly
    // ascending — the forged table survives every structural check
    // and must be rejected by the members↔profiles pin.
    expect_corrupt(
        "member not a carrier",
        forge_index(&bytes, "member not a carrier", |p| {
            let lens: Vec<u32> = (0..num_labels)
                .map(|l| u32::from_le_bytes(p[16 + 4 * l..20 + 4 * l].try_into().unwrap()))
                .collect();
            assert_eq!(lens[2], 3, "fixture: label b carried by exactly [1, 2, 4]");
            let sums_at = 16 + 4 * num_labels;
            let ids_at = sums_at + 8 * num_labels + 8;
            let slot = ids_at + 2 * (lens[0] + lens[1] + 2) as usize;
            assert_eq!(&p[slot..slot + 2], &4u16.to_le_bytes()[..], "fixture drifted");
            p[slot..slot + 2].copy_from_slice(&3u16.to_le_bytes());
            // Re-checksum label 2's member run so only the carrier
            // cross-pin (not the v3 per-label checksum) can catch the
            // lie — this test pins the semantic check specifically.
            let run_at = ids_at + 2 * (lens[0] + lens[1]) as usize;
            let run = p[run_at..run_at + 2 * lens[2] as usize].to_vec();
            let sum = xxh64(&run, pcs_store::member_sum_seed(2));
            p[sums_at + 8 * 2..sums_at + 8 * 3].copy_from_slice(&sum.to_le_bytes());
        }),
    );
    // Forged shard payload (flip the last byte of the blob, inside the
    // final shard): the eager load rejects it — by the shard's own
    // directory checksum when only the container was re-summed...
    let blob_last = payload.len() - 1;
    let err = forge_index(&bytes, "forged payload", |p| p[blob_last] ^= 0x01);
    assert!(
        matches!(
            err,
            Error::Store(StoreError::ChecksumMismatch { section: pcs_store::section::INDEX, .. })
        ),
        "forged payload: unexpected error {err:?}"
    );
    // ...and by the structural validator (`ClTree::from_flat`) when the
    // forger re-sums that directory entry too.
    let entry = dir_at + 28 * (shard_count - 1);
    let blob_at = dir_at + 28 * shard_count + 8;
    expect_corrupt(
        "forged payload, shard re-summed",
        forge_index(&bytes, "forged payload, shard re-summed", |p| {
            p[blob_last] ^= 0x01;
            let label = u32::from_le_bytes(p[entry..entry + 4].try_into().unwrap());
            let off = u64::from_le_bytes(p[entry + 4..entry + 12].try_into().unwrap()) as usize;
            let sum = xxh64(&p[blob_at + off..], pcs_store::shard_sum_seed(label));
            p[entry + 20..entry + 28].copy_from_slice(&sum.to_le_bytes());
        }),
    );
}

/// ...while the partial (lazy) load defers the payload decode, spots
/// the damage at materialization, and rebuilds the shard from the
/// graph — the replica still answers exactly like the source. A bad
/// payload can cost time, never correctness.
#[test]
fn v2_forged_shard_payload_is_rebuilt_under_partial_load() {
    let (bytes, engine) = healthy_snapshot();
    let forged = reforge(&bytes, pcs_store::section::INDEX, |payload| {
        let last = payload.len() - 1;
        payload[last] ^= 0x01; // inside the final shard's blob
    });
    let path = tmp_path("lazyrepair");
    std::fs::write(&path, forged).unwrap();
    let loaded = PcsEngine::builder().index_mode(IndexMode::Lazy).load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    for q in 0..8u32 {
        for k in 1..4u32 {
            let a = engine.query(&QueryRequest::vertex(q).k(k)).unwrap();
            let b = loaded.query(&QueryRequest::vertex(q).k(k)).unwrap();
            assert_eq!(a.communities(), b.communities(), "q={q} k={k}");
        }
    }
}

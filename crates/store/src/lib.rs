//! # pcs-store — versioned on-disk engine snapshots
//!
//! The offline cost of profiled community search (CP-tree construction,
//! core decomposition) is the price the paper pays *once* so every
//! online query is cheap — but paying it again on every process start
//! is untenable for a serving system. This crate persists the whole
//! engine state as one **versioned, checksummed binary snapshot** so a
//! replica warm-starts by validating and bulk-copying flat arrays
//! instead of rebuilding indexes:
//!
//! * [`mod@format`] — the container: magic + format version + section
//!   table, one xxHash64 checksum per section (and one for the table),
//!   little-endian, hand-rolled, zero external dependencies. One
//!   writer ([`SnapshotWriter`], streaming) and one reader
//!   ([`FileSnapshot`], positioned reads).
//! * [`codec`] — section encodings for the CSR graph, taxonomy,
//!   P-trees, core numbers, and the CP-tree's flat DFS arenas, behind
//!   [`write_snapshot`]; every decode re-validates structure.
//! * [`lazy`] — the readers over a [`FileSnapshot`]: [`open_lazy`]
//!   faults payloads in on first touch, [`load_eager`] drains them all
//!   (and runs the cross-section pins) before returning.
//! * [`StoreError`] — one typed error for every way a file can be
//!   wrong: truncation, bit flips, version skew, length overflows,
//!   structural corruption. Corrupt input can never panic, hang, or
//!   yield a silently wrong engine.
//! * [`wal`] — the write-ahead log that closes the gap *between*
//!   snapshots: segmented, epoch-stamped, checksummed update records
//!   with one fsynced append ([`Wal::append_durable`]) and torn-tail
//!   truncation on recovery, under the same typed-error contract.
//!
//! ## Trust model
//!
//! Three independent guarantees, from strongest to writer-trusted:
//! **integrity** — any damage to a written file (bit flips,
//! truncation, length lies) is caught by the checksums; **structural
//! soundness** — even a file an adversary *re-checksummed* decodes
//! into well-formed values only (CSR invariants, taxonomy shape,
//! P-tree closure, laminar CL-tree arenas), so no input can hang a
//! traversal or return a malformed community; **semantic fidelity** —
//! that the persisted cores/index actually describe the persisted
//! graph is the writer's contract, spot-checked on load by the cheap
//! cross-section pins (counts, `core ≤ degree`, member table ⇔ profiles)
//! but not re-derived. Snapshots are a warm-start mechanism, not an
//! authentication boundary: only load files you (transitively) wrote.
//!
//! Applications normally reach this crate through
//! `pcs_engine::PcsEngine::save` / `EngineBuilder::load`; the types
//! here are the layer underneath (and the integration surface for
//! external tooling, which inspects snapshot files through
//! [`FileSnapshot`]).
//!
//! ## Versioning and compatibility
//!
//! A build reads and writes exactly one [`FORMAT_VERSION`]; a file
//! declaring any other version — older or newer — fails fast with
//! [`StoreError::UnsupportedVersion`] instead of guessing. Adding new
//! *sections* is backward-compatible (unknown ids are preserved by the
//! container and ignored by the codec); changing the layout of an
//! existing section bumps the version and drops the old reader in the
//! same change.

#![deny(unsafe_code)]

pub mod codec;
#[doc(hidden)]
pub mod faults;
pub mod format;
pub mod lazy;
pub mod source;
pub mod wal;

pub use codec::{
    member_sum_seed, parse_profile_chunk, profile_chunk_seed, section, shard_sum_seed,
    write_snapshot, ProfileChunkDir, PROFILE_CHUNK,
};
pub use lazy::{
    load_eager, open_lazy, FaultCell, LazyIndexParts, LazyProfileStore, LazySnapshot,
    SnapshotContents,
};
pub use source::FileSnapshot;

pub use format::{
    xxh64, Result, SectionReader, SectionSink, SectionWriter, SnapshotWriter, StoreError, Xxh64,
    FORMAT_VERSION, MAGIC, MAX_SECTIONS, SECTION_TABLE,
};
pub use wal::{
    decode_frames, encode_record, encode_records, list_segments, read_records_since, FrameScan,
    SegmentInfo, Wal, WalOptions, WalRecord, WalReplay, WalTail, MAX_RECORD_LEN, WAL_MAGIC,
    WAL_SECTION, WAL_VERSION,
};

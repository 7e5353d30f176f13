//! Durability and replication: the WAL-backed engine lifecycle.
//!
//! A crash must never cost an acknowledged update. This module wires
//! `pcs_store`'s write-ahead log into the engine's update path so that
//! every applied [`UpdateBatch`](crate::UpdateBatch) is on stable
//! storage *before* its epoch is published to readers:
//!
//! ```text
//!   apply:    take the writer lock
//!           → validate → mutate master → encode batch
//!           → WAL append + fsync (epoch N)
//!           → publish snapshot N        (readers see N only after fsync)
//!           → release the writer lock
//!   recover:  load snapshot (epoch S) → stage WAL records S+1..T
//!           → publish snapshot T once → serve
//! ```
//!
//! The durable directory layout is one snapshot plus one WAL
//! subdirectory:
//!
//! ```text
//!   <dir>/snapshot.pcs   — latest checkpoint (atomic rename + dir fsync)
//!   <dir>/wal/wal-*.seg  — epoch-stamped, checksummed update records
//! ```
//!
//! [`EngineBuilder::durable`] + [`EngineBuilder::build`] initialize a
//! fresh directory (epoch-0 snapshot, empty log);
//! [`EngineBuilder::open`] recovers an existing one, resuming at the
//! exact pre-crash epoch; [`PcsEngine::checkpoint`] rewrites the
//! snapshot and reclaims WAL segments the snapshot now covers.
//!
//! Replication rides the same log, over one path: the HTTP follower in
//! `pcs-serve` polls `GET /wal?from=epoch`, which
//! [`PcsEngine::wal_tail_since`] answers by re-framing the log tail,
//! and applies each response via [`PcsEngine::apply_wal_frames`]. The
//! feed stops at the WAL's durable epoch, so a follower never observes
//! an epoch the primary has not fsynced — not even a frame a failed
//! `apply` left complete on disk before its fsync. The follower's state
//! at epoch N is byte-for-byte the primary's: the same batches, staged
//! in the same order by the same code as `apply`, which the
//! differential harness proves equivalent to a from-scratch build.
//! Recovery and the follower share one loop, `PcsEngine::replay`,
//! which publishes once per run of records rather than once per record.
//!
//! ## Failure contract
//!
//! Every failure on the durable pipeline — injected kill point, real
//! I/O error, torn frame — is **fail-stop**: the WAL refuses further
//! appends, in-flight and later `apply` calls return typed errors, and
//! the already-published prefix keeps serving reads. Reopening the
//! directory recovers exactly the fsynced prefix; nothing is ever
//! half-applied, because publication happens only after the fsync that
//! covers it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), deny(clippy::cast_sign_loss))]

use pcs_graph::VertexId;
use pcs_ptree::{LabelId, PTree, Taxonomy};
use std::path::PathBuf;
use std::time::Instant;

use pcs_store::wal::{self, Wal, WalOptions, WalRecord};
use pcs_store::{SectionReader, SectionWriter, StoreError, WAL_SECTION};

use crate::engine::{EngineBuilder, PcsEngine, Staged, WriterState};
use crate::error::{BuildError, Error, Result};
use crate::snapshot::SnapshotInner;
use crate::update::{Update, UpdateBatch, UpdateError};

/// File name of the checkpoint snapshot inside a durable directory.
pub const SNAPSHOT_FILE: &str = "snapshot.pcs";
/// Subdirectory holding the WAL segments inside a durable directory.
pub const WAL_DIR: &str = "wal";

/// Hard cap on one serialized batch payload, far below the WAL's own
/// frame cap so an absurd batch fails with a typed error before it
/// bloats a segment.
const MAX_BATCH_BYTES: usize = (wal::MAX_RECORD_LEN as usize) / 2;

// Operation tags on the wire. Part of the WAL payload format; changing
// them (or the field layout below) requires a new record section id.
const TAG_ADD_EDGE: u32 = 0;
const TAG_REMOVE_EDGE: u32 = 1;
const TAG_SET_PROFILE: u32 = 2;

/// Serializes one update batch into a WAL record payload.
///
/// Wire layout (little-endian, validated by [`decode_update_batch`]):
///
/// ```text
///   u32 op_count
///   op_count × { u32 tag,
///                tag 0/1 (edge):    u32 u, u32 v
///                tag 2 (profile):   u32 vertex, u32 k, k × u32 label }
/// ```
///
/// Profiles are stored as their sorted, ancestor-closed node sets —
/// exactly the [`PTree`] invariant — so decode re-validates closure
/// against the engine's taxonomy instead of trusting the bytes.
pub fn encode_update_batch(batch: &UpdateBatch) -> std::result::Result<Vec<u8>, StoreError> {
    let mut w = SectionWriter::new();
    let count = u32::try_from(batch.len()).map_err(|_| StoreError::Corrupt {
        section: WAL_SECTION,
        detail: format!("batch of {} ops exceeds the u32 op-count field", batch.len()),
    })?;
    w.put_u32(count);
    for op in batch.ops() {
        match op {
            Update::AddEdge { u, v } => {
                w.put_u32(TAG_ADD_EDGE);
                w.put_u32(*u);
                w.put_u32(*v);
            }
            Update::RemoveEdge { u, v } => {
                w.put_u32(TAG_REMOVE_EDGE);
                w.put_u32(*u);
                w.put_u32(*v);
            }
            Update::SetProfile { vertex, profile } => {
                w.put_u32(TAG_SET_PROFILE);
                w.put_u32(*vertex);
                let nodes = profile.nodes();
                let k = u32::try_from(nodes.len()).map_err(|_| StoreError::Corrupt {
                    section: WAL_SECTION,
                    detail: format!(
                        "profile of {} labels exceeds the u32 length field",
                        nodes.len()
                    ),
                })?;
                w.put_u32(k);
                w.put_u32_slice(nodes);
            }
        }
    }
    let payload = w.finish();
    if payload.len() > MAX_BATCH_BYTES {
        return Err(StoreError::Corrupt {
            section: WAL_SECTION,
            detail: format!("serialized batch of {} bytes exceeds the record cap", payload.len()),
        });
    }
    Ok(payload)
}

/// Deserializes a WAL record payload written by [`encode_update_batch`],
/// re-validating every profile against `tax` (bounds, strict sort,
/// ancestor closure). Malformed bytes yield a typed
/// [`StoreError::Corrupt`], never a panic.
pub fn decode_update_batch(
    payload: &[u8],
    tax: &Taxonomy,
) -> std::result::Result<UpdateBatch, StoreError> {
    let corrupt = |detail: String| StoreError::Corrupt { section: WAL_SECTION, detail };
    let mut r = SectionReader::new(payload, WAL_SECTION);
    let count = r.u32()? as usize;
    let mut batch = UpdateBatch::new();
    for i in 0..count {
        let tag = r.u32()?;
        match tag {
            TAG_ADD_EDGE | TAG_REMOVE_EDGE => {
                let u: VertexId = r.u32()?;
                let v: VertexId = r.u32()?;
                batch.push(if tag == TAG_ADD_EDGE {
                    Update::AddEdge { u, v }
                } else {
                    Update::RemoveEdge { u, v }
                });
            }
            TAG_SET_PROFILE => {
                let vertex: VertexId = r.u32()?;
                let k = r.u32()? as usize;
                let nodes: Vec<LabelId> = r.u32_vec(k)?;
                if !nodes.windows(2).all(|p| p.first() < p.get(1)) {
                    return Err(corrupt(format!(
                        "op {i}: profile node set is not strictly sorted"
                    )));
                }
                if let Some(&max) = nodes.last() {
                    if max as usize >= tax.len() {
                        return Err(corrupt(format!(
                            "op {i}: profile label {max} outside taxonomy of {} labels",
                            tax.len()
                        )));
                    }
                }
                let profile = PTree::from_closed_sorted(tax, nodes)
                    .map_err(|e| corrupt(format!("op {i}: profile rejected: {e}")))?;
                batch.push(Update::SetProfile { vertex, profile });
            }
            other => return Err(corrupt(format!("op {i}: unknown operation tag {other}"))),
        }
    }
    r.finish()?;
    Ok(batch)
}

/// The engine's attachment to its durable directory.
pub(crate) struct DurableState {
    pub(crate) dir: PathBuf,
    pub(crate) wal: Wal,
}

impl std::fmt::Debug for DurableState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableState")
            .field("dir", &self.dir)
            .field("durable_epoch", &self.wal.durable_epoch())
            .field("failed", &self.wal.is_failed())
            .finish()
    }
}

impl EngineBuilder {
    /// Names the durable directory. With [`build`](Self::build) the
    /// directory must be empty (or absent): the engine writes an
    /// epoch-0 snapshot and starts an empty WAL, and from then on every
    /// applied batch is fsynced to the log *before* its epoch is
    /// published. With [`open`](Self::open) the directory must hold a
    /// previous engine's state, which is recovered exactly.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Tunes the WAL (segment size). Defaults are
    /// [`WalOptions::default`]; only meaningful together with
    /// [`durable`](Self::durable).
    pub fn wal_options(mut self, opts: WalOptions) -> Self {
        self.wal_opts = opts;
        self
    }

    /// Recovers an engine from the durable directory named by
    /// [`durable`](Self::durable): loads the checkpoint snapshot, then
    /// stages every WAL record past the snapshot's epoch into the
    /// master state and publishes the whole tail once, resuming at the
    /// exact pre-crash epoch. A
    /// torn or corrupt record truncates the log there (everything
    /// before it is kept; the unacknowledged tail is discarded); a
    /// *gap* — a record whose epoch is not the next expected one —
    /// aborts recovery with a typed error rather than serving a wrong
    /// engine.
    ///
    /// Configuration methods (index mode, result cache) apply as with
    /// [`load`](Self::load); data methods must not have
    /// been called.
    pub fn open(mut self) -> Result<PcsEngine> {
        let dir = self.durable_dir.take().ok_or(BuildError::MissingDurableDir)?;
        let opts = std::mem::take(&mut self.wal_opts);
        let mut engine = self.load(dir.join(SNAPSHOT_FILE))?;
        let (wal, replay) = Wal::open(dir.join(WAL_DIR), opts, engine.epoch())?;
        // `durable` is still unset here, so replay publishes in-memory
        // without re-logging the records it came from.
        engine.replay(&replay.records)?;
        engine.durable = Some(DurableState { dir, wal });
        Ok(engine)
    }
}

/// Called from `EngineBuilder::build` when [`EngineBuilder::durable`]
/// was configured: initializes a fresh durable directory around the
/// just-built epoch-0 engine.
pub(crate) fn init_fresh(engine: &mut PcsEngine, dir: PathBuf, opts: WalOptions) -> Result<()> {
    std::fs::create_dir_all(&dir).map_err(|e| {
        Error::Store(StoreError::Io {
            op: "durable-init",
            detail: format!("{}: {e}", dir.display()),
        })
    })?;
    let snap_path = dir.join(SNAPSHOT_FILE);
    let wal_nonempty =
        wal::list_segments(&dir.join(WAL_DIR)).map(|s| !s.is_empty()).unwrap_or(false);
    if snap_path.exists() || wal_nonempty {
        return Err(BuildError::DurableDirNotEmpty { dir: dir.display().to_string() }.into());
    }
    engine.save(&snap_path)?;
    let (wal, _replay) = Wal::open(dir.join(WAL_DIR), opts, engine.epoch())?;
    engine.durable = Some(DurableState { dir, wal });
    Ok(())
}

impl PcsEngine {
    pub(crate) fn durable_state(&self) -> Result<&DurableState> {
        self.durable.as_ref().ok_or(Error::NotDurable)
    }

    /// Highest epoch covered by a completed WAL fsync: `Some(e)` means
    /// every batch up to epoch `e` survives a crash. `None` on engines
    /// without a durable directory. Always trails (or equals)
    /// [`epoch`](Self::epoch), because epochs publish only after their
    /// fsync.
    pub fn durable_epoch(&self) -> Option<u64> {
        self.durable.as_ref().map(|d| d.wal.durable_epoch())
    }

    /// Rewrites the durable directory's checkpoint snapshot at the
    /// current epoch (atomic rename + directory fsync), rotates the
    /// WAL, and reclaims every segment the snapshot now covers.
    /// Returns the checkpointed epoch. Serialized against `apply`
    /// via the writer lock; readers are never blocked.
    pub fn checkpoint(&self) -> Result<u64> {
        let ds = self.durable_state()?;
        let _guard = self.lock_writer();
        let snap = self.snapshot_arc();
        self.write_snapshot(&snap, ds.dir.join(SNAPSHOT_FILE))?;
        // Rotation fsyncs and closes the active segment so the reclaim
        // watermark below can retire it too once the *next* checkpoint
        // covers the records it still holds.
        ds.wal.rotate()?;
        ds.wal.reclaim(snap.epoch)?;
        Ok(snap.epoch)
    }

    /// Re-frames the fsynced WAL tail after `after_epoch` (at most
    /// `max_bytes` of payload) as self-describing checksummed frames —
    /// the body of the `GET /wal?from=epoch` replication endpoint,
    /// applied on the other side by
    /// [`apply_wal_frames`](Self::apply_wal_frames). Only records
    /// covered by a completed fsync are served, so a follower can never
    /// observe an epoch the primary could still lose. An empty vector
    /// means the follower is caught up. A reclaimed gap (the follower
    /// fell behind the oldest retained segment) is a typed
    /// [`StoreError::Corrupt`] — the follower must re-seed from the
    /// snapshot.
    pub fn wal_tail_since(&self, after_epoch: u64, max_bytes: u64) -> Result<Vec<u8>> {
        let ds = self.durable_state()?;
        let durable = ds.wal.durable_epoch();
        if after_epoch >= durable {
            return Ok(Vec::new());
        }
        let records = wal::read_records_since(ds.wal.dir(), after_epoch, durable, max_bytes)?;
        Ok(wal::encode_records(&records)?)
    }

    /// Applies a frame stream produced by
    /// [`wal_tail_since`](Self::wal_tail_since): skips epochs this
    /// engine already has, stages the rest in order and publishes them
    /// as one snapshot at the last record's epoch, re-logging each
    /// record at its own epoch first if this engine is itself durable
    /// (chained replication comes for free). Returns the number of
    /// batches applied. A torn frame or checksum mismatch rejects the
    /// whole stream.
    ///
    /// Unlike [`apply`](Self::apply), a record is never allowed to
    /// drift: one whose epoch is not the next is
    /// [`EpochMismatch`](crate::UpdateError::EpochMismatch), one with no
    /// effect is [`ReplayNoEffect`](crate::UpdateError::ReplayNoEffect).
    /// Either means the log and this engine have diverged: the records
    /// before it are published, and the error is returned.
    pub fn apply_wal_frames(&self, frames: &[u8]) -> Result<usize> {
        let scan = wal::decode_frames(frames, None);
        if let Some(detail) = scan.torn {
            return Err(Error::Store(StoreError::Corrupt {
                section: WAL_SECTION,
                detail: format!("replication stream damaged: {detail}"),
            }));
        }
        self.replay(&scan.records)
    }

    /// The one replay loop behind recovery ([`EngineBuilder::open`]) and
    /// replication ([`apply_wal_frames`](Self::apply_wal_frames), fed
    /// only durable records by [`wal_tail_since`](Self::wal_tail_since)).
    /// Under one writer lock it skips records at or below the staged
    /// epoch and stages the rest in order, each checked against what
    /// its predecessors staged (see
    /// [`apply_wal_frames`](Self::apply_wal_frames)); then it publishes
    /// **once**, at the last staged epoch, after a durable engine has
    /// appended every staged record at its own epoch. A failing record
    /// publishes the prefix before it and returns its error. Returns
    /// the number of batches applied.
    fn replay(&self, records: &[WalRecord]) -> Result<usize> {
        #[expect(clippy::disallowed_methods, reason = "one clock read per replayed run")]
        let start = Instant::now();
        let mut guard = self.lock_writer();
        let base = self.snapshot_arc();
        let mut run = Staged::default();
        let mut staged: Vec<&WalRecord> = Vec::new();
        let mut epoch = base.epoch;
        let mut failure = None;
        for rec in records {
            if rec.epoch <= epoch {
                continue;
            }
            failure = self.stage_record(&mut guard, &base, rec, epoch + 1, &mut run).err();
            if failure.is_some() {
                break;
            }
            staged.push(rec);
            epoch = rec.epoch;
        }
        if !staged.is_empty() {
            self.publish(&mut guard, &base, run, epoch, start, |wal| {
                staged.iter().try_for_each(|rec| wal.append_durable(rec.epoch, &rec.payload))
            })?;
        }
        failure.map_or(Ok(staged.len()), Err)
    }

    /// Stages one record, which must publish epoch `next`, into `run`.
    fn stage_record(
        &self,
        guard: &mut Option<WriterState>,
        base: &SnapshotInner,
        rec: &WalRecord,
        next: u64,
        run: &mut Staged,
    ) -> Result<()> {
        if rec.epoch != next {
            return Err(UpdateError::EpochMismatch { expected: rec.epoch, next }.into());
        }
        let batch = decode_update_batch(&rec.payload, self.taxonomy())?;
        let ws = WriterState::ensure(guard, base)?;
        // A primary never logs a batch that changed nothing: one here
        // means the log and this engine have diverged.
        if !self.stage(ws, &batch, run)? {
            return Err(UpdateError::ReplayNoEffect { epoch: rec.epoch }.into());
        }
        Ok(())
    }
}

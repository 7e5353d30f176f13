//! Write-ahead log for `UpdateBatch` records: segmented, checksummed,
//! fsynced per record.
//!
//! A snapshot (see [`crate::format`]) persists the engine's state at
//! one epoch; the WAL persists every effective update batch *since*
//! that epoch, so recovery is snapshot + log tail instead of a cold
//! rebuild. The log is a directory of segment files:
//!
//! ```text
//! wal-00000000000000000042.seg        (name = first epoch the segment
//! wal-00000000000000000107.seg         may contain: last_epoch+1 at
//! ...                                  creation/rotation time)
//!
//! segment layout
//! offset  size  field
//! 0       8     magic  b"PCSWAL01"
//! 8       4     wal format version (u32 LE; this build writes 1)
//! 12      4     reserved (zero)
//! 16      ...   records, back to back:
//!
//! record frame
//! 0       4     payload length (u32 LE, <= MAX_RECORD_LEN)
//! 4       8     epoch (u64 LE, strictly increasing across the log)
//! 12      8     xxh64(payload, seed = epoch)
//! 20      len   payload (opaque to this layer; the engine encodes
//!               the batch with the snapshot codec's section cursors)
//! ```
//!
//! Everything little-endian; the checksum is seeded with the epoch so
//! a payload cannot silently answer for a different epoch. The reader
//! replays complete, checksum-valid, epoch-monotonic records and stops
//! at the first violation — a **torn tail** from a crash mid-append —
//! which [`Wal::open`] then physically truncates so the next append
//! starts from a clean prefix. Corrupt input yields typed
//! [`StoreError`]s, never a panic, hang, or silently wrong replay:
//! the same contract the snapshot fault-injection matrix enforces.
//!
//! ## One append
//!
//! [`Wal::append_durable`] is the only way a record enters the log:
//! under the log mutex it writes the frame into the active segment and
//! issues one `fdatasync` before returning, so a record is either
//! acknowledged and durable or the log has fail-stopped. There is no
//! buffering and no group commit at this layer — the engine appends
//! under its writer lock, one record per write, so at most one append
//! is ever in flight and an fsync-sharing scheme here would have
//! nothing to share.
//!
//! ## Failure model
//!
//! The log is **fail-stop**: any append/fsync error — including an
//! injected kill point from [`crate::faults`] — marks the whole `Wal`
//! failed, and every subsequent operation returns a typed error. A
//! failed log may hold a record that was never acknowledged; recovery
//! treats whatever durable prefix it finds as truth, which is exactly
//! the contract callers get from `fsync` semantics anyway.

use crate::faults;
use crate::format::{xxh64, Result, StoreError};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// First eight bytes of every WAL segment.
pub const WAL_MAGIC: [u8; 8] = *b"PCSWAL01";

/// The WAL format version this build writes (and the newest it reads).
pub const WAL_VERSION: u32 = 1;

/// Pseudo section id used in [`StoreError`]s raised by the WAL layer
/// (the snapshot sections own the small ids; see
/// [`crate::format::SECTION_TABLE`] for the other pseudo id).
pub const WAL_SECTION: u32 = u32::MAX - 1;

/// Segment header length in bytes.
pub const SEG_HEADER_LEN: u64 = SEG_HEADER_BYTES as u64;
const SEG_HEADER_BYTES: usize = 16;

/// Record frame header length in bytes (length + epoch + checksum).
pub const REC_HEADER_LEN: u64 = REC_HEADER_BYTES as u64;
const REC_HEADER_BYTES: usize = 20;

/// Largest payload a record may carry. A forged length field larger
/// than this is classified as corruption immediately instead of
/// driving a giant allocation.
pub const MAX_RECORD_LEN: u32 = 1 << 28;

const SEG_PREFIX: &str = "wal-";
const SEG_SUFFIX: &str = ".seg";

fn io_err(op: &'static str, e: std::io::Error) -> StoreError {
    StoreError::Io { op, detail: e.to_string() }
}

fn corrupt(detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt { section: WAL_SECTION, detail: detail.into() }
}

/// Tuning knobs for an append-mode [`Wal`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Rotate the active segment once it holds at least this many
    /// bytes. Small values force rotation in tests; the default keeps
    /// segments big enough that rotation cost is noise.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions { segment_bytes: 8 << 20 }
    }
}

/// One replayed record: the epoch it produced and the opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Epoch the batch produced when first applied (snapshot epoch of
    /// the engine after publish).
    pub epoch: u64,
    /// Engine-encoded `UpdateBatch` bytes.
    pub payload: Vec<u8>,
}

/// Where and why a scan stopped before the physical end of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalTail {
    /// Segment holding the first bad byte.
    pub segment: PathBuf,
    /// Byte length of the valid prefix of that segment.
    pub valid_len: u64,
    /// Human-readable reason (torn frame, checksum mismatch, ...).
    pub detail: String,
}

/// One segment file as seen by a scan.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// Path of the segment file.
    pub path: PathBuf,
    /// First epoch the segment may contain (parsed from its name).
    pub first_epoch: u64,
    /// Physical file length in bytes.
    pub file_len: u64,
}

/// Result of scanning a WAL directory.
#[derive(Debug)]
pub struct WalReplay {
    /// Complete, checksum-valid, epoch-monotonic records in order.
    pub records: Vec<WalRecord>,
    /// The torn tail, if the scan stopped before the physical end.
    pub torn: Option<WalTail>,
    /// Segments present, sorted by first epoch.
    pub segments: Vec<SegmentInfo>,
}

impl WalReplay {
    /// Epoch of the last replayed record, if any.
    pub fn last_epoch(&self) -> Option<u64> {
        self.records.last().map(|r| r.epoch)
    }
}

/// Encodes one record frame. Fails (typed) if the payload exceeds
/// [`MAX_RECORD_LEN`] — a writer that ignored the cap would produce a
/// file the reader rejects as corrupt.
pub fn encode_record(epoch: u64, payload: &[u8]) -> Result<Vec<u8>> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_RECORD_LEN)
        .ok_or_else(|| corrupt(format!("record payload of {} bytes exceeds cap", payload.len())))?;
    let mut out = Vec::with_capacity(REC_HEADER_BYTES + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&xxh64(payload, epoch).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Encodes a batch of records into one contiguous frame stream (the
/// `GET /wal?from=` response body is exactly this).
pub fn encode_records(records: &[WalRecord]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    for r in records {
        out.extend_from_slice(&encode_record(r.epoch, &r.payload)?);
    }
    Ok(out)
}

/// Outcome of parsing a frame stream: records up to the first
/// violation, bytes consumed, and the reason parsing stopped early.
#[derive(Debug)]
pub struct FrameScan {
    /// Valid records, in order.
    pub records: Vec<WalRecord>,
    /// Bytes of `input` covered by those records.
    pub consumed: u64,
    /// Why the scan stopped before the end of input, if it did.
    pub torn: Option<String>,
}

/// Parses back-to-back record frames from `bytes`, enforcing strictly
/// increasing epochs starting above `last_epoch`. Stops (without
/// error) at the first incomplete, oversized, checksum-bad, or
/// non-monotonic frame: a prefix parse, never a panic.
pub fn decode_frames(bytes: &[u8], mut last_epoch: Option<u64>) -> FrameScan {
    let mut records = Vec::new();
    let mut pos: usize = 0;
    let torn = loop {
        let Some(rest) = bytes.get(pos..) else {
            break None;
        };
        if rest.is_empty() {
            break None;
        }
        let Some(header) = rest.get(..REC_HEADER_BYTES) else {
            break Some(format!("{} trailing bytes, shorter than a frame header", rest.len()));
        };
        let (len_b, header) = header.split_at(4);
        let (epoch_b, sum_b) = header.split_at(8);
        let len = u32::from_le_bytes(len_b.try_into().unwrap_or([0; 4]));
        let epoch = u64::from_le_bytes(epoch_b.try_into().unwrap_or([0; 8]));
        let stored_sum = u64::from_le_bytes(sum_b.try_into().unwrap_or([0; 8]));
        if len > MAX_RECORD_LEN {
            break Some(format!(
                "frame at offset {pos} declares {len} payload bytes (cap {MAX_RECORD_LEN})"
            ));
        }
        let body_start = REC_HEADER_BYTES;
        let body_end = body_start + len as usize;
        let Some(payload) = rest.get(body_start..body_end) else {
            break Some(format!(
                "frame at offset {pos} needs {} bytes, {} present",
                body_end,
                rest.len()
            ));
        };
        let sum = xxh64(payload, epoch);
        if sum != stored_sum {
            break Some(format!(
                "frame at offset {pos} (epoch {epoch}): stored checksum {stored_sum:#018x}, computed {sum:#018x}"
            ));
        }
        if let Some(last) = last_epoch {
            if epoch <= last {
                break Some(format!(
                    "frame at offset {pos} regresses epoch ({epoch} after {last})"
                ));
            }
        }
        last_epoch = Some(epoch);
        records.push(WalRecord { epoch, payload: to_vec(payload) });
        pos = body_end.saturating_add(pos);
    };
    FrameScan { records, consumed: pos as u64, torn }
}

#[inline]
fn to_vec(b: &[u8]) -> Vec<u8> {
    b.to_vec()
}

fn segment_name(first_epoch: u64) -> String {
    format!("{SEG_PREFIX}{first_epoch:020}{SEG_SUFFIX}")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix(SEG_PREFIX)?.strip_suffix(SEG_SUFFIX)?.parse().ok()
}

/// Lists segment files in `dir`, sorted by first epoch. Non-segment
/// files (editor droppings, temp files) are ignored.
pub fn list_segments(dir: &Path) -> Result<Vec<SegmentInfo>> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("wal-list", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("wal-list", e))?;
        let name = entry.file_name();
        let Some(first_epoch) = name.to_str().and_then(parse_segment_name) else {
            continue;
        };
        let meta = entry.metadata().map_err(|e| io_err("wal-list", e))?;
        out.push(SegmentInfo { path: entry.path(), first_epoch, file_len: meta.len() });
    }
    out.sort_by_key(|s| s.first_epoch);
    Ok(out)
}

/// Validates a segment header. `Ok(true)` means records follow;
/// `Ok(false)` means the header itself is damaged (torn creation) and
/// the segment holds no usable records. A *newer* format version is a
/// hard error — truncating a log this build merely cannot read would
/// destroy data.
fn check_segment_header(bytes: &[u8]) -> Result<bool> {
    let Some(header) = bytes.get(..SEG_HEADER_BYTES) else {
        return Ok(false);
    };
    let (magic, header) = header.split_at(8);
    let (version_b, _reserved) = header.split_at(4);
    if magic != WAL_MAGIC {
        return Ok(false);
    }
    let version = u32::from_le_bytes(version_b.try_into().unwrap_or([0; 4]));
    if version > WAL_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version, supported: WAL_VERSION });
    }
    Ok(true)
}

/// Scans read-only for records with `after_epoch < epoch <=
/// max_epoch`, stopping once roughly `max_bytes` of payload have been
/// collected (at least one record is returned if one qualifies).
/// Replication passes the log's durable epoch as `max_epoch`: a failed
/// append can leave a complete but never-fsynced frame on disk, and it
/// must not be served. A torn tail simply ends the result. Returns a
/// typed error if the log no longer reaches back to `after_epoch`
/// (segments reclaimed): the caller must re-bootstrap from a snapshot.
pub fn read_records_since(
    dir: &Path,
    after_epoch: u64,
    max_epoch: u64,
    max_bytes: u64,
) -> Result<Vec<WalRecord>> {
    Ok(scan(dir, Some(after_epoch), max_epoch, max_bytes)?.records)
}

fn scan(dir: &Path, after: Option<u64>, max_epoch: u64, max_bytes: u64) -> Result<WalReplay> {
    let segments = list_segments(dir)?;
    let after_epoch = after.unwrap_or(0);
    // With a requested start epoch, begin at the last segment that can
    // contain `after_epoch + 1`; if even the oldest segment starts
    // later, the prefix the caller needs has been reclaimed — a gap,
    // not a torn tail. A full scan (`after == None`) starts at the
    // oldest segment present, whatever its epoch.
    let start = match after {
        None => {
            if segments.is_empty() {
                None
            } else {
                Some(0)
            }
        }
        Some(a) => {
            let next_needed = a.saturating_add(1);
            let start = segments.iter().rposition(|s| s.first_epoch <= next_needed);
            if start.is_none() && !segments.is_empty() {
                let oldest = segments.first().map_or(0, |s| s.first_epoch);
                return Err(corrupt(format!(
                    "log starts at epoch {oldest}; records after {a} requested (re-bootstrap from a snapshot)"
                )));
            }
            start
        }
    };
    let mut records: Vec<WalRecord> = Vec::new();
    let mut torn = None;
    let mut last_epoch: Option<u64> = None;
    let mut collected: u64 = 0;
    if let Some(start) = start {
        for seg in segments.iter().skip(start) {
            let bytes = std::fs::read(&seg.path).map_err(|e| io_err("wal-read", e))?;
            if !check_segment_header(&bytes)? {
                torn = Some(WalTail {
                    segment: seg.path.clone(),
                    valid_len: 0,
                    detail: "segment header torn or missing".into(),
                });
                break;
            }
            let body = bytes.get(SEG_HEADER_BYTES..).unwrap_or(&[]);
            let fs = decode_frames(body, last_epoch);
            for rec in fs.records {
                last_epoch = Some(rec.epoch);
                if rec.epoch > after_epoch && rec.epoch <= max_epoch && collected < max_bytes {
                    collected = collected.saturating_add(REC_HEADER_LEN + rec.payload.len() as u64);
                    records.push(rec);
                }
            }
            if let Some(detail) = fs.torn {
                torn = Some(WalTail {
                    segment: seg.path.clone(),
                    valid_len: SEG_HEADER_LEN + fs.consumed,
                    detail,
                });
                break;
            }
        }
    }
    Ok(WalReplay { records, torn, segments })
}

// ---------------------------------------------------------------------
// Append side.
// ---------------------------------------------------------------------

struct Inner {
    file: File,
    /// First epoch of the active segment (its filename).
    seg_first: u64,
    seg_len: u64,
    last_epoch: u64,
}

struct Shared {
    dir: PathBuf,
    opts: WalOptions,
    durable_epoch: AtomicU64,
    failed: AtomicBool,
    inner: Mutex<Inner>,
}

/// An append-mode write-ahead log over one directory of segments.
///
/// Cloning is cheap (shared handle); all methods take `&self` and
/// serialize on one internal mutex.
#[derive(Clone)]
pub struct Wal {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.shared.dir)
            .field("durable_epoch", &self.durable_epoch())
            .field("failed", &self.is_failed())
            .finish()
    }
}

fn create_segment(dir: &Path, first_epoch: u64) -> Result<(File, u64)> {
    let path = dir.join(segment_name(first_epoch));
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)
        .map_err(|e| io_err("wal-create", e))?;
    let mut header = Vec::with_capacity(SEG_HEADER_BYTES);
    header.extend_from_slice(&WAL_MAGIC);
    header.extend_from_slice(&WAL_VERSION.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    file.write_all(&header).map_err(|e| io_err("wal-create", e))?;
    file.sync_all().map_err(|e| io_err("wal-create", e))?;
    sync_dir(dir)?;
    Ok((file, SEG_HEADER_LEN))
}

/// Fsyncs a directory so a just-created/renamed/removed entry survives
/// power loss. Propagates sync failures; only refusal to *open* the
/// directory (platforms without directory handles) is forgiven.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all().map_err(|e| io_err("sync-dir", e)),
        Err(_) => Ok(()),
    }
}

impl Wal {
    /// Opens `dir` for appending (creating it if needed), after
    /// repairing any crash damage: the torn tail reported by the scan
    /// is physically truncated, and segments past it are deleted, so
    /// the on-disk log is exactly the replayable prefix. Returns the
    /// log positioned for append together with the replay (records
    /// with epochs the caller's snapshot already covers included — the
    /// caller filters).
    ///
    /// `base_epoch` seeds the epoch counter when the log is empty
    /// (a fresh durable dir whose snapshot is at `base_epoch`).
    pub fn open(
        dir: impl AsRef<Path>,
        opts: WalOptions,
        base_epoch: u64,
    ) -> Result<(Wal, WalReplay)> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("wal-open", e))?;
        let replay = scan(&dir, None, u64::MAX, u64::MAX)?;
        if let Some(tail) = &replay.torn {
            // Drop the torn bytes and every later segment: appends must
            // extend the valid prefix, not interleave with garbage.
            if tail.valid_len < SEG_HEADER_LEN {
                std::fs::remove_file(&tail.segment).map_err(|e| io_err("wal-truncate", e))?;
            } else {
                let f = OpenOptions::new()
                    .write(true)
                    .open(&tail.segment)
                    .map_err(|e| io_err("wal-truncate", e))?;
                f.set_len(tail.valid_len).map_err(|e| io_err("wal-truncate", e))?;
                f.sync_all().map_err(|e| io_err("wal-truncate", e))?;
            }
            let mut past = false;
            for seg in &replay.segments {
                if past {
                    std::fs::remove_file(&seg.path).map_err(|e| io_err("wal-truncate", e))?;
                }
                if seg.path == tail.segment {
                    past = true;
                }
            }
            sync_dir(&dir)?;
        }
        let last_epoch = replay.last_epoch().unwrap_or(base_epoch).max(base_epoch);
        // Reopen the surviving tail segment for append, or start a
        // fresh one. After truncation the surviving segment is the one
        // holding the last valid record (or none at all).
        let survivors = list_segments(&dir)?;
        let (file, seg_first, seg_len) = match survivors.last() {
            Some(seg) => {
                let file = OpenOptions::new()
                    .append(true)
                    .open(&seg.path)
                    .map_err(|e| io_err("wal-open", e))?;
                (file, seg.first_epoch, seg.file_len)
            }
            None => {
                let (file, len) = create_segment(&dir, last_epoch.saturating_add(1))?;
                (file, last_epoch.saturating_add(1), len)
            }
        };
        let shared = Shared {
            dir,
            opts,
            durable_epoch: AtomicU64::new(last_epoch),
            failed: AtomicBool::new(false),
            inner: Mutex::new(Inner { file, seg_first, seg_len, last_epoch }),
        };
        Ok((Wal { shared: Arc::new(shared) }, replay))
    }

    /// Directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// Highest epoch known durable (covered by a completed fsync, or
    /// already on disk when the log was opened).
    pub fn durable_epoch(&self) -> u64 {
        self.shared.durable_epoch.load(Ordering::Acquire)
    }

    /// Whether the log has fail-stopped after an append/fsync error.
    pub fn is_failed(&self) -> bool {
        self.shared.failed.load(Ordering::Acquire)
    }

    /// Fail-stops the log explicitly. The engine calls this when a step
    /// *outside* the log (snapshot publish, payload encoding) dies
    /// mid-pipeline: once the in-memory engine state can no longer be
    /// trusted to match the log tail, every subsequent append must be
    /// refused until the directory is re-opened and recovered.
    pub fn fail_stop(&self) {
        self.shared.failed.store(true, Ordering::Release);
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A poisoned mutex means another appender panicked while
        // holding it; the log fail-stops rather than propagating the
        // panic, so recovery semantics stay typed.
        match self.shared.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.fail_stop();
                poisoned.into_inner()
            }
        }
    }

    fn failed_err(op: &'static str) -> StoreError {
        StoreError::Io { op, detail: "write-ahead log has fail-stopped; reopen to recover".into() }
    }

    /// Appends one record and makes it durable: the frame is written
    /// into the active segment and `fdatasync`ed before this returns
    /// `Ok`. `epoch` must exceed every previously appended epoch (the
    /// engine's writer lock guarantees contiguity; the log enforces
    /// monotonicity). Any error — real or injected — fail-stops the
    /// log.
    ///
    /// Kill points, in order: `wal.append` (before anything is
    /// written), `wal.torn_append` (half the frame reaches the file —
    /// the classic torn write), `wal.after_append` (the whole frame is
    /// in the file, not yet fsynced), `wal.before_fsync` (frame
    /// written, never flushed), `wal.after_fsync` (flushed, but the
    /// caller "dies" before observing it).
    pub fn append_durable(&self, epoch: u64, payload: &[u8]) -> Result<()> {
        let mut inner = self.lock();
        if self.is_failed() {
            return Err(Self::failed_err("wal-append"));
        }
        self.append_locked(&mut inner, epoch, payload).inspect_err(|_| self.fail_stop())
    }

    fn append_locked(&self, inner: &mut Inner, epoch: u64, payload: &[u8]) -> Result<()> {
        faults::hit("wal.append")?;
        if epoch <= inner.last_epoch {
            return Err(corrupt(format!("append of epoch {epoch} after {}", inner.last_epoch)));
        }
        let frame = encode_record(epoch, payload)?;
        if inner.seg_len >= self.shared.opts.segment_bytes && inner.seg_len > SEG_HEADER_LEN {
            self.rotate_locked(inner)?;
        }
        if let Err(e) = faults::hit("wal.torn_append") {
            // Simulate a crash mid-frame: a prefix of the record
            // reaches the file, then the "process dies".
            let torn = frame.get(..frame.len() / 2).unwrap_or(&frame);
            let _ = inner.file.write_all(torn);
            return Err(e);
        }
        inner.file.write_all(&frame).map_err(|e| io_err("wal-append", e))?;
        faults::hit("wal.after_append")?;
        inner.seg_len += frame.len() as u64;
        inner.last_epoch = epoch;
        faults::hit("wal.before_fsync")?;
        inner.file.sync_data().map_err(|e| io_err("wal-fsync", e))?;
        faults::hit("wal.after_fsync")?;
        self.shared.durable_epoch.fetch_max(epoch, Ordering::AcqRel);
        Ok(())
    }

    fn rotate_locked(&self, inner: &mut Inner) -> Result<()> {
        // The old handle is dropped below, so nothing in the old
        // segment may depend on a later fsync.
        inner.file.sync_data().map_err(|e| io_err("wal-rotate", e))?;
        let first = inner.last_epoch.saturating_add(1);
        let (file, len) = create_segment(&self.shared.dir, first)?;
        inner.file = file;
        inner.seg_first = first;
        inner.seg_len = len;
        Ok(())
    }

    /// Forces a rotation (a checkpoint closes the epoch range of the
    /// active segment so reclamation can retire it later).
    pub fn rotate(&self) -> Result<()> {
        let mut inner = self.lock();
        if self.is_failed() {
            return Err(Self::failed_err("wal-rotate"));
        }
        if inner.seg_len > SEG_HEADER_LEN {
            self.rotate_locked(&mut inner).inspect_err(|_| self.fail_stop())?;
        }
        Ok(())
    }

    /// Deletes every closed segment fully covered by a snapshot at
    /// `watermark`: segment `i` may go iff segment `i+1` starts at or
    /// below `watermark + 1` (all of `i`'s records are then ≤
    /// `watermark`). The active segment always stays. Returns the
    /// number of segments removed.
    pub fn reclaim(&self, watermark: u64) -> Result<usize> {
        let active_first = self.lock().seg_first;
        let segments = list_segments(&self.shared.dir)?;
        let mut removed = 0usize;
        for pair in segments.windows(2) {
            let (Some(seg), Some(next)) = (pair.first(), pair.get(1)) else { continue };
            if seg.first_epoch != active_first && next.first_epoch <= watermark.saturating_add(1) {
                std::fs::remove_file(&seg.path).map_err(|e| io_err("wal-reclaim", e))?;
                removed += 1;
            }
        }
        if removed > 0 {
            sync_dir(&self.shared.dir)?;
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory, removed when dropped.
    struct TmpDir(PathBuf);

    impl std::ops::Deref for TmpDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tmpdir(tag: &str) -> TmpDir {
        let d = std::env::temp_dir().join(format!(
            "pcs-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        TmpDir(d)
    }

    #[test]
    fn frames_round_trip() {
        let recs = vec![
            WalRecord { epoch: 1, payload: vec![1, 2, 3] },
            WalRecord { epoch: 2, payload: Vec::new() },
            WalRecord { epoch: 5, payload: (0u8..200).collect() },
        ];
        let bytes = encode_records(&recs).unwrap();
        let scan = decode_frames(&bytes, None);
        assert_eq!(scan.records, recs);
        assert_eq!(scan.consumed, bytes.len() as u64);
        assert!(scan.torn.is_none());
    }

    #[test]
    fn epoch_regression_is_torn() {
        let mut bytes = encode_record(5, b"x").unwrap();
        bytes.extend_from_slice(&encode_record(5, b"y").unwrap());
        let scan = decode_frames(&bytes, None);
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn.unwrap().contains("regresses"));
    }

    #[test]
    fn append_reopen_replays() {
        let dir = tmpdir("reopen");
        {
            let (wal, replay) = Wal::open(&*dir, WalOptions::default(), 0).unwrap();
            assert!(replay.records.is_empty());
            for e in 1..=20u64 {
                wal.append_durable(e, format!("payload-{e}").as_bytes()).unwrap();
            }
            assert_eq!(wal.durable_epoch(), 20);
        }
        let (wal, replay) = Wal::open(&*dir, WalOptions::default(), 0).unwrap();
        assert_eq!(replay.records.len(), 20);
        assert_eq!(replay.last_epoch(), Some(20));
        assert!(replay.torn.is_none());
        assert_eq!(wal.durable_epoch(), 20);
        wal.append_durable(21, b"more").unwrap();
    }

    #[test]
    fn rotation_and_reclaim() {
        let dir = tmpdir("rotate");
        let opts = WalOptions { segment_bytes: 128 };
        let (wal, _) = Wal::open(&*dir, opts.clone(), 0).unwrap();
        for e in 1..=40u64 {
            wal.append_durable(e, &[0u8; 32]).unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() > 2, "small cap must force rotation, got {}", segs.len());
        // Everything replays across rotations.
        let replay = scan(&dir, None, u64::MAX, u64::MAX).unwrap();
        assert_eq!(replay.records.len(), 40);
        // A watermark halfway in reclaims only fully-covered segments.
        let removed = wal.reclaim(20).unwrap();
        assert!(removed > 0);
        let replay = scan(&dir, None, u64::MAX, u64::MAX).unwrap();
        assert_eq!(replay.last_epoch(), Some(40), "suffix survives reclamation");
        assert!(replay.records.iter().all(|r| r.epoch <= 40));
        // The surviving prefix still starts at or before epoch 21.
        let first = replay.records.first().unwrap().epoch;
        assert!(first <= 21, "records after the watermark must survive (first {first})");
        // Reading from a reclaimed point errors (gap), from a live one works.
        assert!(read_records_since(&dir, 0, u64::MAX, u64::MAX).is_err() || first == 1);
        let tail = read_records_since(&dir, 30, u64::MAX, u64::MAX).unwrap();
        assert_eq!(tail.first().unwrap().epoch, 31);
        assert_eq!(tail.last().unwrap().epoch, 40);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        {
            let (wal, _) = Wal::open(&*dir, WalOptions::default(), 0).unwrap();
            for e in 1..=5u64 {
                wal.append_durable(e, b"good").unwrap();
            }
        }
        // Tear the last frame by hand: drop 3 bytes off the file.
        let seg = list_segments(&dir).unwrap().pop().unwrap();
        let f = OpenOptions::new().write(true).open(&seg.path).unwrap();
        f.set_len(seg.file_len - 3).unwrap();
        drop(f);
        let ro = scan(&dir, None, u64::MAX, u64::MAX).unwrap();
        assert_eq!(ro.records.len(), 4, "read-only scan stops before the torn frame");
        assert!(ro.torn.is_some());
        let (wal, replay) = Wal::open(&*dir, WalOptions::default(), 0).unwrap();
        assert_eq!(replay.records.len(), 4);
        wal.append_durable(5, b"replacement").unwrap();
        drop(wal);
        let replay = scan(&dir, None, u64::MAX, u64::MAX).unwrap();
        assert_eq!(replay.records.len(), 5, "append extends the repaired prefix cleanly");
        assert!(replay.torn.is_none());
        assert_eq!(replay.records.last().unwrap().payload, b"replacement");
    }

    #[test]
    fn kill_points_fail_stop_and_recover() {
        for point in ["wal.append", "wal.torn_append", "wal.after_append", "wal.before_fsync"] {
            let dir = tmpdir(&format!("kill-{}", point.replace('.', "-")));
            let (wal, _) = Wal::open(&*dir, WalOptions::default(), 0).unwrap();
            for e in 1..=3u64 {
                wal.append_durable(e, b"pre").unwrap();
            }
            faults::arm(point);
            let err = wal.append_durable(4, b"doomed").unwrap_err();
            assert!(matches!(err, StoreError::Io { .. }), "{point}: {err}");
            assert!(wal.is_failed());
            assert!(wal.append_durable(5, b"after").is_err(), "{point}: fail-stop is sticky");
            assert_eq!(faults::armed_count(), 0, "{point} was reached");
            drop(wal);
            // Recovery: the durable prefix is intact; epoch 4 may or
            // may not have survived depending on where the crash hit,
            // but the log is always a clean prefix.
            let (wal, replay) = Wal::open(&*dir, WalOptions::default(), 0).unwrap();
            let n = replay.records.len();
            assert!((3..=4).contains(&n), "{point}: prefix of 3 or 4 records, got {n}");
            for (i, r) in replay.records.iter().enumerate() {
                assert_eq!(r.epoch, i as u64 + 1);
            }
            let next = replay.last_epoch().unwrap() + 1;
            wal.append_durable(next, b"post-recovery").unwrap();
        }
    }

    #[test]
    fn oversized_length_field_is_rejected() {
        let dir = tmpdir("oversize");
        {
            let (wal, _) = Wal::open(&*dir, WalOptions::default(), 0).unwrap();
            wal.append_durable(1, b"ok").unwrap();
        }
        // Forge a frame whose length field lies enormously.
        let seg = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&seg.path).unwrap();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(b"tiny");
        std::fs::write(&seg.path, &bytes).unwrap();
        let replay = scan(&dir, None, u64::MAX, u64::MAX).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.torn.unwrap().detail.contains("cap"));
    }
}

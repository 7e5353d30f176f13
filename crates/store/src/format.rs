//! The snapshot container: a versioned, checksummed section file.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"PCSSNAP1"
//! 8       4     format version (u32 LE; this build reads and writes 3 only)
//! 12      4     section count (u32 LE)
//! 16      8     xxh64 of the section table (seeded with the version)
//! 24      32×c  section table: { id: u32, pad: u32, offset: u64,
//!               len: u64, xxh64(payload, seed = id): u64 }
//! ...           section payloads (contiguous, in table order)
//! ```
//!
//! Everything is little-endian. The container knows nothing about what
//! the sections mean — [`crate::codec`] does — it only guarantees that
//! a successfully read payload is byte-identical to what was written:
//! magic and version gate the parse, the table checksum protects the
//! directory, and each payload carries its own checksum seeded with its
//! section id (so a payload cannot silently answer for a different
//! section). Any violation surfaces as a typed [`StoreError`]; no input
//! can make the reader panic or loop.

use std::path::Path;

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"PCSSNAP1";

/// The one format version this build reads and writes; a file that
/// declares anything else fails with
/// [`StoreError::UnsupportedVersion`]. A layout change bumps this and
/// drops the old reader in the same change.
pub const FORMAT_VERSION: u32 = 3;

/// Pseudo section id used in [`StoreError::ChecksumMismatch`] when the
/// section *table* (not a payload) fails its checksum.
pub const SECTION_TABLE: u32 = u32::MAX;

pub(crate) const HEADER_LEN: u64 = 24;
pub(crate) const TABLE_ENTRY_LEN: u64 = 32;

/// Most sections a file may declare (defense against forged headers;
/// see the count check in [`FileSnapshot::open`](crate::FileSnapshot::open)).
pub const MAX_SECTIONS: u64 = 1024;

/// Everything that can go wrong writing or reading a snapshot file.
///
/// `#[non_exhaustive]`: future corruption classes may be added without
/// a semver break; keep a `_` arm when matching.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io {
        /// What was being attempted (e.g. `"read"`, `"write"`).
        op: &'static str,
        /// The OS error, stringified (kept `Clone`/`Eq`-friendly).
        detail: String,
    },
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic {
        /// The eight bytes actually found.
        found: [u8; 8],
    },
    /// The file declares a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The one version this build understands.
        supported: u32,
    },
    /// The file ends before the declared structure does.
    Truncated {
        /// Bytes the structure requires.
        needed: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A section table entry points outside the file (or its
    /// offset + length overflows).
    SectionOverflow {
        /// Section id of the offending entry.
        section: u32,
        /// Declared payload offset.
        offset: u64,
        /// Declared payload length.
        len: u64,
        /// Actual file length.
        file_len: u64,
    },
    /// A checksum did not match: the payload (or the table itself, when
    /// `section == `[`SECTION_TABLE`]) was altered after writing.
    ChecksumMismatch {
        /// Section id, or [`SECTION_TABLE`].
        section: u32,
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// A section the decoder requires is absent.
    MissingSection {
        /// The missing section's id.
        section: u32,
    },
    /// A checksum-valid section failed structural decoding — the writer
    /// and reader disagree about its contents.
    Corrupt {
        /// Section id being decoded.
        section: u32,
        /// Description of the violated invariant.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, detail } => write!(f, "snapshot {op} failed: {detail}"),
            StoreError::BadMagic { found } => {
                write!(f, "not a snapshot file (magic {found:02x?})")
            }
            StoreError::UnsupportedVersion { found, supported } => {
                write!(f, "snapshot format v{found} is not the supported v{supported}")
            }
            StoreError::Truncated { needed, actual } => {
                write!(f, "snapshot truncated: need {needed} bytes, file has {actual}")
            }
            StoreError::SectionOverflow { section, offset, len, file_len } => {
                write!(f, "section {section} claims bytes {offset}+{len} of a {file_len}-byte file")
            }
            StoreError::ChecksumMismatch { section, expected, actual } => {
                let what: &dyn std::fmt::Display =
                    if *section == SECTION_TABLE { &"section table" } else { section };
                write!(
                    f,
                    "checksum mismatch in {what}: stored {expected:#018x}, computed {actual:#018x}"
                )
            }
            StoreError::MissingSection { section } => {
                write!(f, "required section {section} is missing")
            }
            StoreError::Corrupt { section, detail } => {
                write!(f, "section {section} failed to decode: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

// ---------------------------------------------------------------------
// xxHash64 (Collet's XXH64, implemented in-tree: no external deps).
// ---------------------------------------------------------------------

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

#[inline]
fn xxh_merge(acc: u64, val: u64) -> u64 {
    (acc ^ xxh_round(0, val)).wrapping_mul(P1).wrapping_add(P4)
}

// Every call site is length-guarded, so the zero fallback is dead code;
// it exists so these helpers are structurally incapable of panicking on
// the decode path.
#[inline]
pub(crate) fn le_u64(b: &[u8]) -> u64 {
    debug_assert!(b.len() >= 8);
    b.first_chunk::<8>().map_or(0, |c| u64::from_le_bytes(*c))
}

#[inline]
pub(crate) fn le_u32(b: &[u8]) -> u32 {
    debug_assert!(b.len() >= 4);
    b.first_chunk::<4>().map_or(0, |c| u32::from_le_bytes(*c))
}

#[inline]
fn le_u16(b: &[u8]) -> u16 {
    debug_assert!(b.len() >= 2);
    b.first_chunk::<2>().map_or(0, |c| u16::from_le_bytes(*c))
}

/// The XXH64 hash of `input` under `seed` — the checksum every section
/// (and the table) carries. Exposed publicly so corruption tests can
/// craft adversarial-but-internally-consistent files, and so external
/// tooling can verify snapshots without this crate's reader.
pub fn xxh64(input: &[u8], seed: u64) -> u64 {
    let mut h = Xxh64::new(seed);
    h.update(input);
    h.finish()
}

/// Incremental XXH64: feed bytes with [`Xxh64::update`], read the
/// digest with [`Xxh64::finish`]. The digest is the same for any split
/// of the input — the streaming save path hashes each section while
/// writing it, so a payload never has to exist contiguously in memory
/// just to be checksummed.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    v1: u64,
    v2: u64,
    v3: u64,
    v4: u64,
    buf: [u8; 32],
    buf_len: usize,
    total: u64,
    seed: u64,
}

impl Xxh64 {
    /// A fresh hasher under `seed`.
    pub fn new(seed: u64) -> Self {
        Xxh64 {
            v1: seed.wrapping_add(P1).wrapping_add(P2),
            v2: seed.wrapping_add(P2),
            v3: seed,
            v4: seed.wrapping_sub(P1),
            buf: [0u8; 32],
            buf_len: 0,
            total: 0,
            seed,
        }
    }

    #[inline]
    fn stripe(&mut self, b: &[u8]) {
        debug_assert!(b.len() >= 32);
        let (c1, r) = b.split_at(8);
        let (c2, r) = r.split_at(8);
        let (c3, c4) = r.split_at(8);
        self.v1 = xxh_round(self.v1, le_u64(c1));
        self.v2 = xxh_round(self.v2, le_u64(c2));
        self.v3 = xxh_round(self.v3, le_u64(c3));
        self.v4 = xxh_round(self.v4, le_u64(c4));
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut input: &[u8]) {
        self.total = self.total.wrapping_add(input.len() as u64);
        if self.buf_len > 0 {
            let take = (32 - self.buf_len).min(input.len());
            let (head, tail) = input.split_at(take);
            let (_, open) = self.buf.split_at_mut(self.buf_len);
            let (dst, _) = open.split_at_mut(take);
            dst.copy_from_slice(head);
            self.buf_len += take;
            input = tail;
            if self.buf_len < 32 {
                return;
            }
            let stripe = self.buf;
            self.stripe(&stripe);
            self.buf_len = 0;
        }
        while input.len() >= 32 {
            let (s, rest) = input.split_at(32);
            self.stripe(s);
            input = rest;
        }
        let (dst, _) = self.buf.split_at_mut(input.len());
        dst.copy_from_slice(input);
        self.buf_len = input.len();
    }

    /// The digest of everything absorbed so far (the hasher may keep
    /// absorbing afterwards).
    pub fn finish(&self) -> u64 {
        let mut h = if self.total >= 32 {
            let mut h = self
                .v1
                .rotate_left(1)
                .wrapping_add(self.v2.rotate_left(7))
                .wrapping_add(self.v3.rotate_left(12))
                .wrapping_add(self.v4.rotate_left(18));
            h = xxh_merge(h, self.v1);
            h = xxh_merge(h, self.v2);
            h = xxh_merge(h, self.v3);
            xxh_merge(h, self.v4)
        } else {
            self.seed.wrapping_add(P5)
        };
        h = h.wrapping_add(self.total);
        let (mut rest, _) = self.buf.split_at(self.buf_len);
        while rest.len() >= 8 {
            let (c, r) = rest.split_at(8);
            h = (h ^ xxh_round(0, le_u64(c))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            rest = r;
        }
        if rest.len() >= 4 {
            let (c, r) = rest.split_at(4);
            h = (h ^ u64::from(le_u32(c)).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            rest = r;
        }
        for &b in rest {
            h = (h ^ (b as u64).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

// ---------------------------------------------------------------------
// The section container.
// ---------------------------------------------------------------------

static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn tmp_path_for(path: &Path) -> std::path::PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::path::PathBuf::from(tmp)
}

#[inline]
fn io_err(op: &'static str) -> impl Fn(std::io::Error) -> StoreError {
    move |e| StoreError::Io { op, detail: e.to_string() }
}

/// Streams a snapshot to disk section by section, so a save never holds
/// more than one section's payload in memory.
///
/// The writer lays down the header and a zeroed section table up
/// front, appends each payload while hashing it incrementally
/// ([`Xxh64`]), then seeks back and backpatches the table (checksum
/// included) in [`SnapshotWriter::finish`].
///
/// Saves are atomic and durable: the bytes go to a unique temporary
/// file in the same directory, are synced to disk (`sync_all` — the
/// rename must never be journaled ahead of the data it points at), and
/// then renamed over the target — so an interrupted save (crash, power
/// loss) can never destroy a previous good snapshot, and a reader never
/// observes a half-written file. The parent directory is then fsynced
/// so the rename itself survives power loss; a directory-sync *failure*
/// is a real error (the caller believes the save durable), and only
/// platforms that refuse to open directories at all skip it.
///
/// Kill points (crash-fault tests): `snapshot.before_rename` — the temp
/// file is synced but the target still holds the old bytes;
/// `snapshot.after_rename` — the rename happened but its directory
/// entry was never synced. At either point the target path parses as a
/// complete snapshot (old or new) — never a half-written one.
///
/// The number of sections is declared at [`SnapshotWriter::create`]
/// time (it fixes the table size); `finish` rejects a mismatch.
#[derive(Debug)]
pub struct SnapshotWriter {
    file: std::fs::File,
    tmp: std::path::PathBuf,
    path: std::path::PathBuf,
    declared: u32,
    entries: Vec<(u32, u64, u64, u64)>,
    offset: u64,
    finished: bool,
}

impl SnapshotWriter {
    /// Opens the temporary file and reserves header + table space for
    /// exactly `sections` sections.
    pub fn create(path: impl AsRef<Path>, sections: u32) -> Result<SnapshotWriter> {
        use std::io::Write as _;
        let path = path.as_ref().to_path_buf();
        let tmp = tmp_path_for(&path);
        let mut file = std::fs::File::create(&tmp).map_err(io_err("create"))?;
        let table_len = TABLE_ENTRY_LEN * u64::from(sections);
        let mut header = Vec::with_capacity((HEADER_LEN + table_len) as usize);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&sections.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes()); // table checksum, backpatched
        header.resize((HEADER_LEN + table_len) as usize, 0); // table, backpatched
        let init = file.write_all(&header).map_err(io_err("write"));
        if let Err(e) = init {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(SnapshotWriter {
            file,
            tmp,
            path,
            declared: sections,
            entries: Vec::with_capacity(sections as usize),
            offset: HEADER_LEN + table_len,
            finished: false,
        })
    }

    fn fail<T>(&mut self, e: StoreError) -> Result<T> {
        self.finished = true; // suppress the Drop cleanup double-remove
        let _ = std::fs::remove_file(&self.tmp);
        Err(e)
    }

    /// Begins streaming section `id`; feed bytes to the returned sink
    /// and call [`SectionSink::end`] when the payload is complete.
    /// Ids must be unique per file (the reader rejects duplicates).
    pub fn begin_section(&mut self, id: u32) -> SectionSink<'_> {
        debug_assert!(!self.entries.iter().any(|&(i, ..)| i == id), "duplicate section {id}");
        SectionSink { w: self, id, hasher: Xxh64::new(u64::from(id)), len: 0 }
    }

    /// Writes a complete in-memory payload as one section.
    pub fn put_section(&mut self, id: u32, payload: &[u8]) -> Result<()> {
        let mut sink = self.begin_section(id);
        sink.write(payload)?;
        sink.end()
    }

    /// Backpatches the section table, syncs, and atomically publishes
    /// the file (see the type docs for the durability contract).
    pub fn finish(mut self) -> Result<()> {
        use std::io::{Seek as _, SeekFrom, Write as _};
        if self.entries.len() as u64 != u64::from(self.declared) {
            let (got, want) = (self.entries.len(), self.declared);
            return self.fail(StoreError::Corrupt {
                section: SECTION_TABLE,
                detail: format!("writer declared {want} sections but streamed {got}"),
            });
        }
        let mut table = Vec::with_capacity((TABLE_ENTRY_LEN * u64::from(self.declared)) as usize);
        for &(id, offset, len, sum) in &self.entries {
            table.extend_from_slice(&id.to_le_bytes());
            table.extend_from_slice(&0u32.to_le_bytes());
            table.extend_from_slice(&offset.to_le_bytes());
            table.extend_from_slice(&len.to_le_bytes());
            table.extend_from_slice(&sum.to_le_bytes());
        }
        let table_sum = xxh64(&table, u64::from(FORMAT_VERSION));
        let patch = (|| {
            self.file.seek(SeekFrom::Start(16)).map_err(io_err("seek"))?;
            self.file.write_all(&table_sum.to_le_bytes()).map_err(io_err("write"))?;
            self.file.write_all(&table).map_err(io_err("write"))?;
            self.file.sync_all().map_err(io_err("sync"))?;
            crate::faults::hit("snapshot.before_rename")?;
            std::fs::rename(&self.tmp, &self.path).map_err(io_err("rename"))
        })();
        if let Err(e) = patch {
            return self.fail(e);
        }
        self.finished = true;
        crate::faults::hit("snapshot.after_rename")?;
        // Durability of the directory entry (not of the data — that is
        // already synced). An error here means the rename could still
        // be lost to power failure, so it must surface.
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            crate::wal::sync_dir(dir)?;
        }
        Ok(())
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        if !self.finished {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// An in-progress section being streamed through a [`SnapshotWriter`].
#[derive(Debug)]
pub struct SectionSink<'w> {
    w: &'w mut SnapshotWriter,
    id: u32,
    hasher: Xxh64,
    len: u64,
}

impl SectionSink<'_> {
    /// Appends payload bytes, hashing them as they pass through.
    pub fn write(&mut self, bytes: &[u8]) -> Result<()> {
        use std::io::Write as _;
        if let Err(e) = self.w.file.write_all(bytes) {
            return Err(StoreError::Io { op: "write", detail: e.to_string() });
        }
        self.hasher.update(bytes);
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Completes the section, recording its table entry.
    pub fn end(self) -> Result<()> {
        let sum = self.hasher.finish();
        let offset = self.w.offset;
        self.w.offset += self.len;
        self.w.entries.push((self.id, offset, self.len, sum));
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Little-endian section cursors used by the codec.
// ---------------------------------------------------------------------

/// Append-only little-endian byte builder for one section payload.
#[derive(Debug, Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one `u32`.
    #[inline]
    pub fn put_u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends one `u64`.
    #[inline]
    pub fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a flat `u32` array (no length prefix; the codec writes
    /// lengths explicitly where needed).
    pub fn put_u32_slice(&mut self, xs: &[u32]) {
        self.buf.reserve(xs.len() * 4);
        for &x in xs {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends an id array at the file's id width: two bytes per
    /// element when `narrow` (every value must fit, with `u32::MAX` —
    /// the shared "none" sentinel — mapped to `u16::MAX`), four
    /// otherwise. Narrow files are roughly half the size, which is
    /// most of the read+checksum cost of a warm start.
    ///
    /// # Panics
    /// In narrow mode, on a value that fits neither the two-byte width
    /// nor the sentinel — a caller contract violation that would
    /// otherwise be *silently truncated into a checksum-valid file*,
    /// the one corruption the reader could never detect. The check is
    /// unconditional (not `debug_assert`) for exactly that reason.
    pub fn put_id_slice(&mut self, xs: &[u32], narrow: bool) {
        if !narrow {
            self.put_u32_slice(xs);
            return;
        }
        self.buf.reserve(xs.len() * 2);
        for &x in xs {
            assert!(x < u32::from(u16::MAX) || x == u32::MAX, "id {x} overflows the narrow width");
            // The assert admits exactly the values where this is lossless:
            // in-range ids convert, and the u32 sentinel maps to the u16 one.
            let v = u16::try_from(x).unwrap_or(u16::MAX);
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a `usize` array widened to `u64`.
    pub fn put_usize_slice_as_u64(&mut self, xs: &[usize]) {
        self.buf.reserve(xs.len() * 8);
        for &x in xs {
            self.buf.extend_from_slice(&(x as u64).to_le_bytes());
        }
    }

    /// The finished payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian cursor over one section payload. Every
/// overrun or leftover byte is a typed [`StoreError::Corrupt`] naming
/// the section — decoding can never panic on malformed input.
#[derive(Debug)]
pub struct SectionReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: u32,
}

impl<'a> SectionReader<'a> {
    /// A cursor over `buf`, reporting errors against `section`.
    pub fn new(buf: &'a [u8], section: u32) -> Self {
        SectionReader { buf, pos: 0, section }
    }

    fn corrupt(&self, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt { section: self.section, detail: detail.into() }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.corrupt(format!("ran out of bytes at offset {}", self.pos)))?;
        let out = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| self.corrupt(format!("ran out of bytes at offset {}", self.pos)))?;
        self.pos = end;
        Ok(out)
    }

    /// Reads one `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(le_u32(self.take(4)?))
    }

    /// Reads one `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(le_u64(self.take(8)?))
    }

    /// Reads one `u64` and narrows it to `usize`.
    pub fn usize64(&mut self) -> Result<usize> {
        let x = self.u64()?;
        usize::try_from(x).map_err(|_| self.corrupt(format!("length {x} exceeds address space")))
    }

    /// Reads a flat `u32` array of `count` elements.
    pub fn u32_vec(&mut self, count: usize) -> Result<Vec<u32>> {
        let n = count
            .checked_mul(4)
            .ok_or_else(|| self.corrupt(format!("u32 array length {count} overflows")))?;
        Ok(self.take(n)?.chunks_exact(4).map(le_u32).collect())
    }

    /// Reads an id array written by [`SectionWriter::put_id_slice`] at
    /// the same width (`u16::MAX` widens back to `u32::MAX`).
    pub fn id_vec(&mut self, count: usize, narrow: bool) -> Result<Vec<u32>> {
        if !narrow {
            return self.u32_vec(count);
        }
        let n = count
            .checked_mul(2)
            .ok_or_else(|| self.corrupt(format!("id array length {count} overflows")))?;
        Ok(self
            .take(n)?
            .chunks_exact(2)
            .map(|c| {
                let v = le_u16(c);
                if v == u16::MAX {
                    u32::MAX
                } else {
                    u32::from(v)
                }
            })
            .collect())
    }

    /// Reads a flat `u64` array of `count` elements, each narrowed to
    /// `usize`.
    pub fn usize_vec_from_u64(&mut self, count: usize) -> Result<Vec<usize>> {
        let n = count
            .checked_mul(8)
            .ok_or_else(|| self.corrupt(format!("u64 array length {count} overflows")))?;
        self.take(n)?
            .chunks_exact(8)
            .map(|c| {
                usize::try_from(le_u64(c)).map_err(|_| self.corrupt("offset exceeds address space"))
            })
            .collect()
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(self.corrupt(format!(
                "{} trailing bytes after the last field",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from the canonical XXH64 implementation.
    #[test]
    fn xxh64_reference_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        // Long input pins the 32-byte stripe loop and merge rounds
        // against the canonical implementation — the path every real
        // section payload takes (and the claim that external tooling
        // can verify snapshots with stock XXH64).
        let long: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        assert_eq!(xxh64(&long, 0), 0x6EF4_36B0_0EBA_4078);
        assert_ne!(xxh64(&long, 0), xxh64(&long, 1));
        let mut flipped = long.clone();
        flipped[500] ^= 1;
        assert_ne!(xxh64(&long, 0), xxh64(&flipped, 0));
    }

    /// Any chunking of the input hashes like the whole, including
    /// splits inside the 32-byte stripe buffer and inputs shorter than
    /// one stripe.
    #[test]
    fn streaming_hasher_matches_one_shot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            for len in [0usize, 1, 3, 4, 7, 8, 31, 32, 33, 63, 64, 100, 999, 1000] {
                let input = &data[..len];
                let want = xxh64(input, seed);
                for chunk in [1usize, 5, 7, 13, 31, 32, 33, 64, 1000] {
                    let mut h = Xxh64::new(seed);
                    for piece in input.chunks(chunk) {
                        h.update(piece);
                    }
                    assert_eq!(h.finish(), want, "seed={seed} len={len} chunk={chunk}");
                }
            }
        }
    }

    /// Declaring the wrong section count must fail typed and leave no
    /// temp file behind.
    #[test]
    fn streaming_writer_rejects_count_mismatch() {
        let dir = std::env::temp_dir().join(format!("pcs_swriter_mis_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.pcs");
        let mut w = SnapshotWriter::create(&path, 2).unwrap();
        w.put_section(1, &[0]).unwrap();
        let err = w.finish().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { section: SECTION_TABLE, .. }));
        assert!(!path.exists());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "temp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What the writer lays down — one section streamed in pieces
    /// through the sink — is what the reader hands back.
    #[test]
    fn container_round_trips() {
        let dir = std::env::temp_dir().join(format!("pcs_swriter_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.pcs");
        let data: Vec<u8> = (0u8..200).collect();
        let mut w = SnapshotWriter::create(&path, 3).unwrap();
        w.put_section(7, &[1, 2, 3]).unwrap();
        w.put_section(9, &[]).unwrap();
        let mut sink = w.begin_section(2);
        for piece in data.chunks(7) {
            sink.write(piece).unwrap();
        }
        sink.end().unwrap();
        w.finish().unwrap();
        let back = crate::FileSnapshot::open(&path).unwrap();
        assert_eq!(back.section_ids(), vec![7, 9, 2]);
        assert_eq!(back.section(7).unwrap(), Some(&[1u8, 2, 3][..]));
        assert_eq!(back.section(9).unwrap(), Some(&[][..]));
        assert_eq!(back.section(2).unwrap(), Some(data.as_slice()));
        assert_eq!(back.section(1).unwrap(), None);
        assert_eq!(back.file_len(), HEADER_LEN + 3 * TABLE_ENTRY_LEN + 203);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reader_is_bounds_checked() {
        let mut w = SectionWriter::new();
        w.put_u32(5);
        w.put_u64(6);
        let payload = w.finish();
        let mut r = SectionReader::new(&payload, 3);
        assert_eq!(r.u32().unwrap(), 5);
        assert_eq!(r.u64().unwrap(), 6);
        assert!(matches!(r.u32(), Err(StoreError::Corrupt { section: 3, .. })));

        let mut r = SectionReader::new(&payload, 3);
        assert!(matches!(r.u32_vec(usize::MAX), Err(StoreError::Corrupt { .. })));
        let _ = r.u32().unwrap();
        assert!(matches!(r.finish(), Err(StoreError::Corrupt { .. })));
    }
}

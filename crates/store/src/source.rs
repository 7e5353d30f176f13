//! The file-backed snapshot source — the one parser of the container
//! layout in [`crate::format`]: positioned reads instead of
//! `fs::read`-the-world.
//!
//! [`FileSnapshot`] validates the **container prefix** (magic, version,
//! section table + checksum, entry bounds) eagerly — a few hundred
//! bytes — and then serves each section's payload on demand with
//! positioned `read_at`-style reads (page-cache-served, no `unsafe`, no
//! mmap). A section's checksum is verified on its **first touch**, and
//! the verified payload is cached so later touches are free.
//!
//! [`FileSnapshot::read_range`] additionally serves *sub-section*
//! ranges **without** checksum verification, for layouts whose
//! interior carries its own per-range checksums (`PROFILES` chunks,
//! `INDEX` member runs and shard payloads). Callers of `read_range`
//! own the validation of what they read — the typed-error discipline
//! of [`crate::codec`] still applies, the container just no longer
//! forces whole-section reads to get it.
//!
//! Every byte pulled from disk is counted in
//! [`FileSnapshot::bytes_read`]; the scale benchmarks (and the
//! lazy-load regression test) pin the claim "time-to-first-query reads
//! a small fraction of the file" against this counter.

use crate::format::{
    le_u32, le_u64, xxh64, Result, StoreError, FORMAT_VERSION, HEADER_LEN, MAGIC, MAX_SECTIONS,
    SECTION_TABLE, TABLE_ENTRY_LEN,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    id: u32,
    offset: u64,
    len: u64,
    sum: u64,
}

/// One memoized section load: the verified payload, or the sticky
/// typed error its first touch produced.
type SectionSlot = OnceLock<std::result::Result<Box<[u8]>, StoreError>>;

/// A snapshot served by positioned reads from an open file. See the
/// module docs for the validation split (eager prefix, per-section
/// deferred payloads).
///
/// Thread-safe: sections cache through [`OnceLock`], the byte counter
/// is atomic, and positioned reads need no seek state on Unix.
pub struct FileSnapshot {
    file: std::fs::File,
    path: PathBuf,
    file_len: u64,
    entries: Vec<SectionEntry>,
    cache: Vec<SectionSlot>,
    bytes_read: AtomicU64,
}

impl FileSnapshot {
    /// Opens `path` and validates the container prefix: magic, version
    /// gate, section count cap, table checksum, per-entry bounds and
    /// duplicate-id scan — everything *except* the payload checksums,
    /// which defer to first touch.
    pub fn open(path: impl AsRef<Path>) -> Result<FileSnapshot> {
        let path = path.as_ref().to_path_buf();
        let io = |op: &'static str| {
            move |e: std::io::Error| StoreError::Io { op, detail: e.to_string() }
        };
        let file = std::fs::File::open(&path).map_err(io("open"))?;
        let file_len = file.metadata().map_err(io("stat"))?.len();
        let bytes_read = AtomicU64::new(0);
        if file_len < HEADER_LEN {
            return Err(StoreError::Truncated { needed: HEADER_LEN, actual: file_len });
        }
        let mut header = [0u8; HEADER_LEN as usize];
        read_at_into(&file, 0, &mut header, &bytes_read)?;
        let (magic, rest) = header.split_at(8);
        let (version_b, rest) = rest.split_at(4);
        let (count_b, table_sum_b) = rest.split_at(4);
        if magic != MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(magic);
            return Err(StoreError::BadMagic { found });
        }
        let version = le_u32(version_b);
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = u64::from(le_u32(count_b));
        // Cap the declared section count before it sizes anything: a
        // forged header could otherwise drive the duplicate-id scan
        // quadratic and the table allocation huge long before any
        // checksum gets a chance to reject the file.
        if count > MAX_SECTIONS {
            return Err(StoreError::Corrupt {
                section: SECTION_TABLE,
                detail: format!("{count} sections declared (limit {MAX_SECTIONS})"),
            });
        }
        let stored_table_sum = le_u64(table_sum_b);
        let table_end = HEADER_LEN + TABLE_ENTRY_LEN * count; // cannot overflow: count < 2^32
        if table_end > file_len {
            return Err(StoreError::Truncated { needed: table_end, actual: file_len });
        }
        let mut table = vec![0u8; (TABLE_ENTRY_LEN * count) as usize];
        read_at_into(&file, HEADER_LEN, &mut table, &bytes_read)?;
        let table_sum = xxh64(&table, u64::from(FORMAT_VERSION));
        if table_sum != stored_table_sum {
            return Err(StoreError::ChecksumMismatch {
                section: SECTION_TABLE,
                expected: stored_table_sum,
                actual: table_sum,
            });
        }
        let mut entries: Vec<SectionEntry> = Vec::with_capacity(count as usize);
        for entry in table.chunks_exact(TABLE_ENTRY_LEN as usize) {
            let (id_b, entry) = entry.split_at(4);
            let (_reserved, entry) = entry.split_at(4);
            let (offset_b, entry) = entry.split_at(8);
            let (len_b, sum_b) = entry.split_at(8);
            let id = le_u32(id_b);
            let offset = le_u64(offset_b);
            let len = le_u64(len_b);
            let sum = le_u64(sum_b);
            let end = offset.checked_add(len).ok_or(StoreError::SectionOverflow {
                section: id,
                offset,
                len,
                file_len,
            })?;
            if end > file_len {
                return Err(StoreError::SectionOverflow { section: id, offset, len, file_len });
            }
            if entries.iter().any(|e| e.id == id) {
                return Err(StoreError::Corrupt {
                    section: id,
                    detail: "section id appears twice".into(),
                });
            }
            entries.push(SectionEntry { id, offset, len, sum });
        }
        let cache = entries.iter().map(|_| OnceLock::new()).collect();
        Ok(FileSnapshot { file, path, file_len, entries, cache, bytes_read })
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Bytes pulled from disk so far (header, table, sections, range
    /// reads — everything). Cache hits do not count.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Ids of all sections, in file order.
    pub fn section_ids(&self) -> Vec<u32> {
        self.entries.iter().map(|e| e.id).collect()
    }

    /// Declared payload length of section `id`, if present (available
    /// without touching the payload).
    pub fn section_len(&self, id: u32) -> Option<u64> {
        self.entries.iter().find(|e| e.id == id).map(|e| e.len)
    }

    fn slot(&self, i: usize) -> Result<&SectionSlot> {
        // Entries and cache are built in lockstep; a miss here is an
        // internal invariant break, surfaced typed per module policy.
        self.cache.get(i).ok_or_else(|| StoreError::Corrupt {
            section: SECTION_TABLE,
            detail: "internal: cache slot missing".into(),
        })
    }

    /// The full payload of section `id`, if present — read, verified
    /// against its table checksum, and cached on first touch. A
    /// payload that fails its checksum (or the read itself) yields the
    /// same typed error on every touch.
    pub fn section(&self, id: u32) -> Result<Option<&[u8]>> {
        let Some(i) = self.entries.iter().position(|e| e.id == id) else {
            return Ok(None);
        };
        let Some(entry) = self.entries.get(i).copied() else {
            return Ok(None);
        };
        let slot = self.slot(i)?;
        match slot.get_or_init(|| self.load_section(entry)) {
            Ok(payload) => Ok(Some(payload)),
            Err(e) => Err(e.clone()),
        }
    }

    fn load_section(&self, e: SectionEntry) -> std::result::Result<Box<[u8]>, StoreError> {
        let len = usize::try_from(e.len).map_err(|_| StoreError::Corrupt {
            section: e.id,
            detail: "section length exceeds address space".into(),
        })?;
        let mut buf = vec![0u8; len];
        read_at_into(&self.file, e.offset, &mut buf, &self.bytes_read)?;
        let sum = xxh64(&buf, u64::from(e.id));
        if sum != e.sum {
            return Err(StoreError::ChecksumMismatch {
                section: e.id,
                expected: e.sum,
                actual: sum,
            });
        }
        Ok(buf.into_boxed_slice())
    }

    /// True once section `id`'s payload has been read and verified.
    pub fn section_resident(&self, id: u32) -> bool {
        self.entries
            .iter()
            .position(|e| e.id == id)
            .and_then(|i| self.cache.get(i))
            .and_then(|slot| slot.get())
            .is_some_and(|r| r.is_ok())
    }

    /// Reads `len` bytes at `off` **within** section `id`, without
    /// checksum verification — for interiors that carry their own
    /// per-range checksums (profile chunks, member runs, shard
    /// payloads). The range is bounds-checked against the section's
    /// declared extent; a section already resident in the cache is
    /// served from memory.
    pub fn read_range(&self, id: u32, off: u64, len: u64) -> Result<Vec<u8>> {
        let Some(i) = self.entries.iter().position(|e| e.id == id) else {
            return Err(StoreError::MissingSection { section: id });
        };
        let Some(entry) = self.entries.get(i).copied() else {
            return Err(StoreError::MissingSection { section: id });
        };
        let end = off.checked_add(len).filter(|&e| e <= entry.len).ok_or_else(|| {
            StoreError::Corrupt {
                section: id,
                detail: format!("range {off}+{len} exceeds the {}-byte section", entry.len),
            }
        })?;
        let (off_us, end_us, len_us) =
            (usize::try_from(off), usize::try_from(end), usize::try_from(len));
        let (Ok(off_us), Ok(end_us), Ok(len_us)) = (off_us, end_us, len_us) else {
            return Err(StoreError::Corrupt {
                section: id,
                detail: "range exceeds address space".into(),
            });
        };
        if let Some(Ok(cached)) = self.slot(i)?.get() {
            let slice = cached.get(off_us..end_us).ok_or_else(|| StoreError::Corrupt {
                section: id,
                detail: "cached range out of bounds".into(),
            })?;
            return Ok(slice.to_vec());
        }
        let mut buf = vec![0u8; len_us];
        read_at_into(&self.file, entry.offset + off, &mut buf, &self.bytes_read)?;
        Ok(buf)
    }
}

impl std::fmt::Debug for FileSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileSnapshot")
            .field("path", &self.path)
            .field("file_len", &self.file_len)
            .field("sections", &self.entries.len())
            .field("bytes_read", &self.bytes_read())
            .finish()
    }
}

/// Positioned read helper: fills `buf` from absolute file offset
/// `offset`, counting the bytes. Uses `FileExt::read_at` on Unix (no
/// shared seek cursor, safe under concurrent faults) and
/// `seek_read` on Windows.
fn read_at_into(
    file: &std::fs::File,
    offset: u64,
    buf: &mut [u8],
    counter: &AtomicU64,
) -> Result<()> {
    let res = {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt as _;
            file.read_exact_at(buf, offset)
        }
        #[cfg(windows)]
        {
            use std::os::windows::fs::FileExt as _;
            let mut done = 0usize;
            loop {
                if done >= buf.len() {
                    break Ok(());
                }
                let Some(rest) = buf.get_mut(done..) else {
                    break Ok(());
                };
                match file.seek_read(rest, offset + done as u64) {
                    Ok(0) => {
                        break Err(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "failed to fill whole buffer",
                        ))
                    }
                    Ok(n) => done += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => break Err(e),
                }
            }
        }
        #[cfg(not(any(unix, windows)))]
        {
            let _ = (file, offset, &mut *buf);
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "positioned reads unsupported on this platform",
            ))
        }
    };
    res.map_err(|e: std::io::Error| StoreError::Io { op: "read_at", detail: e.to_string() })?;
    counter.fetch_add(buf.len() as u64, Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::SnapshotWriter;

    /// Three sections on disk; returns the path and section 1's payload.
    fn snapshot_on_disk(tag: &str) -> (PathBuf, Vec<u8>) {
        let dir = std::env::temp_dir().join(format!("pcs_source_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.pcs");
        let first: Vec<u8> = (0u8..100).collect();
        let mut w = SnapshotWriter::create(&path, 3).unwrap();
        w.put_section(1, &first).unwrap();
        w.put_section(2, &[0xAB; 4096]).unwrap();
        w.put_section(5, &[]).unwrap();
        w.finish().unwrap();
        (path, first)
    }

    #[test]
    fn open_reads_only_the_prefix() {
        let (path, first) = snapshot_on_disk("prefix");
        let src = FileSnapshot::open(&path).unwrap();
        let prefix = HEADER_LEN + 3 * TABLE_ENTRY_LEN;
        assert_eq!(src.bytes_read(), prefix, "open reads header + table only");
        assert_eq!(src.section_ids(), vec![1, 2, 5]);
        assert_eq!(src.section_len(2), Some(4096));
        assert_eq!(src.section_len(9), None);
        // First touch reads + verifies exactly that section.
        assert_eq!(src.section(1).unwrap().unwrap(), first);
        assert_eq!(src.bytes_read(), prefix + 100);
        // Second touch is a cache hit.
        assert!(src.section(1).unwrap().is_some());
        assert_eq!(src.bytes_read(), prefix + 100);
        assert!(src.section_resident(1));
        assert!(!src.section_resident(2));
        assert_eq!(src.section(9).unwrap(), None);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn deferred_checksum_catches_payload_damage_on_first_touch() {
        let (path, _) = snapshot_on_disk("damage");
        // Flip a byte inside section 2's payload on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 2000;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let src = FileSnapshot::open(&path).unwrap(); // prefix still valid
        assert!(src.section(1).unwrap().is_some(), "undamaged section loads");
        let err = src.section(2).unwrap_err();
        assert!(matches!(err, StoreError::ChecksumMismatch { section: 2, .. }), "{err:?}");
        // The failure is sticky and typed on every later touch.
        let again = src.section(2).unwrap_err();
        assert_eq!(err, again);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn range_reads_are_unverified_but_bounded() {
        let (path, first) = snapshot_on_disk("range");
        let src = FileSnapshot::open(&path).unwrap();
        let base = src.bytes_read();
        let range = src.read_range(1, 10, 20).unwrap();
        assert_eq!(range, first[10..30]);
        assert_eq!(src.bytes_read(), base + 20, "range read pulls exactly the range");
        assert!(src.read_range(1, 90, 20).is_err(), "range past the section end");
        assert!(src.read_range(9, 0, 1).is_err(), "missing section");
        // Once the section is resident, ranges come from memory.
        src.section(1).unwrap();
        let after_fault = src.bytes_read();
        assert_eq!(src.read_range(1, 0, 5).unwrap(), &first[..5]);
        assert_eq!(src.bytes_read(), after_fault, "cached range costs no IO");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn prefix_damage_is_caught_at_open() {
        let (path, _) = snapshot_on_disk("prefixdmg");
        let pristine = std::fs::read(&path).unwrap();
        // Magic.
        let mut b = pristine.clone();
        b[0] ^= 0xFF;
        std::fs::write(&path, &b).unwrap();
        assert!(matches!(FileSnapshot::open(&path), Err(StoreError::BadMagic { .. })));
        // Table byte.
        let mut b = pristine.clone();
        b[HEADER_LEN as usize + 4] ^= 0x01;
        std::fs::write(&path, &b).unwrap();
        assert!(matches!(
            FileSnapshot::open(&path),
            Err(StoreError::ChecksumMismatch { section: SECTION_TABLE, .. })
        ));
        // Truncation inside the table.
        std::fs::write(&path, &pristine[..HEADER_LEN as usize + 7]).unwrap();
        assert!(matches!(FileSnapshot::open(&path), Err(StoreError::Truncated { .. })));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}

//! Container-level test helpers built on the production reader and
//! writer: a snapshot's sections as `(id, payload)` pairs, so a test
//! can mutate one payload and get a file whose container checksums are
//! valid again.

use pcs_store::{FileSnapshot, SnapshotWriter};
use std::path::Path;

/// Every section of the snapshot at `path`, in file order.
pub fn read_sections(path: &Path) -> Vec<(u32, Vec<u8>)> {
    let src = FileSnapshot::open(path).unwrap();
    let payload = |id| src.section(id).unwrap().unwrap().to_vec();
    src.section_ids().into_iter().map(|id| (id, payload(id))).collect()
}

/// Writes `sections` to `path` as one snapshot file.
pub fn write_sections(path: &Path, sections: &[(u32, Vec<u8>)]) {
    let mut w = SnapshotWriter::create(path, sections.len() as u32).unwrap();
    for (id, payload) in sections {
        w.put_section(*id, payload).unwrap();
    }
    w.finish().unwrap();
}

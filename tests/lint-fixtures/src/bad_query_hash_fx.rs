//! The same through pcs-graph's Fx aliases, which a list naming only the
//! std types does not catch. Raises `disallowed_types` four times.

use pcs_graph::FxHashSet;

pub fn distinct(xs: &[u32]) -> FxHashSet<u32> {
    let mut seen: FxHashSet<u32> = FxHashSet::default();
    seen.extend(xs);
    seen
}

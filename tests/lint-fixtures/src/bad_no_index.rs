//! Bare slice indexing. Raises `indexing_slicing` twice.

pub fn pick(v: &[u32], i: usize) -> u32 {
    v[i] + v[0]
}

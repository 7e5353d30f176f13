//! An `#[expect]` without a reason: the reason is mandatory.
//! Raises `allow_attributes_without_reason` once.

#[expect(clippy::unwrap_used)]
pub fn must(v: &[u32]) -> u32 {
    v.first().copied().unwrap()
}

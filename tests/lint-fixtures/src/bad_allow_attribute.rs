//! An `#[allow]`, even with a reason: it cannot report when it stops
//! suppressing anything, so only `#[expect]` is accepted.
//! Raises `allow_attributes` once.

#[allow(clippy::unwrap_used, reason = "fixture reason; the caller guarantees non-empty input")]
pub fn must(v: &[u32]) -> u32 {
    v.first().copied().unwrap()
}

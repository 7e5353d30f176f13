//! An `#[expect]` with a reason on the one statement it excuses. Silent.

pub fn must(v: &[u32]) -> u32 {
    #[expect(clippy::unwrap_used, reason = "fixture reason; the caller guarantees non-empty input")]
    let first = v.first().copied().unwrap();
    first
}

//! A well-formed `#[expect]` that suppresses nothing: dead excuses must
//! be removed, not accumulated. Raises `unfulfilled_lint_expectations`
//! once.

#[expect(clippy::unwrap_used, reason = "fixture reason; nothing below can fail")]
pub fn fine() -> u32 {
    40 + 2
}

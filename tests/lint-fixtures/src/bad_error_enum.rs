//! An exported enum without `#[non_exhaustive]`.
//! Raises `exhaustive_enums` once.

/// Missing its forward-compatibility guard.
#[derive(Debug)]
pub enum FixtureError {
    Io,
    Parse,
}

//! Hot-path-idiomatic code: checked accessors, saturating arithmetic,
//! no hash containers, no clock reads. Silent.

pub fn sum_checked(v: &[u32]) -> u32 {
    let mut total = 0u32;
    for &x in v {
        total = total.saturating_add(x);
    }
    total
}

pub fn head(v: &[u32]) -> Option<u32> {
    v.first().copied()
}

#[non_exhaustive]
#[derive(Debug)]
pub enum GuardedError {
    Io,
}

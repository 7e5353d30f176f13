//! A clock read inside a per-item loop. The `use` is fine; every
//! `Instant::now()` call, in a loop or not, is a finding.
//! Raises `disallowed_methods` once.

use std::time::{Duration, Instant};

pub fn probe(items: &[u32], since: Instant) -> Duration {
    let mut total = Duration::ZERO;
    for _ in items {
        let t = Instant::now();
        total += t.duration_since(since);
    }
    total
}

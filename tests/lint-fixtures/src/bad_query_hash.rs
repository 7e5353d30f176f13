//! A std hash container in the query path: every mention (use, return
//! type, annotation, constructor). Raises `disallowed_types` four times.

use std::collections::HashMap;

pub fn tally(xs: &[u32]) -> HashMap<u32, u32> {
    let mut seen: HashMap<u32, u32> = HashMap::new();
    for &x in xs {
        *seen.entry(x).or_insert(0) += 1;
    }
    seen
}

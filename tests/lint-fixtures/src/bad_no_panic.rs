//! Every panicking construct the panic contract forbids, and nothing
//! else. Raises `unwrap_used`, `expect_used`, `panic` and `unreachable`
//! once each.

pub fn take(v: &[u32]) -> u32 {
    let first = v.first().unwrap();
    let second = v.get(1).expect("second element");
    if *first > *second {
        panic!("ordering");
    }
    unreachable!()
}

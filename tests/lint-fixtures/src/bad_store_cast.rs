//! A narrowing `as` cast, which the store codec must replace with a
//! checked conversion surfacing a typed error.
//! Raises `cast_possible_truncation` once.

pub fn narrow(len: usize) -> u32 {
    len as u32
}

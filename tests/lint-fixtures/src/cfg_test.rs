//! `#[cfg(test)]` code is exempt: the crate-root denies apply only
//! outside test builds, and test code may panic. Silent.

pub fn shipping() -> u32 {
    7
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_in_tests_is_fine() {
        let v = [shipping()];
        assert_eq!(v.first().copied().unwrap(), 7);
        let w = [1u32, 2];
        assert_eq!(w[0], 1);
    }
}

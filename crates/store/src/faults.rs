//! Kill-point hooks for crash-fault injection.
//!
//! A durability layer is only as good as its behaviour at the worst
//! possible instant, so the write paths in this crate (and the engine's
//! `apply` sequence built on them) thread named *kill points* through
//! every step of the log → fsync → rename → publish pipeline. In
//! production every hook is a no-op branch on an empty thread-local
//! list. A crash test arms a point by name; the next time execution
//! reaches it the hook returns a typed [`StoreError`] — the moment the
//! process "dies" — and the test then drops the engine and re-opens the
//! durable directory to assert recovery is prefix-consistent.
//!
//! The registry is **thread-local** on purpose: `PcsEngine::apply` and
//! the WAL run on the caller's thread, so parallel tests (cargo's
//! default) can each arm their own kill points without interfering.
//!
//! This module is `#[doc(hidden)]`-reexported and compiled
//! unconditionally, following the precedent of
//! `PcsEngine::poison_scratch_pool_for_test`: the hooks must exist in
//! exactly the binaries the crash matrix exercises, and an un-armed
//! hook costs one thread-local read of an almost-always-empty vector
//! on a path that is about to issue an `fsync`.

use crate::format::{Result, StoreError};
use std::cell::RefCell;

thread_local! {
    static ARMED: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Arms `point` for the current thread: the next call to [`hit`] with
/// the same name fires once and disarms it.
pub fn arm(point: &'static str) {
    ARMED.with(|a| a.borrow_mut().push(point));
}

/// Number of points currently armed on this thread — assert `0` at the
/// end of a test to prove every armed point was actually reached.
pub fn armed_count() -> usize {
    ARMED.with(|a| a.borrow().len())
}

/// The hook the write paths call: returns an injected I/O error if
/// `point` is armed on this thread (consuming the arming), `Ok(())`
/// otherwise.
pub fn hit(point: &'static str) -> Result<()> {
    let fired = ARMED.with(|a| {
        let mut armed = a.borrow_mut();
        match armed.iter().position(|p| *p == point) {
            Some(i) => {
                armed.swap_remove(i);
                true
            }
            None => false,
        }
    });
    if fired {
        return Err(StoreError::Io {
            op: "kill-point",
            detail: format!("injected crash at {point}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_hooks_are_noops() {
        assert_eq!(armed_count(), 0);
        assert!(hit("anything").is_ok());
    }

    #[test]
    fn armed_point_fires_once_then_disarms() {
        arm("p1");
        assert_eq!(armed_count(), 1);
        let err = hit("p1").unwrap_err();
        assert!(matches!(err, StoreError::Io { op: "kill-point", .. }));
        assert!(hit("p1").is_ok(), "kill points are one-shot");
        assert_eq!(armed_count(), 0);
    }

    #[test]
    fn points_are_thread_local() {
        arm("p2");
        std::thread::spawn(|| {
            assert!(hit("p2").is_ok(), "other threads must not see this arming");
        })
        .join()
        .unwrap();
        assert!(hit("p2").is_err());
    }
}

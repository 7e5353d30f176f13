//! The one-shot result cell a waiting thread parks on.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A one-shot hand-off between two threads: one side [`post`](Self::post)s
/// a value, the other [`wait`](Self::wait)s for it with a deadline.
/// Poison-recovering — a panic on either side must not wedge the other.
/// Its one user is `pcs-serve`'s batcher (a connection waits for the
/// dispatcher); it goes when the batcher does.
#[derive(Debug)]
pub struct OneShot<T> {
    value: Mutex<Option<T>>,
    done: Condvar,
}

impl<T> Default for OneShot<T> {
    fn default() -> Self {
        OneShot { value: Mutex::new(None), done: Condvar::new() }
    }
}

impl<T> OneShot<T> {
    fn lock(&self) -> MutexGuard<'_, Option<T>> {
        self.value.lock().unwrap_or_else(|poisoned| {
            self.value.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Stores `value` and wakes the waiter.
    pub fn post(&self, value: T) {
        *self.lock() = Some(value);
        self.done.notify_all();
    }

    /// Takes the posted value, blocking up to `deadline` for it.
    /// `None` means nothing was posted in time — the posting side died.
    pub fn wait(&self, deadline: Duration) -> Option<T> {
        let started = Instant::now();
        let mut guard = self.lock();
        loop {
            if let Some(value) = guard.take() {
                return Some(value);
            }
            let remaining = deadline.checked_sub(started.elapsed()).filter(|r| !r.is_zero())?;
            guard = match self.done.wait_timeout(guard, remaining) {
                Ok((guard, _)) => guard,
                Err(poisoned) => {
                    self.value.clear_poison();
                    poisoned.into_inner().0
                }
            };
        }
    }
}

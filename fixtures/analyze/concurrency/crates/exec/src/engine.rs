//! A miniature engine with one seeded hazard per audit rule.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Two independently guarded queues plus a relaxed counter.
pub struct Engine {
    /// Pending job ids.
    pub queue: Mutex<Vec<usize>>,
    /// Completed job ids.
    pub done: Mutex<Vec<usize>>,
    /// Work-steal counter.
    pub steals: AtomicUsize,
}

impl Engine {
    /// Worker entry point: a configured worker seed (`Engine::map`).
    pub fn map(&self, jobs: &[usize]) -> usize {
        let first = jobs[0];
        std::thread::scope(|s| {
            s.spawn(move || {
                let held = self.queue.lock().unwrap();
                let nested = self.done.lock().expect("done queue poisoned");
                drop(nested);
                drop(held);
            });
        });
        first + self.steals.load(Ordering::Relaxed)
    }

    /// Unsafe read: `XT0001` fires on every `unsafe` token.
    pub fn slot(&self, raw: &[usize], i: usize) -> usize {
        unsafe { *raw.get_unchecked(i) }
    }

    /// A `SAFETY:` comment does not exempt it from `XT0001`.
    pub fn first_slot(&self, raw: &[usize]) -> usize {
        // SAFETY: callers check `raw` is non-empty before dispatch.
        unsafe { *raw.get_unchecked(0) }
    }
}

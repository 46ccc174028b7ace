//! A miniature job fan-out whose worker path panics and locks —
//! outside the sanctioned engine crate, so both effects are flagged.

use std::sync::Mutex;

/// Minimal stand-in for the parallel engine's facade.
pub struct Engine {
    /// Pending job ids, shared with the (imaginary) pool.
    pub queue: Mutex<Vec<u32>>,
}

impl Engine {
    /// Worker seed by name: dispatches each job to the helpers.
    pub fn map(&self, jobs: &[u32]) -> u32 {
        let mut acc = 0;
        for &j in jobs {
            acc += guarded(self, j);
        }
        acc
    }
}

/// Takes the queue lock on the worker path.
fn guarded(e: &Engine, j: u32) -> u32 {
    let Ok(mut q) = e.queue.lock() else {
        return 0;
    };
    q.push(j);
    fail_fast(j)
}

/// Panics on the worker path.
fn fail_fast(j: u32) -> u32 {
    if j == u32::MAX {
        unreachable!("saturated job id");
    }
    crate::worker::checked_slot(j)
}

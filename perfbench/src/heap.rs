//! Counting global allocator: the process's peak live heap bytes.
//!
//! Peak RSS on a shared virtual machine moved by up to a third between
//! identical runs (the C allocator's trimming and mmap thresholds react
//! to timing), which no regression bound can absorb. Live heap bytes
//! are a pure function of the allocation sequence, so the peak repeats
//! exactly for serial work. Placement is [`System`]'s; only two relaxed
//! atomic updates per call are added.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`] with live/peak byte accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counting;

// The counters publish no other data, so relaxed ordering suffices; a
// peak read on another thread may trail by the in-flight calls.
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Live heap bytes now.
#[must_use]
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Highest live heap byte count since the previous call (or process
/// start); the peak then restarts from the live count.
pub fn take_peak() -> usize {
    PEAK.swap(LIVE.load(Ordering::Relaxed), Ordering::Relaxed)
}

// SAFETY: every method forwards verbatim to `System`, which satisfies
// the `GlobalAlloc` contract; the bookkeeping touches only two atomics
// and cannot allocate, panic or interfere with the forwarded call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which forwards to
        // `System` with the same `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

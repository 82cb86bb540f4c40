//! Allocation high-water tracking via a wrapping global allocator.
//!
//! Meta-blocking's memory profile is spiky — the blocking graph's edge
//! list dwarfs steady state — so the interesting number is the *peak*
//! bytes live during a stage, not the total allocated. A binary opts in
//! by installing the wrapper around the system allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: mb_observe::alloc_track::TrackingAllocator<std::alloc::System> =
//!     mb_observe::alloc_track::TrackingAllocator::new(std::alloc::System);
//! ```
//!
//! [`crate::StageScope`] calls [`rebase_peak`] on stage entry and
//! [`peak_bytes`] on exit; when no tracking allocator is installed both
//! are zero and the `alloc_peak_bytes` counter is simply absent from
//! reports. The atomics use relaxed ordering: counters tolerate benign
//! races (a concurrent alloc slipping over a rebase) — this is telemetry,
//! not accounting.

#![allow(unsafe_code)] // GlobalAlloc is an unsafe trait; this is the one
                       // place in the workspace that implements it.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Live-byte, high-water and allocation-event counters.
///
/// The installed [`TrackingAllocator`] updates the one process-wide
/// instance behind [`current_bytes`], [`peak_bytes`], [`rebase_peak`] and
/// [`alloc_count`]; tests exercise the bookkeeping on instances of their
/// own, so no other test in the binary can move their numbers.
struct Counters {
    current: AtomicU64,
    peak: AtomicU64,
    allocs: AtomicU64,
}

impl Counters {
    const fn new() -> Counters {
        Counters { current: AtomicU64::new(0), peak: AtomicU64::new(0), allocs: AtomicU64::new(0) }
    }

    fn on_alloc(&self, bytes: usize) {
        let now = self.current.fetch_add(bytes as u64, Relaxed) + bytes as u64;
        self.peak.fetch_max(now, Relaxed);
        self.allocs.fetch_add(1, Relaxed);
    }

    fn on_dealloc(&self, bytes: usize) {
        // Saturating: a dealloc of memory allocated before the tracker saw
        // it (e.g. pre-main) must not wrap the counter.
        let _ =
            self.current.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(bytes as u64)));
    }

    fn current(&self) -> u64 {
        self.current.load(Relaxed)
    }

    fn peak(&self) -> u64 {
        self.peak.load(Relaxed)
    }

    fn rebase_peak(&self) {
        self.peak.store(self.current(), Relaxed);
    }

    fn alloc_count(&self) -> u64 {
        self.allocs.load(Relaxed)
    }
}

/// The counters every [`TrackingAllocator`] updates.
static GLOBAL: Counters = Counters::new();

/// A [`GlobalAlloc`] wrapper that maintains live-byte and peak counters.
pub struct TrackingAllocator<A> {
    inner: A,
}

impl<A> TrackingAllocator<A> {
    /// Wraps `inner` (typically [`std::alloc::System`]).
    pub const fn new(inner: A) -> TrackingAllocator<A> {
        TrackingAllocator { inner }
    }
}

// SAFETY: every method delegates to the wrapped allocator with the exact
// arguments it received; the counter updates touch no allocator state.
unsafe impl<A: GlobalAlloc> GlobalAlloc for TrackingAllocator<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { self.inner.alloc(layout) };
        if !ptr.is_null() {
            GLOBAL.on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { self.inner.dealloc(ptr, layout) };
        GLOBAL.on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { self.inner.alloc_zeroed(layout) };
        if !ptr.is_null() {
            GLOBAL.on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { self.inner.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            GLOBAL.on_dealloc(layout.size());
            GLOBAL.on_alloc(new_size);
        }
        new_ptr
    }
}

/// Bytes currently live, as seen by the tracker (zero when no
/// [`TrackingAllocator`] is installed).
pub fn current_bytes() -> u64 {
    GLOBAL.current()
}

/// The high-water mark since the last [`rebase_peak`].
pub fn peak_bytes() -> u64 {
    GLOBAL.peak()
}

/// Resets the high-water mark to the current live total, so the next
/// [`peak_bytes`] reading reflects only growth after this point.
pub fn rebase_peak() {
    GLOBAL.rebase_peak();
}

/// Number of allocation events (alloc, alloc_zeroed, and the alloc half of
/// realloc) since process start. Monotonic; read it before and after a
/// region and subtract to count the region's allocations.
pub fn alloc_count() -> u64 {
    GLOBAL.alloc_count()
}

#[cfg(test)]
mod tests {
    use super::*;

    // No #[global_allocator] here — installing one inside a unit test
    // would affect the whole test binary. Instead the bookkeeping is
    // exercised directly, each test on counters of its own; the GlobalAlloc
    // impl is a thin shim over the same methods.

    #[test]
    fn bookkeeping_tracks_peak_rebases_and_saturates() {
        let c = Counters::new();
        let base_current = c.current();
        c.on_alloc(1000);
        c.on_alloc(500);
        assert_eq!(c.current(), base_current + 1500);
        assert!(c.peak() >= c.current());
        c.on_dealloc(1200);
        assert_eq!(c.current(), base_current + 300);
        assert!(c.peak() >= c.current());
        c.rebase_peak();
        assert!(c.peak() >= c.current());
        c.on_dealloc(300);
        assert_eq!(c.current(), base_current);

        // Over-freeing (memory allocated before the tracker was watching)
        // saturates at zero instead of wrapping.
        let live = c.current();
        c.on_dealloc(live as usize + 4096);
        assert_eq!(c.current(), 0);
        c.rebase_peak();
    }

    #[test]
    fn alloc_count_is_monotonic() {
        let c = Counters::new();
        let before = c.alloc_count();
        c.on_alloc(8);
        c.on_alloc(8);
        let after = c.alloc_count();
        assert!(after >= before + 2);
        c.on_dealloc(16);
        assert!(c.alloc_count() >= after); // deallocs never decrease it
    }
}

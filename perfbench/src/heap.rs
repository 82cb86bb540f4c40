//! A whole-run heap high-water mark over `mb_observe::alloc_track`.
//!
//! The program's own stage scopes rebase `alloc_track`'s peak whenever a
//! stage starts, so that peak covers only the latest stage. This wrapper
//! reads `alloc_track`'s live-byte count after every allocation and keeps
//! its own maximum, which only [`rebase`] resets.

use mb_observe::alloc_track::current_bytes;
use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static HIGH: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] wrapper that records the highest live-byte count the
/// wrapped tracking allocator reports.
pub struct HighWater<A> {
    inner: A,
}

impl<A> HighWater<A> {
    /// Wraps `inner`, which must keep `alloc_track`'s live-byte count.
    pub const fn new(inner: A) -> HighWater<A> {
        HighWater { inner }
    }
}

fn observe() {
    // Relaxed: a statistic that publishes no other data.
    let live = current_bytes();
    if live > HIGH.load(Relaxed) {
        HIGH.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method delegates to the wrapped allocator with the exact
// arguments it received; recording the high-water mark touches no
// allocator state and never allocates.
unsafe impl<A: GlobalAlloc> GlobalAlloc for HighWater<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { self.inner.alloc(layout) };
        observe();
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (hence `inner`)
        // returned, with its layout.
        unsafe { self.inner.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { self.inner.alloc_zeroed(layout) };
        observe();
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract; `ptr` came from
        // `inner` with `layout`.
        let new_ptr = unsafe { self.inner.realloc(ptr, layout, new_size) };
        observe();
        new_ptr
    }
}

/// Restarts the high-water mark from what is live now.
pub fn rebase() {
    HIGH.store(current_bytes(), Relaxed);
}

/// The highest live-byte count since the last [`rebase`].
pub fn peak_bytes() -> u64 {
    HIGH.load(Relaxed)
}

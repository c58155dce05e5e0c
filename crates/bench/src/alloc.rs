//! A counting global allocator.
//!
//! Figure 3(c) reports the memory-resident size of the system per engine and
//! subscription count. We measure the same quantity — live heap bytes —
//! directly at the allocator, which is immune to OS accounting noise
//! (DESIGN.md §4).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes allocated through [`CountingAllocator`].
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of live bytes.
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// A `#[global_allocator]` wrapper around the system allocator that tracks
/// live and peak heap bytes.
///
/// Install in a harness binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: pubsub_bench::CountingAllocator = pubsub_bench::CountingAllocator;
/// ```
pub struct CountingAllocator;

impl CountingAllocator {
    /// Currently live heap bytes.
    pub fn live_bytes() -> usize {
        LIVE_BYTES.load(Ordering::Relaxed)
    }

    /// High-water mark since process start (or the last
    /// [`CountingAllocator::reset_peak`]).
    pub fn peak_bytes() -> usize {
        PEAK_BYTES.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current live count.
    pub fn reset_peak() {
        PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

fn add(n: usize) {
    let live = LIVE_BYTES.fetch_add(n, Ordering::Relaxed) + n;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn sub(n: usize) {
    LIVE_BYTES.fetch_sub(n, Ordering::Relaxed);
}

// SAFETY: delegates every operation to `System`; the counters are purely
// observational.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        sub(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            add(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            sub(layout.size());
            add(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests below: they share the process-global counters.
    static COUNTERS_LOCK: Mutex<()> = Mutex::new(());

    // The test binary does not install the allocator globally; exercise the
    // bookkeeping directly.
    #[test]
    fn counters_track_alloc_and_dealloc() {
        let _guard = COUNTERS_LOCK.lock().unwrap();
        let before = CountingAllocator::live_bytes();
        add(1000);
        assert_eq!(CountingAllocator::live_bytes(), before + 1000);
        assert!(CountingAllocator::peak_bytes() >= before + 1000);
        sub(1000);
        assert_eq!(CountingAllocator::live_bytes(), before);
    }

    #[test]
    fn reset_peak_snaps_to_live() {
        let _guard = COUNTERS_LOCK.lock().unwrap();
        add(500);
        CountingAllocator::reset_peak();
        assert_eq!(
            CountingAllocator::peak_bytes(),
            CountingAllocator::live_bytes()
        );
        sub(500);
    }
}

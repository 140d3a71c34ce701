//! Live-heap accounting for the `peak_heap_mb` metric.
//!
//! The binary installs [`Counting`] as its global allocator: a pass-through
//! to the system allocator that, only while [`measure`] runs, keeps the
//! growth of the live heap and its high-water mark. Outside [`measure`]
//! every allocation pays one relaxed load of an unchanging flag, so the
//! timed iterations run without the bookkeeping; each workload measures
//! its heap in one untimed pass of its own. Unlike the resident set size,
//! which on glibc depends on how per-thread arenas happen to be assigned,
//! the live-byte peak is a property of the program's allocations. Without
//! the allocator installed (library tests) every reading is 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

// Relaxed is enough throughout: the counters publish no other data, and
// the threads that allocate inside `measure` hand their results back
// through channels or joins, which order their updates before the read.
fn grow(bytes: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let bytes = bytes as isize;
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

/// Runs `f` with the counter on and returns its result with the peak
/// growth of the live heap during the call, in bytes. Blocks allocated
/// before the call and freed during it lower the live count, so the peak
/// is the most the heap grew above its size at the start.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let value = f();
    COUNTING.store(false, Ordering::Relaxed);
    (value, PEAK.load(Ordering::Relaxed).max(0) as usize)
}

/// Counting pass-through to [`System`].
#[derive(Debug)]
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the bookkeeping only touches
// atomics and never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract for a block `System` allocated.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

//! The one counting allocator: live, peak and total bytes for the whole
//! process, with scoped baselines.
//!
//! `xqr-benchmark` installs it as the `#[global_allocator]`, so
//! `peak_alloc_mib` and `core.alloc_bytes_per_op` count every heap byte
//! the engine, the service and the benchmark itself request while a
//! scope is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering};

/// Counting is on only inside a [`Scope`]. Three shared counters updated
/// on every allocation by two busy threads slowed the two-client run to
/// less than half its speed; switched off, an allocation pays one relaxed
/// load of a flag nobody writes.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since the scope opened. Freeing
/// what was allocated before the scope takes it below zero.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and, inside a scope, keeps the three
/// gauges.
pub struct CountingAlloc;

// SAFETY: every call forwards to `System` with the caller's own layout
// and pointer, so `System`'s guarantees carry over unchanged; the gauges
// are plain atomics and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s contract too.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            let size = layout.size() as isize;
            let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
            PEAK.fetch_max(live, Ordering::Relaxed);
            TOTAL.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `alloc` above, that is by
        // `System.alloc`, with this same `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
    }
}

/// A measurement window: the heap as it stood when the scope opened is
/// the baseline, and live, peak and total bytes are counted from there
/// until the scope drops. One scope at a time.
pub struct Scope(());

impl Scope {
    pub fn begin() -> Scope {
        assert!(
            !COUNTING.load(Ordering::Relaxed),
            "allocation scopes do not nest"
        );
        LIVE.store(0, Ordering::Relaxed);
        PEAK.store(0, Ordering::Relaxed);
        TOTAL.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        Scope(())
    }

    /// Highest live byte count since `begin`, above the baseline.
    pub fn peak_above_baseline(&self) -> usize {
        PEAK.load(Ordering::Relaxed).max(0) as usize
    }

    /// Bytes requested since `begin`, freed or not.
    pub fn allocated(&self) -> u64 {
        TOTAL.load(Ordering::Relaxed)
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        COUNTING.store(false, Ordering::Relaxed);
    }
}

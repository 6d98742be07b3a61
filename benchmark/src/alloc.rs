//! Counting global allocator and glibc malloc pinning.
//!
//! Pinning (no trim, 32 MiB mmap threshold) keeps freed memory inside
//! the process, so timed blocks recycle warm pages instead of taking
//! fresh-page faults — on this host an unpinned 16 KiB gather re-faults
//! ~20 MB per op and its *minimum* time swings 11–16 ms run to run.
//! What pinning hides from the clock, the counting wrapper reports as
//! exact numbers: allocator calls and bytes requested.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and without a destructor, so the allocator can
    // touch it at any point of a thread's life. Per thread: the benchmark
    // drives the service from one thread, and counts taken around a block
    // must not see what another thread (a parallel test) allocates.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// `System` plus per-thread counters of calls and bytes requested.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters have no effect
// on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn note(bytes: usize) {
    COUNTS.with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
}

/// `(allocator calls, bytes requested)` by the calling thread so far.
/// `alloc`, `alloc_zeroed` and `realloc` each count as one call; a
/// `realloc` counts its new size.
pub fn snapshot() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

/// Pins glibc malloc for the life of the process. Returns whether every
/// setting was accepted (`false` off glibc, where nothing is changed).
pub fn pin_malloc() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores tuning integers inside glibc's
        // malloc state; it is called once, before any other thread exists.
        unsafe {
            // 32 MiB is glibc's maximum mmap threshold; setting it also
            // disables the dynamic threshold adjustment.
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
                && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
                && mallopt(M_TOP_PAD, 64 << 20) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_calls_and_bytes() {
        let (c0, b0) = snapshot();
        let v: Vec<u8> = Vec::with_capacity(12_345);
        std::hint::black_box(&v);
        let (c1, b1) = snapshot();
        assert_eq!((c1 - c0, b1 - b0), (1, 12_345));
    }
}

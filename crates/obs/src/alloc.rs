//! Feature-gated counting global allocator.
//!
//! [`CountingAlloc`](crate::alloc::CountingAlloc) wraps the system
//! allocator and counts, per thread, how many heap allocations were
//! requested and how many bytes they asked for. Spans read these counters
//! at entry and exit, and report the delta to the installed recorder via
//! [`Recorder::record_span_alloc`](crate::Recorder::record_span_alloc) —
//! which is how `--profile` grows `allocs / KiB` columns.
//!
//! Binaries opt in (the counters only move when the process actually
//! runs under this allocator):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: bmst_obs::alloc::CountingAlloc = bmst_obs::alloc::CountingAlloc;
//! ```
//!
//! Design notes:
//!
//! * Counters are thread-local `Cell<u64>`s with const initialisers, so
//!   reading or bumping them never allocates — the allocator cannot
//!   recurse into itself.
//! * Only `alloc` and `realloc` count (a realloc counts as one
//!   allocation of the new size); `dealloc` is not tracked, so the
//!   numbers measure allocation *pressure* (allocator traffic), not
//!   resident footprint.
//! * Counts are per-thread: a span observes the allocations made on the
//!   thread it lives on, which is exactly the attribution a scoped
//!   profile wants. Nested spans are cumulative — a child's allocations
//!   also appear in its parent's delta.
#![allow(unsafe_code)] // the one place in the workspace that implements GlobalAlloc

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A point-in-time reading of this thread's allocation counters.
///
/// Subtract two snapshots (via [`AllocSnapshot::delta_since`]) to get the
/// traffic in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Heap allocations requested on this thread so far.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// The allocation traffic between `earlier` and `self` (saturating,
    /// in case the u64 counters ever wrap).
    pub fn delta_since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.wrapping_sub(earlier.allocs),
            bytes: self.bytes.wrapping_sub(earlier.bytes),
        }
    }
}

/// Reads this thread's current allocation counters. Zero forever unless
/// the process runs under [`CountingAlloc`].
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOC_COUNT.with(Cell::get),
        bytes: ALLOC_BYTES.with(Cell::get),
    }
}

fn count(bytes: usize) {
    ALLOC_COUNT.with(|c| c.set(c.get().wrapping_add(1)));
    // usize -> u64 is lossless on every supported target.
    ALLOC_BYTES.with(|c| c.set(c.get().wrapping_add(bytes as u64)));
}

/// The counting allocator: [`System`] plus per-thread traffic counters.
///
/// Install as `#[global_allocator]` to make [`snapshot`] (and therefore
/// span allocation columns) live.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// SAFETY: every method delegates directly to `System`, which upholds the
// GlobalAlloc contract; the counter bumps touch only const-initialised
// thread-local Cells and never allocate, so there is no reentrancy.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic
    use super::*;

    #[test]
    fn delta_since_subtracts() {
        let a = AllocSnapshot {
            allocs: 3,
            bytes: 100,
        };
        let b = AllocSnapshot {
            allocs: 10,
            bytes: 450,
        };
        assert_eq!(
            b.delta_since(a),
            AllocSnapshot {
                allocs: 7,
                bytes: 350
            }
        );
    }

    #[test]
    fn snapshot_is_monotone_on_this_thread() {
        // Without the allocator installed both reads are 0; with it
        // installed (the integration test binary does) the second read is
        // >= the first. Either way the delta is non-negative.
        let before = snapshot();
        let v: Vec<u64> = (0..64).collect();
        let after = snapshot();
        let delta = after.delta_since(before);
        assert!(delta.allocs <= u64::MAX / 2, "no wraparound: {delta:?}");
        drop(v);
    }
}

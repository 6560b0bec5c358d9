//! Heap accounting for the working-set metric.
//!
//! The process's resident set cannot tell the program's memory from the
//! benchmark's own: the inputs, and the free heap pages that earlier
//! batches leave resident, dwarf and mask what one call of the program
//! touches. This allocator counts live heap bytes instead, inside a
//! window the benchmark opens around the program's calls, so the peak is
//! exactly the memory those calls hold at once. Outside a window it adds
//! one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// The system allocator, with live and peak byte counts while a window
/// is open.
pub struct Counting;

static OPEN: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since the window opened; frees of
/// older blocks can take it below zero.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The highest `LIVE` since the window opened.
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() && OPEN.load(Relaxed) {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() && OPEN.load(Relaxed) {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if OPEN.load(Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() && OPEN.load(Relaxed) {
            shrink(layout.size());
            grow(new_size);
        }
        new
    }
}

/// Runs `f` inside a counting window and returns its result and the
/// peak growth of live heap bytes over the window's start.
pub fn peak_growth<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    OPEN.store(true, Relaxed);
    let out = f();
    OPEN.store(false, Relaxed);
    (out, PEAK.load(Relaxed).max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_the_peak_of_what_the_window_holds_at_once() {
        let ((), peak) = peak_growth(|| {
            let a = black_box(vec![0u8; 1 << 20]);
            drop(a);
            let b = black_box(vec![0u8; 1 << 19]);
            let c = black_box(vec![0u8; 1 << 19]);
            drop((b, c));
        });
        // Other test threads may allocate meanwhile; the peak is at least
        // the 1 MiB this window held at once.
        assert!(peak >= 1 << 20, "{peak}");
    }
}

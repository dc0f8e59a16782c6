//! A counting global allocator: the heap the calling thread holds and its
//! high-water mark, which the `state_space_scaling` sweep reports as each
//! case's `peak_mb`. It sits beside the bin rather than in the `rap_bench`
//! library, which forbids unsafe code; the schema test includes it with
//! `#[path]` and installs it too.
//!
//! The counts are per thread, so a test running beside the sweep does not
//! move them. A reallocation counts its old and new blocks together, as if
//! the block always moved, so the peak is a function of the allocations
//! alone and not of whether the system allocator grew a block in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread allocated minus the bytes it freed (wrapping: a
    /// thread may free what another allocated).
    static HELD: Cell<isize> = const { Cell::new(0) };
    /// `HELD` when the current measurement began.
    static BASE: Cell<isize> = const { Cell::new(0) };
    /// The most `HELD` has risen above `BASE` since then.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's live bytes.
pub struct Counting;

/// Records `bytes` more held by this thread.
fn grow(bytes: usize) {
    // lossless: a layout's size never exceeds `isize::MAX`
    let held = HELD.get().wrapping_add(bytes as isize);
    HELD.set(held);
    PEAK.set(PEAK.get().max(held.wrapping_sub(BASE.get())));
}

/// Records `bytes` fewer held by this thread.
fn shrink(bytes: usize) {
    HELD.set(HELD.get().wrapping_sub(bytes as isize));
}

// SAFETY: every call goes to `System` unchanged, with its own arguments;
// the counters are `const`-initialized thread-locals without destructors,
// so updating them neither allocates nor can fail, and no allocation
// depends on them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, which is `System`, and
        // the caller's contract for `realloc` is `System`'s.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        if !out.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        out
    }
}

/// Runs `f` and returns the most heap the calling thread held during it
/// above what it held when `f` began, in bytes: the sweep's
/// [`HeapProbe`](rap_bench::state_space::HeapProbe). Reads 0 unless
/// [`Counting`] is the global allocator.
pub fn peak_during(f: &mut dyn FnMut()) -> usize {
    BASE.set(HELD.get());
    PEAK.set(0);
    f();
    usize::try_from(PEAK.get()).expect("the peak is never below the start")
}

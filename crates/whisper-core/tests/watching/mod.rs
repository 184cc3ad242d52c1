//! The counting allocator of the hostile-bytes decoder tests: the system
//! allocator, noting per thread the largest single request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest single heap request this thread made since the reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting per thread the largest request.
struct Watching;

fn note(size: usize) {
    // `try_with`: a thread tearing its locals down still allocates.
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every request is passed unchanged to `System`, whose contract is
// the one this impl inherits; the only addition is an update of a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// Runs `f`, returning what it returns and the largest single heap request
/// it made on this thread.
pub fn largest_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|n| n.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

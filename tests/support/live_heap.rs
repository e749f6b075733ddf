//! A counting global allocator for tests that pin live-heap use: each
//! thread's live bytes (`LIVE`), their high-water mark (`HIGH`) and its
//! live blocks (`BLOCKS`).
//! Include it with `#[path = "support/live_heap.rs"] mod live_heap;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Per-thread, so tests running in parallel on the harness's threads
    // never see each other's allocations. Const-initialised and without
    // a destructor: touching them from inside the allocator allocates
    // nothing and stays valid through thread teardown. Signed: a block
    // allocated before a measurement may be freed during it.
    pub static LIVE: Cell<i64> = const { Cell::new(0) };
    pub static HIGH: Cell<i64> = const { Cell::new(0) };
    pub static BLOCKS: Cell<i64> = const { Cell::new(0) };
}

fn blocks(delta: i64) {
    BLOCKS.with(|c| c.set(c.get() + delta));
}

fn grow(bytes: usize) {
    let live = LIVE.with(|c| {
        c.set(c.get() + bytes as i64);
        c.get()
    });
    HIGH.with(|h| h.set(h.get().max(live)));
}

fn shrink(bytes: usize) {
    LIVE.with(|c| c.set(c.get() - bytes as i64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        blocks(1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        blocks(-1);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the moving copy it may be: both blocks live at once.
        grow(new_size);
        shrink(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

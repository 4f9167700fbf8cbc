//! Heap traffic of one compile, counted: the IR keeps an op's operand,
//! result, attribute, region and successor lists and a value's use list
//! inline, so building, cloning and freeing the IR allocates nothing per
//! op. One `compile_source` of the five `benchmarks/*.f90` concatenated
//! made 15,946 heap allocations (`alloc` + `realloc` calls on the calling
//! thread) when every op carried five `Vec`s; it must stay at or below
//! 40 % of that.
//!
//! The counting allocator is this test binary's own: it counts on the
//! thread that allocates, so the harness's other threads do not blur the
//! reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ftn_core::Compiler;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's last frees run after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the count is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

/// What `compile_source` made when every op owned its lists on the heap.
const LIST_PER_VEC_ALLOCATIONS: u64 = 15_946;

fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn one_compile_makes_at_most_forty_percent_of_the_per_vec_allocations() {
    let source = [
        include_str!("../benchmarks/saxpy.f90"),
        include_str!("../benchmarks/sgesl.f90"),
        include_str!("../benchmarks/dotprod.f90"),
        include_str!("../benchmarks/jacobi.f90"),
        include_str!("../benchmarks/heat.f90"),
    ]
    .join("\n");
    let compiler = Compiler::default();
    // The first compile also fills whatever is built once per process.
    compiler
        .compile_source(&source)
        .expect("benchmarks compile");
    let made = allocations_of(|| {
        compiler
            .compile_source(&source)
            .expect("benchmarks compile");
    });
    println!("one compile of the five benchmarks: {made} allocations");
    assert!(
        made * 5 <= LIST_PER_VEC_ALLOCATIONS * 2,
        "{made} allocations, more than 40 % of {LIST_PER_VEC_ALLOCATIONS}"
    );
}

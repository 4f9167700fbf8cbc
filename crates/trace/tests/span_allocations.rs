//! Heap traffic of one recorded span, counted. A span is the [`SpanEvent`]
//! it records, its name a `&'static str`: once the thread's lane is
//! registered and its ring is full, an arg-less span allocates nothing, and
//! a span with two args allocates their vector and their two value strings.
//! Boxing the open span and copying its name into a `String` cost two more
//! allocations per span.
//!
//! The counting allocator is this test binary's own: it counts on the
//! thread that allocates, so the harness's other threads do not blur the
//! reading.
//!
//! [`SpanEvent`]: ftn_trace::SpanEvent

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

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

/// The ring capacity the lanes are warmed to.
const CAPACITY: usize = 16;

/// Spans counted per reading.
const SPANS: u64 = 100;

/// The recorder is process-global: one test at a time toggles it.
fn lock_recorder() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations per span of `record`, on a lane that is registered and whose
/// ring is full, so every push drops the oldest event.
fn per_span(record: impl Fn(u64)) -> u64 {
    ftn_trace::set_capacity(CAPACITY);
    ftn_trace::set_enabled(true);
    for i in 0..2 * CAPACITY as u64 {
        record(i);
    }
    let before = allocations();
    for i in 0..SPANS {
        record(i);
    }
    let made = allocations() - before;
    ftn_trace::set_enabled(false);
    assert_eq!(made % SPANS, 0, "{made} allocations over {SPANS} spans");
    made / SPANS
}

#[test]
fn an_arg_less_span_makes_no_allocation() {
    let _g = lock_recorder();
    let made = per_span(|_| {
        let _span = ftn_trace::span("job.kernel", "worker");
    });
    assert_eq!(made, 0);
}

#[test]
fn a_span_with_two_args_makes_three_allocations() {
    let _g = lock_recorder();
    let made = per_span(|i| {
        let mut span = ftn_trace::span("session.launch", "cluster");
        span.arg("session", i);
        span.arg("kernel", "saxpy_kernel0");
    });
    assert_eq!(made, 3, "the args' vector and their two value strings");
}

//! Heap traffic of one recorded span, and of folding spans into a profile,
//! counted. A span is the [`SpanEvent`] it records: its name is a
//! `&'static str` and its args are values kept inline in the event, so once
//! the thread's lane is registered and its ring is full a span allocates
//! nothing, with no args or with as many as `job.kernel` carries. Recording
//! each arg value as a `String` cost their vector and one allocation per
//! value; boxing the open span and copying its name cost two more.
//!
//! The counting allocator is this test binary's own: it counts on the
//! thread that allocates, so the harness's other threads do not blur the
//! reading.
//!
//! [`SpanEvent`]: ftn_trace::SpanEvent

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard};

use ftn_trace::{ArgValue, Args, LaneSnapshot, Profile, SpanEvent};

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
fn a_span_with_two_args_makes_no_allocation() {
    let _g = lock_recorder();
    let made = per_span(|i| {
        let mut span = ftn_trace::span("session.launch", "cluster");
        span.arg("session", i);
        span.arg("kernel", "saxpy_kernel0");
    });
    assert_eq!(made, 0);
}

/// The production span with the most args: a worker's `job.kernel`, with
/// pool and kernel text, device and job integers and two µs floats.
#[test]
fn a_job_kernel_span_makes_no_allocation() {
    let _g = lock_recorder();
    let pool: Arc<str> = Arc::from("3fa9c2e1");
    let kernel: Arc<str> = Arc::from("jacobi_sweep_kernel0");
    let made = per_span(|i| {
        let mut span = ftn_trace::span_linked("job.kernel", "worker", 7, 9);
        span.arg("pool", &*pool);
        span.arg("device", i as usize % 4);
        span.arg("job", i);
        span.arg("kernel", &*kernel);
        span.arg("queue_wait_us", ArgValue::Fixed1(i as f64 * 0.37));
        span.arg("sim_busy_us", ArgValue::Fixed1(12.5));
    });
    assert_eq!(made, 0);
}

/// Allocations of folding `n` root spans that all share one name.
fn fold_allocations(n: u64) -> u64 {
    let events = (1..=n)
        .map(|i| SpanEvent {
            name: "job.kernel",
            cat: "worker",
            trace_id: 1,
            span_id: i,
            parent_id: 0,
            start_nanos: i * 10,
            dur_nanos: 5,
            args: Args::new(),
        })
        .collect();
    let lanes = [LaneSnapshot {
        lane: 0,
        name: "ftn-device-0".to_string(),
        events,
    }];
    let before = allocations();
    let profile = Profile::from_lanes(&lanes, 0, u64::MAX);
    let made = allocations() - before;
    assert_eq!(profile.roots["job.kernel"].count, n);
    made
}

/// Folding copies a span name into its tree node's key once per node, not
/// once per event: a thousand more events of a name already in the tree
/// cost a few more vector and map doublings, not a thousand keys.
#[test]
fn folding_a_repeated_name_copies_it_once() {
    let extra = fold_allocations(2000) - fold_allocations(1000);
    assert!(extra <= 8, "{extra} allocations for 1000 more events");
}

//! `Runtime::submit` allocates per micro-batch, not per request: a
//! request joins its batch's flat input buffer and shares the batch's
//! result cell, so the only allocations a submitting thread makes are
//! the buffers of each new batch (and the job of a batch it dispatches
//! itself) — not a slot and a bit vector for every request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lbnn::netlist::eval::evaluate;
use lbnn::netlist::random::RandomDag;
use lbnn::netlist::Lanes;
use lbnn::{Backend, Flow, LpuConfig, RequestHandle, Runtime, RuntimeOptions};

thread_local! {
    /// Allocations (and reallocations) the current thread has made. A
    /// `const`-initialised `Cell` of a `Copy` type: no lazy set-up and no
    /// destructor, so the allocator may touch it at any time.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The system allocator, counting per thread: the worker's allocations
/// (and those of other tests' threads) do not show in the submitter's
/// count.
struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; counting touches only
// a thread-local `Cell<u64>` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// 1024 back-to-back submits to one worker running the cycle-accurate
/// (slow) backend: the worker is busy nearly throughout, so the requests
/// accumulate into a handful of micro-batches. The submitting thread
/// pays for those batches' buffers and nothing per request; at the
/// parent commit it paid a response slot and a bit vector — 2048
/// allocations — for the same loop.
#[test]
fn submit_allocates_per_micro_batch_not_per_request() {
    const REQUESTS: usize = 1024;
    let netlist = RandomDag::strict(12, 6, 24).outputs(70).generate(41);
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(4, 4))
        .backend(Backend::Scalar)
        .compile()
        .unwrap();
    let width = netlist.inputs().len();
    let runtime = Runtime::from_engine(
        flow.into_engine().unwrap(),
        // No size trigger within the loop: batches leave when the worker
        // frees up.
        RuntimeOptions::default().workers(1).max_batch(4 * REQUESTS),
    )
    .unwrap();
    let requests: Vec<Vec<bool>> = (0..REQUESTS)
        .map(|r| (0..width).map(|i| (r * 31 + i * 17) % 7 < 3).collect())
        .collect();
    let mut handles: Vec<RequestHandle> = Vec::with_capacity(REQUESTS);

    let before = allocations();
    for bits in &requests {
        handles.push(runtime.submit(bits).unwrap());
    }
    let submitting = allocations() - before;

    let stats = runtime.stats();
    assert!(
        submitting <= REQUESTS as u64 / 4,
        "{submitting} allocations on the submitting thread for {REQUESTS} submits ({stats:?})"
    );

    // And every one of them still gets its own answer.
    let want =
        Lanes::unpack_rows(&evaluate(&netlist, &Lanes::pack_rows(&requests, width)).unwrap());
    for (j, handle) in handles.into_iter().enumerate() {
        assert_eq!(handle.wait().unwrap(), want[j], "request {j}");
    }
}

//! Allocation pins for the serving paths, under a counting allocator.
//!
//! `Runtime::submit` allocates per micro-batch, not per request: a
//! request is gathered into its batch's packed rows and shares the
//! batch's result cell, so the only allocations a submitting thread
//! makes are the growth of the forming batch's two buffers (and the next
//! batch's cell when its request fills one) — no job, and not a slot and
//! a bit vector for every request.
//!
//! `Runtime::stats` allocates nothing: the latency percentiles are read
//! from one fixed histogram in place, not from a copied, sorted sample.
//!
//! A runtime worker allocates per micro-batch, not per output: rows in,
//! rows out, every column in between packed in its reused scratch — the
//! result block it publishes and the next batch's cell, whether it
//! serves one 256-output block or a four-layer model.
//!
//! `infer_batches` allocates for the outputs somebody reads, not for
//! every layer's: a few vectors per batch around the final layer's
//! columns, which a batch of ≤ 1024 lanes builds inline.
//!
//! `Engine::run_batch` allocates per batch, not per output, up to 1024
//! lanes; past that each output column is one heap block.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use lbnn::core::model::LayerSpec;
use lbnn::netlist::eval::evaluate;
use lbnn::netlist::random::RandomDag;
use lbnn::netlist::Lanes;
use lbnn::{
    Backend, CompiledModel, Flow, FlowOptions, LpuConfig, RequestHandle, Runtime, RuntimeOptions,
};

thread_local! {
    /// Allocations (and reallocations) the current thread has made. A
    /// `const`-initialised `Cell` of a `Copy` type: no lazy set-up and no
    /// destructor, so the allocator may touch it at any time.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations by every thread of the process. What a runtime's worker
/// made is this minus the test thread's own — valid while the test
/// holds [`serial`], so no other test's threads are running.
static TOTAL: AtomicU64 = AtomicU64::new(0);

/// Every test in this file runs under this lock.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the others still run alone.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The system allocator, counting per thread: the worker's allocations
/// (and those of other tests' threads) do not show in the submitter's
/// count.
struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    TOTAL.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; counting touches only
// a thread-local `Cell<u64>` and a static atomic and never allocates.
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
/// accumulate into a handful of micro-batches, each taken — and the next
/// one started — by the worker. The submitting thread pays for the
/// growth of those batches' buffers and nothing else: no boxed job per
/// batch, and nothing per request (once, a response slot and a bit
/// vector — 2048 allocations — for the same loop).
#[test]
fn submit_allocates_per_micro_batch_not_per_request() {
    const REQUESTS: usize = 1024;
    /// A batch's two buffers (rows, submit times) each double at most
    /// this often on their way to holding every request.
    const PER_BATCH: u64 = 2 * (REQUESTS.ilog2() as u64 + 1);
    let _serial = serial();
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

    // Every one of them still gets its own answer.
    let want =
        Lanes::unpack_rows(&evaluate(&netlist, &Lanes::pack_rows(&requests, width)).unwrap());
    for (j, handle) in handles.into_iter().enumerate() {
        assert_eq!(handle.wait().unwrap(), want[j], "request {j}");
    }

    // All answered: the batches that formed are the batches that ran.
    let stats = runtime.stats();
    assert!(
        submitting <= (stats.micro_batches * PER_BATCH).min(REQUESTS as u64 / 4),
        "{submitting} allocations on the submitting thread for {REQUESTS} submits ({stats:?})"
    );
}

/// `Runtime::stats` on a runtime that has timed thousands of requests:
/// no allocation, however many it has timed. It cloned and sorted a
/// 4096-sample vector per call before the histogram.
#[test]
fn stats_allocates_nothing() {
    let _serial = serial();
    let netlist = RandomDag::strict(12, 6, 24).outputs(8).generate(43);
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(4, 4))
        .compile()
        .unwrap();
    let runtime = Runtime::from_engine(
        flow.into_engine().unwrap(),
        RuntimeOptions::default().workers(1),
    )
    .unwrap();
    let requests = model_rows(12, 2048);
    for _ in 0..64 {
        round_of(&requests, 8)(&runtime);
    }

    let before = allocations();
    let stats = runtime.stats();
    let spent = allocations() - before;

    assert_eq!(stats.requests, 64 * 2048);
    assert!(stats.queue.p50_us > 0.0 && stats.queue.p50_us <= stats.queue.p99_us);
    assert_eq!(
        spent, 0,
        "{spent} allocations in one stats() call ({stats:?})"
    );
}

/// Outputs of the model's last layer — what a caller of the model reads.
const FINAL_OUTPUTS: usize = 8;
/// What an `infer_batches` batch may allocate: the vectors that hold
/// its final output columns (inline, ≤ 1024 lanes) and the result
/// around those.
const PER_BATCH_SLACK: u64 = 4;
/// What a runtime worker may allocate per micro-batch: the result block
/// and the next batch's cell, with one to spare.
const PER_MICRO_BATCH: u64 = 3;

/// Four layers, 64 outputs on each of the three hidden ones: a pass that
/// built every layer's columns would allocate 200 lane vectors a batch.
fn wide_hidden_model() -> CompiledModel {
    let specs = vec![
        LayerSpec::block("L1", RandomDag::strict(12, 4, 24).outputs(64).generate(1)),
        LayerSpec::block("L2", RandomDag::strict(16, 4, 24).outputs(64).generate(2)),
        LayerSpec::block("L3", RandomDag::strict(64, 4, 24).outputs(64).generate(3)),
        LayerSpec::block(
            "L4",
            RandomDag::strict(70, 4, 24)
                .outputs(FINAL_OUTPUTS)
                .generate(4),
        ),
    ];
    let options = FlowOptions {
        backend: Backend::BitSliced { words: 4 },
        ..FlowOptions::default()
    };
    let model = CompiledModel::compile("wide", specs, &LpuConfig::new(8, 4), &options).unwrap();
    for layer in model.layers() {
        layer.engine().unwrap();
    }
    model
}

fn model_rows(width: usize, rows: usize) -> Vec<Vec<bool>> {
    (0..rows)
        .map(|r| (0..width).map(|i| (r * 13 + i * 7) % 5 < 2).collect())
        .collect()
}

/// `infer_batches` on the calling thread: per batch, a handful of
/// vectors and nothing per final output; per call, the scratch it sizes
/// once. Building and freeing every layer's outputs (and the cloned
/// columns joining them) per batch took over 200 allocations a batch on
/// this model; a heap block per final column took 8 more.
#[test]
fn infer_batches_allocates_for_the_final_outputs_only() {
    const BATCHES: u64 = 32;
    /// One scratch — a few buffers per layer — and the result vector.
    const PER_CALL: u64 = 64;
    let _serial = serial();
    let model = wide_hidden_model();
    let batches: Vec<Vec<Lanes>> = (0..BATCHES as usize)
        .map(|k| Lanes::pack_rows(&model_rows(12, 200 + k), 12))
        .collect();
    model.infer_batches(&batches).unwrap();

    let before = allocations();
    let results = model.infer_batches(&batches).unwrap();
    let spent = allocations() - before;

    assert!(
        spent <= BATCHES * PER_BATCH_SLACK + PER_CALL,
        "{spent} allocations for {BATCHES} batches of {FINAL_OUTPUTS} final outputs"
    );
    assert!(results
        .iter()
        .all(|r| r.layer_outputs.len() == 1 && r.outputs().len() == FINAL_OUTPUTS));
}

/// `Engine::run_batch` on a 256-output block: up to 1024 lanes (one
/// 16-word block, the inline capacity of a `Lanes`) a batch allocates
/// its output vector and a few buffers, whatever the output count —
/// a ragged 16-word batch (1000 lanes) included; at
/// 1025 lanes every column is a heap block of its own. The last case
/// marks where the inline form ends, so a heap block per column below
/// it fails here.
#[test]
fn run_batch_allocates_per_batch_not_per_output() {
    const OUTPUTS: usize = 256;
    /// The output vector (one), with one to spare.
    const PER_BATCH: u64 = 2;
    let _serial = serial();
    let netlist = RandomDag::strict(12, 4, 32).outputs(OUTPUTS).generate(5);
    let mut engine = Flow::builder(&netlist)
        .config(LpuConfig::new(8, 4))
        .backend(Backend::BitSliced { words: 16 })
        .compile()
        .unwrap()
        .into_engine()
        .unwrap();
    for lanes in [64, 1000, 1024, 1025] {
        let batch = Lanes::pack_rows(&model_rows(12, lanes), 12);
        engine.run_batch(&batch).unwrap(); // sizes the engine's scratch
        let before = allocations();
        let result = engine.run_batch(&batch).unwrap();
        let spent = allocations() - before;
        assert_eq!(
            result.outputs,
            evaluate(&netlist, &batch).unwrap(),
            "{lanes} lanes"
        );
        match lanes <= 1024 {
            true => assert!(spent <= PER_BATCH, "{spent} allocations at {lanes} lanes"),
            false => assert!(
                spent >= OUTPUTS as u64,
                "{spent} allocations for {OUTPUTS} heap columns at {lanes} lanes"
            ),
        }
    }
}

/// What the runtime's worker allocated while `round` ran, and over how
/// many micro-batches: everything the process allocated minus what this
/// thread did.
fn worker_allocations(runtime: &Runtime, round: impl Fn(&Runtime)) -> (u64, u64) {
    round(runtime); // sizes the worker's scratch
    let batches_before = runtime.stats().micro_batches;
    let (total, own) = (TOTAL.load(Ordering::Relaxed), allocations());
    round(runtime);
    let worker = (TOTAL.load(Ordering::Relaxed) - total) - (allocations() - own);
    (worker, runtime.stats().micro_batches - batches_before)
}

/// 2048 requests, every response waited and checked for its width.
fn round_of(requests: &[Vec<bool>], outputs: usize) -> impl Fn(&Runtime) + '_ {
    move |runtime| {
        let handles: Vec<RequestHandle> = requests
            .iter()
            .map(|bits| runtime.submit(bits).unwrap())
            .collect();
        for handle in handles {
            assert_eq!(handle.wait().unwrap().len(), outputs);
        }
    }
}

/// A `Runtime::from_model` worker: rows are transposed into the worker's
/// buffer, every boundary and the final columns stay in its per-layer
/// scratch, and a micro-batch allocates the packed rows it publishes and
/// little else — nothing per final output.
#[test]
fn a_model_worker_allocates_for_the_final_outputs_only() {
    let _serial = serial();
    let runtime = Runtime::from_model(
        wide_hidden_model(),
        RuntimeOptions::default().workers(1).max_batch(64),
    )
    .unwrap();
    let requests = model_rows(12, 2048);
    let (worker, batches) = worker_allocations(&runtime, round_of(&requests, FINAL_OUTPUTS));
    assert!(batches >= 2048 / 64);
    assert!(
        worker <= batches * PER_MICRO_BATCH,
        "{worker} worker allocations for {batches} micro-batches"
    );
}

/// The same pin on a block worker (`Runtime::from_engine`) with 256
/// outputs. At the parent commit each micro-batch built 256 lane
/// vectors, the vector holding them and a `Vec<&[bool]>` of its rows.
#[test]
fn a_block_worker_allocates_per_micro_batch_not_per_output() {
    const OUTPUTS: usize = 256;
    let _serial = serial();
    let netlist = RandomDag::strict(12, 4, 32).outputs(OUTPUTS).generate(5);
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(8, 4))
        .backend(Backend::BitSliced { words: 4 })
        .compile()
        .unwrap();
    let runtime = Runtime::from_engine(
        flow.into_engine().unwrap(),
        RuntimeOptions::default().workers(1).max_batch(64),
    )
    .unwrap();
    let requests = model_rows(12, 2048);
    let (worker, batches) = worker_allocations(&runtime, round_of(&requests, OUTPUTS));
    assert!(batches >= 2048 / 64);
    assert!(
        worker <= batches * PER_MICRO_BATCH,
        "{worker} worker allocations for {batches} micro-batches of {OUTPUTS} outputs"
    );
}

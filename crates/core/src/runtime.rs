//! The persistent serving runtime: shared compiled state, resident
//! workers, and dynamic micro-batching to the engine's lane width.
//!
//! The paper's LPU earns its throughput from *word-level parallelism*:
//! every operand word carries `2m` independent Boolean samples, so a
//! compiled block is only fully utilized when samples stream through it
//! packed. The host analogue ([`Backend::BitSliced`]) packs `64 × words`
//! samples per kernel pass (64–1024 lanes) — but real traffic arrives one
//! request at a time. This module closes that gap with the shape real
//! inference servers have, and — like the LPU's input buffer →
//! instruction queues → output buffer — with one path for a request to
//! take:
//!
//! ```text
//!  submit(bits)      ┌─ one state, one lock ────────────────────────┐
//!       │  gather    │ pending  the forming batch, packed rows ─────┼──┐ a worker finds
//!       ├───────────▶│    │ full                                    │  │ `ready` empty
//!       │            │    ▼                                         │  ▼
//!       │            │ ready    full batches, ≤ queue_capacity ─────┼─▶ worker: rows ─transpose▶ columns
//!       │            │ target + version + flush width · spare ·     │    ▶ engine chain, every
//!       ▼            │ idle / polling / shutdown                    │      boundary packed
//!  RequestHandle     └──────────────────────────────────────────────┘    ▶ columns ─transpose▶ rows
//!   .wait() expands ◀── result block: packed rows (row j = request j, ◀────┘
//!   its own row         one per micro-batch)
//! ```
//!
//! * The compiled target is **resident and shared**: a chain of engines
//!   — one for a block, one per layer for a [`CompiledModel`] — that
//!   workers execute through `&self` (an [`Engine`]'s compiled core is
//!   immutable); only the scratch ([`ServeScratch`]) is per-worker.
//! * [`Runtime::submit`] enqueues one *single-sample* request and
//!   returns a [`RequestHandle`]. The **micro-batch is the unit of
//!   completion**: `submit` gathers the request's bits into one more
//!   packed row of the forming batch and hands back a handle that is
//!   just (the batch's shared result cell, a lane number) — no
//!   per-request allocation, lock or wake-up.
//! * A micro-batch is **two bit-matrices and one transposer**
//!   ([`PackedRows`]): the worker transposes the request rows into input
//!   columns, runs the chain with every boundary — the final outputs
//!   included — packed in its scratch, and transposes the final columns
//!   straight into the batch's result block: one allocation per
//!   micro-batch, whatever the output count. It publishes the block in
//!   the cell and wakes all of the batch's waiters with one
//!   notification; each caller expands only its own row into the
//!   `Vec<bool>` it receives, on its own thread. The block is freed when
//!   the last handle of the batch is dropped; the batch's input buffers
//!   go back to the state as the next batch to form.
//! * **One state behind one lock** holds everything between `submit` and
//!   a worker: the forming batch, the queue of full ones, the serving
//!   target with its version, and which workers are looking for work.
//!   The runtime's workers are its only threads and take micro-batches
//!   from that state directly — there is no job queue, no closure and no
//!   second lock between the batcher and the thread that runs the batch.
//! * The dynamic micro-batcher is **work-conserving**: a batch leaves
//!   the forming slot the moment it reaches the serving engine's lane
//!   width (or an explicit [`RuntimeOptions::max_batch`] override), *or*
//!   the moment a worker looks for work and finds nothing older — an
//!   idle worker at once, a busy one when it finishes, taking whatever
//!   accumulated meanwhile. Requests therefore wait only while every
//!   worker is busy, which is exactly when batching costs nothing; there
//!   is no timer, no flusher thread and no waiting policy.
//! * A thread that runs out of work **polls briefly before it parks**
//!   (`POLL_BEFORE_PARK`): a worker at the empty state, a caller at the
//!   result cell of a request an idle worker is about to run. A stream
//!   of one-at-a-time requests then meets threads that are already
//!   awake instead of paying — or, depending on thread placement, not
//!   paying — an idle-CPU wake-up per hand-off.
//! * The submission path is **bounded**: when the queue of full batches
//!   is at [`RuntimeOptions::queue_capacity`], the `submit` that would
//!   fill one more blocks until a worker takes one (backpressure instead
//!   of unbounded memory growth).
//! * The runtime measures what serving layers must report: submit→
//!   response latency percentiles (p50/p95/p99) and peak queue depth
//!   ([`QueueStats`]), surfaced through [`Runtime::stats`]. Latency is
//!   *sampled*: one request in `STAMP_EVERY` (31, by submission index,
//!   the first always) carries a submit time, so the submitting thread
//!   reads the clock once per 31 requests, and the worker counts the
//!   stamped spans of a batch in a fixed log-bucket histogram (within
//!   1 %) under the lock it takes once per batch. `stats()` walks that
//!   array's cumulative counts: no sort, no allocation.
//! * The served target is **hot-swappable**: [`Runtime::swap_engine`] /
//!   [`Runtime::swap_model`] atomically replace the compiled core
//!   (version `vN` → `vN+1`) under live traffic: in one critical section
//!   the forming batch leaves under the old target and the new one is
//!   installed. A micro-batch executes wholly on the target it left the
//!   forming slot under, so every response is bit-identical to either
//!   the old or the new version — never a torn mix — and no accepted
//!   request is dropped. [`RuntimeStats`] reports the serving version,
//!   the swap count, and completions split per version.
//!
//! Outputs are bit-identical to running each request alone through the
//! scalar reference engine — pinned by property tests — because packing
//! is pure lane bookkeeping: request `j` of a micro-batch occupies lane
//! `j` of every input and output word.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lbnn_netlist::PackedRows;

use crate::engine::{packed_columns, Backend, Engine};
use crate::error::CoreError;
use crate::model::{run_chain, Built, CompiledModel, ModelScratch};
use crate::throughput::QueueStats;

/// Per-worker mutable state: the buffer a micro-batch's rows are
/// transposed into plus the per-link scratches of the served chain. Each
/// worker thread owns exactly one and reuses it for every micro-batch it
/// executes.
#[derive(Debug, Default)]
pub struct ServeScratch {
    /// A micro-batch's input columns, transposed from its request rows
    /// in [`Lanes::pack_rows_into`](lbnn_netlist::Lanes::pack_rows_into)
    /// layout.
    pub(crate) packed: Vec<u64>,
    /// Per-link scratches of the served chain (frames and the packed
    /// boundaries, the final outputs included).
    pub(crate) model: ModelScratch,
}

/// How long a thread that has just run out of work keeps looking for
/// more — a worker at the runtime's state, a caller at the result cell
/// of a request an idle worker is about to run — before it parks on its
/// condvar. It yields the CPU between looks, so it never holds up a
/// runnable thread.
///
/// Parking is what makes a served request slow *and* erratic: waking a
/// parked thread costs 20–60 µs when its CPU has gone idle and next to
/// nothing when it has not, and which of the two a stream of
/// one-at-a-time requests gets is up to where the scheduler happened to
/// put the threads (the same binary ran at 85 µs or 200 µs per request
/// from one run to the next). The next request of such a stream arrives
/// 50–70 µs after the last response, well inside this window, so both
/// hand-offs — caller → worker, worker → caller — meet a thread that is
/// already awake. Burst traffic never gets here (its workers find a
/// batch waiting, its callers' requests wait in the forming batch), and
/// an idle runtime stops polling after one window.
const POLL_BEFORE_PARK: Duration = Duration::from_micros(200);

/// Locks one of the runtime's mutexes, taking the guard back from a
/// poisoned one. The invariant that makes this sound: nothing that can
/// panic runs under a runtime lock. The critical sections move buffers
/// and bump counters; kernels run outside them, under `catch_unwind`. So
/// whatever thread died holding a guard, the state behind it is whole,
/// and serving goes on.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parks on `condvar` until notified; poison-proof like [`lock`].
fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Requests and handles
// ---------------------------------------------------------------------------

/// The completion cell of one micro-batch, shared by the worker that
/// runs the batch and every [`RequestHandle`] accepted into it; the last
/// of them to go frees it.
struct BatchCell {
    /// Every request's output row, bit-packed (row `j` belongs to the
    /// `j`-th request accepted into the batch), or the error all of them
    /// observe. Written once, by the worker; read lock-free.
    result: OnceLock<Result<PackedRows, CoreError>>,
    /// For parking only: a waiter that finds `result` empty sleeps on
    /// `ready` under this lock.
    park: Mutex<()>,
    ready: Condvar,
}

impl BatchCell {
    fn new() -> BatchCell {
        BatchCell {
            result: OnceLock::new(),
            park: Mutex::new(()),
            ready: Condvar::new(),
        }
    }

    /// Resolves every request of the batch at once: one store, one
    /// wake-up.
    fn publish(&self, result: Result<PackedRows, CoreError>) {
        let first = self.result.set(result).is_ok();
        debug_assert!(first, "a micro-batch completes once");
        // Taking the lock orders the wake-up after a waiter's
        // check-then-wait.
        drop(lock(&self.park));
        self.ready.notify_all();
    }

    /// Blocks until the batch has been published.
    fn wait(&self) -> &Result<PackedRows, CoreError> {
        if let Some(result) = self.result.get() {
            return result;
        }
        let mut guard = lock(&self.park);
        loop {
            if let Some(result) = self.result.get() {
                return result;
            }
            guard = wait(&self.ready, guard);
        }
    }
}

/// The caller's side of one submitted request.
///
/// Resolves to the request's primary-output bits (in netlist output
/// order) once its micro-batch executes; all requests of a micro-batch
/// resolve together, and [`RequestHandle::id`] is the global submission
/// index.
///
/// A handle shares its micro-batch's result block with the batch's other
/// handles, so a live handle pins that block —
/// `flush_target × ceil(outputs / 64) × 8` bytes at most — until it is
/// waited or dropped, even after every other request of the batch has
/// been answered.
#[must_use = "a dropped handle discards the request's response"]
pub struct RequestHandle {
    cell: Arc<BatchCell>,
    /// This request's row of the batch's result block.
    lane: usize,
    id: u64,
    /// A worker was looking for work when the request was accepted, so
    /// its response is one kernel pass away: [`RequestHandle::wait`]
    /// polls for it before parking.
    poll: bool,
}

impl fmt::Debug for RequestHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RequestHandle")
            .field("id", &self.id)
            .finish()
    }
}

impl RequestHandle {
    /// The global submission index of this request (0-based, in
    /// [`Runtime::submit`] call order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request's micro-batch has executed and returns
    /// the request's output bits, one per primary output.
    ///
    /// # Errors
    ///
    /// Returns the execution error of the micro-batch that carried this
    /// request (every request of a failed batch receives the error).
    pub fn wait(self) -> Result<Vec<bool>, CoreError> {
        // The clock is read only when there is something to wait for: a
        // response already published costs no deadline.
        if self.poll && self.cell.result.get().is_none() {
            let give_up = Instant::now() + POLL_BEFORE_PARK;
            while self.cell.result.get().is_none() && Instant::now() < give_up {
                std::thread::yield_now();
            }
        }
        self.own_row(self.cell.wait())
    }

    /// Non-blocking poll: the response if the request has resolved. The
    /// batch's result block is only read, so a later
    /// [`RequestHandle::wait`] returns the same bits.
    pub fn try_wait(&self) -> Option<Result<Vec<bool>, CoreError>> {
        self.cell.result.get().map(|result| self.own_row(result))
    }

    /// This request's share of its batch's outcome: its own row,
    /// expanded here — on the caller's thread — or the batch's error.
    fn own_row(&self, result: &Result<PackedRows, CoreError>) -> Result<Vec<bool>, CoreError> {
        match result {
            Ok(rows) => Ok(rows.row(self.lane)),
            Err(e) => Err(e.clone()),
        }
    }
}

/// One micro-batch from the first request accepted into it to its
/// execution: `submit` appends to it under the state lock, a worker
/// consumes it.
struct Batch {
    /// Request `j`'s input bits, gathered into row `j` (one bit per
    /// primary input).
    rows: PackedRows,
    /// The submit times of the batch's stamped requests
    /// ([`STAMP_EVERY`]), in lane order: one latency sample each.
    stamps: Vec<Instant>,
    cell: Arc<BatchCell>,
}

impl Batch {
    /// An empty batch of `width`-bit requests with room for `expect` of
    /// them.
    fn new(width: usize, expect: usize) -> Batch {
        Batch {
            rows: PackedRows::with_capacity(width, expect),
            stamps: Vec::with_capacity(expect.div_ceil(STAMP_EVERY as usize)),
            cell: Arc::new(BatchCell::new()),
        }
    }

    /// This batch, executed and published, as the next one to form: its
    /// two buffers, emptied, and a result cell of its own. Under load
    /// the same few buffers go round between the state and the workers
    /// ([`State::spare`]). Allocated by the submitter and freed by
    /// the worker, batch after batch, they cost the submitting thread a
    /// fifth of its throughput at ~20-request batches
    /// (`runtime_saturated`).
    fn recycled(mut self) -> Batch {
        self.rows.clear();
        self.stamps.clear();
        self.cell = Arc::new(BatchCell::new());
        self
    }

    /// Appends one request, with its submit time if it is stamped, and
    /// returns its lane.
    fn push(&mut self, bits: &[bool], stamp: Option<Instant>) -> usize {
        let lane = self.len();
        self.rows.push_row(bits);
        self.stamps.extend(stamp);
        lane
    }

    /// Requests accepted so far.
    fn len(&self) -> usize {
        self.rows.rows()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Serving target
// ---------------------------------------------------------------------------

/// What the runtime serves: a chain of engines, each link's outputs
/// feeding the next link's inputs ([`run_chain`]). One compiled block is
/// a chain of one; a whole model is its layers' engines in order.
#[derive(Clone)]
struct Target {
    /// Never empty: an [`Engine`], or the layers of a [`CompiledModel`]
    /// (which has at least one).
    engines: Arc<[Engine]>,
    /// Runs on the worker before every micro-batch, with the batch's
    /// request rows: it may panic (the failure path of [`run_batch`],
    /// which no well-formed engine can be made to take) or hold the
    /// worker until another batch has run.
    #[cfg(test)]
    hook: Option<tests::Hook>,
}

impl Target {
    fn new(engines: Vec<Engine>) -> Target {
        Target {
            engines: engines.into(),
            #[cfg(test)]
            hook: None,
        }
    }

    fn num_inputs(&self) -> usize {
        self.engines[0].program().num_inputs
    }

    /// The backend micro-batches enter the chain on; its lane width is
    /// the micro-batcher's default flush width ([`Backend::lanes`]).
    fn backend(&self) -> Backend {
        self.engines[0].backend()
    }

    /// Executes one micro-batch, packed end to end: the request rows
    /// are transposed into the worker's reusable column buffer and
    /// streamed into the first kernel frame, every boundary — the final
    /// outputs included — stays packed in the worker's per-link scratch,
    /// and the final columns are transposed straight into the batch's
    /// result block: the one allocation a micro-batch makes, whatever
    /// the output count. `rows` is as wide as the chain's first link
    /// ([`Runtime::swap_engine`] keeps it so).
    fn run(&self, scratch: &mut ServeScratch, rows: &PackedRows) -> Result<PackedRows, CoreError> {
        #[cfg(test)]
        if let Some(hook) = &self.hook {
            hook(rows);
        }
        let lanes = rows.rows();
        rows.columns_into(&mut scratch.packed);
        let columns = packed_columns(&scratch.packed, rows.width(), lanes);
        run_chain(
            &self.engines,
            &mut scratch.model,
            lanes,
            columns,
            Built::Nothing,
        )?;
        let last = self.engines.last().expect("a chain has a link");
        let (kept, outputs) = (scratch.model.final_columns(), last.program().outputs.len());
        Ok(PackedRows::from_packed_columns(kept, outputs, lanes))
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// Configuration of a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Persistent worker threads. `0` means one per available CPU.
    pub workers: usize,
    /// Bound of the queue of full micro-batches; at the bound, the
    /// [`Runtime::submit`] that would fill one more blocks until a
    /// worker takes one (backpressure).
    pub queue_capacity: usize,
    /// Lanes per micro-batch — the size flush trigger. The default `0`
    /// means "the serving engine's lane width"
    /// ([`crate::Engine::lane_width`]): one full bit-sliced frame
    /// (64–1024 lanes depending on the backend), the host analogue of
    /// the hardware's `2m`-sample operand. Any positive value overrides
    /// the width explicitly.
    pub max_batch: usize,
    /// Admission limit for [`Runtime::try_submit`]: the in-flight
    /// request count at which new requests are shed instead of queued.
    /// The default `0` means "auto": `flush_target × (queue_capacity +
    /// workers + 1)` — enough to fill every queued batch slot, every
    /// worker, and the currently forming micro-batch; an auto limit past
    /// `usize::MAX` is a [`CoreError::BadConfig`] at construction.
    /// [`Runtime::submit`] ignores this and blocks (backpressure);
    /// `try_submit` is the load-shedding entry point network servers use.
    pub admission_limit: usize,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            workers: 0,
            queue_capacity: 32,
            max_batch: 0,
            admission_limit: 0,
        }
    }
}

impl RuntimeOptions {
    /// Sets the worker count (builder style). `0` = one per CPU.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the micro-batch size trigger (builder style). `0` = the
    /// serving engine's lane width (the default).
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the bound of the queue of full micro-batches (builder style).
    #[must_use]
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Sets the [`Runtime::try_submit`] admission limit (builder style).
    /// `0` = auto (see [`RuntimeOptions::admission_limit`]).
    #[must_use]
    pub fn admission_limit(mut self, admission_limit: usize) -> Self {
        self.admission_limit = admission_limit;
        self
    }
}

/// Serving statistics of a [`Runtime`] (snapshot; see
/// [`Runtime::stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeStats {
    /// Requests submitted.
    pub requests: u64,
    /// Micro-batches executed.
    pub micro_batches: u64,
    /// Micro-batches that left by the size trigger (batch filled).
    pub full_flushes: u64,
    /// Micro-batches that left before filling: a worker looking for work
    /// took what had accumulated (at once when idle, else on finishing
    /// its batch, or at shutdown), or an explicit [`Runtime::flush`] or
    /// swap closed it. (The name predates the work-conserving batcher;
    /// there is no deadline.)
    pub deadline_flushes: u64,
    /// Mean lanes per executed micro-batch (packing efficiency; 64 means
    /// every bit-sliced word was full).
    pub mean_lanes_per_batch: f64,
    /// Requests rejected at admission by [`Runtime::try_submit`]
    /// because the runtime was saturated (load shedding). Shed requests
    /// are **not** counted in [`RuntimeStats::requests`].
    pub shed: u64,
    /// Requests currently in flight (submitted but not yet resolved).
    pub in_flight: usize,
    /// The serving version new submissions run on: 0 at construction,
    /// incremented by every [`Runtime::swap_engine`] /
    /// [`Runtime::swap_model`].
    pub version: u64,
    /// Hot swaps performed over the runtime's lifetime.
    pub swaps: u64,
    /// Requests completed by micro-batches that ran the current serving
    /// version. `completed_current + completed_prior` always equals the
    /// total completion count.
    pub completed_current: u64,
    /// Requests completed on superseded serving versions.
    pub completed_prior: u64,
    /// Queue depth and submit→response latency percentiles, over the
    /// stamped requests (one in 31, the first always), each within 1 %.
    pub queue: QueueStats,
    /// Wall-clock span from first submit to last response, in
    /// microseconds.
    pub elapsed_us: f64,
    /// Completed requests per second over that span.
    pub requests_per_sec: f64,
}

/// Everything between [`Runtime::submit`] and the worker that runs the
/// request, behind the one lock both take.
struct Shared {
    state: Mutex<State>,
    /// A worker with nothing to run parks here.
    work: Condvar,
    /// A submitter (or a flush) parks here while `ready` is at `capacity`.
    not_full: Condvar,
    /// [`Runtime::drain`] parks here until nothing is in flight.
    drained: Condvar,
    /// [`RuntimeOptions::queue_capacity`]: the bound on [`State::ready`].
    capacity: usize,
    stats: StatsShared,
}

struct State {
    /// The forming micro-batch: requests accepted that no worker has
    /// looked at yet. It leaves when it is full (to `ready`) or when a
    /// worker finds `ready` empty (straight to that worker).
    pending: Batch,
    /// Batches that left `pending` full — or by [`Runtime::flush`] or a
    /// swap — in submission order, at most `capacity` of them.
    ready: VecDeque<Ready>,
    /// The batch a worker ran last, handed back for its buffers: the
    /// next [`State::take_pending`] recycles it.
    spare: Option<Batch>,
    next_id: u64,
    /// What a batch leaving `pending` now is tagged with.
    target: Target,
    /// Serving version: 0 at construction, +1 per swap.
    version: u64,
    /// Resolved size flush trigger for `target` (re-resolved on swap
    /// when [`RuntimeOptions::max_batch`] is auto).
    flush_target: usize,
    /// Workers looking for work: parked on [`Shared::work`], or the one
    /// that is `polling`.
    idle: usize,
    /// A worker that ran out of work is polling the state (see
    /// [`POLL_BEFORE_PARK`]) and will find a lone new batch by itself.
    /// At most one worker polls at a time.
    polling: bool,
    /// Workers leave once `ready` and `pending` are both empty.
    shutdown: bool,
    /// Workers the tests have told to act busy.
    #[cfg(test)]
    seats: tests::Seats,
}

/// A micro-batch that has left [`State::pending`], with the target that
/// was serving at that moment: it executes that exact target even if a
/// swap lands before a worker gets to it.
struct Ready {
    batch: Batch,
    target: Target,
    version: u64,
}

impl State {
    /// Takes everything pending as one micro-batch under the serving
    /// target and starts the next one (with its own result cell): the
    /// spare recycled, or a new one with room to grow as large as this
    /// one did.
    fn take_pending(&mut self) -> Ready {
        let next = match self.spare.take() {
            Some(spent) => spent.recycled(),
            None => Batch::new(self.pending.rows.width(), self.pending.len()),
        };
        Ready {
            batch: std::mem::replace(&mut self.pending, next),
            target: self.target.clone(),
            version: self.version,
        }
    }

    /// Micro-batches a worker could start now.
    fn work(&self) -> usize {
        self.ready.len() + usize::from(!self.pending.is_empty())
    }
}

impl Shared {
    /// Moves the forming batch, if there is one, to `ready` — after
    /// waiting for room there — and returns the lock, still held since
    /// the move: a swap installs its target in the same critical section.
    fn flush<'a>(&'a self, mut st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        while !st.pending.is_empty() && st.ready.len() >= self.capacity {
            st = wait(&self.not_full, st);
        }
        if !st.pending.is_empty() {
            self.stats.deadline_flushes.fetch_add(1, Ordering::Relaxed);
            let flushed = st.take_pending();
            st.ready.push_back(flushed);
        }
        st
    }
}

/// One request in this many carries a submit time — the request whose
/// submission index ([`RequestHandle::id`]) is a multiple of it, so the
/// first always does — and only those are timed. A clock read costs
/// about as much as the rest of a request's bookkeeping under the state
/// lock, and a saturated runtime is bound by its submitting thread. The
/// stride is odd, hence coprime with every lane width: over
/// `STAMP_EVERY` full batches every lane position is stamped equally
/// often, so the sample is not biased towards the first requests of a
/// batch (the ones that waited longest for it to fill).
const STAMP_EVERY: u64 = 31;

/// Sub-buckets per power of two of [`LatencyHistogram`]: its buckets
/// are `1/64` of their value wide, so a bucket's midpoint is within
/// `1/128` (0.8 %) of every latency it counts.
const SUB_BUCKET_BITS: u32 = 6;
/// Latencies from `2^36` ns (about 69 s) up share the top bucket.
const TOP_BITS: u32 = 36;
/// Buckets of [`LatencyHistogram`]: nanoseconds below `2 × 64` one
/// each, then 64 per power of two up to [`TOP_BITS`].
const LATENCY_BUCKETS: usize = ((TOP_BITS - SUB_BUCKET_BITS + 1) << SUB_BUCKET_BITS) as usize;

/// Submit→response latencies, counted in fixed log-spaced buckets: a
/// sample is one array increment, and a percentile is one walk of the
/// cumulative counts — no sort and no allocation, whatever the traffic
/// served.
struct LatencyHistogram {
    /// Samples per bucket ([`latency_bucket`]).
    counts: [u64; LATENCY_BUCKETS],
    /// Samples recorded: the sum of `counts`.
    recorded: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; LATENCY_BUCKETS],
            recorded: 0,
        }
    }
}

/// The bucket counting a latency of `ns` nanoseconds: below `2 × 64` the
/// value itself; above, its power of two and the 6 bits below the
/// leading one.
fn latency_bucket(ns: u64) -> usize {
    let ns = ns.min((1 << TOP_BITS) - 1);
    let sub = 1 << SUB_BUCKET_BITS;
    if ns < sub {
        return ns as usize;
    }
    let shift = ns.ilog2() - SUB_BUCKET_BITS;
    ((u64::from(shift) << SUB_BUCKET_BITS) + (ns >> shift)) as usize
}

/// The latency a bucket reports, in microseconds: the midpoint of the
/// nanoseconds it counts.
fn bucket_us(bucket: usize) -> f64 {
    let sub = 1 << SUB_BUCKET_BITS;
    if bucket < sub {
        return bucket as f64 / 1e3;
    }
    let shift = (bucket >> SUB_BUCKET_BITS) - 1;
    let low = ((bucket & (sub - 1)) + sub) << shift;
    (low as f64 + ((1u64 << shift) - 1) as f64 / 2.0) / 1e3
}

impl LatencyHistogram {
    fn record(&mut self, waited: Duration) {
        let ns = u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX);
        self.counts[latency_bucket(ns)] += 1;
        self.recorded += 1;
    }

    /// Nearest-rank percentiles `qs` (ascending fractions) in
    /// microseconds, in one walk of the cumulative counts; all 0 when
    /// nothing has been recorded. The walk adds up 64 buckets at a time
    /// and steps bucket by bucket only through the 64 a rank falls in.
    fn percentiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        let mut found = [0.0; N];
        if self.recorded == 0 {
            return found;
        }
        let ranks = qs.map(|q| ((q * self.recorded as f64).ceil() as u64).clamp(1, self.recorded));
        let (mut next, mut seen) = (0, 0);
        let sub = 1 << SUB_BUCKET_BITS;
        for (run, counts) in self.counts.chunks_exact(sub).enumerate() {
            if next == N {
                break;
            }
            let total: u64 = counts.iter().sum();
            if seen + total < ranks[next] {
                seen += total;
                continue;
            }
            for (bucket, &count) in (run * sub..).zip(counts) {
                seen += count;
                while next < N && seen >= ranks[next] {
                    found[next] = bucket_us(bucket);
                    next += 1;
                }
            }
        }
        found
    }
}

/// What completed micro-batches add up to; a worker takes this lock once
/// per batch.
#[derive(Default)]
struct Completions {
    /// The stamped requests' submit→response spans.
    latencies: LatencyHistogram,
    /// The earliest stamp — the first request's, once its batch has run:
    /// the start of the span [`RuntimeStats::elapsed_us`] reports.
    first_submit: Option<Instant>,
    /// The latest response: the end of that span.
    last_response: Option<Instant>,
    /// The serving version (a swap writes it here while it still holds
    /// the state lock).
    version: u64,
    /// Requests completed by batches that left under `version`; rolled
    /// into `prior` by a swap.
    current: u64,
    /// Requests completed by batches of superseded versions.
    prior: u64,
}

#[derive(Default)]
struct StatsShared {
    completions: Mutex<Completions>,
    micro_batches: AtomicU64,
    full_flushes: AtomicU64,
    deadline_flushes: AtomicU64,
    shed: AtomicU64,
    lanes_served: AtomicU64,
    in_flight: AtomicUsize,
    peak_in_flight: AtomicUsize,
}

impl StatsShared {
    fn note_submit(&self) {
        let depth = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        // Once the peak has settled this is a load of a line nobody
        // writes, not a read-modify-write per request.
        if depth > self.peak_in_flight.load(Ordering::Relaxed) {
            self.peak_in_flight.fetch_max(depth, Ordering::Relaxed);
        }
    }

    /// Accounts one executed micro-batch of `count` requests that left
    /// under `version`, answered at `now`; `stamps` are the submit times
    /// of its stamped requests, in submission order.
    fn note_completion(&self, stamps: &[Instant], count: usize, version: u64, now: Instant) {
        let mut done = lock(&self.completions);
        for &at in stamps {
            done.latencies.record(now.duration_since(at));
        }
        if let Some(&first) = stamps.first() {
            done.first_submit = Some(done.first_submit.map_or(first, |at| at.min(first)));
        }
        done.last_response = Some(done.last_response.map_or(now, |at| at.max(now)));
        if version == done.version {
            done.current += count as u64;
        } else {
            done.prior += count as u64;
        }
    }
}

/// A persistent serving runtime over a resident compiled block
/// ([`Engine`]) or whole model ([`CompiledModel`]).
///
/// Construction spawns the workers — the runtime's only threads; from
/// then on [`Runtime::submit`] is the only per-request cost. Dropping
/// the runtime lets the workers run every batch still queued or forming
/// and joins them — every issued [`RequestHandle`] resolves.
///
/// ```
/// use lbnn_core::runtime::{Runtime, RuntimeOptions};
/// use lbnn_core::{Flow, LpuConfig};
/// use lbnn_netlist::random::RandomDag;
///
/// let netlist = RandomDag::strict(6, 3, 4).outputs(2).generate(1);
/// let flow = Flow::builder(&netlist).config(LpuConfig::new(4, 4)).compile()?;
/// let runtime = Runtime::from_engine(flow.into_engine()?, RuntimeOptions::default())?;
/// let handles: Vec<_> = (0..100)
///     .map(|i| runtime.submit(&[i % 2 == 0; 6]))
///     .collect::<Result<_, _>>()?;
/// for handle in handles {
///     assert_eq!(handle.wait()?.len(), 2);
/// }
/// assert_eq!(runtime.stats().requests, 100);
/// # Ok::<(), lbnn_core::CoreError>(())
/// ```
pub struct Runtime {
    options: RuntimeOptions,
    /// Resolved admission limit for [`Runtime::try_submit`]:
    /// `options.admission_limit`, or the auto formula when 0. Fixed at
    /// construction — a hot swap does not renegotiate admission.
    admission_limit: usize,
    /// Primary-input bits per request. Fixed at construction: a swap
    /// that would change it is rejected.
    num_inputs: usize,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("backend", &self.backend())
            .field("version", &self.version())
            .field("workers", &self.workers())
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

impl RuntimeOptions {
    /// The size flush trigger for `target`: `max_batch`, or when that is
    /// 0 (auto) exactly one bit-sliced frame of the target's backend
    /// (64–1024 lanes).
    fn flush_target(&self, target: &Target) -> usize {
        match self.max_batch {
            0 => target.backend().lanes(),
            explicit => explicit,
        }
    }
}

impl Runtime {
    /// Builds a runtime serving one compiled block. The engine's
    /// immutable core is shared across the workers; its own scratch is
    /// unused.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for unusable options or a
    /// zero-input program (single-sample requests need at least one
    /// input bit).
    pub fn from_engine(engine: Engine, options: RuntimeOptions) -> Result<Runtime, CoreError> {
        Runtime::build(Target::new(vec![engine]), options)
    }

    /// Builds a runtime serving a whole compiled model: each request
    /// flows through every layer's engine (with
    /// [`crate::model::chain_inputs`] adaptation between layers,
    /// resolved on packed words in the worker's per-layer scratch), and
    /// the response carries the final layer's outputs. The engines are
    /// made resident here; the rest of the model is dropped.
    ///
    /// # Errors
    ///
    /// See [`Runtime::from_engine`] and [`crate::Flow::engine`].
    pub fn from_model(model: CompiledModel, options: RuntimeOptions) -> Result<Runtime, CoreError> {
        Runtime::build(Target::new(model.into_engines()?), options)
    }

    fn build(target: Target, options: RuntimeOptions) -> Result<Runtime, CoreError> {
        let flush_target = options.flush_target(&target);
        if options.queue_capacity == 0 {
            return Err(CoreError::BadConfig {
                reason: "runtime queue_capacity must be at least 1".to_string(),
            });
        }
        let num_inputs = target.num_inputs();
        if num_inputs == 0 {
            return Err(CoreError::BadConfig {
                reason: "the serving runtime needs a program with at least one primary input"
                    .to_string(),
            });
        }
        let workers = if options.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            options.workers
        };
        // Auto admission limit: every queued batch slot and every worker
        // full of lane-width batches, plus the currently forming batch.
        let admission_limit = match options.admission_limit {
            0 => (options.queue_capacity.checked_add(workers))
                .and_then(|slots| slots.checked_add(1))
                .and_then(|slots| slots.checked_mul(flush_target))
                .ok_or_else(|| CoreError::BadConfig {
                    reason: format!(
                        "the auto admission limit, flush target {flush_target} × \
                         (queue_capacity {} + workers {workers} + 1), overflows; \
                         lower them or set admission_limit",
                        options.queue_capacity
                    ),
                })?,
            explicit => explicit,
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: Batch::new(num_inputs, 1),
                ready: VecDeque::new(),
                spare: None,
                next_id: 0,
                target,
                version: 0,
                flush_target,
                idle: 0,
                polling: false,
                shutdown: false,
                #[cfg(test)]
                seats: tests::Seats::default(),
            }),
            work: Condvar::new(),
            not_full: Condvar::new(),
            drained: Condvar::new(),
            capacity: options.queue_capacity,
            stats: StatsShared::default(),
        });
        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || serve(&shared))
            })
            .collect();
        Ok(Runtime {
            options,
            admission_limit,
            num_inputs,
            shared,
            workers,
        })
    }

    /// The worker threads serving this runtime.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The execution backend micro-batches run on (the *current*
    /// serving version's backend).
    pub fn backend(&self) -> Backend {
        lock(&self.shared.state).target.backend()
    }

    /// The resolved size flush trigger: [`RuntimeOptions::max_batch`] if
    /// set, otherwise the current serving engine's lane width (one full
    /// bit-sliced frame; re-resolved when a hot swap changes the
    /// backend).
    pub fn flush_target(&self) -> usize {
        lock(&self.shared.state).flush_target
    }

    /// Primary-input bits each request must carry. Stable across hot
    /// swaps: [`Runtime::swap_engine`] rejects replacements that change
    /// the input interface.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// The serving version new submissions execute: 0 at construction,
    /// incremented by every successful hot swap.
    pub fn version(&self) -> u64 {
        lock(&self.shared.state).version
    }

    /// Hot-swaps the served block for `engine`, atomically moving the
    /// runtime from version `vN` to `vN+1` **without stopping traffic**:
    ///
    /// * The forming partial micro-batch leaves under the old core
    ///   first, and micro-batches that left before it keep the old
    ///   `Arc`'d core they are tagged with — every response is
    ///   bit-identical to *some* single version, never a torn mix.
    /// * Submissions that land after the swap execute the new core.
    /// * No accepted request is dropped; per-version completion counters
    ///   roll so [`RuntimeStats::completed_current`] restarts for the
    ///   new version.
    ///
    /// Returns the new serving version.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] when the replacement's
    /// primary-input count differs from the serving target's — a hot
    /// swap must preserve the request interface (that is what
    /// [`Engine::patch_cells`] and
    /// [`crate::Flow::apply_delta`] guarantee by construction).
    pub fn swap_engine(&self, engine: Engine) -> Result<u64, CoreError> {
        self.swap_target(Target::new(vec![engine]))
    }

    /// Hot-swaps the served model — [`Runtime::swap_engine`] for
    /// whole-model serving, with the same semantics and interface check.
    ///
    /// # Errors
    ///
    /// See [`Runtime::swap_engine`].
    pub fn swap_model(&self, model: CompiledModel) -> Result<u64, CoreError> {
        self.swap_target(Target::new(model.into_engines()?))
    }

    fn swap_target(&self, target: Target) -> Result<u64, CoreError> {
        let want = self.num_inputs;
        let got = target.num_inputs();
        if got != want {
            return Err(CoreError::BadConfig {
                reason: format!(
                    "hot swap would change the primary-input count from {want} to {got}; \
                     a replacement must preserve the serving interface"
                ),
            });
        }
        let shared = &*self.shared;
        // One critical section: the forming batch leaves under the
        // outgoing target — a request accepted before the swap never
        // runs a core newer than any that existed then — and the new
        // target is what every later batch is tagged with.
        let mut st = shared.flush(lock(&shared.state));
        st.flush_target = self.options.flush_target(&target);
        let outgoing = std::mem::replace(&mut st.target, target);
        st.version += 1;
        let version = st.version;
        {
            // Roll the per-version counters: everything completed so far
            // now belongs to a superseded version.
            let mut done = lock(&shared.stats.completions);
            done.prior += std::mem::take(&mut done.current);
            done.version = version;
        }
        drop(st);
        // Outside the lock: the last reference frees whole engines.
        drop(outgoing);
        Ok(version)
    }

    /// Submits one single-sample request (`bits[i]` = the value of
    /// primary input `i`) and returns a handle resolving to its outputs.
    ///
    /// The request joins the forming micro-batch, which leaves for the
    /// queue of full batches if it is now full
    /// ([`Runtime::flush_target`]: the engine's lane width, or an
    /// explicit [`RuntimeOptions::max_batch`]); otherwise the next worker
    /// to look for work takes it as it is — at once if one is idle. When
    /// that queue is at [`RuntimeOptions::queue_capacity`], the request
    /// that would fill one more batch blocks here until a worker catches
    /// up (backpressure).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputArity`] when `bits` does not match the
    /// program's primary-input count.
    pub fn submit(&self, bits: &[bool]) -> Result<RequestHandle, CoreError> {
        if bits.len() != self.num_inputs {
            return Err(CoreError::InputArity {
                expected: self.num_inputs,
                got: bits.len(),
            });
        }
        let shared = &*self.shared;
        shared.stats.note_submit();
        let mut st = lock(&shared.state);
        while st.pending.len() + 1 >= st.flush_target && st.ready.len() >= shared.capacity {
            st = wait(&shared.not_full, st);
        }
        let id = st.next_id;
        st.next_id += 1;
        let stamp = id.is_multiple_of(STAMP_EVERY).then(Instant::now);
        let lane = st.pending.push(bits, stamp);
        let handle = RequestHandle {
            cell: Arc::clone(&st.pending.cell),
            lane,
            id,
            poll: st.idle > 0,
        };
        if st.pending.len() >= st.flush_target {
            shared.stats.full_flushes.fetch_add(1, Ordering::Relaxed);
            let full = st.take_pending();
            st.ready.push_back(full);
        }
        // Only a request that started a batch made new work, and the
        // polling worker finds one batch by itself: wake a parked worker
        // when there is one and more work than that.
        let pollers = usize::from(st.polling);
        let wake = lane == 0 && st.idle > pollers && st.work() > pollers;
        drop(st);
        if wake {
            shared.work.notify_one();
        }
        Ok(handle)
    }

    /// The in-flight request count at which [`Runtime::try_submit`]
    /// sheds: [`RuntimeOptions::admission_limit`] if set, otherwise
    /// `flush_target × (queue_capacity + workers + 1)`.
    pub fn admission_limit(&self) -> usize {
        self.admission_limit
    }

    /// Requests currently in flight (submitted but not yet resolved).
    pub fn in_flight(&self) -> usize {
        self.shared.stats.in_flight.load(Ordering::Relaxed)
    }

    /// Admission-controlled submit: like [`Runtime::submit`], but when
    /// the runtime is saturated — [`Runtime::in_flight`] at or past
    /// [`Runtime::admission_limit`] — the request is **shed
    /// immediately** ([`CoreError::Overloaded`], counted in
    /// [`RuntimeStats::shed`]) instead of blocking the caller on
    /// backpressure. This is the entry point for network front-ends: an
    /// accept loop must answer "try later" in microseconds, not stall
    /// behind a full queue.
    ///
    /// Admission is checked before the request is accounted, so a shed
    /// request leaves no trace beyond the shed counter. The check is a
    /// single relaxed atomic load; under a concurrent submit storm a few
    /// requests may be admitted slightly past the limit, which only
    /// means they briefly block like plain `submit` — shedding accuracy
    /// is a latency bound, not an exact quota.
    ///
    /// # Errors
    ///
    /// [`CoreError::InputArity`] for a malformed request (checked before
    /// admission, so bad requests are never miscounted as shed) and
    /// [`CoreError::Overloaded`] when saturated.
    pub fn try_submit(&self, bits: &[bool]) -> Result<RequestHandle, CoreError> {
        if bits.len() != self.num_inputs {
            return Err(CoreError::InputArity {
                expected: self.num_inputs,
                got: bits.len(),
            });
        }
        let in_flight = self.shared.stats.in_flight.load(Ordering::Relaxed);
        if in_flight >= self.admission_limit {
            self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(CoreError::Overloaded {
                in_flight,
                limit: self.admission_limit,
            });
        }
        self.submit(bits)
    }

    /// Blocks until every request accepted so far has resolved — nothing
    /// forming, nothing queued, workers idle — without dropping the
    /// runtime. Requests racing in from other threads drain too.
    ///
    /// The runtime stays fully usable afterwards: this is the graceful-
    /// drain primitive for servers (stop accepting, `drain()`, report
    /// final stats), not a shutdown.
    pub fn drain(&self) {
        let shared = &*self.shared;
        let mut st = lock(&shared.state);
        // A worker that resolves the last request in flight says so
        // under this lock, after this check or before it.
        while shared.stats.in_flight.load(Ordering::Acquire) != 0 {
            st = wait(&shared.drained, st);
        }
    }

    /// Closes the current partial micro-batch now — it joins the queue
    /// of full batches, in submission order behind them — instead of
    /// leaving it to grow until a worker looks. No-op when nothing is
    /// pending (always the case while a worker is idle).
    pub fn flush(&self) {
        drop(self.shared.flush(lock(&self.shared.state)));
    }

    /// A snapshot of the runtime's serving statistics.
    pub fn stats(&self) -> RuntimeStats {
        let stats = &self.shared.stats;
        let ([p50_us, p95_us, p99_us], span, version, current, prior) = {
            let done = lock(&stats.completions);
            (
                done.latencies.percentiles([0.50, 0.95, 0.99]),
                done.first_submit.zip(done.last_response),
                done.version,
                done.current,
                done.prior,
            )
        };
        // Read after the completions, so a snapshot never shows more
        // requests completed than submitted.
        let requests = lock(&self.shared.state).next_id;
        let micro_batches = stats.micro_batches.load(Ordering::Relaxed);
        let lanes = stats.lanes_served.load(Ordering::Relaxed);
        let elapsed_us = span.map_or(0.0, |(first, last)| {
            last.duration_since(first).as_secs_f64() * 1e6
        });
        RuntimeStats {
            requests,
            micro_batches,
            full_flushes: stats.full_flushes.load(Ordering::Relaxed),
            deadline_flushes: stats.deadline_flushes.load(Ordering::Relaxed),
            mean_lanes_per_batch: if micro_batches > 0 {
                lanes as f64 / micro_batches as f64
            } else {
                0.0
            },
            shed: stats.shed.load(Ordering::Relaxed),
            in_flight: stats.in_flight.load(Ordering::Relaxed),
            version,
            // Every swap is one version.
            swaps: version,
            completed_current: current,
            completed_prior: prior,
            queue: QueueStats {
                peak_depth: stats.peak_in_flight.load(Ordering::Relaxed),
                p50_us,
                p95_us,
                p99_us,
            },
            elapsed_us,
            requests_per_sec: if elapsed_us > 0.0 {
                (current + prior) as f64 / (elapsed_us / 1e6)
            } else {
                0.0
            },
        }
    }
}

impl Drop for Runtime {
    /// Signals shutdown and joins the workers, which leave only once
    /// they have run every queued batch and the forming one — so every
    /// issued handle resolves.
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A worker thread's whole life: under the state lock, hand back the
/// batch it just ran and take the oldest batch there is — from `ready`,
/// else whatever is forming, since nothing is older — then run it with
/// the lock released. With nothing to take it polls for
/// [`POLL_BEFORE_PARK`] (unless another worker already is) and parks;
/// it leaves at shutdown, once there is nothing left to run.
fn serve(shared: &Shared) {
    let mut scratch = ServeScratch::default();
    let mut st = lock(&shared.state);
    loop {
        let mut polled = false;
        let job = loop {
            #[cfg(test)]
            {
                st = tests::sit_out(shared, st);
            }
            if let Some(job) = st.ready.pop_front() {
                // Every waiter, not one: a woken submitter may find the
                // forming batch taken meanwhile, queue nothing, and so
                // pass the room on to nobody.
                shared.not_full.notify_all();
                break job;
            }
            if !st.pending.is_empty() {
                shared
                    .stats
                    .deadline_flushes
                    .fetch_add(1, Ordering::Relaxed);
                break st.take_pending();
            }
            if st.shutdown {
                return;
            }
            st.idle += 1;
            if !polled && !st.polling {
                polled = true;
                st.polling = true;
                drop(st);
                st = poll_for_work(shared);
                st.polling = false;
            } else {
                st = wait(&shared.work, st);
            }
            st.idle -= 1;
        };
        drop(st);
        let spent = run_batch(shared, &mut scratch, job);
        st = lock(&shared.state);
        st.spare = Some(spent);
        if shared.stats.in_flight.load(Ordering::Acquire) == 0 {
            shared.drained.notify_all();
        }
    }
}

/// The polling phase of a worker that found nothing to run: looks at the
/// state, yielding the CPU between looks, until there is work, the
/// runtime shuts down, or [`POLL_BEFORE_PARK`] has passed. Returns the
/// state lock, held since the last look.
fn poll_for_work(shared: &Shared) -> MutexGuard<'_, State> {
    let give_up = Instant::now() + POLL_BEFORE_PARK;
    loop {
        std::thread::yield_now();
        let st = lock(&shared.state);
        if st.work() > 0 || st.shutdown || Instant::now() >= give_up {
            return st;
        }
    }
}

/// Executes `job`'s batch as one multi-lane pass on the calling worker
/// ([`Target::run`]: packed rows in, per-request packed rows out — row
/// `j` belongs to request `j`) on the target it is tagged with, and
/// publishes the result to every handle of the batch at once, then hands
/// the batch back for its buffers. Completions are attributed to the
/// version the batch left under.
fn run_batch(shared: &Shared, scratch: &mut ServeScratch, job: Ready) -> Batch {
    let Ready {
        batch,
        target,
        version,
    } = job;
    let count = batch.len();
    // A panicking batch must not kill the persistent worker; turn it
    // into an error every carried request observes.
    let outcome = match catch_unwind(AssertUnwindSafe(|| target.run(scratch, &batch.rows))) {
        Ok(result) => result,
        Err(_) => Err(CoreError::BadConfig {
            reason: "runtime worker panicked executing a micro-batch".to_string(),
        }),
    };
    // Account the batch BEFORE publishing it: a waiter unblocks the
    // instant the cell is set, and a thread that has waited every
    // handle must observe complete stats.
    let stats = &shared.stats;
    stats.micro_batches.fetch_add(1, Ordering::Relaxed);
    stats
        .lanes_served
        .fetch_add(count as u64, Ordering::Relaxed);
    stats.note_completion(&batch.stamps, count, version, Instant::now());
    batch.cell.publish(outcome);
    // Only now are the requests truly resolved: retire them from the
    // in-flight gauge (this is what `drain` waits on).
    stats.in_flight.fetch_sub(count, Ordering::Release);
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineScratch;
    use crate::flow::Flow;
    use crate::lpu::LpuConfig;
    use lbnn_netlist::random::RandomDag;
    use lbnn_netlist::Lanes;

    fn request_bits(width: usize, seed: u64) -> Vec<bool> {
        (0..width).map(|i| (seed >> (i % 64)) & 1 != 0).collect()
    }

    fn compiled(backend: Backend, seed: u64) -> Flow {
        let nl = RandomDag::strict(8, 4, 6).outputs(3).generate(seed);
        Flow::builder(&nl)
            .config(LpuConfig::new(4, 4))
            .backend(backend)
            .compile()
            .unwrap()
    }

    /// What a test makes [`Target::run`] do first.
    pub(super) type Hook = Arc<dyn Fn(&PackedRows) + Send + Sync>;

    /// The workers the tests have told to act busy. A worker on its way
    /// to look for work sits out while a seat is untaken — it runs
    /// nothing, and does not count as idle — so what the state does
    /// while every worker is busy can be observed without racing real
    /// work.
    #[derive(Default)]
    pub(super) struct Seats {
        /// Workers that are to act busy.
        busy: usize,
        /// Workers that are.
        sitting: usize,
    }

    /// Where a worker sits out ([`Seats`]); shutdown empties the seats.
    pub(super) fn sit_out<'a>(
        shared: &'a Shared,
        mut st: MutexGuard<'a, State>,
    ) -> MutexGuard<'a, State> {
        while st.seats.busy > st.seats.sitting && !st.shutdown {
            st.seats.sitting += 1;
            drop(st);
            std::thread::sleep(POLL_BEFORE_PARK);
            st = lock(&shared.state);
            st.seats.sitting -= 1;
        }
        st
    }

    /// Spins until the state satisfies `ready`.
    fn until(runtime: &Runtime, ready: impl Fn(&State) -> bool) {
        while !ready(&lock(&runtime.shared.state)) {
            std::thread::yield_now();
        }
    }

    /// Every worker is busy: from here on submissions accumulate — and
    /// full batches queue — exactly as they do behind running batches.
    fn occupy_workers(runtime: &Runtime) {
        lock(&runtime.shared.state).seats.busy = runtime.workers();
        runtime.shared.work.notify_all();
        until(runtime, |st| st.seats.sitting == st.seats.busy);
    }

    /// One busy worker finishes: it looks for work, as every worker does
    /// after a micro-batch, and is free from then on.
    fn free_a_worker(runtime: &Runtime) {
        lock(&runtime.shared.state).seats.busy -= 1;
    }

    /// `submit` skips the wake-up when the polling worker will find the
    /// batch by itself — which must never leave a second batch waiting
    /// for that same worker while the other one sleeps. Batch A only
    /// finishes once batch B has run, so each round needs both workers
    /// at once, whether they were polling (back-to-back rounds) or
    /// parked (after a pause).
    #[test]
    fn a_polling_worker_never_strands_a_second_batch() {
        let patience = Duration::from_secs(10);
        let mut target = Target::new(vec![compiled(Backend::Scalar, 8).engine().unwrap()]);
        let (a_began, b_ran) = (AtomicU64::new(0), AtomicU64::new(0));
        // A request with its first bit set is an A.
        target.hook = Some(Arc::new(move |rows| {
            if !rows.row(0)[0] {
                b_ran.fetch_add(1, Ordering::Release);
                return;
            }
            let round = a_began.fetch_add(1, Ordering::Relaxed) + 1;
            let give_up = Instant::now() + patience;
            while b_ran.load(Ordering::Acquire) < round {
                assert!(Instant::now() < give_up, "B of round {round} never ran");
                std::thread::yield_now();
            }
        }));
        // One request fills a batch: two submits, two batches.
        let options = RuntimeOptions::default().workers(2).max_batch(1);
        let runtime = Runtime::build(target, options).unwrap();
        let (a_bits, b_bits) = (request_bits(8, 1), request_bits(8, 2));
        for round in 0..200 {
            if round % 20 == 0 {
                std::thread::sleep(4 * POLL_BEFORE_PARK);
            }
            let a = runtime.submit(&a_bits).unwrap();
            let b = runtime.submit(&b_bits).unwrap();
            assert_eq!(a.wait().unwrap().len(), 3, "round {round}");
            assert_eq!(b.wait().unwrap().len(), 3, "round {round}");
        }
        assert_eq!(runtime.stats().micro_batches, 400);
    }

    #[test]
    fn runtime_serves_requests_bit_identically_to_engine() {
        for backend in [Backend::Scalar, Backend::BitSliced { words: 1 }] {
            let flow = compiled(backend, 3);
            let width = flow.program.num_inputs;
            let reference = flow.engine().unwrap();
            let runtime = Runtime::from_engine(
                flow.engine().unwrap(),
                RuntimeOptions::default().workers(2).max_batch(16),
            )
            .unwrap();
            let requests: Vec<Vec<bool>> =
                (0..50).map(|i| request_bits(width, 0x5eed + i)).collect();
            let handles: Vec<RequestHandle> = requests
                .iter()
                .map(|bits| runtime.submit(bits).unwrap())
                .collect();
            runtime.flush();
            // Reference: all requests packed as one wide batch on the
            // sequential engine.
            let mut scratch = EngineScratch::new();
            let packed = Lanes::pack_rows(&requests, width);
            let expect = reference.run_batch_with(&mut scratch, &packed).unwrap();
            for (j, handle) in handles.into_iter().enumerate() {
                assert_eq!(handle.id(), j as u64);
                let got = handle.wait().unwrap();
                let want: Vec<bool> = expect.outputs.iter().map(|o| o.get(j)).collect();
                assert_eq!(got, want, "{backend} request {j}");
            }
            let stats = runtime.stats();
            assert_eq!(stats.requests, 50);
            assert!(stats.micro_batches >= 4, "16-lane batches over 50 requests");
            assert!(stats.queue.peak_depth > 0);
        }
    }

    /// Work conservation, idle side: an idle worker takes a lone request
    /// at once — no `flush()`, no timer.
    #[test]
    fn idle_runtime_dispatches_a_lone_request_at_once() {
        let flow = compiled(Backend::BitSliced { words: 1 }, 5);
        let width = flow.program.num_inputs;
        let runtime =
            Runtime::from_engine(flow.engine().unwrap(), RuntimeOptions::default().workers(1))
                .unwrap();
        until(&runtime, |st| st.idle == 1);
        let handle = runtime.submit(&request_bits(width, 1)).unwrap();
        assert!(handle.poll, "an idle worker has it: worth polling for");
        assert_eq!(handle.wait().unwrap().len(), 3);
        let stats = runtime.stats();
        assert_eq!(stats.micro_batches, 1, "{stats:?}");
        assert_eq!(stats.deadline_flushes, 1);
        assert_eq!(stats.full_flushes, 0);
    }

    /// Work conservation, busy side: requests submitted while every
    /// worker is busy wait, and the first worker to finish takes all of
    /// them as ONE micro-batch.
    #[test]
    fn requests_accumulated_behind_busy_workers_leave_as_one_batch() {
        let flow = compiled(Backend::BitSliced { words: 1 }, 5);
        let width = flow.program.num_inputs;
        let runtime =
            Runtime::from_engine(flow.engine().unwrap(), RuntimeOptions::default().workers(2))
                .unwrap();
        occupy_workers(&runtime);
        let handles: Vec<RequestHandle> = (0..5)
            .map(|i| runtime.submit(&request_bits(width, i)).unwrap())
            .collect();
        assert_eq!(runtime.in_flight(), 5);
        assert!(handles.iter().all(|h| h.try_wait().is_none()));
        assert!(handles.iter().all(|h| !h.poll), "queued requests park");
        free_a_worker(&runtime);
        for handle in handles {
            assert_eq!(handle.wait().unwrap().len(), 3);
        }
        let stats = runtime.stats();
        assert_eq!(stats.micro_batches, 1, "{stats:?}");
        assert!((stats.mean_lanes_per_batch - 5.0).abs() < 1e-9);
        assert_eq!(stats.deadline_flushes, 1);
        assert_eq!(stats.full_flushes, 0);
    }

    #[test]
    fn bounded_queue_applies_backpressure_without_losing_requests() {
        let flow = compiled(Backend::Scalar, 7);
        let width = flow.program.num_inputs;
        let runtime = Runtime::from_engine(
            flow.engine().unwrap(),
            RuntimeOptions::default()
                .workers(1)
                .max_batch(2)
                .queue_capacity(1),
        )
        .unwrap();
        let handles: Vec<RequestHandle> = (0..40)
            .map(|i| runtime.submit(&request_bits(width, i)).unwrap())
            .collect();
        runtime.flush();
        for handle in handles {
            handle.wait().unwrap();
        }
        assert_eq!(runtime.stats().requests, 40);
    }

    #[test]
    fn submit_rejects_wrong_arity() {
        let flow = compiled(Backend::Scalar, 1);
        let runtime =
            Runtime::from_engine(flow.engine().unwrap(), RuntimeOptions::default()).unwrap();
        let err = runtime.submit(&[true]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::InputArity {
                expected: 8,
                got: 1
            }
        ));
    }

    #[test]
    fn bad_options_are_rejected() {
        let flow = compiled(Backend::Scalar, 2);
        let engine = flow.engine().unwrap();
        let err =
            Runtime::from_engine(engine, RuntimeOptions::default().queue_capacity(0)).unwrap_err();
        assert!(matches!(err, CoreError::BadConfig { .. }));
        // An auto admission limit that overflows is rejected, not wrapped.
        for options in [
            RuntimeOptions::default().queue_capacity(usize::MAX),
            RuntimeOptions::default().max_batch(usize::MAX / 2),
        ] {
            let engine = flow.engine().unwrap();
            let err = Runtime::from_engine(engine, options.workers(1)).unwrap_err();
            assert!(
                matches!(err, CoreError::BadConfig { .. }),
                "{options:?}: {err}"
            );
        }
    }

    /// The default (auto) flush target is the serving engine's lane
    /// width: a 4-word backend fills 256-lane frames, an explicit
    /// `max_batch` still overrides.
    #[test]
    fn auto_flush_target_is_the_engine_lane_width() {
        let nl = RandomDag::strict(8, 4, 6).outputs(3).generate(11);
        for (backend, lanes) in [
            (Backend::Scalar, 64usize),
            (Backend::BitSliced { words: 1 }, 64),
            (Backend::BitSliced { words: 4 }, 256),
            (Backend::BitSliced { words: 8 }, 512),
        ] {
            let flow = Flow::builder(&nl)
                .config(LpuConfig::new(4, 4))
                .backend(backend)
                .compile()
                .unwrap();
            let runtime =
                Runtime::from_engine(flow.engine().unwrap(), RuntimeOptions::default()).unwrap();
            assert_eq!(runtime.flush_target(), lanes, "{backend}");
            let explicit = Runtime::from_engine(
                flow.engine().unwrap(),
                RuntimeOptions::default().max_batch(7),
            )
            .unwrap();
            assert_eq!(explicit.flush_target(), 7, "{backend}");
        }
    }

    /// The size trigger: behind busy workers, the request that brings
    /// the pending batch to one lane width queues it; a straggler after
    /// it stays pending.
    #[test]
    fn size_trigger_fires_at_flush_target() {
        let flow = {
            let nl = RandomDag::strict(8, 4, 6).outputs(3).generate(17);
            Flow::builder(&nl)
                .config(LpuConfig::new(4, 4))
                .backend(Backend::BitSliced { words: 2 })
                .compile()
                .unwrap()
        };
        let width = flow.program.num_inputs;
        let runtime =
            Runtime::from_engine(flow.engine().unwrap(), RuntimeOptions::default().workers(1))
                .unwrap();
        assert_eq!(runtime.flush_target(), 128);
        occupy_workers(&runtime);
        let handles: Vec<RequestHandle> = (0..127)
            .map(|i| runtime.submit(&request_bits(width, i)).unwrap())
            .collect();
        assert_eq!(runtime.stats().full_flushes, 0, "127 requests do not fill");
        let last = runtime.submit(&request_bits(width, 127)).unwrap();
        // The 128th submit filled one full 128-lane frame.
        let stats = runtime.stats();
        assert_eq!(stats.full_flushes, 1, "{stats:?}");
        assert_eq!(stats.deadline_flushes, 0);
        assert_eq!(lock(&runtime.shared.state).ready.len(), 1);
        // One straggler behind the still-busy worker starts the next batch.
        let straggler = runtime.submit(&request_bits(width, 999)).unwrap();
        assert_eq!(straggler.lane, 0);
        assert!(straggler.try_wait().is_none());
        // The worker runs the full batch, then what is forming.
        free_a_worker(&runtime);
        for handle in handles.into_iter().chain([last, straggler]) {
            handle.wait().unwrap();
        }
        let stats = runtime.stats();
        assert_eq!(stats.full_flushes, 1, "{stats:?}");
        assert_eq!(stats.deadline_flushes, 1);
        assert_eq!(stats.micro_batches, 2);
        assert!((stats.mean_lanes_per_batch - 64.5).abs() < 1e-9);
    }

    /// The scalar oracle's output row for every request.
    fn oracle_rows(flow: &Flow, requests: &[Vec<bool>]) -> Vec<Vec<bool>> {
        let packed = Lanes::pack_rows(requests, flow.program.num_inputs);
        let outputs = lbnn_netlist::eval::evaluate(&flow.source, &packed).unwrap();
        Lanes::unpack_rows(&outputs)
    }

    /// A runtime with its workers occupied and `count` distinct requests
    /// pending as one micro-batch: the requests and their handles.
    fn pending_batch(
        flow: &Flow,
        workers: usize,
        count: u64,
    ) -> (Runtime, Vec<Vec<bool>>, Vec<RequestHandle>) {
        let runtime = Runtime::from_engine(
            flow.engine().unwrap(),
            RuntimeOptions::default().workers(workers),
        )
        .unwrap();
        occupy_workers(&runtime);
        let requests: Vec<Vec<bool>> = (0..count)
            .map(|i| request_bits(flow.program.num_inputs, i))
            .collect();
        let handles = requests
            .iter()
            .map(|bits| runtime.submit(bits).unwrap())
            .collect();
        (runtime, requests, handles)
    }

    /// The micro-batch is the unit of completion: its handles share one
    /// result cell, and each reads its own lane of it — whatever the
    /// order they are waited in.
    #[test]
    fn handles_of_one_batch_share_a_cell_and_read_their_own_lanes() {
        // 64 lanes per word: 70 requests leave a ragged second row block.
        let flow = compiled(Backend::BitSliced { words: 2 }, 33);
        let (runtime, requests, handles) = pending_batch(&flow, 1, 70);
        let want = oracle_rows(&flow, &requests);
        for (j, handle) in handles.iter().enumerate() {
            assert!(Arc::ptr_eq(&handle.cell, &handles[0].cell), "request {j}");
            assert_eq!(handle.lane, j);
        }
        free_a_worker(&runtime);
        for (j, handle) in handles.into_iter().enumerate().rev() {
            assert_eq!(handle.wait().unwrap(), want[j], "request {j}");
        }
        assert_eq!(runtime.stats().micro_batches, 1);
        // The next batch has a cell of its own.
        let next = runtime.submit(&requests[5]).unwrap();
        assert_eq!(next.lane, 0);
        assert_eq!(next.wait().unwrap(), want[5]);
    }

    /// One wake-up resolves every waiter of a batch: eight threads wait
    /// on the handles of one pending batch, which only then executes.
    #[test]
    fn one_batch_resolves_waiters_on_many_threads() {
        let flow = compiled(Backend::BitSliced { words: 1 }, 35);
        let (runtime, requests, handles) = pending_batch(&flow, 2, 8);
        let want = oracle_rows(&flow, &requests);
        let waiting = std::sync::Barrier::new(handles.len() + 1);
        std::thread::scope(|scope| {
            let waiters: Vec<_> = handles
                .into_iter()
                .map(|handle| {
                    scope.spawn(|| {
                        waiting.wait();
                        handle.wait().unwrap()
                    })
                })
                .collect();
            waiting.wait();
            free_a_worker(&runtime);
            for (j, waiter) in waiters.into_iter().enumerate() {
                assert_eq!(waiter.join().unwrap(), want[j], "request {j}");
            }
        });
        assert_eq!(runtime.stats().micro_batches, 1);
    }

    /// `try_wait` is `None` until the batch executes, then — any number
    /// of times — the bits a final `wait` also returns.
    #[test]
    fn try_wait_does_not_consume_the_response() {
        let flow = compiled(Backend::Scalar, 6);
        let (runtime, requests, mut handles) = pending_batch(&flow, 1, 3);
        let want = oracle_rows(&flow, &requests);
        let handle = handles.remove(1);
        assert!(handle.try_wait().is_none());
        free_a_worker(&runtime);
        let polled = loop {
            if let Some(result) = handle.try_wait() {
                break result.unwrap();
            }
            std::thread::yield_now();
        };
        assert_eq!(polled, want[1]);
        assert_eq!(handle.try_wait().unwrap().unwrap(), polled);
        assert_eq!(handle.wait().unwrap(), polled);
    }

    /// A batch that fails resolves every one of its handles with the
    /// same error, and neither the worker nor the accounting nor a lock
    /// is lost: swapped to a healthy target, the runtime serves on.
    #[test]
    fn a_failed_batch_gives_every_handle_the_same_error() {
        let flow = compiled(Backend::Scalar, 8);
        let mut target = Target::new(vec![flow.engine().unwrap()]);
        target.hook = Some(Arc::new(|_| {
            panic!("the test target panics on every batch")
        }));
        let runtime = Runtime::build(target, RuntimeOptions::default().workers(1)).unwrap();
        occupy_workers(&runtime);
        let handles: Vec<RequestHandle> = (0..5)
            .map(|i| runtime.submit(&request_bits(8, i)).unwrap())
            .collect();
        free_a_worker(&runtime);
        let polled = loop {
            if let Some(result) = handles[0].try_wait() {
                break result.unwrap_err();
            }
            std::thread::yield_now();
        };
        assert!(
            matches!(&polled, CoreError::BadConfig { reason } if reason.contains("panicked")),
            "{polled}"
        );
        for handle in handles {
            assert_eq!(handle.wait().unwrap_err(), polled);
        }
        runtime.drain();
        assert_eq!(runtime.in_flight(), 0);
        // The worker outlived the panic.
        let after = runtime.submit(&request_bits(8, 9)).unwrap();
        assert_eq!(after.wait().unwrap_err(), polled);
        assert_eq!(runtime.stats().micro_batches, 2);
        // And so did every lock: the next version answers correctly.
        assert_eq!(runtime.swap_engine(flow.engine().unwrap()).unwrap(), 1);
        let healthy = vec![request_bits(8, 10)];
        let answer = runtime.submit(&healthy[0]).unwrap().wait().unwrap();
        assert_eq!(answer, oracle_rows(&flow, &healthy)[0]);
        runtime.drain();
        let stats = runtime.stats();
        assert_eq!((stats.completed_prior, stats.completed_current), (6, 1));
        assert_eq!(stats.completed_current + stats.completed_prior, 7);
        assert_eq!(stats.requests, 7);
    }

    /// A handle keeps its batch's result readable on its own: the other
    /// handles may be dropped before or after the batch executes.
    #[test]
    fn the_last_handle_of_a_batch_still_reads_its_row() {
        let flow = compiled(Backend::BitSliced { words: 1 }, 37);
        let (runtime, requests, mut handles) = pending_batch(&flow, 1, 6);
        let want = oracle_rows(&flow, &requests);
        let kept = handles.remove(4);
        let late = handles.split_off(2);
        drop(handles); // dropped while the batch is pending
        free_a_worker(&runtime);
        runtime.drain();
        drop(late); // dropped once it has resolved
        assert_eq!(kept.try_wait().unwrap().unwrap(), want[4]);
        assert_eq!(kept.wait().unwrap(), want[4]);
    }

    #[test]
    fn drop_resolves_outstanding_handles() {
        let flow = compiled(Backend::BitSliced { words: 1 }, 9);
        let width = flow.program.num_inputs;
        let runtime =
            Runtime::from_engine(flow.engine().unwrap(), RuntimeOptions::default().workers(2))
                .unwrap();
        occupy_workers(&runtime);
        let handles: Vec<RequestHandle> = (0..5)
            .map(|i| runtime.submit(&request_bits(width, i)).unwrap())
            .collect();
        assert_eq!(
            runtime.stats().micro_batches,
            0,
            "the batch is still pending"
        );
        // A dropped runtime's workers run the partial batch before they
        // leave; the handles outlive the runtime, the cell is theirs.
        drop(runtime);
        for handle in handles {
            assert_eq!(handle.wait().unwrap().len(), 3);
        }
    }

    /// The same with the queue of full batches at its bound: dropped,
    /// the workers run what is queued, then what is forming.
    #[test]
    fn drop_with_a_full_queue_resolves_outstanding_handles() {
        let flow = compiled(Backend::BitSliced { words: 1 }, 9);
        let width = flow.program.num_inputs;
        let options = RuntimeOptions::default()
            .workers(2)
            .max_batch(2)
            .queue_capacity(1);
        let runtime = Runtime::from_engine(flow.engine().unwrap(), options).unwrap();
        occupy_workers(&runtime);
        let requests: Vec<Vec<bool>> = (0..3).map(|i| request_bits(width, i)).collect();
        let handles: Vec<RequestHandle> = requests
            .iter()
            .map(|bits| runtime.submit(bits).unwrap())
            .collect();
        {
            let st = lock(&runtime.shared.state);
            assert_eq!((st.ready.len(), st.pending.len()), (1, 1), "queue full");
        }
        assert_eq!(runtime.stats().micro_batches, 0);
        drop(runtime);
        let want = oracle_rows(&flow, &requests);
        for (j, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.wait().unwrap(), want[j], "request {j}");
        }
    }

    #[test]
    fn report_carries_queue_stats() {
        let flow = compiled(Backend::BitSliced { words: 1 }, 4);
        let width = flow.program.num_inputs;
        let runtime = Runtime::from_engine(
            flow.engine().unwrap(),
            RuntimeOptions::default().workers(1).max_batch(8),
        )
        .unwrap();
        // Busy worker: the size trigger alone shapes the 4 batches the
        // exact-count assertions below expect.
        occupy_workers(&runtime);
        let handles: Vec<RequestHandle> = (0..32)
            .map(|i| runtime.submit(&request_bits(width, i)).unwrap())
            .collect();
        free_a_worker(&runtime);
        for handle in handles {
            handle.wait().unwrap();
        }
        let stats = runtime.stats();
        assert_eq!(stats.requests, 32);
        assert_eq!(stats.micro_batches, 4);
        let queue = stats.queue;
        assert!(queue.p50_us <= queue.p95_us && queue.p95_us <= queue.p99_us);
        assert!(queue.peak_depth >= 1);
    }

    /// try_submit sheds immediately (typed error + counter) once the
    /// admission limit is reached, and the runtime keeps serving after
    /// the saturation clears.
    #[test]
    fn try_submit_sheds_at_the_admission_limit() {
        let flow = compiled(Backend::BitSliced { words: 1 }, 13);
        let width = flow.program.num_inputs;
        let runtime = Runtime::from_engine(
            flow.engine().unwrap(),
            RuntimeOptions::default().workers(1).admission_limit(4),
        )
        .unwrap();
        assert_eq!(runtime.admission_limit(), 4);
        // Busy worker + wide batch: accepted requests sit pending, so
        // in_flight is fully under the test's control.
        occupy_workers(&runtime);
        let accepted: Vec<RequestHandle> = (0..4)
            .map(|i| runtime.try_submit(&request_bits(width, i)).unwrap())
            .collect();
        assert_eq!(runtime.in_flight(), 4);
        // The 5th is shed without blocking; arity errors are not shed.
        let err = runtime.try_submit(&request_bits(width, 99)).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Overloaded {
                in_flight: 4,
                limit: 4
            }
        ));
        assert!(matches!(
            runtime.try_submit(&[true]).unwrap_err(),
            CoreError::InputArity { .. }
        ));
        let stats = runtime.stats();
        assert_eq!(stats.shed, 1, "arity errors must not count as shed");
        assert_eq!(stats.requests, 4);
        // Draining clears the saturation; admission reopens.
        free_a_worker(&runtime);
        runtime.drain();
        for handle in accepted {
            assert_eq!(handle.wait().unwrap().len(), 3);
        }
        assert_eq!(runtime.in_flight(), 0);
        let reopened = runtime.try_submit(&request_bits(width, 5)).unwrap();
        runtime.flush();
        reopened.wait().unwrap();
        assert_eq!(runtime.stats().shed, 1);
    }

    /// A runtime's threads are its workers and nothing else (no flusher,
    /// no timer thread).
    #[test]
    fn runtime_spawns_exactly_its_workers() {
        let flow = compiled(Backend::Scalar, 14);
        for workers in [1usize, 3] {
            let runtime = Runtime::from_engine(
                flow.engine().unwrap(),
                RuntimeOptions::default().workers(workers),
            )
            .unwrap();
            assert_eq!(runtime.workers(), workers);
            assert_eq!(runtime.workers.len(), workers);
        }
    }

    /// The auto admission limit scales with flush target, queue capacity
    /// and workers.
    #[test]
    fn auto_admission_limit_formula() {
        let flow = compiled(Backend::BitSliced { words: 1 }, 15);
        let runtime = Runtime::from_engine(
            flow.engine().unwrap(),
            RuntimeOptions::default()
                .workers(2)
                .queue_capacity(3)
                .max_batch(10),
        )
        .unwrap();
        // flush_target × (queue_capacity + workers + 1) = 10 × 6.
        assert_eq!(runtime.admission_limit(), 60);
    }

    /// drain() blocks until idle without consuming the runtime.
    #[test]
    fn drain_resolves_pending_requests_and_keeps_serving() {
        let flow = compiled(Backend::Scalar, 21);
        let width = flow.program.num_inputs;
        let runtime =
            Runtime::from_engine(flow.engine().unwrap(), RuntimeOptions::default().workers(2))
                .unwrap();
        runtime.drain(); // idle drain is an immediate no-op
        for round in 0..3u64 {
            let handles: Vec<RequestHandle> = (0..7)
                .map(|i| runtime.submit(&request_bits(width, round * 7 + i)).unwrap())
                .collect();
            runtime.drain();
            assert_eq!(runtime.in_flight(), 0);
            for handle in handles {
                assert!(handle.try_wait().expect("drained request resolved").is_ok());
            }
        }
        assert_eq!(runtime.stats().requests, 21);
    }

    /// A replacement for `flow`'s engine: the same structure with the
    /// output cells negated, so every response differs on every input.
    fn patched(flow: &Flow) -> Engine {
        let patches: lbnn_netlist::PatchSet = flow
            .netlist
            .outputs()
            .iter()
            .map(|o| o.node)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|id| (id, flow.netlist.node(id).op().negated().unwrap()))
            .collect();
        assert!(!patches.is_empty());
        flow.engine().unwrap().patch_cells(&patches).unwrap()
    }

    /// Hot swap under a quiet runtime: the version bumps, submissions
    /// after the swap are bit-identical to the replacement engine,
    /// responses resolved before it still match the original, and the
    /// per-version completion counters sum to the total.
    #[test]
    fn swap_engine_moves_new_submissions_to_the_new_version() {
        let flow = compiled(Backend::BitSliced { words: 1 }, 23);
        let width = flow.program.num_inputs;
        let base_engine = flow.engine().unwrap();
        let patched_engine = patched(&flow);

        let runtime = Runtime::from_engine(
            flow.engine().unwrap(),
            RuntimeOptions::default().workers(2).max_batch(8),
        )
        .unwrap();
        assert_eq!(runtime.version(), 0);
        let requests: Vec<Vec<bool>> = (0..20).map(|i| request_bits(width, 0xabc + i)).collect();
        let packed = Lanes::pack_rows(&requests, width);
        let mut scratch = EngineScratch::new();
        let before = base_engine.run_batch_with(&mut scratch, &packed).unwrap();
        let after = patched_engine
            .run_batch_with(&mut scratch, &packed)
            .unwrap();

        let submit_all = |runtime: &Runtime| -> Vec<Vec<bool>> {
            let handles: Vec<RequestHandle> = requests
                .iter()
                .map(|bits| runtime.submit(bits).unwrap())
                .collect();
            runtime.drain();
            handles.into_iter().map(|h| h.wait().unwrap()).collect()
        };

        let got = submit_all(&runtime);
        for (j, bits) in got.iter().enumerate() {
            let want: Vec<bool> = before.outputs.iter().map(|o| o.get(j)).collect();
            assert_eq!(*bits, want, "pre-swap request {j}");
        }

        let version = runtime.swap_engine(patched_engine).unwrap();
        assert_eq!(version, 1);
        assert_eq!(runtime.version(), 1);

        let got = submit_all(&runtime);
        for (j, bits) in got.iter().enumerate() {
            let want: Vec<bool> = after.outputs.iter().map(|o| o.get(j)).collect();
            assert_eq!(*bits, want, "post-swap request {j}");
        }

        let stats = runtime.stats();
        assert_eq!(stats.requests, 40);
        assert_eq!(stats.version, 1);
        assert_eq!(stats.swaps, 1);
        assert_eq!(stats.completed_prior, 20, "pre-swap completions rolled");
        assert_eq!(stats.completed_current, 20);
        assert_eq!(
            stats.completed_current + stats.completed_prior,
            stats.requests,
            "per-version counters must partition the completions"
        );
    }

    /// Requests still pending when a swap begins leave under the *old*
    /// core: the version that admitted them answers them.
    #[test]
    fn swap_flushes_the_pending_batch_to_the_old_core() {
        let flow = compiled(Backend::BitSliced { words: 1 }, 27);
        let width = flow.program.num_inputs;
        let runtime =
            Runtime::from_engine(flow.engine().unwrap(), RuntimeOptions::default().workers(1))
                .unwrap();
        occupy_workers(&runtime);
        let requests: Vec<Vec<bool>> = (0..6).map(|i| request_bits(width, 0x77 + i)).collect();
        let handles: Vec<RequestHandle> = requests
            .iter()
            .map(|bits| runtime.submit(bits).unwrap())
            .collect();
        assert!(handles.iter().all(|h| h.try_wait().is_none()));
        assert_eq!(runtime.swap_engine(patched(&flow)).unwrap(), 1);
        free_a_worker(&runtime);
        let packed = Lanes::pack_rows(&requests, width);
        let v0 = flow
            .engine()
            .unwrap()
            .run_batch_with(&mut EngineScratch::new(), &packed)
            .unwrap();
        for (j, handle) in handles.into_iter().enumerate() {
            let want: Vec<bool> = v0.outputs.iter().map(|o| o.get(j)).collect();
            assert_eq!(handle.wait().unwrap(), want, "pre-swap request {j}");
        }
    }

    /// A hot swap must preserve the request interface: a replacement
    /// with a different primary-input count is rejected with a typed
    /// error and the runtime keeps serving the old version.
    #[test]
    fn swap_engine_rejects_interface_changes() {
        let flow = compiled(Backend::Scalar, 29);
        let width = flow.program.num_inputs;
        let runtime =
            Runtime::from_engine(flow.engine().unwrap(), RuntimeOptions::default().workers(1))
                .unwrap();
        // A netlist with a different input count is not a legal swap.
        let other = RandomDag::strict(5, 3, 4).outputs(2).generate(31);
        let other_flow = Flow::builder(&other)
            .config(LpuConfig::new(4, 4))
            .compile()
            .unwrap();
        let err = runtime
            .swap_engine(other_flow.engine().unwrap())
            .unwrap_err();
        assert!(matches!(err, CoreError::BadConfig { .. }), "{err}");
        assert_eq!(runtime.version(), 0);
        assert_eq!(runtime.stats().swaps, 0);
        // Still serving.
        let handle = runtime.submit(&request_bits(width, 1)).unwrap();
        runtime.flush();
        handle.wait().unwrap();
    }

    fn histogram_of(latencies_ns: impl IntoIterator<Item = u64>) -> LatencyHistogram {
        let mut histogram = LatencyHistogram::default();
        for ns in latencies_ns {
            histogram.record(Duration::from_nanos(ns));
        }
        histogram
    }

    /// Below 128 ns every nanosecond has a bucket, so the ranks are
    /// exact.
    #[test]
    fn percentiles_nearest_rank() {
        let histogram = histogram_of((1..=10).map(|k| 10 * k));
        let at = |q| histogram.percentiles([q])[0];
        assert_eq!(at(0.50), 0.050);
        assert_eq!(at(0.95), 0.100);
        assert_eq!(at(0.99), 0.100);
        assert_eq!(at(0.10), 0.010);
        assert_eq!(histogram_of([42]).percentiles([0.99]), [0.042]);
    }

    #[test]
    fn latency_histogram_is_within_one_percent_at_every_decade() {
        let decades_us = [0.1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 6e7];
        for us in decades_us {
            // The value itself and its neighbours: the worst case of a
            // bucket is at either edge.
            for ns in [us * 1e3 - 1.0, us * 1e3, us * 1e3 + 1.0] {
                let [p50] = histogram_of([ns as u64]).percentiles([0.5]);
                let error = (p50 * 1e3 - ns).abs() / ns;
                assert!(error <= 0.01, "{ns} ns reads {p50} µs ({error})");
            }
        }
        // Both edges of every bucket, up to the top one.
        for shift in 0..TOP_BITS - SUB_BUCKET_BITS {
            for lead in 1 << SUB_BUCKET_BITS..2 << SUB_BUCKET_BITS {
                let low: u64 = lead << shift;
                for ns in [low, low + (1 << shift) - 1] {
                    let read = bucket_us(latency_bucket(ns)) * 1e3;
                    assert!((read - ns as f64).abs() / ns as f64 <= 0.01, "{ns} ns");
                }
            }
        }
    }

    #[test]
    fn latency_histogram_percentiles_are_ordered() {
        assert_eq!(
            LatencyHistogram::default().percentiles([0.5, 0.99]),
            [0.0; 2]
        );
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let spread = histogram_of((0..10_000).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 50_000_000
        }));
        let [p50, p95, p99] = spread.percentiles([0.50, 0.95, 0.99]);
        assert!(0.0 < p50 && p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // Uniform over 0–50 ms.
        assert!((p50 - 25e3).abs() < 1.5e3 && (p99 - 49.5e3).abs() < 1.5e3);
    }

    #[test]
    fn latency_histogram_clamps_past_its_top_bucket() {
        let top = bucket_us(LATENCY_BUCKETS - 1);
        assert!(top >= 60e6, "the top bucket reads {top} µs");
        let histogram = histogram_of([u64::MAX, 3_600_000_000_000, 1 << TOP_BITS]);
        assert_eq!(histogram.percentiles([0.01, 0.99]), [top; 2]);
        let mut long = LatencyHistogram::default();
        long.record(Duration::MAX);
        assert_eq!(long.percentiles([0.5]), [top]);
    }

    /// The first request is always stamped: one request on its own is
    /// one latency sample and the span `elapsed_us` measures.
    #[test]
    fn a_lone_request_is_timed() {
        let flow = compiled(Backend::BitSliced { words: 1 }, 5);
        let runtime =
            Runtime::from_engine(flow.engine().unwrap(), RuntimeOptions::default()).unwrap();
        let handle = runtime
            .submit(&request_bits(flow.program.num_inputs, 1))
            .unwrap();
        handle.wait().unwrap();
        let stats = runtime.stats();
        assert_eq!(stats.requests, 1);
        assert!(stats.queue.p50_us > 0.0, "{:?}", stats.queue);
        assert!(stats.queue.p50_us <= stats.queue.p99_us);
        assert!(stats.elapsed_us > 0.0);
    }

    /// `n` sequential submits carry `ceil(n / STAMP_EVERY)` stamps, each
    /// one latency sample, whatever batches they were served in.
    #[test]
    fn one_request_in_stamp_every_is_timed() {
        let flow = compiled(Backend::BitSliced { words: 1 }, 6);
        let width = flow.program.num_inputs;
        let runtime = Runtime::from_engine(
            flow.engine().unwrap(),
            RuntimeOptions::default().workers(1).max_batch(16),
        )
        .unwrap();
        let mut submitted = 0;
        for n in [1, 30, 31, 32, 100] {
            let handles: Vec<RequestHandle> = (0..n)
                .map(|i| runtime.submit(&request_bits(width, i)).unwrap())
                .collect();
            for handle in handles {
                handle.wait().unwrap();
            }
            submitted += n;
            let recorded = lock(&runtime.shared.stats.completions).latencies.recorded;
            assert_eq!(
                recorded,
                submitted.div_ceil(STAMP_EVERY),
                "{submitted} submits"
            );
            assert_eq!(runtime.stats().requests, submitted);
        }
    }
}

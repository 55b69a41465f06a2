//! The persistent serving runtime: shared compiled state, a resident
//! worker pool, and dynamic micro-batching to the engine's lane width.
//!
//! The paper's LPU earns its throughput from *word-level parallelism*:
//! every operand word carries `2m` independent Boolean samples, so a
//! compiled block is only fully utilized when samples stream through it
//! packed. The host analogue ([`Backend::BitSliced`]) packs `64 × words`
//! samples per kernel pass (64–1024 lanes) — but real traffic arrives one
//! request at a time. This module closes that gap with the shape real
//! inference servers have:
//!
//! ```text
//!  submit(bits) ──gather──▶ pending batch: packed rows ──▶ micro-batcher
//!       │                   (bounded: backpressure)   (lane-width full │ worker idle)
//!       ▼                                                    │
//!  RequestHandle ◀── result block: packed rows ◀── worker: rows ─transpose▶ columns
//!   .wait() expands    (row j = request j,                  ▶ engine chain, every
//!   its own row         one per micro-batch)                  boundary packed
//!                                                           ▶ columns ─transpose▶ rows
//! ```
//!
//! * The compiled target is **resident and shared**: a chain of engines
//!   — one for a block, one per layer for a [`CompiledModel`] — that
//!   workers execute through `&self`
//!   ([`EngineCore`](crate::engine::EngineCore) is immutable); only the
//!   scratch ([`ServeScratch`]) is per-worker.
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
//!   go back to the batcher as the next batch to form.
//! * The dynamic micro-batcher is **work-conserving**: a batch leaves
//!   the moment it reaches the serving engine's lane width (or an explicit
//!   [`RuntimeOptions::max_batch`] override), *or* the moment a worker
//!   is free to run it — on `submit` when fewer micro-batches are
//!   outstanding than there are workers, otherwise by the next worker to
//!   finish, which pulls whatever accumulated and runs it in the same
//!   job. Requests therefore wait only while every worker is busy,
//!   which is exactly when batching costs nothing; there is no timer
//!   and no flusher thread.
//! * A thread that runs out of work **polls briefly before it parks**
//!   (`POLL_BEFORE_PARK`): a worker at the empty job queue, a caller at
//!   the result cell of a request a free worker is running. A stream
//!   of one-at-a-time requests then meets threads that are already
//!   awake instead of paying — or, depending on thread placement, not
//!   paying — an idle-CPU wake-up per hand-off.
//! * The submission path is **bounded**: when the job queue is full,
//!   `submit` blocks until a worker drains it (backpressure instead of
//!   unbounded memory growth).
//! * The runtime measures what serving layers must report: submit→
//!   response latency percentiles (p50/p95/p99) and peak queue depth
//!   ([`QueueStats`]), surfaced through [`Runtime::stats`] and attached
//!   to [`ThroughputReport::wall`] by [`Runtime::report`].
//! * The served target is **hot-swappable**: [`Runtime::swap_engine`] /
//!   [`Runtime::swap_model`] atomically replace the compiled core
//!   (version `vN` → `vN+1`) under live traffic. A micro-batch executes
//!   wholly on the target it was dispatched with, so every response is
//!   bit-identical to either the old or the new version — never a torn
//!   mix — and no accepted request is dropped. [`RuntimeStats`] reports
//!   the serving version, the swap count, and completions split per
//!   version.
//!
//! Outputs are bit-identical to running each request alone through the
//! scalar reference engine — pinned by property tests — because packing
//! is pure lane bookkeeping: request `j` of a micro-batch occupies lane
//! `j` of every input and output word.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lbnn_netlist::PackedRows;

use crate::engine::{packed_columns, Backend, Engine, EngineScratch};
use crate::error::CoreError;
use crate::model::{run_chain, Built, CompiledModel, ModelScratch};
use crate::throughput::{block_throughput, QueueStats, ThroughputReport, WallTiming};

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// Per-worker mutable state: one engine scratch (batch sharding, and the
/// buffer a micro-batch's rows are transposed into) plus the per-link
/// scratches of the served chain. Each pool thread owns exactly one and
/// reuses it for every job it executes.
#[derive(Debug, Default)]
pub struct ServeScratch {
    /// Scratch for [`Engine::run_batches`] shards; its packed-input
    /// buffer holds a micro-batch's input columns.
    pub(crate) engine: EngineScratch,
    /// Per-link scratches of the served chain (frames and the packed
    /// boundaries, the final outputs included).
    pub(crate) model: ModelScratch,
}

/// How long a thread that has just run out of work keeps looking for
/// more — a worker at the job queue, a caller at the result cell of a
/// request whose batch a free worker is running — before it parks on its
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
/// already awake. Burst traffic never gets here (its workers find the
/// queue non-empty, its callers' requests wait in the batcher), and an
/// idle runtime stops polling after one window.
const POLL_BEFORE_PARK: Duration = Duration::from_micros(200);

/// A job executed on a pool worker with that worker's scratch.
type Job = Box<dyn FnOnce(&mut ServeScratch) + Send + 'static>;

/// A persistent pool of OS worker threads draining a bounded job queue.
///
/// This replaces the old per-call `std::thread::scope` sharding: threads
/// are spawned once and reused, each owning one [`ServeScratch`], so
/// steady-state serving pays no thread spawn or scratch allocation per
/// call. [`WorkerPool::submit`] blocks while the queue is at capacity —
/// the pool is the backpressure point for everything built on it.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
    /// A worker that ran out of jobs is polling the queue (see
    /// [`POLL_BEFORE_PARK`]) and will find a lone new job by itself. At
    /// most one worker polls at a time.
    polling: bool,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns `workers` persistent threads (at least one) draining a
    /// queue bounded at `capacity` jobs.
    pub(crate) fn spawn(workers: usize, capacity: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
                polling: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut scratch = ServeScratch::default();
                    loop {
                        let job = {
                            let mut st = shared.state.lock().expect("pool lock");
                            // Out of jobs: poll once before parking.
                            let mut polled = false;
                            loop {
                                if let Some(job) = st.queue.pop_front() {
                                    shared.not_full.notify_one();
                                    break Some(job);
                                }
                                // Drain the queue fully before honoring
                                // shutdown, so no accepted job is dropped.
                                if st.shutdown {
                                    break None;
                                }
                                if !polled && !st.polling {
                                    polled = true;
                                    st.polling = true;
                                    drop(st);
                                    st = poll_for_job(&shared);
                                    st.polling = false;
                                    continue;
                                }
                                st = shared.not_empty.wait(st).expect("pool lock");
                            }
                        };
                        match job {
                            Some(job) => job(&mut scratch),
                            None => break,
                        }
                    }
                })
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Worker threads in the pool.
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Enqueues a job, blocking while the bounded queue is at capacity
    /// (backpressure).
    pub(crate) fn submit(&self, job: Job) {
        let mut st = self.shared.state.lock().expect("pool lock");
        while st.queue.len() >= self.shared.capacity && !st.shutdown {
            st = self.shared.not_full.wait(st).expect("pool lock");
        }
        st.queue.push_back(job);
        // A polling worker picks a lone job up by itself; waking a parked
        // one as well would only have it find the queue empty.
        let wake = !(st.polling && st.queue.len() == 1);
        drop(st);
        if wake {
            self.shared.not_empty.notify_one();
        }
    }
}

/// The polling phase of a worker that found the queue empty: looks at
/// the queue, yielding the CPU between looks, until there is a job, the
/// pool shuts down, or [`POLL_BEFORE_PARK`] has passed. Returns the pool
/// lock, held since the last look.
fn poll_for_job(shared: &PoolShared) -> MutexGuard<'_, PoolState> {
    let give_up = Instant::now() + POLL_BEFORE_PARK;
    loop {
        std::thread::yield_now();
        let st = shared.state.lock().expect("pool lock");
        if !st.queue.is_empty() || st.shutdown || Instant::now() >= give_up {
            return st;
        }
    }
}

impl Drop for WorkerPool {
    /// Signals shutdown, lets the workers drain every queued job, and
    /// joins them.
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
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
        drop(self.park.lock().expect("park lock"));
        self.ready.notify_all();
    }

    /// Blocks until the batch has been published.
    fn wait(&self) -> &Result<PackedRows, CoreError> {
        if let Some(result) = self.result.get() {
            return result;
        }
        let mut guard = self.park.lock().expect("park lock");
        loop {
            if let Some(result) = self.result.get() {
                return result;
            }
            guard = self.ready.wait(guard).expect("park lock");
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
    /// The request was handed straight to a free worker, so its response
    /// is one kernel pass away: [`RequestHandle::wait`] polls for it
    /// before parking. At most `workers` such requests are outstanding.
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
        if self.poll {
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
/// execution: the batcher appends to it under its lock, a worker
/// consumes it.
struct Batch {
    /// Request `j`'s input bits, gathered into row `j` (one bit per
    /// primary input).
    rows: PackedRows,
    /// Request `j`'s submit time, for its latency sample.
    submitted: Vec<Instant>,
    cell: Arc<BatchCell>,
}

impl Batch {
    /// An empty batch of `width`-bit requests with room for `expect` of
    /// them.
    fn new(width: usize, expect: usize) -> Batch {
        Batch {
            rows: PackedRows::with_capacity(width, expect),
            submitted: Vec::with_capacity(expect),
            cell: Arc::new(BatchCell::new()),
        }
    }

    /// This batch, executed and published, as the next one to form: its
    /// two buffers, emptied, and a result cell of its own. Under load
    /// the same few buffers go round between batcher and workers
    /// ([`BatchState::spare`]). Allocated by the submitter and freed by
    /// the worker, batch after batch, they cost the submitting thread a
    /// fifth of its throughput at ~20-request batches
    /// (`runtime_saturated`).
    fn recycled(mut self) -> Batch {
        self.rows.clear();
        self.submitted.clear();
        self.cell = Arc::new(BatchCell::new());
        self
    }

    /// Appends one request and returns its lane.
    fn push(&mut self, bits: &[bool], now: Instant) -> usize {
        let lane = self.submitted.len();
        self.rows.push_row(bits);
        self.submitted.push(now);
        lane
    }

    /// Requests accepted so far.
    fn len(&self) -> usize {
        self.submitted.len()
    }

    fn is_empty(&self) -> bool {
        self.submitted.is_empty()
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
    /// Every micro-batch panics: the failure path of [`run_batch`],
    /// which no well-formed engine can be made to take.
    #[cfg(test)]
    panics: bool,
}

impl Target {
    fn new(mut engines: Vec<Engine>) -> Target {
        // An engine's own sharding pool (if `run_batches` ever spawned
        // one) is dead weight here — the runtime brings its own workers.
        engines.iter_mut().for_each(Engine::retire_pool);
        Target {
            engines: engines.into(),
            #[cfg(test)]
            panics: false,
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
        assert!(!self.panics, "the test target panics on every micro-batch");
        let lanes = rows.rows();
        rows.columns_into(&mut scratch.engine.packed);
        let columns = packed_columns(&scratch.engine.packed, rows.width(), lanes);
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
    /// Worker threads in the persistent pool. `0` means one per
    /// available CPU.
    pub workers: usize,
    /// Bound of the micro-batch job queue; a full queue blocks
    /// [`Runtime::submit`] until a worker drains it (backpressure).
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
    /// workers + 1)` — enough to fill every queued job slot, every
    /// worker, and the currently forming micro-batch. [`Runtime::submit`]
    /// ignores this and blocks (backpressure); `try_submit` is the
    /// load-shedding entry point network servers use.
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

    /// Sets the bounded job-queue capacity (builder style).
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
    /// Micro-batches dispatched by the size trigger (batch filled).
    pub full_flushes: u64,
    /// Micro-batches dispatched before filling: idle dispatch (a worker
    /// was free at `submit`), worker pull (a finishing worker took what
    /// had accumulated), or an explicit [`Runtime::flush`] /
    /// [`Runtime::drain`] / shutdown. (The name predates the
    /// work-conserving batcher; there is no deadline.)
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
    /// Requests completed on the current serving version. Attribution is
    /// approximate for batches racing a concurrent swap (a batch counts
    /// against the version current at its *completion*), but
    /// `completed_current + completed_prior` always equals the total
    /// completion count.
    pub completed_current: u64,
    /// Requests completed on superseded serving versions.
    pub completed_prior: u64,
    /// Queue depth and submit→response latency percentiles.
    pub queue: QueueStats,
    /// Wall-clock span from first submit to last response, in
    /// microseconds.
    pub elapsed_us: f64,
    /// Completed requests per second over that span.
    pub requests_per_sec: f64,
}

struct RuntimeShared {
    batcher: Mutex<BatchState>,
    /// Pool size, fixed at construction: the `busy` level below which a
    /// partial batch is dispatched instead of left to accumulate.
    workers: usize,
    stats: StatsShared,
    swap: SwapState,
}

/// The hot-swappable serving target plus its version bookkeeping.
///
/// A swap replaces `target` under the write lock; dispatch paths take a
/// read lock only long enough to clone the `Arc`'d target together with
/// its version, so in-flight micro-batches keep executing the core they
/// were dispatched with while new submissions see the replacement.
struct SwapState {
    target: RwLock<Target>,
    /// Serving version: 0 at construction, +1 per swap. Bumped under the
    /// `target` write lock so a `(target, version)` pair read under the
    /// read lock is always consistent.
    version: AtomicU64,
    /// Total hot swaps performed.
    swaps: AtomicU64,
    /// Resolved size flush trigger for the *current* target
    /// (re-resolved on swap when [`RuntimeOptions::max_batch`] is auto).
    flush_target: AtomicUsize,
}

impl RuntimeShared {
    /// The current serving target and its version, read consistently
    /// under the swap read lock (cloning a [`Target`] is one `Arc`
    /// bump).
    fn current(&self) -> (Target, u64) {
        let guard = self.swap.target.read().expect("swap lock");
        let version = self.swap.version.load(Ordering::Acquire);
        (guard.clone(), version)
    }
}

struct BatchState {
    /// The forming micro-batch: requests accepted and not yet dispatched.
    pending: Batch,
    /// The batch a worker ran last, handed back for its buffers: the
    /// next [`BatchState::take_batch`] recycles it.
    spare: Option<Batch>,
    next_id: u64,
    /// Micro-batches dispatched and not yet finished (queued or
    /// running). Invariant, outside this lock: `pending` is non-empty
    /// only while `busy >= workers` — so some batch is still to finish,
    /// and the worker finishing it pulls `pending`.
    busy: usize,
}

impl BatchState {
    /// Takes everything pending as one micro-batch, counts it busy, and
    /// starts the next one (with its own result cell): the spare
    /// recycled, or a new one with room to grow as large as this one
    /// did.
    fn take_batch(&mut self) -> Batch {
        self.busy += 1;
        let next = match self.spare.take() {
            Some(spent) => spent.recycled(),
            None => Batch::new(self.pending.rows.width(), self.pending.len()),
        };
        std::mem::replace(&mut self.pending, next)
    }
}

/// Latency samples kept for percentile estimation, bounded so a
/// long-lived runtime's memory (and `stats()` sort cost) cannot grow
/// with total traffic: reservoir sampling (Algorithm R) over all
/// completions, deterministic via an internal xorshift stream.
struct LatencyReservoir {
    samples: Vec<f64>,
    seen: u64,
    rng: u64,
}

/// Reservoir capacity: enough resolution for a stable p99 while keeping
/// `stats()` O(1) in total requests served.
const LATENCY_SAMPLE_CAP: usize = 4096;

impl Default for LatencyReservoir {
    fn default() -> Self {
        LatencyReservoir {
            samples: Vec::new(),
            seen: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl LatencyReservoir {
    fn record(&mut self, value_us: f64) {
        self.seen += 1;
        if self.samples.len() < LATENCY_SAMPLE_CAP {
            self.samples.push(value_us);
            return;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let slot = (self.rng % self.seen) as usize;
        if slot < LATENCY_SAMPLE_CAP {
            self.samples[slot] = value_us;
        }
    }
}

#[derive(Default)]
struct StatsShared {
    latencies_us: Mutex<LatencyReservoir>,
    requests: AtomicU64,
    completed: AtomicU64,
    /// Completions attributed to the current serving version; rolled
    /// into `completed_prior` by a swap. The pair always sums to
    /// `completed` even when batches race a swap.
    completed_current: AtomicU64,
    /// Completions attributed to superseded serving versions.
    completed_prior: AtomicU64,
    micro_batches: AtomicU64,
    full_flushes: AtomicU64,
    deadline_flushes: AtomicU64,
    shed: AtomicU64,
    lanes_served: AtomicU64,
    in_flight: AtomicUsize,
    peak_in_flight: AtomicUsize,
    /// The first submit and the latest response: the span
    /// [`RuntimeStats::elapsed_us`] reports.
    first_submit: OnceLock<Instant>,
    last_response: Mutex<Option<Instant>>,
    /// Pairs with `idle` to wake [`Runtime::drain`] when `in_flight`
    /// reaches zero; completions only touch it on that transition, so
    /// the hot path stays atomic-only.
    idle_lock: Mutex<()>,
    idle: Condvar,
}

impl StatsShared {
    fn note_submit(&self, now: Instant) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let depth = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        // Once the peak has settled this is a load of a line nobody
        // writes, not a read-modify-write per request.
        if depth > self.peak_in_flight.load(Ordering::Relaxed) {
            self.peak_in_flight.fetch_max(depth, Ordering::Relaxed);
        }
        self.first_submit.get_or_init(|| now);
    }

    /// Retires `count` requests from the in-flight gauge once their
    /// batch is published, waking any [`Runtime::drain`] on the
    /// busy→idle transition. Separate from [`StatsShared::note_completion`]
    /// so `in_flight == 0` really means "every accepted handle has
    /// resolved", not just "accounted".
    fn note_resolved(&self, count: usize) {
        let prev = self.in_flight.fetch_sub(count, Ordering::Release);
        if prev == count {
            // Taking the lock orders the notification after a concurrent
            // drainer's check-then-wait.
            let _guard = self.idle_lock.lock().expect("idle lock");
            self.idle.notify_all();
        }
    }

    /// Accounts one executed micro-batch whose requests were submitted
    /// at `submitted` and answered at `now`.
    fn note_completion(&self, submitted: &[Instant], now: Instant) {
        self.completed
            .fetch_add(submitted.len() as u64, Ordering::Relaxed);
        {
            let mut reservoir = self.latencies_us.lock().expect("latency lock");
            for &at in submitted {
                reservoir.record(now.duration_since(at).as_secs_f64() * 1e6);
            }
        }
        let mut last = self.last_response.lock().expect("last-response lock");
        *last = Some(last.map_or(now, |at| at.max(now)));
    }
}

/// A persistent serving runtime over a resident compiled block
/// ([`Engine`]) or whole model ([`CompiledModel`]).
///
/// Construction spawns the worker pool — the runtime's only threads;
/// from then on [`Runtime::submit`] is the only per-request cost.
/// Dropping the runtime flushes every pending request, drains the job
/// queue, and joins the workers — every issued [`RequestHandle`]
/// resolves.
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
    pool: WorkerPool,
    shared: Arc<RuntimeShared>,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("backend", &self.backend())
            .field("version", &self.version())
            .field("workers", &self.pool.workers())
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Builds a runtime serving one compiled block. The engine's
    /// immutable core is shared across the pool; its own scratch is
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
    /// See [`Runtime::from_engine`] and [`crate::Engine::from_flow`].
    pub fn from_model(model: CompiledModel, options: RuntimeOptions) -> Result<Runtime, CoreError> {
        Runtime::build(Target::new(model.into_engines()?), options)
    }

    fn build(target: Target, options: RuntimeOptions) -> Result<Runtime, CoreError> {
        // max_batch 0 = auto: fill exactly one bit-sliced frame of the
        // serving backend (64–1024 lanes).
        let flush_target = if options.max_batch == 0 {
            target.backend().lanes()
        } else {
            options.max_batch
        };
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
        // Auto admission limit: every queued job slot and every worker
        // full of lane-width batches, plus the currently forming batch.
        let admission_limit = if options.admission_limit == 0 {
            flush_target * (options.queue_capacity + workers + 1)
        } else {
            options.admission_limit
        };
        let pool = WorkerPool::spawn(workers, options.queue_capacity);
        let shared = Arc::new(RuntimeShared {
            batcher: Mutex::new(BatchState {
                pending: Batch::new(num_inputs, 1),
                spare: None,
                next_id: 0,
                busy: 0,
            }),
            workers: pool.workers(),
            stats: StatsShared::default(),
            swap: SwapState {
                target: RwLock::new(target),
                version: AtomicU64::new(0),
                swaps: AtomicU64::new(0),
                flush_target: AtomicUsize::new(flush_target),
            },
        });
        Ok(Runtime {
            options,
            admission_limit,
            num_inputs,
            pool,
            shared,
        })
    }

    /// The worker threads serving this runtime.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The execution backend micro-batches run on (the *current*
    /// serving version's backend).
    pub fn backend(&self) -> Backend {
        self.shared.swap.target.read().expect("swap lock").backend()
    }

    /// The resolved size flush trigger: [`RuntimeOptions::max_batch`] if
    /// set, otherwise the current serving engine's lane width (one full
    /// bit-sliced frame; re-resolved when a hot swap changes the
    /// backend).
    pub fn flush_target(&self) -> usize {
        self.shared.swap.flush_target.load(Ordering::Acquire)
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
        self.shared.swap.version.load(Ordering::Acquire)
    }

    /// Hot-swaps the served block for `engine`, atomically moving the
    /// runtime from version `vN` to `vN+1` **without stopping traffic**:
    ///
    /// * The pending partial micro-batch is flushed to the old core
    ///   first, and micro-batches already dispatched keep executing the
    ///   old `Arc`'d core they were handed — every response is
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
    /// [`crate::EngineCore::patch_cells`] and
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
        // Dispatch the forming partial batch to the outgoing version:
        // requests accepted before the swap must not silently execute a
        // core newer than any that existed when they were accepted
        // *and* older batches must not linger past the swap unflushed.
        self.flush();
        let stats = &self.shared.stats;
        let version = {
            let mut guard = self.shared.swap.target.write().expect("swap lock");
            *guard = target;
            let version = self.shared.swap.version.fetch_add(1, Ordering::AcqRel) + 1;
            self.shared.swap.swaps.fetch_add(1, Ordering::Relaxed);
            let flush_target = if self.options.max_batch == 0 {
                guard.backend().lanes()
            } else {
                self.options.max_batch
            };
            self.shared
                .swap
                .flush_target
                .store(flush_target, Ordering::Release);
            // Roll the per-version counters: everything completed so far
            // now belongs to a superseded version.
            let rolled = stats.completed_current.swap(0, Ordering::AcqRel);
            stats.completed_prior.fetch_add(rolled, Ordering::AcqRel);
            version
        };
        Ok(version)
    }

    /// Submits one single-sample request (`bits[i]` = the value of
    /// primary input `i`) and returns a handle resolving to its outputs.
    ///
    /// The request joins the current micro-batch, which is dispatched
    /// at once if it is now full ([`Runtime::flush_target`]: the
    /// engine's lane width, or an explicit
    /// [`RuntimeOptions::max_batch`]) or if a worker is free to run it;
    /// otherwise every worker is busy and the first to finish pulls the
    /// batch. A full job queue blocks this call until a worker catches
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
        let now = Instant::now();
        self.shared.stats.note_submit(now);
        let flush_target = self.flush_target();
        let (handle, batch) = {
            let mut st = self.shared.batcher.lock().expect("batcher lock");
            let id = st.next_id;
            st.next_id += 1;
            let lane = st.pending.push(bits, now);
            let cell = Arc::clone(&st.pending.cell);
            let free = st.busy < self.shared.workers;
            let batch = if st.pending.len() >= flush_target {
                Some((st.take_batch(), &self.shared.stats.full_flushes))
            } else if free {
                // A worker is free: waiting could not start this request
                // sooner, only later.
                Some((st.take_batch(), &self.shared.stats.deadline_flushes))
            } else {
                // Every worker is busy; the first to finish pulls this.
                None
            };
            // Dispatched to a free worker, the response is one kernel
            // pass away.
            let poll = free && batch.is_some();
            let handle = RequestHandle {
                cell,
                lane,
                id,
                poll,
            };
            (handle, batch)
        };
        if let Some((batch, trigger)) = batch {
            trigger.fetch_add(1, Ordering::Relaxed);
            // Dispatch outside the batcher lock: if the pool queue is
            // full this blocks, but other submitters keep batching.
            dispatch(&self.pool, &self.shared, batch);
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

    /// Blocks until every request accepted so far has resolved — queue
    /// empty, workers idle — without dropping the runtime. The pending
    /// partial batch is flushed first, and re-flushed while waiting so
    /// requests racing in from other threads drain too.
    ///
    /// The runtime stays fully usable afterwards: this is the graceful-
    /// drain primitive for servers (stop accepting, `drain()`, report
    /// final stats), not a shutdown.
    pub fn drain(&self) {
        loop {
            self.flush();
            let stats = &self.shared.stats;
            let guard = stats.idle_lock.lock().expect("idle lock");
            if stats.in_flight.load(Ordering::Acquire) == 0 {
                return;
            }
            // Timed wait: the notify races with our flush above only in
            // the direction of a spurious extra loop, never a hang.
            let _ = stats
                .idle
                .wait_timeout(guard, Duration::from_millis(5))
                .expect("idle lock");
        }
    }

    /// Queues the current partial micro-batch now instead of leaving it
    /// for the next free worker to pull — it then runs in submission
    /// order behind the batches already queued. No-op when nothing is
    /// pending (always the case while a worker is idle).
    pub fn flush(&self) {
        let batch = {
            let mut st = self.shared.batcher.lock().expect("batcher lock");
            if st.pending.is_empty() {
                return;
            }
            st.take_batch()
        };
        self.shared
            .stats
            .deadline_flushes
            .fetch_add(1, Ordering::Relaxed);
        dispatch(&self.pool, &self.shared, batch);
    }

    /// A snapshot of the runtime's serving statistics.
    pub fn stats(&self) -> RuntimeStats {
        let stats = &self.shared.stats;
        let mut latencies = stats
            .latencies_us
            .lock()
            .expect("latency lock")
            .samples
            .clone();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let micro_batches = stats.micro_batches.load(Ordering::Relaxed);
        let lanes = stats.lanes_served.load(Ordering::Relaxed);
        let completed = stats.completed.load(Ordering::Relaxed);
        let last_response = *stats.last_response.lock().expect("last-response lock");
        let elapsed_us = match (stats.first_submit.get(), last_response) {
            (Some(&first), Some(last)) => last.duration_since(first).as_secs_f64() * 1e6,
            _ => 0.0,
        };
        RuntimeStats {
            requests: stats.requests.load(Ordering::Relaxed),
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
            version: self.shared.swap.version.load(Ordering::Acquire),
            swaps: self.shared.swap.swaps.load(Ordering::Relaxed),
            completed_current: stats.completed_current.load(Ordering::Relaxed),
            completed_prior: stats.completed_prior.load(Ordering::Relaxed),
            queue: QueueStats {
                peak_depth: stats.peak_in_flight.load(Ordering::Relaxed),
                p50_us: percentile(&latencies, 0.50),
                p95_us: percentile(&latencies, 0.95),
                p99_us: percentile(&latencies, 0.99),
            },
            elapsed_us,
            requests_per_sec: if elapsed_us > 0.0 {
                completed as f64 / (elapsed_us / 1e6)
            } else {
                0.0
            },
        }
    }

    /// The serving run as a [`ThroughputReport`]: model-time fields
    /// cover every executed micro-batch at the steady-state initiation
    /// interval, and [`ThroughputReport::wall`] carries the measured
    /// host throughput plus the runtime's [`QueueStats`].
    pub fn report(&self) -> ThroughputReport {
        let stats = self.stats();
        let (target, _) = self.shared.current();
        // One micro-batch costs every link its steady-state interval.
        let cycles = (target.engines.iter())
            .map(Engine::steady_clock_cycles_per_batch)
            .sum::<u64>()
            .saturating_mul(stats.micro_batches.max(1))
            .max(1);
        let freq_mhz = target.engines[0].config().freq_mhz;
        block_throughput(cycles, stats.requests as usize, freq_mhz).with_wall(WallTiming {
            backend: target.backend(),
            workers: self.pool.workers(),
            batches: stats.micro_batches as usize,
            elapsed_us: stats.elapsed_us,
            samples_per_sec: stats.requests_per_sec,
            queue: Some(stats.queue),
        })
    }
}

impl Drop for Runtime {
    /// Queues the pending partial batch; `self.pool` drops after this
    /// body and joins the workers once they have drained the queue — so
    /// every issued handle resolves.
    fn drop(&mut self) {
        self.flush();
    }
}

/// Queues `batch` — already counted in [`BatchState::busy`] by
/// [`BatchState::take_batch`] — as one pool job on the target current
/// now: the batch executes that exact target even if a swap lands while
/// it is queued.
///
/// The worker that runs it then keeps going while it is the free
/// worker: it retires the batch from `busy` and, if requests accumulated
/// meanwhile and fewer batches are outstanding than there are workers,
/// pulls them and runs them in the same job. Pulling inline (never
/// through [`WorkerPool::submit`]) means a worker cannot block on its
/// own full queue; and since `busy < workers` leaves no batch waiting in
/// the job queue, a pulled batch never overtakes a queued one.
fn dispatch(pool: &WorkerPool, shared: &Arc<RuntimeShared>, batch: Batch) {
    let (target, version) = shared.current();
    let shared = Arc::clone(shared);
    pool.submit(Box::new(move |scratch| {
        let spent = run_batch(&target, version, &shared, scratch, batch);
        pull_pending(&shared, scratch, spent);
    }));
}

/// A worker's step after finishing a micro-batch (`spent`): retire it
/// from [`BatchState::busy`], hand it back as the spare, and while that
/// leaves this worker free with requests pending, run them here.
fn pull_pending(shared: &RuntimeShared, scratch: &mut ServeScratch, mut spent: Batch) {
    loop {
        let (batch, (target, version)) = {
            let mut st = shared.batcher.lock().expect("batcher lock");
            st.busy -= 1;
            st.spare = Some(spent);
            if st.pending.is_empty() || st.busy >= shared.workers {
                return;
            }
            // Read the target before releasing the batcher lock: a swap
            // flushes (under this lock) before it installs the new
            // target, so requests accepted before a swap began never
            // run on the version it installs.
            (st.take_batch(), shared.current())
        };
        shared
            .stats
            .deadline_flushes
            .fetch_add(1, Ordering::Relaxed);
        spent = run_batch(&target, version, shared, scratch, batch);
    }
}

/// Executes `batch` as one multi-lane pass on the calling worker
/// ([`Target::run`]: packed rows in, per-request packed rows out — row
/// `j` belongs to request `j`) and publishes the result to every handle
/// of the batch at once, then hands the batch back. `version` is the
/// serving version `target` was read under; completions are attributed
/// per version.
fn run_batch(
    target: &Target,
    version: u64,
    shared: &RuntimeShared,
    scratch: &mut ServeScratch,
    batch: Batch,
) -> Batch {
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
    stats.note_completion(&batch.submitted, Instant::now());
    // Attribute the batch to a serving version. A batch finishing
    // after its version was swapped out counts as "prior" — same
    // bucket the swap's counter roll would have moved it to.
    let bucket = if version == shared.swap.version.load(Ordering::Acquire) {
        &stats.completed_current
    } else {
        &stats.completed_prior
    };
    bucket.fetch_add(count as u64, Ordering::Relaxed);
    batch.cell.publish(outcome);
    // Only now are the requests truly resolved: retire them from the
    // in-flight gauge (this is what `drain` waits on).
    stats.note_resolved(count);
    batch
}

/// Nearest-rank percentile of an ascending-sorted sample (0 for empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl Engine {
    /// Converts this engine into a [`Runtime`] serving it — the
    /// compiled core becomes the pool's shared state.
    ///
    /// # Errors
    ///
    /// See [`Runtime::from_engine`].
    pub fn into_runtime(self, options: RuntimeOptions) -> Result<Runtime, CoreError> {
        Runtime::from_engine(self, options)
    }
}

impl CompiledModel {
    /// Converts this model into a [`Runtime`] serving whole-model
    /// inference per request.
    ///
    /// # Errors
    ///
    /// See [`Runtime::from_model`].
    pub fn into_runtime(self, options: RuntimeOptions) -> Result<Runtime, CoreError> {
        Runtime::from_model(self, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Models "every worker is busy" without racing real work: counts
    /// one phantom micro-batch per worker in `busy`, so submissions
    /// accumulate exactly as they do behind running batches.
    fn occupy_workers(runtime: &Runtime) {
        runtime.shared.batcher.lock().unwrap().busy += runtime.workers();
    }

    /// One phantom batch finishes: a pool worker takes the step every
    /// worker takes after a micro-batch.
    fn free_a_worker(runtime: &Runtime) {
        let shared = Arc::clone(&runtime.shared);
        let spent = Batch::new(runtime.num_inputs, 0);
        runtime.pool.submit(Box::new(move |scratch| {
            pull_pending(&shared, scratch, spent)
        }));
    }

    #[test]
    fn pool_runs_jobs_and_drains_on_drop() {
        let pool = WorkerPool::spawn(2, 2);
        assert_eq!(pool.workers(), 2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            pool.submit(Box::new(move |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            }));
        }
        drop(pool); // joins after draining
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    /// `submit` skips the wake-up when a polling worker will find the job
    /// by itself — which must never leave a second job waiting for that
    /// same worker while the other one sleeps. Job A only finishes once
    /// job B has run, so each round needs both workers at once, whether
    /// they were polling (back-to-back rounds) or parked (after a pause).
    #[test]
    fn a_polling_worker_never_strands_a_second_job() {
        let pool = WorkerPool::spawn(2, 8);
        let patience = Duration::from_secs(10);
        for round in 0..200 {
            if round % 20 == 0 {
                std::thread::sleep(4 * POLL_BEFORE_PARK);
            }
            let (b_ran, a_waits) = std::sync::mpsc::channel();
            let (a_done, both_done) = std::sync::mpsc::channel();
            pool.submit(Box::new(move |_| {
                let alongside = a_waits.recv_timeout(patience).is_ok();
                a_done.send(alongside).unwrap();
            }));
            pool.submit(Box::new(move |_| b_ran.send(()).unwrap()));
            assert_eq!(both_done.recv_timeout(2 * patience), Ok(true), "{round}");
        }
    }

    #[test]
    fn runtime_serves_requests_bit_identically_to_engine() {
        for backend in [Backend::Scalar, Backend::BitSliced64] {
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

    /// Work conservation, idle side: with a worker free, a lone request
    /// is dispatched by `submit` itself — no `flush()`, no timer.
    #[test]
    fn idle_runtime_dispatches_a_lone_request_at_once() {
        let flow = compiled(Backend::BitSliced64, 5);
        let width = flow.program.num_inputs;
        let runtime =
            Runtime::from_engine(flow.engine().unwrap(), RuntimeOptions::default().workers(1))
                .unwrap();
        let handle = runtime.submit(&request_bits(width, 1)).unwrap();
        assert!(handle.poll, "a free worker has it: worth polling for");
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
        let flow = compiled(Backend::BitSliced64, 5);
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
    /// the pending batch to one lane width dispatches it; a straggler
    /// after it stays pending.
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
        for handle in handles.into_iter().chain([last]) {
            handle.wait().unwrap();
        }
        let stats = runtime.stats();
        assert_eq!(stats.full_flushes, 1, "{stats:?}");
        assert_eq!(stats.deadline_flushes, 0);
        assert_eq!(stats.micro_batches, 1);
        assert!((stats.mean_lanes_per_batch - 128.0).abs() < 1e-9);
        // One straggler behind the still-busy worker waits for a flush.
        let straggler = runtime.submit(&request_bits(width, 999)).unwrap();
        assert!(straggler.try_wait().is_none());
        runtime.flush();
        straggler.wait().unwrap();
        let stats = runtime.stats();
        assert_eq!(stats.full_flushes, 1);
        assert_eq!(stats.deadline_flushes, 1);
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
        let flow = compiled(Backend::BitSliced64, 35);
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
    /// same error, and neither the worker nor the accounting is lost.
    #[test]
    fn a_failed_batch_gives_every_handle_the_same_error() {
        let mut target = Target::new(vec![compiled(Backend::Scalar, 8).engine().unwrap()]);
        target.panics = true;
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
    }

    /// A handle keeps its batch's result readable on its own: the other
    /// handles may be dropped before or after the batch executes.
    #[test]
    fn the_last_handle_of_a_batch_still_reads_its_row() {
        let flow = compiled(Backend::BitSliced64, 37);
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
        let flow = compiled(Backend::BitSliced64, 9);
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
        // Drop must dispatch the partial batch itself; the handles
        // outlive the runtime, the cell is theirs.
        drop(runtime);
        for handle in handles {
            assert_eq!(handle.wait().unwrap().len(), 3);
        }
    }

    #[test]
    fn report_carries_queue_stats() {
        let flow = compiled(Backend::BitSliced64, 4);
        let width = flow.program.num_inputs;
        let steady = flow.stats.steady_clock_cycles;
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
        runtime.flush();
        for handle in handles {
            handle.wait().unwrap();
        }
        let report = runtime.report();
        assert_eq!(report.batch, 32);
        assert_eq!(report.clock_cycles, steady * 4);
        let wall = report.wall.expect("runtime report measures wall time");
        let queue = wall.queue.expect("runtime report carries queue stats");
        assert!(queue.p50_us <= queue.p95_us && queue.p95_us <= queue.p99_us);
        assert!(queue.peak_depth >= 1);
        assert_eq!(wall.batches, 4);
    }

    /// try_submit sheds immediately (typed error + counter) once the
    /// admission limit is reached, and the runtime keeps serving after
    /// the saturation clears.
    #[test]
    fn try_submit_sheds_at_the_admission_limit() {
        let flow = compiled(Backend::BitSliced64, 13);
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

    /// A runtime's threads are its pool workers and nothing else (no
    /// flusher, no timer thread).
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
            assert_eq!(runtime.pool.handles.len(), workers);
        }
    }

    /// The auto admission limit scales with flush target, queue capacity
    /// and workers.
    #[test]
    fn auto_admission_limit_formula() {
        let flow = compiled(Backend::BitSliced64, 15);
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
        let flow = compiled(Backend::BitSliced64, 23);
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

    /// Requests still pending when a swap begins are flushed to the
    /// *old* core: the version that admitted them answers them.
    #[test]
    fn swap_flushes_the_pending_batch_to_the_old_core() {
        let flow = compiled(Backend::BitSliced64, 27);
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

    #[test]
    fn percentiles_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&sorted, 0.50), 5.0);
        assert_eq!(percentile(&sorted, 0.95), 10.0);
        assert_eq!(percentile(&sorted, 0.99), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[42.0], 0.99), 42.0);
    }
}

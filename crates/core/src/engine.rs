//! The serving layer: compile once, run batches forever.
//!
//! The paper's deployment model (§V) replays one compiled instruction
//! queue back to back at the steady-state initiation interval. An
//! [`Engine`] is that steady state as an object, split the way a real
//! inference server is:
//!
//! * an **immutable, shared** half behind the engine's `Arc`: the
//!   machine configuration, the program, and the one kernel batches
//!   replay on (the cycle-accurate machine or a bit-sliced tape).
//!   Clones and runtime workers share one resident compiled block;
//! * [`EngineScratch`] — the **mutable, per-worker** half: snapshot and
//!   pipeline buffers, retired lane vectors, the bit-slice frame (sized
//!   to the backend's width on first use). Every executing thread owns
//!   its own.
//!
//! The split gives the engine `&self` entry points —
//! [`Engine::run_batch_with`] takes the scratch explicitly — which is
//! what lets the workers of [`crate::runtime::Runtime`] serve one
//! compiled block from many threads at once. [`Engine::run_batch`] keeps
//! the convenient `&mut` shape by lending the engine's own scratch.
//!
//! Every execution [`Backend`] produces bit-identical outputs:
//!
//! * [`Backend::Scalar`] — the cycle-accurate machine replay, modeling
//!   every switch delivery and snapshot register;
//! * [`Backend::BitSliced`] — the compiled netlist replayed as a flat
//!   tape of branch-free word kernels
//!   ([`lbnn_netlist::BitSliceEvaluator`]) at a configurable slice
//!   width: 1, 2, 4, 8 or 16 `u64` words per net =
//!   64/128/256/512/1024 samples per kernel pass, the paper's
//!   word-level parallelism exploited in software (one compiled tile
//!   built per target feature, plus an AVX-512 ternary-logic kernel on
//!   x86_64, see [`lbnn_netlist::SimdMode`]).
//!
//! An engine replays its kernel on the calling thread and owns no
//! thread: the only persistent ones in this crate are a `Runtime`'s
//! workers.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lbnn_netlist::eval::lane_sink;
use lbnn_netlist::{
    BitSliceEvaluator, Lanes, PatchSet, SliceFrame, TapeStats, SUPPORTED_SLICE_WORDS,
};

use crate::compiler::program::LpuProgram;
use crate::error::CoreError;
use crate::flow::Flow;
use crate::lpu::machine::{LpuMachine, PassScratch, RunResult};
use crate::lpu::LpuConfig;

/// How an [`Engine`] executes a compiled flow.
///
/// All backends are bit-identical on every batch; they differ only in
/// what they model and how fast they run. Select one at compile time with
/// [`crate::flow::FlowBuilder::backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Cycle-accurate machine replay (Fig 2): every switch delivery,
    /// snapshot latch and LPE operation is simulated, and scheduling bugs
    /// surface as structured errors. The default, and the reference.
    #[default]
    Scalar,
    /// Bit-sliced functional execution: the mapped netlist compiled once
    /// into branch-free word kernels, `64 × words` samples per net per
    /// kernel pass. Reports the same model-time statistics (compute/clock
    /// cycles, LPE ops) as [`Backend::Scalar`] but does not track
    /// snapshot occupancy ([`RunResult::peak_live_snapshots`] is 0).
    BitSliced {
        /// `u64` words per net slice: 1, 2, 4, 8 or 16
        /// (= 64/128/256/512/1024 lanes per kernel pass). Other values
        /// are rejected by [`Backend::validate`] at compile and engine
        /// construction.
        words: usize,
    },
}

impl Backend {
    /// Samples one kernel pass of this backend natively packs — the
    /// width the serving runtime's micro-batcher fills toward. Bit-sliced
    /// backends pack `64 × words`; the scalar machine has no intrinsic
    /// packing (lane count is arbitrary), so it reports one word's worth
    /// (64), the historical micro-batch size.
    pub fn lanes(self) -> usize {
        match self {
            Backend::Scalar => 64,
            Backend::BitSliced { words } => 64 * words,
        }
    }

    /// Checks that a bit-sliced width is one the kernels support
    /// ([`SUPPORTED_SLICE_WORDS`]: 1, 2, 4, 8 or 16 words).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] naming the offending width.
    pub fn validate(self) -> Result<(), CoreError> {
        match self {
            Backend::Scalar => Ok(()),
            Backend::BitSliced { words } if SUPPORTED_SLICE_WORDS.contains(&words) => Ok(()),
            Backend::BitSliced { words } => Err(CoreError::BadConfig {
                reason: format!(
                    "bit-sliced backend width of {words} words is not supported \
                     (supported: 1, 2, 4, 8 or 16 words = 64/128/256/512/1024 lanes)"
                ),
            }),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Scalar => f.write_str("scalar"),
            Backend::BitSliced { words } => write!(f, "bitsliced:{}", 64 * words),
        }
    }
}

impl FromStr for Backend {
    type Err = CoreError;

    /// Parses what [`Display`](fmt::Display) prints: `scalar` or
    /// `bitsliced:<64|128|256|512|1024>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |reason: String| CoreError::BadConfig { reason };
        if let Some(lanes) = s.strip_prefix("bitsliced:") {
            let lanes: usize = lanes.parse().map_err(|_| {
                bad(format!(
                    "bad backend lane count `{lanes}` (expected a number)"
                ))
            })?;
            if lanes == 0 || !lanes.is_multiple_of(64) {
                return Err(bad(format!(
                    "backend lane count {lanes} must be a positive multiple of 64"
                )));
            }
            let backend = Backend::BitSliced { words: lanes / 64 };
            backend.validate()?;
            return Ok(backend);
        }
        match s {
            "scalar" => Ok(Backend::Scalar),
            other => Err(bad(format!(
                "unknown backend `{other}` (expected `scalar` or \
                 `bitsliced:<64|128|256|512|1024>`)"
            ))),
        }
    }
}

/// Rewrites the op of every instruction computing a patched cell,
/// leaving routing, snapshots and scheduling untouched. A cell
/// recomputed by several MFG executions is patched at every occurrence.
/// Shared by [`Engine::patch_cells`] (live engines) and
/// [`Flow::apply_patches`](crate::flow::Flow::apply_patches)
/// (compile-side patching).
pub(crate) fn patch_program(program: &mut LpuProgram, patches: &PatchSet) -> Result<(), CoreError> {
    use lbnn_netlist::NetlistError;

    let mut missing: std::collections::BTreeSet<_> = patches.iter().map(|(id, _)| id).collect();
    for queue in &mut program.queues {
        for slot in queue.iter_mut().flatten() {
            for lpe in slot.lpes.iter_mut().flatten() {
                let Some(op) = patches.get(lpe.node) else {
                    continue;
                };
                if op.arity() != lpe.op.arity() {
                    return Err(NetlistError::BadPatch {
                        id: lpe.node,
                        reason: format!(
                            "arity mismatch: instruction computes {} ({} inputs), \
                             patch wants {op} ({} inputs)",
                            lpe.op,
                            lpe.op.arity(),
                            op.arity()
                        ),
                    }
                    .into());
                }
                lpe.op = op;
                missing.remove(&lpe.node);
            }
        }
    }
    if let Some(&id) = missing.iter().next() {
        return Err(NetlistError::InvalidNode { id }.into());
    }
    Ok(())
}

/// Per-worker mutable execution state: the scalar machine's pass buffers
/// plus the bit-slice frame.
///
/// A scratch is shape-agnostic (it reshapes to whatever program — and
/// whatever slice width — runs on it), starts empty and cheap
/// (`Default`), and amortizes to zero allocation in steady state when
/// reused across batches. Every thread executing against a shared
/// [`Engine`] owns exactly one.
#[derive(Debug, Clone, Default)]
pub struct EngineScratch {
    pub(crate) pass: PassScratch,
    /// The bit-sliced tape's frame; unused by the scalar machine.
    pub(crate) frame: SliceFrame,
    /// The leading output columns the last pass was asked to keep
    /// ([`Engine::run_with`]'s `keep`), packed in
    /// [`Lanes::pack_rows_into`] layout: column `j` at `[j * stride ..]`,
    /// `stride = lanes.div_ceil(64)`. Bits past `lanes` in a column's
    /// last word are unspecified. This is what crosses a model's layer
    /// boundary — the next layer's inputs are read straight from here
    /// ([`crate::model`]).
    pub(crate) kept: Vec<u64>,
}

impl EngineScratch {
    /// An empty scratch; buffers grow on first use and persist after.
    pub fn new() -> Self {
        EngineScratch::default()
    }
}

/// What an [`Engine`] replays batches on — exactly one per engine,
/// fixed at construction. The bit-sliced tape is derived from the
/// mapped netlist: handed over by the `locality` pass that built it, or
/// recompiled (deterministically) by [`Engine::build`].
#[derive(Debug)]
enum Kernel {
    /// [`Backend::Scalar`]: the cycle-accurate machine runs the program.
    Machine(LpuMachine),
    /// [`Backend::BitSliced`] on one kernel tape.
    Tape(BitSliceEvaluator),
}

/// The lane count of a batch handed over as per-input columns; a batch
/// without columns (a program without inputs) runs one lane, as
/// [`LpuMachine::run`] does.
///
/// # Panics
///
/// Panics if the columns have inconsistent lane counts.
pub(crate) fn column_lanes(columns: &[Lanes]) -> usize {
    let lanes = columns.first().map_or(1, Lanes::len);
    for col in columns {
        assert_eq!(col.len(), lanes, "inconsistent lane counts across inputs");
    }
    lanes
}

/// The column accessor over a flat packed buffer
/// ([`Lanes::pack_rows_into`] layout): input `i`'s lane column is
/// `packed[i * stride .. (i + 1) * stride]`, `stride = lanes.div_ceil(64)`.
///
/// # Panics
///
/// Panics if `packed.len() != num_inputs * lanes.div_ceil(64)`.
pub(crate) fn packed_columns<'a>(
    packed: &'a [u64],
    num_inputs: usize,
    lanes: usize,
) -> impl Fn(usize) -> &'a [u64] {
    let stride = lanes.div_ceil(64);
    assert_eq!(
        packed.len(),
        num_inputs * stride,
        "packed buffer does not hold {num_inputs} columns of {stride} words"
    );
    move |i| &packed[i * stride..(i + 1) * stride]
}

/// The immutable half of an [`Engine`]: what it serves and the kernel
/// it replays on. It never mutates after construction, so one `Arc` of
/// it serves batches from any number of threads at once.
#[derive(Debug)]
struct Core {
    config: LpuConfig,
    /// Shared with the flow the engine was built from and with every
    /// other engine built from it.
    program: Arc<LpuProgram>,
    backend: Backend,
    kernel: Kernel,
    /// LPE operations per pass, cached from the program.
    lpe_ops_per_pass: usize,
}

/// A resident, ready-to-serve compiled block.
///
/// Construction validates the configuration and the program/machine shape
/// once into an immutable, shared core; afterwards every
/// [`run_batch`](Engine::run_batch) is a pure replay. The engine's own
/// buffers (snapshot registers, pipeline registers, retired lane vectors,
/// the bit-slice frame) persist across batches, and
/// [`run_batch_with`](Engine::run_batch_with) serves with caller-owned
/// scratch through `&self`, so one engine can serve from many threads.
///
/// Cloning an engine is cheap: the compiled core is shared (`Arc`), the
/// clone gets fresh empty scratch and its own
/// [`batches_served`](Engine::batches_served) counter.
///
/// ```
/// use lbnn_core::{Engine, Flow, LpuConfig};
/// use lbnn_netlist::random::RandomDag;
/// use lbnn_netlist::Lanes;
///
/// let netlist = RandomDag::strict(8, 4, 6).outputs(2).generate(3);
/// let flow = Flow::builder(&netlist).config(LpuConfig::new(4, 4)).compile()?;
/// let mut engine = flow.engine()?;
/// let batch: Vec<Lanes> = (0..8).map(|i| Lanes::from_bools(&[i % 2 == 0])).collect();
/// let first = engine.run_batch(&batch)?;
/// let second = engine.run_batch(&batch)?;
/// assert_eq!(first.outputs, second.outputs);
/// assert_eq!(engine.batches_served(), 2);
/// # Ok::<(), lbnn_core::CoreError>(())
/// ```
pub struct Engine {
    core: Arc<Core>,
    /// The engine's own scratch, lent to `&mut self` convenience paths.
    scratch: EngineScratch,
    /// Batches served since construction; incremented exactly once per
    /// executed batch by every serving path (atomic so `&self` paths can
    /// count from any thread).
    batches_served: AtomicU64,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("core", &self.core)
            .field("batches_served", &self.batches_served())
            .finish_non_exhaustive()
    }
}

impl Clone for Engine {
    /// Cheap clone: shares the immutable core, starts with fresh scratch
    /// and a counter snapshot (the clone's
    /// [`batches_served`](Engine::batches_served) advances independently).
    fn clone(&self) -> Self {
        Engine {
            core: Arc::clone(&self.core),
            scratch: EngineScratch::default(),
            batches_served: AtomicU64::new(self.batches_served()),
        }
    }
}

impl Engine {
    /// Builds an engine serving `flow`'s program on `flow`'s backend;
    /// the program is shared with the flow, not copied. A
    /// [`Backend::BitSliced`] engine replays the tape the flow's
    /// `locality` pass built when the caller hands it over, and
    /// otherwise compiles one from the mapped netlist with the read cone
    /// of outputs `..reads` first — whatever `flow.partitions` says, as
    /// the partitioned exchange plan is for inspection only. Only a
    /// [`Backend::Scalar`] engine holds the cycle-accurate machine.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] if the configuration is unusable,
    /// the program was compiled for a different machine shape, or the
    /// flow's kernel disagrees with its program.
    fn build(
        flow: &Flow,
        tape: Option<BitSliceEvaluator>,
        reads: usize,
    ) -> Result<Self, CoreError> {
        let (config, program) = (flow.config, &flow.program);
        config.validate()?;
        flow.backend.validate()?;
        if program.m != config.m || program.n != config.n {
            return Err(CoreError::BadConfig {
                reason: format!(
                    "program compiled for m={}, n={} but engine machine has m={}, n={}",
                    program.m, program.n, config.m, config.n
                ),
            });
        }
        let kernel = match flow.backend {
            Backend::Scalar => Kernel::Machine(LpuMachine::new(config)?),
            Backend::BitSliced { .. } => Kernel::Tape(
                tape.unwrap_or_else(|| BitSliceEvaluator::compile_reading(&flow.netlist, reads)),
            ),
        };
        if let Kernel::Tape(tape) = &kernel {
            let (ins, outs) = (tape.num_inputs(), tape.num_outputs());
            if ins != program.num_inputs || outs != program.outputs.len() {
                return Err(CoreError::BadConfig {
                    reason: format!(
                        "kernel interface ({ins} in / {outs} out) disagrees with the program \
                         ({} in / {} out)",
                        program.num_inputs,
                        program.outputs.len()
                    ),
                });
            }
        }
        let core = Core {
            config,
            program: Arc::clone(program),
            backend: flow.backend,
            kernel,
            lpe_ops_per_pass: program.lpe_op_count(),
        };
        Ok(Engine::serving(core))
    }

    /// A fresh engine (own scratch, counter at 0) serving `core`.
    fn serving(core: Core) -> Self {
        Engine {
            core: Arc::new(core),
            scratch: EngineScratch::default(),
            batches_served: AtomicU64::new(0),
        }
    }

    /// Returns the engine unchanged: an engine serves on the calling
    /// thread, whatever the count. To serve from several threads, start
    /// a [`crate::runtime::Runtime`].
    #[must_use]
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }

    /// Whether `self` and `other` serve one resident compiled core.
    #[cfg(test)]
    pub(crate) fn shares_core(&self, other: &Engine) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    /// A new engine serving this engine's program with the logic
    /// function of every cell in `patches` replaced — the copy-on-write
    /// half of hot reconfiguration.
    ///
    /// Only function payloads move: the scalar program — copied on
    /// write, the original still shared by whoever else holds it —
    /// keeps its routing, snapshot and schedule words and has each matching
    /// [`LpeInstr`](crate::compiler::program::LpeInstr)'s op swapped
    /// (a cell recomputed by several MFG executions is patched at every
    /// occurrence), and the bit-sliced kernel tape has the target
    /// cells' ANF masks rewritten in place
    /// ([`BitSliceEvaluator::patched`]). The patched engine owns a fresh
    /// core and counter, while `self` — and every clone or worker
    /// holding the old core — keeps serving the old functions, so
    /// in-flight batches finish on the old version while new submissions
    /// see the new one. Pair with
    /// [`Runtime::swap_engine`](crate::runtime::Runtime::swap_engine)
    /// to move live traffic over atomically.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Netlist`] with
    /// [`NetlistError::BadPatch`](lbnn_netlist::NetlistError::BadPatch)
    /// when a replacement's arity disagrees with the instruction it
    /// rewrites, or
    /// [`NetlistError::InvalidNode`](lbnn_netlist::NetlistError::InvalidNode)
    /// when a patched id names no executable cell of this program.
    pub fn patch_cells(&self, patches: &PatchSet) -> Result<Engine, CoreError> {
        let core = &*self.core;
        let mut program = Arc::clone(&core.program);
        patch_program(Arc::make_mut(&mut program), patches)?;
        let kernel = match &core.kernel {
            Kernel::Machine(machine) => Kernel::Machine(machine.clone()),
            Kernel::Tape(tape) => Kernel::Tape(tape.patched(patches)?),
        };
        let core = Core {
            config: core.config,
            program,
            backend: core.backend,
            kernel,
            lpe_ops_per_pass: core.lpe_ops_per_pass,
        };
        Ok(Engine::serving(core))
    }

    /// The execution backend this engine replays batches on.
    pub fn backend(&self) -> Backend {
        self.core.backend
    }

    /// Lanes one kernel pass natively packs ([`Backend::lanes`]): 64–1024
    /// for bit-sliced backends, 64 for the scalar machine. The
    /// [`crate::runtime::Runtime`] micro-batcher uses this as its default
    /// flush target.
    pub fn lane_width(&self) -> usize {
        self.core.backend.lanes()
    }

    /// The machine configuration.
    pub fn config(&self) -> &LpuConfig {
        &self.core.config
    }

    /// The resident program.
    pub fn program(&self) -> &LpuProgram {
        &self.core.program
    }

    /// Locality statistics of the resident kernel tape ([`TapeStats`]:
    /// fused chains, live frame slots); `None` on scalar engines, which
    /// execute no tape.
    pub fn tape_stats(&self) -> Option<TapeStats> {
        match &self.core.kernel {
            Kernel::Machine(_) => None,
            Kernel::Tape(tape) => Some(tape.tape_stats()),
        }
    }

    /// Steady-state clock cycles between batch starts (initiation
    /// interval × `tc`): back-to-back serving admits a new batch every
    /// `queue_depth` compute cycles, not every full fill+drain latency.
    pub fn steady_clock_cycles_per_batch(&self) -> u64 {
        self.core.program.queue_depth as u64 * self.core.config.tc() as u64
    }

    /// Batches served since construction, across every path — sequential
    /// [`run_batch`](Engine::run_batch), caller-scratch
    /// [`run_batch_with`](Engine::run_batch_with),
    /// [`run_batches`](Engine::run_batches), and
    /// [`crate::runtime::Runtime`] micro-batches — each executed batch
    /// counted exactly once (failed batches do not count).
    pub fn batches_served(&self) -> u64 {
        self.batches_served.load(Ordering::Relaxed)
    }

    /// Runs one batch (`inputs[i]` = lanes of primary input `i`),
    /// reusing the engine's own buffers.
    ///
    /// Results are bit-identical to [`Flow::simulate`] on the same
    /// inputs, on either backend; only the execution strategy differs.
    ///
    /// # Errors
    ///
    /// See [`LpuMachine::run`].
    ///
    /// # Panics
    ///
    /// Panics if the input lane vectors have inconsistent lane counts.
    pub fn run_batch(&mut self, inputs: &[Lanes]) -> Result<RunResult, CoreError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.run_batch_with(&mut scratch, inputs);
        self.scratch = scratch;
        result
    }

    /// Runs one batch through `&self` with caller-owned scratch — the
    /// shared-state entry point: any number of threads may call this
    /// concurrently on one engine, each with its own
    /// [`EngineScratch`].
    ///
    /// # Errors
    ///
    /// See [`LpuMachine::run`].
    ///
    /// # Panics
    ///
    /// Panics if the input lane vectors have inconsistent lane counts.
    pub fn run_batch_with(
        &self,
        scratch: &mut EngineScratch,
        inputs: &[Lanes],
    ) -> Result<RunResult, CoreError> {
        self.check_arity(inputs.len())?;
        let lanes = column_lanes(inputs);
        self.run_with(scratch, lanes, |i| inputs[i].words(), 0, true)
    }

    /// The arity check every entry makes before it reads a column.
    pub(crate) fn check_arity(&self, got: usize) -> Result<(), CoreError> {
        let expected = self.core.program.num_inputs;
        if got != expected {
            return Err(CoreError::InputArity { expected, got });
        }
        Ok(())
    }

    /// The one body behind every execution path (batch replay, the
    /// runtime micro-batcher, the model chain), so the
    /// paths cannot diverge: packed columns in, packed columns out, and
    /// the one place [`batches_served`](Engine::batches_served)
    /// advances (a failed batch does not count).
    ///
    /// `input_words(i)` yields input `i`'s packed lane column (at least
    /// `lanes.div_ceil(64)` words) for each of the program's inputs —
    /// the caller has checked the arity. The first `keep` output columns
    /// (capped at the program's output count) are left packed in
    /// `scratch.kept`; [`RunResult::outputs`] holds every output as
    /// [`Lanes`] when `columns` is set and is empty otherwise — a pass
    /// materialises only what its caller reads. The scalar machine
    /// consumes and produces `Lanes`, so it rebuilds its input columns
    /// and copies the kept ones out.
    pub(crate) fn run_with<'a>(
        &self,
        scratch: &mut EngineScratch,
        lanes: usize,
        input_words: impl Fn(usize) -> &'a [u64],
        keep: usize,
        columns: bool,
    ) -> Result<RunResult, CoreError> {
        let core = &*self.core;
        let EngineScratch { pass, frame, kept } = scratch;
        // The scratch is shape-agnostic; set its frame to this engine's
        // slice width (no-op once matched). The tape sizes it from there.
        if let Backend::BitSliced { words } = core.backend {
            frame.set_width(words);
        }
        let stride = lanes.div_ceil(64);
        let num_outputs = core.program.outputs.len();
        let keep = keep.min(num_outputs);
        kept.clear();
        kept.resize(keep * stride, 0);
        let mut built = Vec::new();
        let machine_run = {
            let mut build = lane_sink(&mut built, if columns { num_outputs } else { 0 }, lanes);
            // Blocks arrive in order: a kept column is stored at the
            // block's word offset, a built one is made by `lane_sink`.
            let emitted = if columns { num_outputs } else { keep };
            let sink = |o: usize, base: usize, words: &[u64]| {
                if o < keep {
                    kept[o * stride + base..][..words.len()].copy_from_slice(words);
                }
                if columns {
                    build(o, base, words);
                }
            };
            match &core.kernel {
                Kernel::Machine(machine) => {
                    let inputs: Vec<Lanes> = (0..core.program.num_inputs)
                        .map(|i| Lanes::from_slice(&input_words(i)[..stride], lanes))
                        .collect();
                    let mut result =
                        machine.run_with_scratch(&core.program, &inputs, lanes, pass)?;
                    for (o, col) in result.outputs.iter().enumerate().take(keep) {
                        kept[o * stride..][..stride].copy_from_slice(col.words());
                    }
                    if !columns {
                        result.outputs.clear();
                    }
                    Some(result)
                }
                Kernel::Tape(tape) => {
                    tape.eval_blocks(lanes, frame, input_words, emitted, sink);
                    None
                }
            }
        };
        // Functional execution reports the scalar path's model-time
        // accounting.
        let result = machine_run.unwrap_or_else(|| RunResult {
            outputs: built,
            compute_cycles: core.program.total_cycles,
            clock_cycles: core.program.total_cycles as u64 * core.config.tc() as u64,
            lpe_ops: core.lpe_ops_per_pass,
            peak_live_snapshots: 0,
        });
        self.batches_served.fetch_add(1, Ordering::Relaxed);
        Ok(result)
    }

    /// Runs a sequence of batches back to back on the calling thread —
    /// the paper's steady-state serving loop — returning one result per
    /// batch, in input order.
    ///
    /// # Errors
    ///
    /// Returns the first batch error; execution stops right there.
    ///
    /// # Panics
    ///
    /// A batch that panics (see [`Engine::run_batch`]) panics the
    /// caller; the engine serves the next call.
    pub fn run_batches<B: AsRef<[Lanes]>>(
        &mut self,
        batches: &[B],
    ) -> Result<Vec<RunResult>, CoreError> {
        (batches.iter())
            .map(|batch| self.run_batch(batch.as_ref()))
            .collect()
    }
}

impl Flow {
    /// Builds a resident [`Engine`] serving this flow's program on this
    /// flow's [`Backend`]. The program is shared with the flow, not
    /// copied ([`Engine::program`] is `flow.program`); the tape a freshly
    /// compiled flow's `locality` pass built is copied (use
    /// [`Flow::into_engine`] to move it), and flows without one — loaded
    /// from serialized artifacts, or compiled with `partitions > 1` —
    /// compile it (deterministically) from the mapped netlist.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] if the configuration is unusable,
    /// the program was compiled for a different machine shape, or the
    /// flow's kernel disagrees with its program.
    pub fn engine(&self) -> Result<Engine, CoreError> {
        self.engine_reading(usize::MAX)
    }

    /// [`Flow::engine`] for a caller that hands on only the first
    /// `reads` outputs (a hidden model layer): a tape compiled here puts
    /// their read cone first ([`BitSliceEvaluator::compile_reading`]).
    /// A flow's prebuilt tape is taken as it is.
    pub(crate) fn engine_reading(&self, reads: usize) -> Result<Engine, CoreError> {
        let tape = self.artifacts.as_ref().and_then(|a| a.tape.clone());
        Engine::build(self, tape, reads)
    }

    /// Converts this flow into a resident [`Engine`], moving the compiled
    /// kernel (the remaining compiler artifacts are dropped).
    ///
    /// # Errors
    ///
    /// See [`Flow::engine`].
    pub fn into_engine(mut self) -> Result<Engine, CoreError> {
        let tape = self.artifacts.take().and_then(|a| a.tape);
        Engine::build(&self, tape, usize::MAX)
    }

    /// Locality statistics of the kernel tape the `locality` pass
    /// compiled for this flow ([`TapeStats`]); `None` for scalar and
    /// partitioned flows, and for flows loaded from serialized
    /// artifacts (which recompile their kernel at engine build).
    pub fn tape_stats(&self) -> Option<TapeStats> {
        self.artifacts
            .as_ref()
            .and_then(|a| a.tape.as_ref())
            .map(BitSliceEvaluator::tape_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbnn_netlist::random::RandomDag;
    use lbnn_netlist::{NetlistError, Op};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_batch(rng: &mut StdRng, width: usize, lanes: usize) -> Vec<Lanes> {
        (0..width)
            .map(|_| {
                let bits: Vec<bool> = (0..lanes).map(|_| rng.random_bool(0.5)).collect();
                Lanes::from_bools(&bits)
            })
            .collect()
    }

    #[test]
    fn engine_matches_simulate_across_many_batches() {
        let nl = RandomDag::strict(12, 5, 8).outputs(3).generate(5);
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(6, 4))
            .compile()
            .unwrap();
        let mut engine = flow.engine().unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        for batch_no in 0..5 {
            let batch = random_batch(&mut rng, nl.inputs().len(), 64 + batch_no);
            let fresh = flow.simulate(&batch).unwrap();
            let served = engine.run_batch(&batch).unwrap();
            assert_eq!(served.outputs, fresh.outputs, "batch {batch_no}");
            assert_eq!(served.lpe_ops, fresh.lpe_ops);
        }
        assert_eq!(engine.batches_served(), 5);
    }

    #[test]
    fn run_batches_returns_one_result_per_batch() {
        let nl = RandomDag::strict(8, 4, 6).outputs(2).generate(1);
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(4, 4))
            .compile()
            .unwrap();
        let mut engine = flow.clone().into_engine().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let batches: Vec<Vec<Lanes>> = (0..4)
            .map(|_| random_batch(&mut rng, nl.inputs().len(), 32))
            .collect();
        let results = engine.run_batches(&batches).unwrap();
        assert_eq!(results.len(), 4);
        for (res, batch) in results.iter().zip(&batches) {
            assert_eq!(res.outputs, flow.simulate(batch).unwrap().outputs);
        }
        assert!(engine.steady_clock_cycles_per_batch() > 0);
        assert_eq!(
            engine.steady_clock_cycles_per_batch(),
            flow.stats.steady_clock_cycles
        );
    }

    #[test]
    fn engine_rejects_shape_mismatch() {
        let nl = RandomDag::strict(8, 4, 6).outputs(2).generate(2);
        let mut flow = Flow::builder(&nl)
            .config(LpuConfig::new(4, 4))
            .compile()
            .unwrap();
        flow.config = LpuConfig::new(8, 4);
        let err = flow.engine().unwrap_err();
        assert!(matches!(err, CoreError::BadConfig { .. }));

        // A config of the right shape that no machine can run is rejected
        // on every backend, though only the scalar one builds a machine.
        let backends = [Backend::Scalar].into_iter().chain(
            SUPPORTED_SLICE_WORDS
                .iter()
                .map(|&words| Backend::BitSliced { words }),
        );
        for backend in backends {
            let mut flow = Flow::builder(&nl)
                .config(LpuConfig::new(4, 4))
                .backend(backend)
                .compile()
                .unwrap();
            flow.config.freq_mhz = f64::NAN;
            let err = flow.engine().unwrap_err();
            assert!(
                matches!(err, CoreError::BadConfig { .. }),
                "{backend}: {err}"
            );
        }
    }

    #[test]
    fn bitsliced_backend_is_bit_identical_to_scalar_at_every_width() {
        let mut rng = StdRng::seed_from_u64(2024);
        for seed in 0..2 {
            let nl = RandomDag::strict(12, 6, 9).outputs(4).generate(seed);
            let scalar_flow = Flow::builder(&nl)
                .config(LpuConfig::new(6, 4))
                .compile()
                .unwrap();
            let mut scalar = scalar_flow.engine().unwrap();
            assert_eq!(scalar.backend(), Backend::Scalar);
            for words in [1usize, 2, 4, 8, 16] {
                let sliced_flow = Flow::builder(&nl)
                    .config(LpuConfig::new(6, 4))
                    .backend(Backend::BitSliced { words })
                    .compile()
                    .unwrap();
                let mut sliced = sliced_flow.engine().unwrap();
                assert_eq!(sliced.backend(), Backend::BitSliced { words });
                assert_eq!(sliced.lane_width(), 64 * words);
                // Sub-slice, exact-slice and tailed multi-slice batches.
                for lanes in [1usize, 64, 64 * words, 64 * words + 13, 600] {
                    let batch = random_batch(&mut rng, nl.inputs().len(), lanes);
                    let a = scalar.run_batch(&batch).unwrap();
                    let b = sliced.run_batch(&batch).unwrap();
                    assert_eq!(
                        a.outputs, b.outputs,
                        "seed {seed} words {words} lanes {lanes}"
                    );
                    assert_eq!(a.clock_cycles, b.clock_cycles);
                    assert_eq!(a.lpe_ops, b.lpe_ops);
                }
            }
        }
    }

    #[test]
    fn unsupported_slice_widths_are_rejected() {
        for words in [0usize, 3, 5, 32] {
            let backend = Backend::BitSliced { words };
            assert!(matches!(
                backend.validate(),
                Err(CoreError::BadConfig { .. })
            ));
            let nl = RandomDag::strict(8, 4, 6).outputs(2).generate(1);
            let err = Flow::builder(&nl)
                .config(LpuConfig::new(4, 4))
                .backend(backend)
                .compile()
                .unwrap_err();
            assert!(matches!(err, CoreError::BadConfig { .. }), "words {words}");
        }
    }

    /// Regression: every executed batch counts exactly once, across
    /// repeated calls and the `&self` caller-scratch path.
    #[test]
    fn batches_served_counts_each_batch_exactly_once() {
        let nl = RandomDag::strict(8, 4, 6).outputs(2).generate(4);
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(4, 4))
            .compile()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let batches: Vec<Vec<Lanes>> = (0..7)
            .map(|_| random_batch(&mut rng, nl.inputs().len(), 24))
            .collect();
        let mut engine = flow.engine().unwrap();
        engine.run_batches(&batches).unwrap();
        assert_eq!(engine.batches_served(), 7, "first run");
        engine.run_batches(&batches).unwrap();
        assert_eq!(engine.batches_served(), 14, "a second call counts once");
        let mut scratch = EngineScratch::new();
        engine.run_batch_with(&mut scratch, &batches[0]).unwrap();
        assert_eq!(
            engine.batches_served(),
            15,
            "caller-scratch path counts once"
        );
        // A clone counts independently from its snapshot.
        let mut fork = engine.clone();
        fork.run_batch(&batches[0]).unwrap();
        assert_eq!(fork.batches_served(), 16);
        assert_eq!(engine.batches_served(), 15);
    }

    #[test]
    fn run_batch_with_matches_owned_scratch_path() {
        let nl = RandomDag::strict(10, 5, 8).outputs(3).generate(11);
        for backend in [Backend::Scalar, Backend::BitSliced { words: 1 }] {
            let flow = Flow::builder(&nl)
                .config(LpuConfig::new(5, 4))
                .backend(backend)
                .compile()
                .unwrap();
            let mut engine = flow.engine().unwrap();
            let shared = flow.engine().unwrap();
            let mut scratch = EngineScratch::new();
            let mut rng = StdRng::seed_from_u64(31);
            for lanes in [1usize, 64, 130] {
                let batch = random_batch(&mut rng, nl.inputs().len(), lanes);
                let a = engine.run_batch(&batch).unwrap();
                let b = shared.run_batch_with(&mut scratch, &batch).unwrap();
                assert_eq!(a.outputs, b.outputs, "{backend} lanes {lanes}");
            }
        }
    }

    /// A compiled block and seven distinguishable batches for it.
    fn seven_batches() -> (Flow, Vec<Vec<Lanes>>) {
        let nl = RandomDag::strict(6, 3, 4).outputs(2).generate(3);
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(4, 4))
            .compile()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let batches = (0..7)
            .map(|i| random_batch(&mut rng, nl.inputs().len(), 16 + i))
            .collect();
        (flow, batches)
    }

    #[test]
    fn run_batches_stops_at_the_first_error_in_input_order() {
        let (flow, mut batches) = seven_batches();
        let mut rng = StdRng::seed_from_u64(6);
        // Two distinguishable failures: the earlier one is reported.
        batches[4] = random_batch(&mut rng, 1, 16);
        batches[6] = random_batch(&mut rng, 2, 16);
        let mut engine = flow.engine().unwrap();
        let err = engine.run_batches(&batches).unwrap_err();
        assert!(matches!(err, CoreError::InputArity { got: 1, .. }), "{err}");
        // The batches before the failure ran; none after it did.
        assert_eq!(engine.batches_served(), 4);
    }

    /// A batch that panics panics the caller with the batch's own
    /// message, and leaves the engine serving.
    #[test]
    fn a_panicking_batch_propagates_and_the_engine_serves_on() {
        let (flow, mut batches) = seven_batches();
        let expect = flow.engine().unwrap().run_batches(&batches).unwrap();
        let healthy = batches.clone();
        batches[5][0] = Lanes::from_bools(&[true; 3]); // ragged columns
        let mut engine = flow.engine().unwrap();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_batches(&batches)
        }))
        .unwrap_err();
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("inconsistent lane counts"), "{message}");
        let got = engine.run_batches(&healthy).unwrap();
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g.outputs, e.outputs);
        }
    }

    #[test]
    fn backend_parses_and_displays() {
        // Each backend has one spelling, and it parses back to itself.
        for (spec, backend, lanes) in [
            ("scalar", Backend::Scalar, 64),
            ("bitsliced:64", Backend::BitSliced { words: 1 }, 64),
            ("bitsliced:128", Backend::BitSliced { words: 2 }, 128),
            ("bitsliced:256", Backend::BitSliced { words: 4 }, 256),
            ("bitsliced:512", Backend::BitSliced { words: 8 }, 512),
            ("bitsliced:1024", Backend::BitSliced { words: 16 }, 1024),
        ] {
            assert_eq!(spec.parse::<Backend>().unwrap(), backend, "{spec}");
            assert_eq!(backend.to_string(), spec);
            assert_eq!(backend.lanes(), lanes, "{spec}");
        }
        for bad in [
            "bitsliced64",
            "bitsliced",
            "bit-sliced",
            "bit-sliced:256",
            "simd",
            "bitsliced:0",
            "bitsliced:96",
            "bitsliced:2048",
            "bitsliced:x",
        ] {
            let err = bad.parse::<Backend>().unwrap_err();
            assert!(matches!(err, CoreError::BadConfig { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn patch_cells_matches_oracle_on_every_backend() {
        let nl = RandomDag::strict(12, 5, 8).outputs(3).generate(21);
        let mut rng = StdRng::seed_from_u64(77);
        for backend in [
            Backend::Scalar,
            Backend::BitSliced { words: 1 },
            Backend::BitSliced { words: 4 },
        ] {
            let flow = Flow::builder(&nl)
                .config(LpuConfig::new(6, 4))
                .backend(backend)
                .compile()
                .unwrap();
            // Flip a few mapped-netlist gates to their negated forms.
            let mut patches = PatchSet::new();
            for (id, node) in flow.netlist.iter() {
                if node.op().is_gate2() && patches.len() < 3 {
                    patches.set(id, node.op().negated().unwrap());
                }
            }
            assert_eq!(patches.len(), 3);
            let engine = flow.engine().unwrap();
            let patched = engine.patch_cells(&patches).unwrap();
            let mut oracle_nl = flow.netlist.clone();
            oracle_nl.apply_patches(&patches).unwrap();
            for lanes in [1usize, 64, 100] {
                let batch = random_batch(&mut rng, nl.inputs().len(), lanes);
                let got = patched
                    .run_batch_with(&mut EngineScratch::new(), &batch)
                    .unwrap();
                let want = lbnn_netlist::eval::evaluate(&oracle_nl, &batch).unwrap();
                assert_eq!(got.outputs, want, "{backend} lanes {lanes}");
                // The original engine still serves the old functions.
                let old = engine
                    .run_batch_with(&mut EngineScratch::new(), &batch)
                    .unwrap();
                let base = lbnn_netlist::eval::evaluate(&flow.netlist, &batch).unwrap();
                assert_eq!(old.outputs, base, "{backend} old core lanes {lanes}");
            }
        }
    }

    /// The ops the program's LPE instructions compute for cell `id`.
    fn ops_of(program: &LpuProgram, id: lbnn_netlist::NodeId) -> Vec<Op> {
        let slots = program.queues.iter().flatten().flatten();
        let lpes = slots.flat_map(|slot| slot.lpes.iter().flatten());
        lpes.filter(|lpe| lpe.node == id)
            .map(|lpe| lpe.op)
            .collect()
    }

    /// A served block holds one VLIW image: an engine built from a flow
    /// — or from a clone of it — serves the flow's own program, and both
    /// patch routes copy it on write, leaving the original untouched.
    #[test]
    fn engines_share_the_flow_program_and_patching_copies_it() {
        let nl = RandomDag::strict(8, 4, 6).outputs(2).generate(3);
        for backend in [Backend::Scalar, Backend::BitSliced { words: 4 }] {
            let flow = Flow::builder(&nl)
                .config(LpuConfig::new(4, 4))
                .backend(backend)
                .compile()
                .unwrap();
            let engine = flow.engine().unwrap();
            assert!(std::ptr::eq(engine.program(), &*flow.program), "{backend}");
            let clone = flow.clone();
            assert!(std::ptr::eq(
                clone.engine().unwrap().program(),
                &*flow.program
            ));
            assert!(std::ptr::eq(
                clone.into_engine().unwrap().program(),
                &*flow.program
            ));

            let (gate, op) = (flow.netlist.iter())
                .find(|(_, n)| n.op().is_gate2())
                .map(|(id, n)| (id, n.op()))
                .unwrap();
            let flipped = op.negated().unwrap();
            let patches: PatchSet = [(gate, flipped)].into_iter().collect();
            let live = engine.patch_cells(&patches).unwrap();
            let compiled = flow.apply_patches(&patches).unwrap();
            for (route, program) in [("live", live.program()), ("flow", &*compiled.program)] {
                assert!(!std::ptr::eq(program, &*flow.program), "{backend} {route}");
                assert!(
                    ops_of(program, gate).iter().all(|&o| o == flipped),
                    "{route}"
                );
            }
            assert!(ops_of(&flow.program, gate).iter().all(|&o| o == op));
            assert!(!ops_of(&flow.program, gate).is_empty());
            assert!(std::ptr::eq(engine.program(), &*flow.program));
        }
    }

    #[test]
    fn patch_cells_rejects_unknown_cells_and_arity_mismatches() {
        let nl = RandomDag::strict(8, 4, 6).outputs(2).generate(2);
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(4, 4))
            .compile()
            .unwrap();
        let engine = flow.engine().unwrap();

        // Primary inputs have no instruction to rewrite.
        let mut on_input = PatchSet::new();
        on_input.set(flow.netlist.inputs()[0], Op::And);
        assert!(matches!(
            engine.patch_cells(&on_input),
            Err(CoreError::Netlist(NetlistError::InvalidNode { .. }))
        ));

        // Out-of-range ids are unknown cells.
        let mut unknown = PatchSet::new();
        unknown.set(lbnn_netlist::NodeId::new(10_000), Op::Xor);
        assert!(matches!(
            engine.patch_cells(&unknown),
            Err(CoreError::Netlist(NetlistError::InvalidNode { .. }))
        ));

        // A two-input cell cannot become single-input.
        let gate2 = flow
            .netlist
            .iter()
            .find(|(_, n)| n.op().is_gate2())
            .map(|(id, _)| id)
            .unwrap();
        let mut bad_arity = PatchSet::new();
        bad_arity.set(gate2, Op::Not);
        assert!(matches!(
            engine.patch_cells(&bad_arity),
            Err(CoreError::Netlist(NetlistError::BadPatch { .. }))
        ));
    }

    /// A flow compiled at `partitions > 1` carries an exchange plan but
    /// no tape; its engine compiles and serves the single tape.
    #[test]
    fn an_engine_from_a_partitioned_flow_serves_the_single_tape() {
        let nl = RandomDag::strict(16, 6, 12).outputs(4).generate(8);
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(8, 4))
            .backend(Backend::BitSliced { words: 2 })
            .partitions(3)
            .compile()
            .unwrap();
        assert!(flow.partitioned.is_some());
        let want = BitSliceEvaluator::compile(&flow.netlist).tape_stats();
        let mut rng = StdRng::seed_from_u64(12);
        for mut engine in [flow.engine().unwrap(), flow.clone().into_engine().unwrap()] {
            assert_eq!(engine.tape_stats(), Some(want));
            for lanes in [1usize, 128, 300] {
                let batch = random_batch(&mut rng, nl.inputs().len(), lanes);
                let got = engine.run_batch(&batch).unwrap();
                let oracle = lbnn_netlist::eval::evaluate(&flow.netlist, &batch).unwrap();
                assert_eq!(got.outputs, oracle, "lanes {lanes}");
            }
        }
    }
}

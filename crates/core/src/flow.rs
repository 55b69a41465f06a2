//! The end-to-end design flow (Fig 1 of the paper).
//!
//! `FFCL netlist → logic optimization → full path balancing → MFG
//! partitioning → merging → scheduling → code generation`, driven through
//! [`Flow::builder`] over the explicit pass pipeline
//! ([`crate::compiler::pipeline`]), with simulation and verification
//! helpers on the result, [`crate::engine::Engine`] as the steady-state
//! serving hand-off, and [`Flow::save`]/[`Flow::load`]
//! ([`crate::artifact`]) as the process boundary: compile once, serve
//! anywhere.
//!
//! ```
//! use lbnn_core::{Flow, LpuConfig};
//! use lbnn_netlist::random::RandomDag;
//!
//! let netlist = RandomDag::strict(16, 6, 12).generate(1);
//! let flow = Flow::builder(&netlist)
//!     .config(LpuConfig::new(8, 4))
//!     .merge(false)
//!     .compile()?;
//! assert!(flow.stats.clock_cycles > 0);
//! assert_eq!(flow.report.passes.len(), 7); // one entry per pipeline pass
//! # Ok::<(), lbnn_core::CoreError>(())
//! ```

use std::sync::Arc;

use lbnn_netlist::eval::evaluate;
use lbnn_netlist::{BitSliceEvaluator, Lanes, Levels, Netlist, PartitionedEngine, PatchSet};

use crate::compiler::merge::MergeStats;
use crate::compiler::partition::{Partition, PartitionOptions};
use crate::compiler::pipeline::{self, CompileReport};
use crate::compiler::program::LpuProgram;
use crate::compiler::schedule::Schedule;
use crate::engine::Backend;
use crate::error::CoreError;
use crate::lpu::machine::{LpuMachine, RunResult};
use crate::lpu::LpuConfig;
use crate::throughput::{block_throughput, ThroughputReport};

/// Options controlling the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowOptions {
    /// Run the logic-synthesis cleanup before mapping (Fig 1's
    /// pre-processing). Disable to map the netlist exactly as given.
    pub optimize: bool,
    /// Apply the MFG merging procedure (Algorithm 3). The Fig 7/8
    /// experiments toggle this.
    pub merge: bool,
    /// Partitioning options (stop rule).
    pub partition: PartitionOptions,
    /// Execution backend engines built from this flow will use.
    pub backend: Backend,
    /// Partitions of the exchange plan for bit-sliced backends: `1`
    /// (default) compiles none; `2..=`[`lbnn_netlist::MAX_PARTITIONS`]
    /// compiles per-partition tapes plus an exchange schedule
    /// ([`Flow::partitioned`]) for inspection. Engines serve the single
    /// tape whatever the count. Scalar backends ignore the knob (the
    /// cycle-accurate machine is its own execution model).
    pub partitions: usize,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            optimize: true,
            merge: true,
            partition: PartitionOptions::default(),
            backend: Backend::default(),
            partitions: 1,
        }
    }
}

/// Statistics of one compiled flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowStats {
    /// Gate count after optimization and balancing (includes buffers).
    pub gates: usize,
    /// Logic depth (`Lmax`).
    pub depth: u32,
    /// Buffers inserted by full path balancing.
    pub balance_buffers: usize,
    /// MFG count before merging.
    pub mfgs_before_merge: usize,
    /// MFG count after merging (equals `mfgs_before_merge` when merging
    /// is disabled).
    pub mfgs: usize,
    /// Total node executions (recomputation from MFG overlap included).
    pub executed_nodes: usize,
    /// Compute cycles of one pass (fill + drain latency).
    pub compute_cycles: usize,
    /// Clock cycles of one pass (`compute_cycles × tc`).
    pub clock_cycles: u64,
    /// Instruction-queue depth used.
    pub queue_depth: usize,
    /// Steady-state clock cycles per batch: back-to-back batches replay
    /// the instruction queues, so the initiation interval is
    /// `queue_depth` compute cycles (`× tc` clocks). Latency is
    /// `clock_cycles`; throughput divides by this.
    pub steady_clock_cycles: u64,
}

/// Result of [`Flow::verify_against_netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Batch lanes compared.
    pub lanes_checked: usize,
    /// Primary outputs compared (all matched, or verification fails).
    pub outputs_checked: usize,
}

/// The intermediate compiler artifacts an in-process compile retains:
/// the level assignment, the (merged) partition, and the space-time
/// schedule.
///
/// These exist only on freshly compiled flows. A [`Flow`] loaded from a
/// serialized artifact ([`Flow::load`]) carries everything needed to
/// *serve* — netlist, program, config, stats — but not the compiler's
/// working state, so its `artifacts` is `None`.
#[derive(Debug, Clone)]
pub struct CompileArtifacts {
    /// Level assignment of the mapped netlist.
    pub levels: Levels,
    /// The (merged) partition.
    pub partition: Partition,
    /// Merge statistics (zero merges when disabled).
    pub merge_stats: MergeStats,
    /// The space-time schedule.
    pub schedule: Schedule,
    /// The fused, slot-renumbered bit-sliced kernel tape the `locality`
    /// pass compiled (single-tape bit-sliced flows only; `None` for
    /// scalar flows and for `partitions > 1`, whose pass compiles
    /// [`Flow::partitioned`] instead). Engines built from this flow
    /// reuse it instead of recompiling; [`Flow::apply_patches`] keeps it
    /// in sync.
    pub tape: Option<BitSliceEvaluator>,
}

/// A compiled flow: the mapped netlist, the executable LPU program, and
/// (for in-process compiles) all intermediate compiler artifacts.
#[derive(Debug, Clone)]
pub struct Flow {
    /// The netlist actually mapped (optimized + balanced).
    pub netlist: Netlist,
    /// The original input netlist (verification oracle). For flows loaded
    /// from a serialized artifact this is the mapped netlist — the
    /// original source does not travel in the artifact.
    pub source: Netlist,
    /// The generated program: the LPU's VLIW image. Shared, not copied,
    /// by every engine built from this flow ([`Flow::engine`]) and by
    /// every clone of the flow; patching copies it on write.
    pub program: Arc<LpuProgram>,
    /// Machine configuration.
    pub config: LpuConfig,
    /// Execution backend engines built from this flow will use.
    pub backend: Backend,
    /// Aggregate statistics.
    pub stats: FlowStats,
    /// Per-pass wall times and stat deltas of the compile that produced
    /// this flow (persisted across [`Flow::save`]/[`Flow::load`]).
    pub report: CompileReport,
    /// Partitions of the exchange plan ([`FlowOptions::partitions`]).
    pub partitions: usize,
    /// The exchange plan the `exchange` pass compiled when
    /// `partitions > 1` on a bit-sliced backend, kept for inspection:
    /// engines serve the single tape, which they compile from the mapped
    /// netlist. It does not travel in serialized artifacts: a loaded
    /// flow has `None` here, and [`PartitionedEngine::compile`] of the
    /// mapped netlist rebuilds the same (deterministic) plan.
    pub partitioned: Option<PartitionedEngine>,
    /// Intermediate compiler artifacts; `None` on flows loaded from a
    /// serialized artifact.
    pub artifacts: Option<CompileArtifacts>,
}

/// Staged configuration of a compilation, created by [`Flow::builder`].
///
/// Defaults: the paper's machine ([`LpuConfig::default`]) and
/// [`FlowOptions::default`] (optimize + merge on).
///
/// ```
/// use lbnn_core::{Flow, LpuConfig};
/// use lbnn_netlist::random::RandomDag;
///
/// let netlist = RandomDag::strict(16, 6, 12).generate(1);
/// let flow = Flow::builder(&netlist)
///     .config(LpuConfig::new(8, 4))
///     .merge(false)
///     .compile()?;
/// assert_eq!(flow.stats.mfgs, flow.stats.mfgs_before_merge);
/// # Ok::<(), lbnn_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
#[must_use = "a FlowBuilder does nothing until .compile() is called"]
pub struct FlowBuilder<'a> {
    netlist: &'a Netlist,
    config: LpuConfig,
    options: FlowOptions,
}

impl<'a> FlowBuilder<'a> {
    /// Sets the machine configuration.
    pub fn config(mut self, config: LpuConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the whole option set at once.
    pub fn options(mut self, options: FlowOptions) -> Self {
        self.options = options;
        self
    }

    /// Toggles logic-synthesis pre-processing (Fig 1).
    pub fn optimize(mut self, optimize: bool) -> Self {
        self.options.optimize = optimize;
        self
    }

    /// Toggles MFG merging (Algorithm 3; the Fig 7/8 knob).
    pub fn merge(mut self, merge: bool) -> Self {
        self.options.merge = merge;
        self
    }

    /// Selects the execution [`Backend`] engines built from the compiled
    /// flow will replay batches on. Defaults to [`Backend::Scalar`] (the
    /// cycle-accurate machine); [`Backend::BitSliced`]` { words }` runs
    /// the same program bit-identically as branch-free word kernels at
    /// 64, 128, 256, 512 or 1024 lanes per kernel pass (`words` ∈ {1, 2,
    /// 4, 8, 16}; unsupported widths fail [`FlowBuilder::compile`] with
    /// [`CoreError::BadConfig`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.options.backend = backend;
        self
    }

    /// Sets the partitioning options (stop rule, child duplication).
    pub fn partition(mut self, partition: PartitionOptions) -> Self {
        self.options.partition = partition;
        self
    }

    /// Also compiles a `partitions`-way exchange plan — per-partition
    /// kernel tapes and their cross-partition exchange schedule — for
    /// inspection; engines serve the single tape
    /// ([`FlowOptions::partitions`]). Counts outside
    /// `1..=`[`lbnn_netlist::MAX_PARTITIONS`] fail
    /// [`FlowBuilder::compile`] with [`CoreError::BadConfig`].
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.options.partitions = partitions;
        self
    }

    /// The configuration the build would use (for inspection/tests).
    pub fn current_config(&self) -> &LpuConfig {
        &self.config
    }

    /// The options the build would use (for inspection/tests).
    pub fn current_options(&self) -> &FlowOptions {
        &self.options
    }

    /// Runs the full pass pipeline
    /// (`optimize → balance → levelize → partition → merge → schedule →
    /// codegen`); per-pass timings land in [`Flow::report`].
    ///
    /// # Errors
    ///
    /// Propagates configuration, netlist, partitioning and scheduling
    /// errors; see [`CoreError`].
    pub fn compile(self) -> Result<Flow, CoreError> {
        pipeline::run(self.netlist, self.config, self.options, usize::MAX)
    }
}

impl Flow {
    /// Starts a compilation of `netlist` with the default machine and
    /// options; see [`FlowBuilder`].
    pub fn builder(netlist: &Netlist) -> FlowBuilder<'_> {
        FlowBuilder {
            netlist,
            config: LpuConfig::default(),
            options: FlowOptions::default(),
        }
    }

    /// Runs one pass on the LPU machine.
    ///
    /// # Errors
    ///
    /// See [`LpuMachine::run`].
    pub fn simulate(&self, inputs: &[Lanes]) -> Result<RunResult, CoreError> {
        let machine = LpuMachine::new(self.config)?;
        machine.run(&self.program, inputs)
    }

    /// Verifies the compiled program against direct evaluation of the
    /// *source* netlist on seeded random lanes — end-to-end: any bug in
    /// optimization, balancing, partitioning, scheduling, codegen or the
    /// machine shows up here.
    ///
    /// # Errors
    ///
    /// Returns the first mismatch as [`CoreError::VerifyMismatch`], or
    /// any simulation error.
    pub fn verify_against_netlist(&self, seed: u64) -> Result<VerifyReport, CoreError> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let lanes = self.config.operand_bits().max(64);
        let inputs: Vec<Lanes> = (0..self.source.inputs().len())
            .map(|_| {
                let bits: Vec<bool> = (0..lanes).map(|_| rng.random_bool(0.5)).collect();
                Lanes::from_bools(&bits)
            })
            .collect();
        let got = self.simulate(&inputs)?;
        let want = evaluate(&self.source, &inputs)?;
        for (po, (g, w)) in got.outputs.iter().zip(&want).enumerate() {
            if g != w {
                let lane = (0..g.len().min(w.len()))
                    .find(|&l| g.get(l) != w.get(l))
                    .unwrap_or(0);
                return Err(CoreError::VerifyMismatch {
                    output: self.source.outputs()[po].name.clone(),
                    lane,
                });
            }
        }
        Ok(VerifyReport {
            lanes_checked: lanes,
            outputs_checked: want.len(),
        })
    }

    /// A copy of this flow with the cells in `patches` computing their
    /// replacement functions — the compile-side half of hot
    /// reconfiguration.
    ///
    /// Patch ids name nodes of the **mapped** netlist ([`Flow::netlist`],
    /// the one the program executes), not the original source. Only
    /// function payloads change: the mapped netlist gets its ops
    /// replaced in place, a copy of the program gets each matching
    /// instruction's op swapped (this flow's program, and every engine
    /// sharing it, is untouched), and the structural compile artifacts
    /// (levels, partition, schedule) are kept as-is — a patch never
    /// moves a gate.
    /// The patched flow's [`Flow::source`] is the patched netlist, so
    /// [`Flow::verify_against_netlist`] remains an end-to-end oracle.
    ///
    /// # Errors
    ///
    /// [`CoreError::Netlist`] for invalid patches (unknown cell, arity
    /// mismatch, non-patchable target); see
    /// [`PatchSet::validate`](lbnn_netlist::PatchSet::validate).
    pub fn apply_patches(&self, patches: &PatchSet) -> Result<Flow, CoreError> {
        patches.validate(&self.netlist)?;
        let mut netlist = self.netlist.clone();
        netlist.apply_patches(patches)?;
        let mut program = Arc::clone(&self.program);
        crate::engine::patch_program(Arc::make_mut(&mut program), patches)?;
        // The cached kernel tape must be patched too, or engines built
        // from the patched flow would serve the old masks.
        let artifacts = match &self.artifacts {
            Some(a) => Some(CompileArtifacts {
                tape: a.tape.as_ref().map(|t| t.patched(patches)).transpose()?,
                ..a.clone()
            }),
            None => None,
        };
        // Same for the exchange plan: patch every partition
        // tape in place, structure untouched.
        let partitioned = self
            .partitioned
            .as_ref()
            .map(|e| e.patched(patches))
            .transpose()?;
        Ok(Flow {
            source: netlist.clone(),
            netlist,
            program,
            config: self.config,
            backend: self.backend,
            stats: self.stats,
            report: self.report.clone(),
            partitions: self.partitions,
            partitioned,
            artifacts,
        })
    }

    /// Steady-state throughput of this block at the hardware batch width
    /// (`2m` lanes per pass, one pass per `queue_depth` compute cycles).
    pub fn throughput(&self) -> ThroughputReport {
        block_throughput(
            self.stats.steady_clock_cycles,
            self.config.operand_bits(),
            self.config.freq_mhz,
        )
    }

    /// LPE occupancy of the steady-state schedule: executed LPE operations
    /// over available LPE slots per initiation interval.
    pub fn occupancy(&self) -> f64 {
        let slots = (self.stats.queue_depth * self.config.n * self.config.m) as f64;
        if slots == 0.0 {
            0.0
        } else {
            self.program.lpe_op_count() as f64 / slots
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbnn_netlist::random::RandomDag;
    use lbnn_netlist::Op;

    #[test]
    fn compile_and_verify_random_graphs() {
        for seed in 0..4 {
            let nl = RandomDag::loose(12, 6, 10).outputs(4).generate(seed);
            let flow = Flow::builder(&nl)
                .config(LpuConfig::new(6, 4))
                .compile()
                .unwrap();
            let report = flow.verify_against_netlist(seed).unwrap();
            assert_eq!(report.outputs_checked, 4);
            assert!(flow.stats.clock_cycles > 0);
            assert_eq!(
                flow.stats.clock_cycles,
                flow.stats.compute_cycles as u64 * 6
            );
        }
    }

    #[test]
    fn merging_never_changes_results_but_reduces_mfgs() {
        let nl = RandomDag::strict(48, 8, 32).outputs(8).generate(11);
        let merged = Flow::builder(&nl)
            .config(LpuConfig::new(8, 8))
            .compile()
            .unwrap();
        let unmerged = Flow::builder(&nl)
            .config(LpuConfig::new(8, 8))
            .merge(false)
            .compile()
            .unwrap();
        merged.verify_against_netlist(1).unwrap();
        unmerged.verify_against_netlist(1).unwrap();
        assert!(merged.stats.mfgs < unmerged.stats.mfgs);
        assert!(merged.stats.clock_cycles <= unmerged.stats.clock_cycles);
        let stats = &merged.artifacts.as_ref().unwrap().merge_stats;
        assert_eq!(stats.before - stats.after, stats.merges);
        assert!(stats.merges > 0);
    }

    #[test]
    fn pass_through_outputs_are_buffered() {
        let mut nl = Netlist::new("wire");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate2(Op::And, a, b);
        nl.add_output(g, "y");
        nl.add_output(a, "a_copy");
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(4, 2))
            .compile()
            .unwrap();
        flow.verify_against_netlist(3).unwrap();
    }

    #[test]
    fn constant_output() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let one = nl.add_const(true);
        let g = nl.add_gate2(Op::Or, a, one); // constant 1
        nl.add_output(g, "y");
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(2, 2))
            .optimize(false) // keep the constant gate
            .compile()
            .unwrap();
        flow.verify_against_netlist(5).unwrap();
    }

    #[test]
    fn builder_defaults_match_flow_options_default() {
        let nl = RandomDag::strict(8, 4, 6).generate(1);
        let builder = Flow::builder(&nl);
        assert_eq!(*builder.current_options(), FlowOptions::default());
        assert_eq!(*builder.current_config(), LpuConfig::default());
    }

    #[test]
    fn compiled_flows_retain_intermediate_artifacts() {
        let nl = RandomDag::strict(16, 5, 10).outputs(4).generate(9);
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(8, 4))
            .compile()
            .unwrap();
        let artifacts = flow.artifacts.as_ref().expect("in-process compile");
        assert_eq!(artifacts.partition.mfg_count(), flow.stats.mfgs);
        assert_eq!(artifacts.schedule.total_cycles, flow.stats.compute_cycles);
        assert_eq!(artifacts.schedule.queue_depth, flow.stats.queue_depth);
        assert_eq!(artifacts.levels.depth(), flow.stats.depth);
    }

    #[test]
    fn verify_mismatch_is_structured() {
        // Corrupt a compiled program's output tap so verification must
        // report a VerifyMismatch naming the output.
        let nl = RandomDag::strict(8, 4, 6).outputs(2).generate(6);
        let mut flow = Flow::builder(&nl)
            .config(LpuConfig::new(4, 4))
            .compile()
            .unwrap();
        let program = Arc::make_mut(&mut flow.program);
        let [a, b] = [program.outputs[0].po, program.outputs[1].po];
        program.outputs[0].po = b;
        program.outputs[1].po = a;
        match flow.verify_against_netlist(2) {
            Err(CoreError::VerifyMismatch { output, .. }) => {
                assert!(flow.source.outputs().iter().any(|o| o.name == output));
            }
            other => panic!("expected VerifyMismatch, got {other:?}"),
        }
    }

    #[test]
    fn throughput_report_consistency() {
        let nl = RandomDag::strict(16, 4, 8).outputs(2).generate(2);
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(8, 4))
            .compile()
            .unwrap();
        let t = flow.throughput();
        assert_eq!(t.batch, 16);
        assert_eq!(t.clock_cycles, flow.stats.steady_clock_cycles);
        assert!(t.fps > 0.0);
        let occ = flow.occupancy();
        assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
    }
}

//! Whole-model compilation: many FFCL blocks, one serving artifact.
//!
//! A neural network on the LPU is a sequence of FFCL blocks (one
//! representative block per layer, replicated `blocks × sites` times per
//! image — the Table II/III scenario). [`CompiledModel::compile`] runs the
//! full Fig-1 pipeline over every block once and keeps a resident
//! [`Engine`] per layer, so whole-model inference and throughput
//! accounting stop being ad-hoc per-layer loops at the call sites.

use std::borrow::Borrow;
use std::sync::{Arc, OnceLock};

use lbnn_netlist::{Lanes, Netlist};

use crate::compiler::pipeline::{self, CompileReport};
use crate::engine::{column_lanes, Backend, Engine, EngineScratch};
use crate::error::CoreError;
use crate::flow::{Flow, FlowOptions, FlowStats};
use crate::lpu::LpuConfig;
use crate::throughput::{block_throughput, ThroughputReport};

/// One layer of a multi-block workload: a representative netlist plus the
/// replication counts that scale its measured cost to the full layer
/// (`lbnn-models`' workload generator produces exactly this shape).
#[derive(Debug, Clone)]
pub struct LayerSpec {
    /// Layer label.
    pub name: String,
    /// The block's netlist.
    pub netlist: Netlist,
    /// Blocks covering all neurons of the layer.
    pub blocks: u64,
    /// Spatial evaluation sites per input sample.
    pub sites: u64,
}

impl LayerSpec {
    /// A single stand-alone block (no replication).
    pub fn block(name: impl Into<String>, netlist: Netlist) -> Self {
        LayerSpec {
            name: name.into(),
            netlist,
            blocks: 1,
            sites: 1,
        }
    }

    /// Block-pass executions per input image at the given lane width.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn passes_per_image(&self, lanes: usize) -> f64 {
        replicated_passes(self.blocks, self.sites, lanes)
    }
}

/// The replication arithmetic shared by spec- and layer-level accounting:
/// `blocks × sites / lanes` passes per input image.
///
/// # Panics
///
/// Panics if `lanes` is zero.
fn replicated_passes(blocks: u64, sites: u64, lanes: usize) -> f64 {
    assert!(lanes > 0, "lane width must be positive");
    blocks as f64 * sites as f64 / lanes as f64
}

/// How the model is deployed; determines the per-image cycle accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServingMode {
    /// Batched steady state: back-to-back passes replay the instruction
    /// queues, so each pass costs the initiation interval and `2m` lanes
    /// amortize across samples (Table II).
    #[default]
    Throughput,
    /// Single-stream: one sample in flight, every block pass pays its
    /// full fill+drain latency (Table III's detector deployments).
    Latency,
}

/// One compiled layer inside a [`CompiledModel`].
///
/// The layer netlist lives on as the flow's verification oracle
/// ([`Flow::source`](crate::flow::Flow)); the spec's copy is not kept, so
/// the artifact stores each netlist once per role, not per wrapper.
#[derive(Debug, Clone)]
pub struct CompiledLayer {
    name: String,
    blocks: u64,
    sites: u64,
    flow: Flow,
    /// How many of the layer's outputs the chain reads
    /// ([`chain_reads`]): derived from the layer shapes whenever a
    /// model is assembled, never stored in an artifact.
    reads: usize,
    /// Built on first use (`OnceLock`, so `&self` inference can
    /// initialize it): accounting-only consumers (the bench reports)
    /// never pay for the kernel an [`Engine`] needs.
    engine: OnceLock<Engine>,
}

impl CompiledLayer {
    /// Rebuilds a layer from artifact parts ([`crate::artifact`]) or
    /// wraps a flow ([`CompiledModel::from`]); the engine is built
    /// lazily on first inference, and [`CompiledModel::from_parts`] sets
    /// what the chain reads.
    pub(crate) fn from_loaded(name: String, blocks: u64, sites: u64, flow: Flow) -> Self {
        CompiledLayer {
            name,
            blocks,
            sites,
            flow,
            reads: usize::MAX,
            engine: OnceLock::new(),
        }
    }

    /// The layer's resident serving engine, built on first call and
    /// shared afterwards (`&self`: any thread may serve through it with
    /// its own scratch via [`Engine::run_batch_with`]). A hidden
    /// layer's bit-sliced tape puts the read cone of the outputs the
    /// next layer reads first, so the chain replays only that prefix
    /// ([`lbnn_netlist::BitSliceEvaluator::compile_reading`]).
    ///
    /// # Errors
    ///
    /// See [`Flow::engine`] (cannot fail for layers produced by
    /// [`CompiledModel::compile`] or loaded from a valid artifact).
    pub fn engine(&self) -> Result<&Engine, CoreError> {
        if self.engine.get().is_none() {
            let built = self.flow.engine_reading(self.reads)?;
            // A concurrent initializer may have won the race; its engine
            // is equivalent, so ours is simply dropped.
            let _ = self.engine.set(built);
        }
        Ok(self.engine.get().expect("just initialized"))
    }

    /// The layer label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Blocks covering all neurons of the layer.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Spatial evaluation sites per input sample.
    pub fn sites(&self) -> u64 {
        self.sites
    }

    /// The layer's source netlist (the compiled block, pre-optimization).
    pub fn source_netlist(&self) -> &Netlist {
        &self.flow.source
    }

    /// The compiled flow (all compiler artifacts).
    pub fn flow(&self) -> &Flow {
        &self.flow
    }

    /// The execution backend this layer's engine replays batches on
    /// (set by [`FlowOptions::backend`] at compile time; bit-identical
    /// across backends).
    pub fn backend(&self) -> Backend {
        self.flow.backend
    }

    /// Compile-time statistics of the block.
    pub fn stats(&self) -> &FlowStats {
        &self.flow.stats
    }

    /// Per-pass wall times and stat deltas of this layer's compile
    /// (persisted across [`CompiledModel::save`]/[`CompiledModel::load`]).
    pub fn report(&self) -> &CompileReport {
        &self.flow.report
    }

    /// Clock cycles one pass costs under `mode`.
    pub fn pass_cycles(&self, mode: ServingMode) -> u64 {
        match mode {
            ServingMode::Throughput => self.flow.stats.steady_clock_cycles,
            ServingMode::Latency => self.flow.stats.clock_cycles,
        }
    }

    /// Pass count per input image under `mode` at lane width `lanes`.
    pub fn passes_per_image(&self, mode: ServingMode, lanes: usize) -> f64 {
        match mode {
            ServingMode::Throughput => replicated_passes(self.blocks, self.sites, lanes),
            // One sample in flight: no lane amortization.
            ServingMode::Latency => replicated_passes(self.blocks, self.sites, 1),
        }
    }

    /// Clock cycles per input image under `mode`.
    pub fn cycles_per_image(&self, mode: ServingMode, lanes: usize) -> f64 {
        self.pass_cycles(mode) as f64 * self.passes_per_image(mode, lanes)
    }
}

/// The result of one whole-model inference pass.
///
/// A pass keeps every layer boundary packed and builds [`Lanes`] only
/// for the layers its caller reads: every layer for the inspection
/// entries [`CompiledModel::infer`] / [`CompiledModel::infer_with`],
/// the final layer alone for [`CompiledModel::infer_batches`].
/// [`ModelInference::outputs`] is the final layer's either way.
#[derive(Debug, Clone)]
pub struct ModelInference {
    /// The output lanes of each layer the pass materialised, in layer
    /// order: one entry per layer from `infer` / `infer_with`, a single
    /// entry — the final layer's — from `infer_batches`.
    pub layer_outputs: Vec<Vec<Lanes>>,
    /// Total LPE operations across layers.
    pub lpe_ops: usize,
    /// Total clock cycles across layers (sequential block execution).
    pub clock_cycles: u64,
}

impl ModelInference {
    /// The final layer's output lanes.
    pub fn outputs(&self) -> &[Lanes] {
        self.layer_outputs.last().map_or(&[], Vec::as_slice)
    }
}

/// Adapts one layer's output lanes to the next layer's input arity by
/// cycling — the simulation analogue of streaming a feature map into the
/// next block's sampled fan-in (§IV). This is the *definition* of the
/// layer boundary: [`CompiledModel::infer`] resolves the same
/// `i % prev_outputs.len()` map against packed words without cloning a
/// lane, and per-layer callers and oracles use this function to
/// reproduce the chain exactly.
///
/// `want == 0` yields an empty vector (a degenerate next layer consumes
/// nothing); `want` larger than `prev_outputs.len()` cycles through the
/// outputs again, so every requested slot is fed.
///
/// # Panics
///
/// Panics if `prev_outputs` is empty — there is nothing to chain from.
pub fn chain_inputs(prev_outputs: &[Lanes], want: usize) -> Vec<Lanes> {
    assert!(
        !prev_outputs.is_empty(),
        "cannot chain from a layer with no outputs"
    );
    (0..want)
        .map(|i| prev_outputs[i % prev_outputs.len()].clone())
        .collect()
}

/// How many of a layer's `outputs` the chain reads: what the next layer
/// consumes (`next_inputs`, capped at `outputs` — a wider next layer
/// cycles through them all), or every output for the final layer.
fn chain_reads(outputs: usize, next_inputs: Option<usize>) -> usize {
    next_inputs.map_or(outputs, |want| want.min(outputs))
}

/// Per-caller mutable state for whole-model inference: one
/// [`EngineScratch`] per layer, grown on demand and reused across
/// [`CompiledModel::infer_with`] calls. Besides its kernel frames,
/// layer *k*'s scratch holds the packed output columns layer *k + 1*
/// consumes — a layer boundary lives here, never in a `Vec<Lanes>`.
///
/// The model itself stays immutable during inference (`&self`), so any
/// number of threads can run inference on one shared [`CompiledModel`],
/// each owning its own `ModelScratch` — the split the
/// [`crate::runtime::Runtime`] workers are built on.
#[derive(Debug, Clone, Default)]
pub struct ModelScratch {
    layers: Vec<EngineScratch>,
}

impl ModelScratch {
    /// An empty scratch; per-layer buffers grow on first use.
    pub fn new() -> Self {
        ModelScratch::default()
    }

    /// The packed columns the last pass left at the end of the chain
    /// ([`EngineScratch`]'s kept buffer of the final link).
    pub(crate) fn final_columns(&self) -> &[u64] {
        self.layers.last().map_or(&[], |last| &last.kept)
    }
}

/// The lane count of a chain's first batch handed over as columns. The
/// caller must match the first link exactly (a mismatch is an
/// [`CoreError::InputArity`]); between links the chain adapts.
fn first_layer_lanes(engines: &[&Engine], inputs: &[Lanes]) -> Result<usize, CoreError> {
    engines[0].check_arity(inputs.len())?;
    Ok(column_lanes(inputs))
}

/// Which links of a chain hand their outputs back as [`Lanes`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Built {
    /// Every link's: the inspection entries.
    EveryLayer,
    /// The final link's only.
    FinalLayer,
    /// None: every final output stays packed in the scratch
    /// ([`ModelScratch::final_columns`]) — the serving entry.
    Nothing,
}

/// The one chain body behind every inference entry and the
/// [`crate::runtime::Runtime`] worker: `engines` run in order, a single
/// block being a chain of one. Link *k* leaves the columns link *k + 1*
/// consumes — `min(want, outputs)` of them — packed in its own scratch
/// ([`EngineScratch`]'s kept buffer), and link *k + 1* reads input `i`
/// from column `i % kept` of that buffer: [`chain_inputs`], resolved
/// without cloning a lane. `built` says which links' outputs are also
/// built as [`Lanes`]. `input_words(i)` is the first link's input column
/// `i`, arity already checked.
pub(crate) fn run_chain<'a>(
    engines: &[impl Borrow<Engine>],
    scratch: &mut ModelScratch,
    lanes: usize,
    input_words: impl Fn(usize) -> &'a [u64],
    built: Built,
) -> Result<ModelInference, CoreError> {
    scratch
        .layers
        .resize_with(engines.len(), EngineScratch::default);
    let mut inference = ModelInference {
        layer_outputs: Vec::new(),
        lpe_ops: 0,
        clock_cycles: 0,
    };
    // The previous link's kept columns and how many there are.
    let mut prev: Option<(&[u64], usize)> = None;
    for (k, (engine, scratch)) in engines.iter().zip(&mut scratch.layers).enumerate() {
        let engine: &Engine = engine.borrow();
        let program = engine.program();
        let next_want = engines.get(k + 1).map(|e| e.borrow().program().num_inputs);
        let columns = match built {
            Built::EveryLayer => true,
            Built::FinalLayer => next_want.is_none(),
            Built::Nothing => false,
        };
        // What nobody downstream reads as `Lanes` or as the next
        // link's input is not kept either.
        let keep = next_want.unwrap_or(if columns { 0 } else { usize::MAX });
        let result = match prev {
            None => engine.run_with(scratch, lanes, &input_words, keep, columns)?,
            Some((words, kept)) => {
                let want = program.num_inputs;
                assert!(
                    kept > 0 || want == 0,
                    "cannot chain from a layer with no outputs"
                );
                let stride = lanes.div_ceil(64);
                let column = |i| &words[(i % kept) * stride..][..stride];
                engine.run_with(scratch, lanes, column, keep, columns)?
            }
        };
        inference.lpe_ops += result.lpe_ops;
        inference.clock_cycles += result.clock_cycles;
        if columns {
            inference.layer_outputs.push(result.outputs);
        }
        prev = Some((&scratch.kept, keep.min(program.outputs.len())));
    }
    Ok(inference)
}

/// A whole multi-block workload compiled into one serving artifact.
///
/// Cloning a model is cheap: the clone shares the layers — their flows
/// and their resident engines — so a registry that keeps a model and
/// the runtime serving it hold one VLIW image and one kernel per layer.
///
/// ```
/// use lbnn_core::model::{CompiledModel, LayerSpec};
/// use lbnn_core::{FlowOptions, LpuConfig};
/// use lbnn_netlist::random::RandomDag;
/// use lbnn_netlist::Lanes;
///
/// let specs = vec![
///     LayerSpec::block("L1", RandomDag::strict(8, 4, 6).outputs(4).generate(1)),
///     LayerSpec::block("L2", RandomDag::strict(4, 3, 4).outputs(2).generate(2)),
/// ];
/// let model =
///     CompiledModel::compile("demo", specs, &LpuConfig::new(4, 4), &FlowOptions::default())?;
/// let batch: Vec<Lanes> = (0..8).map(|i| Lanes::from_bools(&[i % 3 == 0])).collect();
/// let result = model.infer(&batch)?;
/// assert_eq!(result.outputs().len(), 2);
/// assert!(model.throughput().fps > 0.0);
/// # Ok::<(), lbnn_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledModel {
    name: String,
    config: LpuConfig,
    layers: Arc<[CompiledLayer]>,
    /// The artifact checksum ([`CompiledModel::artifact_checksum`]),
    /// learned at most once: the model is immutable, so its image never
    /// changes. Set by the first save, by the load that read the image,
    /// or by the first call; clones share it.
    pub(crate) checksum: Arc<OnceLock<u64>>,
}

/// A flow is the one-layer model it is: the model and its layer take
/// the mapped netlist's name, and the block is not replicated
/// (`blocks = sites = 1`). The model's artifact image is the flow's
/// ([`Flow::to_artifact_bytes`]), byte for byte, and the layer serves
/// bit-identically to [`Flow::engine`].
impl From<Flow> for CompiledModel {
    fn from(flow: Flow) -> CompiledModel {
        let name = flow.netlist.name().to_string();
        let config = flow.config;
        let layer = CompiledLayer::from_loaded(name.clone(), 1, 1, flow);
        CompiledModel::from_parts(name, config, vec![layer])
    }
}

impl CompiledModel {
    /// Compiles every layer of `specs` for the given machine.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for an empty spec list, and
    /// propagates any layer's compilation error.
    pub fn compile(
        name: impl Into<String>,
        specs: Vec<LayerSpec>,
        config: &LpuConfig,
        options: &FlowOptions,
    ) -> Result<Self, CoreError> {
        if specs.is_empty() {
            return Err(CoreError::BadConfig {
                reason: "a model needs at least one layer".to_string(),
            });
        }
        let reads: Vec<usize> = specs
            .iter()
            .enumerate()
            .map(|(k, spec)| {
                let next = specs.get(k + 1).map(|s| s.netlist.inputs().len());
                chain_reads(spec.netlist.outputs().len(), next)
            })
            .collect();
        let layers = specs
            .into_iter()
            .zip(reads)
            .map(|(spec, reads)| {
                let LayerSpec {
                    name,
                    netlist,
                    blocks,
                    sites,
                } = spec;
                // The layer's one tape, compiled by its `locality` pass
                // for what the chain reads.
                let flow = pipeline::run(&netlist, *config, *options, reads)?;
                Ok(CompiledLayer {
                    name,
                    blocks,
                    sites,
                    flow,
                    reads,
                    engine: OnceLock::new(),
                })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok(CompiledModel {
            name: name.into(),
            config: *config,
            layers: layers.into(),
            checksum: Arc::default(),
        })
    }

    /// Rebuilds a model from artifact parts ([`crate::artifact`]),
    /// deriving what the chain reads of each layer from the layer shapes.
    pub(crate) fn from_parts(
        name: String,
        config: LpuConfig,
        mut layers: Vec<CompiledLayer>,
    ) -> Self {
        for k in 0..layers.len() {
            let next = layers.get(k + 1).map(|l| l.flow.program.num_inputs);
            layers[k].reads = chain_reads(layers[k].flow.program.outputs.len(), next);
        }
        CompiledModel {
            name,
            config,
            layers: layers.into(),
            checksum: Arc::default(),
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The machine configuration every layer was compiled for.
    pub fn config(&self) -> &LpuConfig {
        &self.config
    }

    /// The compiled layers, in execution order.
    pub fn layers(&self) -> &[CompiledLayer] {
        &self.layers
    }

    /// Runs one whole-model pass: the first layer sees `inputs`, each
    /// subsequent layer sees the previous outputs adapted as
    /// [`chain_inputs`] defines. Results are bit-identical to running
    /// each layer's [`Flow::simulate`] by hand over the same chain, and
    /// every layer's outputs are returned
    /// ([`ModelInference::layer_outputs`]) — the inspection entry.
    ///
    /// The model is not mutated (`&self`): layer engines initialize
    /// lazily behind `OnceLock`s, and this convenience path allocates a
    /// fresh [`ModelScratch`] per call. Hot callers reuse scratch across
    /// calls via [`CompiledModel::infer_with`].
    ///
    /// # Errors
    ///
    /// Propagates the first layer execution error.
    ///
    /// # Panics
    ///
    /// Panics if the input lane vectors have inconsistent lane counts.
    pub fn infer(&self, inputs: &[Lanes]) -> Result<ModelInference, CoreError> {
        self.infer_with(&mut ModelScratch::default(), inputs)
    }

    /// [`CompiledModel::infer`] with caller-owned scratch: the frames
    /// and boundary buffers are reused, so what a call allocates is the
    /// [`Lanes`] it returns — every layer's. Safe to call from many
    /// threads at once on one shared model (each with its own scratch).
    /// A caller that reads only the final outputs wants
    /// [`CompiledModel::infer_batches`], which builds only those.
    ///
    /// # Errors
    ///
    /// Propagates the first layer execution error.
    ///
    /// # Panics
    ///
    /// Panics if the input lane vectors have inconsistent lane counts.
    pub fn infer_with(
        &self,
        scratch: &mut ModelScratch,
        inputs: &[Lanes],
    ) -> Result<ModelInference, CoreError> {
        let engines = self.engines()?;
        let lanes = first_layer_lanes(&engines, inputs)?;
        let columns = |i: usize| inputs[i].words();
        run_chain(&engines, scratch, lanes, columns, Built::EveryLayer)
    }

    /// Runs many whole-model passes back to back, reusing one scratch —
    /// the throughput entry. Each returned [`ModelInference`] holds one
    /// [`layer_outputs`](ModelInference::layer_outputs) entry, the final
    /// layer's ([`ModelInference::outputs`] reads it); hidden layers
    /// never leave their packed boundary buffers. `lpe_ops` and
    /// `clock_cycles` are whole-model sums as for
    /// [`CompiledModel::infer`].
    ///
    /// # Errors
    ///
    /// Returns the first failing batch's error (in batch order).
    ///
    /// # Panics
    ///
    /// Panics if a batch's lane vectors have inconsistent lane counts.
    pub fn infer_batches(&self, batches: &[Vec<Lanes>]) -> Result<Vec<ModelInference>, CoreError> {
        let engines = self.engines()?;
        let mut scratch = ModelScratch::new();
        batches
            .iter()
            .map(|batch| {
                let lanes = first_layer_lanes(&engines, batch)?;
                let columns = |i: usize| batch[i].words();
                run_chain(&engines, &mut scratch, lanes, columns, Built::FinalLayer)
            })
            .collect()
    }

    /// Every layer's resident engine, in chain order (built on first
    /// use, [`CompiledLayer::engine`]).
    fn engines(&self) -> Result<Vec<&Engine>, CoreError> {
        self.layers.iter().map(CompiledLayer::engine).collect()
    }

    /// The layers' engines as an owned chain — what a
    /// [`crate::runtime::Runtime`] serves: clones of the layers'
    /// resident engines (built now if they were not), sharing their
    /// cores with this model and every clone of it.
    pub(crate) fn into_engines(self) -> Result<Vec<Engine>, CoreError> {
        self.layers
            .iter()
            .map(|layer| layer.engine().cloned())
            .collect()
    }

    /// Total clock cycles per input image under `mode` (fractional: lane
    /// batching amortizes passes across images in throughput mode).
    pub fn cycles_per_image(&self, mode: ServingMode) -> f64 {
        let lanes = self.config.operand_bits();
        self.layers
            .iter()
            .map(|l| l.cycles_per_image(mode, lanes))
            .sum()
    }

    /// Frames per second under `mode` at the configured clock.
    pub fn fps(&self, mode: ServingMode) -> f64 {
        self.config.freq_mhz * 1e6 / self.cycles_per_image(mode)
    }

    /// Aggregate steady-state throughput report: cycles for one full
    /// `2m`-sample operand batch through every layer.
    pub fn throughput(&self) -> ThroughputReport {
        let batch = self.config.operand_bits();
        let batch_cycles = self.cycles_per_image(ServingMode::Throughput) * batch as f64;
        block_throughput(
            (batch_cycles.ceil() as u64).max(1),
            batch,
            self.config.freq_mhz,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbnn_netlist::random::RandomDag;
    use lbnn_netlist::{Op, PatchSet};

    fn two_layer_model() -> CompiledModel {
        let specs = vec![
            LayerSpec {
                name: "L1".to_string(),
                netlist: RandomDag::strict(10, 4, 8).outputs(6).generate(4),
                blocks: 3,
                sites: 16,
            },
            LayerSpec {
                name: "L2".to_string(),
                netlist: RandomDag::strict(6, 3, 4).outputs(3).generate(5),
                blocks: 2,
                sites: 4,
            },
        ];
        CompiledModel::compile("m", specs, &LpuConfig::new(6, 4), &FlowOptions::default()).unwrap()
    }

    #[test]
    fn infer_chains_layers_bit_exactly() {
        let model = two_layer_model();
        let inputs: Vec<Lanes> = (0..10usize)
            .map(|i| {
                let bits: Vec<bool> = (0..48).map(|l| (i * 7 + l) % 3 == 0).collect();
                Lanes::from_bools(&bits)
            })
            .collect();
        let result = model.infer(&inputs).unwrap();
        assert_eq!(result.layer_outputs.len(), 2);
        assert_eq!(result.outputs().len(), 3);

        // Reproduce by hand with fresh per-layer simulation.
        let l1 = model.layers()[0].flow().simulate(&inputs).unwrap();
        assert_eq!(result.layer_outputs[0], l1.outputs);
        let chained = chain_inputs(&l1.outputs, 6);
        let l2 = model.layers()[1].flow().simulate(&chained).unwrap();
        assert_eq!(result.layer_outputs[1], l2.outputs);
        assert!(result.lpe_ops > 0);
        assert_eq!(result.clock_cycles, l1.clock_cycles + l2.clock_cycles);
    }

    #[test]
    fn accounting_modes_are_consistent() {
        let model = two_layer_model();
        let thr = model.cycles_per_image(ServingMode::Throughput);
        let lat = model.cycles_per_image(ServingMode::Latency);
        assert!(thr > 0.0);
        // Single-stream pays full latency and no lane amortization.
        assert!(lat > thr);
        assert!(model.fps(ServingMode::Throughput) > model.fps(ServingMode::Latency));
        let report = model.throughput();
        assert_eq!(report.batch, model.config().operand_bits());
        let expect_fps = model.fps(ServingMode::Throughput);
        assert!((report.fps - expect_fps).abs() / expect_fps < 1e-3);
    }

    #[test]
    fn chain_inputs_cycles() {
        let a = Lanes::from_bools(&[true, false]);
        let b = Lanes::from_bools(&[false, true]);
        let chained = chain_inputs(&[a.clone(), b.clone()], 5);
        assert_eq!(chained, vec![a.clone(), b.clone(), a.clone(), b, a]);
    }

    #[test]
    fn chain_inputs_want_zero_is_empty() {
        let a = Lanes::from_bools(&[true, false, true]);
        assert!(chain_inputs(&[a], 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "no outputs")]
    fn chain_inputs_rejects_empty_previous_layer() {
        let _ = chain_inputs(&[], 4);
    }

    #[test]
    fn chain_inputs_want_exceeding_prev_wraps_every_slot() {
        let prev: Vec<Lanes> = (0..3)
            .map(|i| Lanes::from_bools(&[i == 0, i == 1]))
            .collect();
        let chained = chain_inputs(&prev, 8);
        assert_eq!(chained.len(), 8);
        for (i, lanes) in chained.iter().enumerate() {
            assert_eq!(lanes, &prev[i % 3], "slot {i} cycles into prev");
        }
    }

    #[test]
    fn infer_with_reused_scratch_matches_fresh_calls() {
        let model = two_layer_model();
        let mut scratch = ModelScratch::new();
        for round in 0..3usize {
            let inputs: Vec<Lanes> = (0..10usize)
                .map(|i| {
                    let bits: Vec<bool> = (0..32).map(|l| (i + l + round) % 3 == 0).collect();
                    Lanes::from_bools(&bits)
                })
                .collect();
            let reused = model.infer_with(&mut scratch, &inputs).unwrap();
            let fresh = model.infer(&inputs).unwrap();
            assert_eq!(reused.layer_outputs, fresh.layer_outputs, "round {round}");
        }
    }

    /// A clone is the same layers: an engine built through the clone is
    /// the original's, and the chain a runtime takes over shares every
    /// layer's core and the flow's program.
    #[test]
    fn a_clone_shares_its_layers_and_their_engines() {
        let model = two_layer_model();
        let clone = model.clone();
        for (a, b) in model.layers().iter().zip(clone.layers()) {
            assert!(std::ptr::eq(a, b));
        }
        let built = clone.layers()[0].engine().unwrap();
        assert!(std::ptr::eq(built, model.layers()[0].engine().unwrap()));
        let engines = clone.into_engines().unwrap();
        for (layer, engine) in model.layers().iter().zip(&engines) {
            assert!(engine.shares_core(layer.engine().unwrap()));
            assert!(std::ptr::eq(engine.program(), &*layer.flow().program));
        }

        // After a delta, still one VLIW image per layer: the patched
        // layer's flow, its engine and a runtime's chain share one copy,
        // and the untouched layer shares the original's.
        for backend in [Backend::Scalar, Backend::BitSliced { words: 4 }] {
            let options = FlowOptions {
                backend,
                ..FlowOptions::default()
            };
            let specs = vec![
                LayerSpec::block("L1", RandomDag::strict(10, 4, 8).outputs(8).generate(4)),
                LayerSpec::block("L2", RandomDag::strict(4, 3, 4).outputs(3).generate(5)),
            ];
            let model =
                CompiledModel::compile("m", specs, &LpuConfig::new(6, 4), &options).unwrap();
            let netlist = &model.layers()[0].flow().netlist;
            let (cell, _) = netlist.iter().find(|(_, n)| n.op() == Op::Xor).unwrap();
            let patches: PatchSet = [(cell, Op::Xnor)].into_iter().collect();
            let delta = model.make_delta(&[(0, patches)]).unwrap();
            let patched = model.apply_delta(&delta).unwrap();
            let program = |m: &CompiledModel, k: usize| Arc::clone(&m.layers()[k].flow().program);
            assert!(!Arc::ptr_eq(&program(&patched, 0), &program(&model, 0)));
            assert!(Arc::ptr_eq(&program(&patched, 1), &program(&model, 1)));
            let engines = patched.clone().into_engines().unwrap();
            for (layer, engine) in patched.layers().iter().zip(&engines) {
                assert!(engine.shares_core(layer.engine().unwrap()));
                assert!(std::ptr::eq(engine.program(), &*layer.flow().program));
            }
            let stats = |m: &CompiledModel| m.layers()[0].engine().unwrap().tape_stats();
            assert_eq!(stats(&patched), stats(&model), "{backend}");
        }
    }

    #[test]
    fn shared_model_infers_from_many_threads() {
        let model = std::sync::Arc::new(two_layer_model());
        let inputs: Vec<Lanes> = (0..10usize)
            .map(|i| {
                let bits: Vec<bool> = (0..48).map(|l| (i * 5 + l) % 3 == 0).collect();
                Lanes::from_bools(&bits)
            })
            .collect();
        let expect = model.infer(&inputs).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let model = std::sync::Arc::clone(&model);
                let inputs = inputs.clone();
                let expect = expect.layer_outputs.clone();
                scope.spawn(move || {
                    let mut scratch = ModelScratch::new();
                    for _ in 0..3 {
                        let got = model.infer_with(&mut scratch, &inputs).unwrap();
                        assert_eq!(got.layer_outputs, expect);
                    }
                });
            }
        });
    }

    fn batch_of(seed: usize, samples: usize, lanes: usize) -> Vec<Lanes> {
        (0..samples)
            .map(|i| {
                let bits: Vec<bool> = (0..lanes)
                    .map(|l| (seed + i * 7 + l).is_multiple_of(3))
                    .collect();
                Lanes::from_bools(&bits)
            })
            .collect()
    }

    #[test]
    fn infer_batches_matches_per_batch_infer() {
        let model = two_layer_model();
        // Ragged lane widths across batches exercise scratch reshaping
        // mid-stream.
        let batches: Vec<Vec<Lanes>> = (0..6)
            .map(|k| batch_of(k, 10, [48, 64, 1, 130, 7, 65][k]))
            .collect();
        let streamed = model.infer_batches(&batches).unwrap();
        assert_eq!(streamed.len(), batches.len());
        for (k, got) in streamed.iter().enumerate() {
            let lone = model.infer(&batches[k]).unwrap();
            assert_eq!(got.layer_outputs.len(), 1, "final layer only, batch {k}");
            assert_eq!(got.outputs(), lone.outputs(), "batch {k}");
            assert_eq!(got.lpe_ops, lone.lpe_ops, "batch {k}");
            assert_eq!(got.clock_cycles, lone.clock_cycles, "batch {k}");
        }
        assert!(model.infer_batches(&[]).unwrap().is_empty());
        let bad = vec![batch_of(0, 3, 16)]; // layer 1 wants 10 inputs
        assert!(matches!(
            model.infer_batches(&bad),
            Err(CoreError::InputArity { .. })
        ));
    }

    #[test]
    fn empty_model_rejected() {
        let err = CompiledModel::compile(
            "empty",
            Vec::new(),
            &LpuConfig::new(4, 4),
            &FlowOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BadConfig { .. }));
    }
}

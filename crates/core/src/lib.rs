//! # lbnn-core
//!
//! The primary contribution of *"Algorithms and Hardware for Efficient
//! Processing of Logic-based Neural Networks"* (DAC 2023), reimplemented in
//! Rust:
//!
//! * **Compiler** ([`compiler`]) — takes a levelized, fully path-balanced
//!   Boolean DAG and
//!   1. partitions it into *maximal feasible subgraphs* (MFGs) with the
//!      BFS partitioning of Algorithms 1–2 ([`mod@compiler::partition`]),
//!   2. merges sibling MFGs per Algorithm 3 ([`compiler::merge`]),
//!   3. schedules MFG levels onto logic processing vectors (LPVs) in
//!      space-time, deriving instruction-queue addresses (Algorithm 4 and
//!      the diagonal-address scheduler, [`compiler::schedule`]),
//!   4. generates per-LPV instruction queues, switch configurations and
//!      data-buffer layouts ([`compiler::codegen`]).
//! * **LPU** ([`lpu`]) — a cycle-accurate, bit-accurate simulator of the
//!   logic processor (Fig 2): LPVs of `m` LPEs with dual snapshot
//!   registers, non-blocking multicast switch stages between LPVs,
//!   instruction queues with the read-address shift register, input/output
//!   data buffers, and the circulation mechanism for deep graphs. Plus the
//!   FPGA resource model behind Table I ([`lpu::resource`]).
//! * **Flow** ([`flow`]) — the end-to-end pipeline (Fig 1), run as
//!   explicit named passes ([`compiler::pipeline`]): optimize → balance →
//!   levelize → partition → merge → schedule → codegen, each timed into a
//!   per-compile [`CompileReport`], with throughput accounting
//!   ([`throughput`]).
//! * **Artifacts** ([`artifact`]) — `Flow::save`/`Flow::load` and
//!   `CompiledModel::save`/`CompiledModel::load` move compiled programs
//!   across processes as versioned, checksummed, self-contained binary
//!   images: compile once, serve anywhere.
//!
//! * **Serving** ([`engine`], [`model`], [`runtime`]) — the deployment
//!   API: compile once, serve forever. An [`Engine`] splits into an
//!   immutable `Arc`'d core (config, program, kernel tape) and per-call
//!   [`EngineScratch`], so one resident compiled block serves from any
//!   number of threads through `&self`
//!   ([`Engine::run_batch_with`]); a [`CompiledModel`] lifts the same
//!   contract to a whole multi-block workload
//!   ([`CompiledModel::infer_with`] + [`ModelScratch`]). Engines execute
//!   on bit-identical [`Backend`]s — the cycle-accurate machine
//!   ([`Backend::Scalar`]) or branch-free bit-sliced word kernels at a
//!   selectable width ([`Backend::BitSliced`]` { words }`, 1/2/4/8/16
//!   words per net = 64/128/256/512/1024 lanes per kernel pass) — selected
//!   via [`FlowBuilder::backend`](flow::FlowBuilder::backend).
//!   [`Engine::run_batches`] replays batch sequences on the calling
//!   thread, and the [`Runtime`] — whose workers are the crate's only
//!   persistent threads — serves *individual* requests: one state
//!   behind one lock holding the forming batch and a bounded queue of
//!   full ones (backpressure), work-conserving micro-batching to the
//!   engine's lane width (a batch leaves when it fills or when a worker
//!   looks for work; no timer), per-request [`RequestHandle`]s, and
//!   measured latency percentiles/queue depth ([`QueueStats`]).
//!
//! ## Quickstart
//!
//! ```
//! use lbnn_core::{Flow, LpuConfig};
//! use lbnn_netlist::random::RandomDag;
//! use lbnn_netlist::Lanes;
//!
//! // Compile once...
//! let netlist = RandomDag::strict(16, 6, 12).generate(1);
//! let flow = Flow::builder(&netlist).config(LpuConfig::new(8, 4)).compile()?;
//! // ...the LPU computes exactly what the netlist computes, for every lane...
//! let report = flow.verify_against_netlist(42)?;
//! assert!(report.lanes_checked > 0);
//! // ...then serve batches from a resident engine (no per-call setup).
//! let mut engine = flow.into_engine()?;
//! let batch: Vec<Lanes> = (0..16).map(|i| Lanes::from_bools(&[i % 2 == 0])).collect();
//! let result = engine.run_batch(&batch)?;
//! assert!(!result.outputs.is_empty());
//! # Ok::<(), lbnn_core::CoreError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod compiler;
pub mod engine;
pub mod error;
pub mod flow;
pub mod lpu;
pub mod model;
pub mod runtime;
pub mod throughput;

pub use artifact::{PatchDelta, PatchRecord, PATCH_VERSION};
pub use compiler::pipeline::{CompileReport, PassReport};
pub use engine::{Backend, Engine, EngineScratch};
pub use error::{ArtifactError, CoreError};
pub use flow::{CompileArtifacts, Flow, FlowBuilder, FlowOptions, FlowStats};
pub use lpu::{LpuConfig, LpuMachine};
pub use model::{CompiledModel, LayerSpec, ModelScratch, ServingMode};
pub use runtime::{RequestHandle, Runtime, RuntimeOptions, RuntimeStats};
pub use throughput::{QueueStats, ThroughputReport};

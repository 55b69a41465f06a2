//! # lbnn — logic-based neural network processing
//!
//! The facade crate of this workspace: one serving-oriented surface over
//! the full reproduction of *"Algorithms and Hardware for Efficient
//! Processing of Logic-based Neural Networks"* (DAC 2023).
//!
//! The deployment model is **compile once, serve forever** (Fig 1):
//!
//! 1. [`Flow::builder`] compiles one FFCL block — synthesize, balance,
//!    partition (Algorithms 1–2), merge (Algorithm 3), schedule
//!    (Algorithm 4), generate instruction queues;
//! 2. [`Engine`] keeps the compiled program resident on a validated
//!    machine and replays it batch after batch at the steady-state
//!    initiation interval;
//! 3. [`CompiledModel`] does the same for a whole multi-block workload
//!    (one block per layer), with per-layer stats and aggregate
//!    throughput.
//! 4. [`Flow::save`]/[`Flow::load`] and
//!    [`CompiledModel::save`]/[`CompiledModel::load`] carry compiled
//!    programs across processes as self-contained, checksummed binary
//!    artifacts — compile once, serve anywhere. Every compile records a
//!    per-pass [`CompileReport`] (wall time + stat deltas), persisted in
//!    the artifact.
//!
//! Engines replay on bit-identical [`Backend`]s — the cycle-accurate
//! machine ([`Backend::Scalar`]) or bit-sliced word kernels at a
//! selectable width ([`Backend::BitSliced`]` { words }`: 1/2/4/8/16
//! words per net = 64/128/256/512/1024 lanes per kernel pass), selected
//! with [`FlowBuilder::backend`] — and split into an immutable shared core
//! plus per-worker scratch, so one resident compiled block serves from
//! any number of threads. [`Engine::run_batches`] replays batch
//! sequences on the calling thread, and the [`Runtime`] — whose workers
//! are the only persistent threads — serves individual requests through
//! one bounded state with dynamic micro-batching to the engine's lane
//! width and measured latency percentiles. `docs/ARCHITECTURE.md` maps the crate layers end to
//! end.
//!
//! ```
//! use lbnn::{Flow, LpuConfig};
//! use lbnn::netlist::random::RandomDag;
//! use lbnn::netlist::Lanes;
//!
//! let block = RandomDag::strict(16, 6, 12).outputs(4).generate(7);
//! let flow = Flow::builder(&block).config(LpuConfig::new(8, 4)).compile()?;
//! let mut engine = flow.into_engine()?;
//! let batch: Vec<Lanes> = (0..16).map(|i| Lanes::from_bools(&[i % 2 == 0])).collect();
//! for _ in 0..3 {
//!     let result = engine.run_batch(&batch)?;
//!     assert_eq!(result.outputs.len(), 4);
//! }
//! assert_eq!(engine.batches_served(), 3);
//! # Ok::<(), lbnn::CoreError>(())
//! ```
//!
//! The sub-crates remain importable individually; this crate re-exports
//! them under stable module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`netlist`] | `lbnn-netlist` | Boolean DAGs, levelization, balancing, Verilog I/O |
//! | [`logic_synth`] | `lbnn-logic-synth` | espresso, BDDs, factoring, tech mapping |
//! | [`nullanet`] | `lbnn-nullanet` | BNN training + FFCL extraction |
//! | [`core`] | `lbnn-core` | compiler, cycle-accurate LPU, serving layer |
//! | [`models`] | `lbnn-models` | model zoo, datasets, workload construction |
//! | [`baselines`] | `lbnn-baselines` | analytic MAC/XNOR/LogicNets baselines |
//! | [`serve`] | `lbnn-serve` | network serving: HTTP + binary protocol, registry, load shedding |
//! | [`bench`](mod@bench) | `lbnn-bench` | table/figure reproduction harness |

#![forbid(unsafe_code)]

pub use lbnn_baselines as baselines;
pub use lbnn_bench as bench;
pub use lbnn_core as core;
pub use lbnn_logic_synth as logic_synth;
pub use lbnn_models as models;
pub use lbnn_netlist as netlist;
pub use lbnn_nullanet as nullanet;
pub use lbnn_serve as serve;

pub use lbnn_core::{
    ArtifactError, Backend, CompileArtifacts, CompileReport, CompiledModel, CoreError, Engine,
    EngineScratch, Flow, FlowBuilder, FlowOptions, FlowStats, LayerSpec, LpuConfig, LpuMachine,
    ModelScratch, PassReport, PatchDelta, PatchRecord, QueueStats, RequestHandle, Runtime,
    RuntimeOptions, RuntimeStats, ServingMode, ThroughputReport,
};
pub use lbnn_netlist::PatchSet;

/// Compiles the README's code blocks as doctests (`cargo test --doc`),
/// so the quickstart in the repository front page cannot rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// Compiles `docs/ARCHITECTURE.md`'s code blocks as doctests (`cargo
/// test --doc`), so the backend/width documentation cannot rot either.
#[cfg(doctest)]
#[doc = include_str!("../docs/ARCHITECTURE.md")]
pub struct ArchitectureDoctests;

pub mod examples;

//! Doc-tested miniatures of the `examples/` programs.
//!
//! Every example under `examples/` has a compact counterpart here whose
//! code block **runs under `cargo test --doc`**, so the API usage each
//! example demonstrates is continuously compiled and executed. The full
//! programs add realistic scale, training loops and report printing; the
//! miniatures pin the exact call sequence.
//!
//! Run the full programs with
//! `cargo run --release -p lbnn --example <name>`.
//!
//! # `quickstart` — compile once, serve batches forever
//!
//! Build a small FFCL block, compile it with the builder API, then serve
//! batches from a resident [`Engine`](crate::Engine):
//!
//! ```
//! use lbnn::netlist::{Lanes, Netlist, Op};
//! use lbnn::{Backend, Flow, LpuConfig};
//!
//! // y = (a & b) ^ c
//! let mut nl = Netlist::new("demo");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let c = nl.add_input("c");
//! let ab = nl.add_gate2(Op::And, a, b);
//! let y = nl.add_gate2(Op::Xor, ab, c);
//! nl.add_output(y, "y");
//!
//! let flow = Flow::builder(&nl).config(LpuConfig::new(4, 4)).compile()?;
//! flow.verify_against_netlist(42)?;
//! let mut engine = flow.into_engine()?;
//! let batch: Vec<Lanes> = (0..3).map(|i| Lanes::from_bools(&[i % 2 == 0])).collect();
//! let result = engine.run_batch(&batch)?;
//! assert_eq!(result.outputs[0].to_bools(), vec![true]); // (1 & 0) ^ 1
//!
//! // Same block, bit-sliced backend: bit-identical, faster host replay.
//! // `words` picks the slice width (1/2/4/8/16 = 64-1024 lanes per pass).
//! let sliced = Flow::builder(&nl)
//!     .config(LpuConfig::new(4, 4))
//!     .backend(Backend::BitSliced { words: 4 })
//!     .compile()?;
//! let mut sliced_engine = sliced.into_engine()?;
//! assert_eq!(sliced_engine.lane_width(), 256);
//! assert_eq!(sliced_engine.run_batch(&batch)?.outputs, result.outputs);
//! # Ok::<(), lbnn::CoreError>(())
//! ```
//!
//! # `verilog_flow` — the Fig 1 flow from structural Verilog
//!
//! Parse a gate-level module, compile it, verify, and write it back out:
//!
//! ```
//! use lbnn::netlist::verilog::{parse_verilog, write_verilog};
//! use lbnn::{Flow, LpuConfig};
//!
//! let src = "module f (a, b, y);
//!   input a, b;
//!   output y;
//!   wire t;
//!   nand (t, a, b);
//!   not  (y, t);
//! endmodule";
//! let nl = parse_verilog(src)?;
//! let flow = Flow::builder(&nl).config(LpuConfig::new(2, 2)).compile()?;
//! flow.verify_against_netlist(7)?;
//! assert!(write_verilog(&flow.source).contains("module f"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # `schedule_diagram` — MFG partition and space-time schedule
//!
//! Partition a balanced DAG into MFGs (Algorithms 1–2), merge them
//! (Algorithm 3), and schedule onto LPVs (Algorithm 4):
//!
//! ```
//! use lbnn::core::compiler::merge::merge_mfgs;
//! use lbnn::core::compiler::partition::{partition, PartitionOptions};
//! use lbnn::core::compiler::schedule::schedule_spacetime;
//! use lbnn::netlist::random::RandomDag;
//! use lbnn::netlist::Levels;
//!
//! let nl = RandomDag::strict(8, 5, 4).outputs(2).generate(7);
//! let levels = Levels::compute(&nl);
//! let raw = partition(&nl, &levels, 4, PartitionOptions::default())?;
//! let (part, stats) = merge_mfgs(&raw, 4);
//! assert!(stats.after <= stats.before);
//! let schedule = schedule_spacetime(&part, 6, 4)?;
//! assert!(schedule.total_cycles > 0);
//! # Ok::<(), lbnn::CoreError>(())
//! ```
//!
//! # `intrusion_detection` / `jet_classification` — neuron → logic → LPU
//!
//! Both end-to-end tasks share one shape: train a binarized MLP, extract
//! each layer as an FFCL block (NullaNet), compile the blocks into a
//! [`CompiledModel`](crate::CompiledModel), and serve. The miniature
//! extracts one tiny layer exactly and checks logic == neuron:
//!
//! ```
//! use lbnn::netlist::Lanes;
//! use lbnn::nullanet::bnn::BinaryDense;
//! use lbnn::nullanet::extract::{layer_netlist, ExtractMode};
//! use lbnn::{CompiledModel, FlowOptions, LayerSpec, LpuConfig};
//!
//! let layer = BinaryDense::random(11, 6, 3);
//! let nl = layer_netlist(&layer, ExtractMode::Exact, None)?;
//! let x = [true, false, true, true, false, true];
//! assert_eq!(nl.eval_bools(&x), layer.forward(&x)); // logic == neuron
//!
//! let mut model = CompiledModel::compile(
//!     "nid-mini",
//!     vec![LayerSpec::block("L0", nl)],
//!     &LpuConfig::new(8, 4),
//!     &FlowOptions::default(),
//! )?;
//! let inputs: Vec<Lanes> = x.iter().map(|&b| Lanes::from_bools(&[b])).collect();
//! let out = model.infer(&inputs)?;
//! assert_eq!(out.outputs().len(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # `vgg16_layers` — the paper's headline workload
//!
//! Compile zoo layer workloads and compare merged vs unmerged MFG counts
//! (the Fig 7 experiment), on a miniature random block:
//!
//! ```
//! use lbnn::netlist::random::RandomDag;
//! use lbnn::{Flow, LpuConfig};
//!
//! let block = RandomDag::strict(24, 6, 16).outputs(6).generate(2);
//! let merged = Flow::builder(&block).config(LpuConfig::new(8, 4)).compile()?;
//! let unmerged = Flow::builder(&block)
//!     .config(LpuConfig::new(8, 4))
//!     .merge(false)
//!     .compile()?;
//! assert!(merged.stats.mfgs <= unmerged.stats.mfgs);
//! assert!(merged.stats.steady_clock_cycles <= unmerged.stats.steady_clock_cycles);
//! # Ok::<(), lbnn::CoreError>(())
//! ```

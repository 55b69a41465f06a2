//! # lbnn-nullanet
//!
//! The upstream engine of the paper's design flow: NullaNet-style
//! conversion of **binarized neural networks** into fixed-function
//! combinational logic (FFCL) blocks.
//!
//! NullaNet (Nazemi et al., ASP-DAC 2019 / FCCM 2021) replaces each
//! binarized neuron by Boolean logic: a neuron with binary ±1 weights and
//! a sign activation is exactly an *XNOR-popcount-threshold* function of
//! its inputs, which can be realized (a) exactly as a truth table for
//! small fan-in ([`extract::ExtractMode::Exact`]), (b) as a minimized
//! incompletely specified function sampled from the training data
//! ([`extract::ExtractMode::Sampled`]), or (c) as a structural
//! XNOR/popcount/comparator netlist at any fan-in ([`popcount`]).
//!
//! The crate also carries a compact straight-through-estimator trainer
//! ([`train`]) so end-to-end examples (network intrusion detection, jet
//! classification) can learn real decision functions before extraction.
//!
//! ```
//! use lbnn_nullanet::bnn::BinaryDense;
//! use lbnn_nullanet::extract::{layer_netlist, ExtractMode};
//!
//! let layer = BinaryDense::random(7, 6, 3);
//! let nl = layer_netlist(&layer, ExtractMode::Exact, None).unwrap();
//! // The netlist computes exactly what the layer computes.
//! let x = [true, false, true, true, false, true];
//! assert_eq!(nl.eval_bools(&x), layer.forward(&x));
//! ```

#![forbid(unsafe_code)]

pub mod bnn;
pub mod conv;
pub mod extract;
pub mod popcount;
pub mod train;

pub use bnn::{BinaryDense, Bnn};
pub use conv::{BinaryConv2d, FeatureMap};
pub use extract::{layer_netlist, neuron_netlist, ExtractMode};

//! # lbnn-models
//!
//! The benchmark workloads of the paper's evaluation (§VI):
//!
//! * [`zoo`] — layer-shape definitions of every evaluated model: VGG16
//!   (convolutional layers 2–13 are the paper's headline workload),
//!   LeNet-5, MLPMixer-S/4 and B/4, the ChewBaccaNN VGG-like CIFAR net,
//!   the jet-substructure classifiers JSC-M/L, and the UNSW-NB15 network
//!   intrusion detector (593 binary features, 2 classes);
//! * [`dataset`] — seeded synthetic datasets with the dimensionality and
//!   class structure of MNIST / CIFAR-10 / JSC / UNSW-NB15 (prototype
//!   patterns + bit-flip noise, so they are genuinely learnable);
//! * [`workload`] — FFCL workload construction: samples representative
//!   neuron blocks per layer (NullaNet-Tiny-style bounded fan-in),
//!   extracts their logic, and provides the pass-counting arithmetic that
//!   converts one compiled block's cycle count into per-image layer cost.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod workload;
pub mod zoo;

pub use dataset::Dataset;
pub use workload::{model_specs, model_workloads, LayerWorkload, WorkloadOptions};
pub use zoo::{LayerShape, ModelShape};

//! # lbnn-baselines
//!
//! The comparison points of Tables II and III: analytic throughput models
//! of the accelerators the paper measures the LPU against, plus the
//! FPS numbers the paper itself quotes (its baselines are taken from
//! prior publications — \[12\], \[16\], \[17\], \[8\], \[1\]).
//!
//! Each model is built from first principles (array shapes, folding,
//! per-layer overheads, memory bandwidth) with constants calibrated once
//! against the paper's VGG16 row; [`reported`] carries the quoted values
//! so the benches can print *paper vs model vs our-LPU* side by side.
//! Where an analytic model deviates from a quoted number (e.g. the
//! MLPMixer MAC baseline, which the source publication ran in large
//! batches) shows in those binaries' output; `ROADMAP.md` plans the
//! record that explains each gap.

#![forbid(unsafe_code)]

pub mod logicnets;
pub mod mac;
pub mod nulladsp;
pub mod reported;
pub mod xnor;

pub use logicnets::LogicNets;
pub use mac::MacAccelerator;
pub use nulladsp::NullaDsp;
pub use xnor::XnorAccelerator;

//! The logic processor (LPU) — §IV of the paper.
//!
//! A data-driven architecture: streaming operands flow through linearly
//! ordered logic processing vectors (LPVs), each holding `m` logic
//! processing elements (LPEs) with two snapshot registers apiece,
//! connected by non-blocking multicast switch networks. No scratchpad
//! memories: intermediate results either flow through the pipeline or
//! rest briefly in snapshot registers, under compiler control.

pub mod config;
pub mod machine;
pub mod resource;

pub use config::LpuConfig;
pub use machine::{LpuMachine, PassScratch, RunResult};
pub use resource::{ResourceReport, Vu9pCapacity};

//! # lbnn-netlist
//!
//! Gate-level netlist intermediate representation for the `lbnn` workspace,
//! the Rust reproduction of *"Algorithms and Hardware for Efficient
//! Processing of Logic-based Neural Networks"* (DAC 2023).
//!
//! A [`Netlist`] is a directed acyclic graph of two-input Boolean gates (plus
//! inverters, buffers and constants) — the in-memory form of a
//! *fixed-function combinational logic* (FFCL) block. The crate provides:
//!
//! * the node/edge arena itself ([`Netlist`], [`Node`], [`NodeId`], [`Op`]),
//! * a structural-Verilog parser and writer ([`verilog`]) and a compact
//!   binary image format ([`serdes`]) used by the self-contained
//!   serving artifacts of `lbnn-core`,
//! * depth levelization ([`levelize`]) and full path balancing ([`balance`]),
//!   the two pre-processing steps the paper's compiler requires,
//! * bit-parallel functional evaluation ([`eval`]) used as the correctness
//!   oracle for the LPU simulator, plus the width-generic bit-sliced
//!   kernel compiler ([`BitSliceEvaluator`], 64–1024 lanes per
//!   [`SliceFrame`] block) behind the serving layer's fast execution
//!   backend, with a tape-locality pass ([`TapeStats`]: chain fusion,
//!   liveness-based slot reuse) and runtime-detected replay kernels
//!   ([`SimdMode`]/[`SimdLevel`]: one compiled tile, built for the
//!   baseline and for AVX2, and an AVX-512 kernel on x86_64),
//! * partitioned execution ([`partitioned`]): a netlist split into
//!   per-partition kernel tapes over smaller frames, with a
//!   compile-time cross-partition [`ExchangeSchedule`],
//!   run level-synchronously on the calling thread
//!   ([`PartitionedEngine`]),
//! * seeded random netlist generators ([`random`]) for tests and benchmarks.
//!
//! ## Example
//!
//! ```
//! use lbnn_netlist::{Netlist, Op};
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
//! let out = nl.eval_bools(&[true, true, false]);
//! assert_eq!(out, vec![true]);
//! ```

// The crate's only `unsafe` is in `eval/kernel.rs`: the AVX-512 kernel
// (`mod simd`) and the tile dispatch, each with one `allow`, reached
// only through that file's checked `Tape`.
#![deny(unsafe_code)]

pub mod balance;
pub mod cell;
pub mod error;
pub mod eval;
pub mod idhash;
pub mod levelize;
pub mod netlist;
pub mod partitioned;
pub mod patch;
pub mod random;
pub mod serdes;
pub mod verilog;

pub use cell::Op;
pub use error::NetlistError;
pub use eval::{
    BitSliceEvaluator, Lanes, PackedRows, SimdLevel, SimdMode, SliceFrame, TapeStats,
    SUPPORTED_SLICE_WORDS,
};
pub use idhash::{IdHashMap, IdHashSet, IdHasher};
pub use levelize::Levels;
pub use netlist::{Netlist, Node, NodeId};
pub use partitioned::{
    ExchangeCopy, ExchangeSchedule, PartitionAssignment, PartitionStats, PartitionedEngine,
    MAX_PARTITIONS,
};
pub use patch::PatchSet;
pub use serdes::{ByteReader, ByteWriter};

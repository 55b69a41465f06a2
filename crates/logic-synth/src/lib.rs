//! # lbnn-logic-synth
//!
//! Logic synthesis substrate for the `lbnn` workspace: the stand-in for the
//! Yosys + ABC pre-processing stage of the paper's design flow (Fig 1,
//! "run logic minimization, map to standard cell library").
//!
//! Provided passes:
//!
//! * [`cube`]/[`truth`] — positional-cube covers and dense truth tables,
//!   the two Boolean function representations used throughout;
//! * [`espresso`] — an Espresso-style two-level minimizer
//!   (EXPAND / IRREDUNDANT / REDUCE over incompletely specified functions);
//! * [`factor`] — literal factoring of a minimized cover into a multi-level
//!   network of two-input gates;
//! * [`strash`] — structural hashing, constant propagation, and dead-code
//!   elimination on gate netlists;
//! * [`techmap`] — inverter absorption into the LPE cell library
//!   (`NOT(AND) → NAND` etc.) and final mapping checks;
//! * [`synth`] — the combined `optimize` pipeline used by the compiler flow;
//! * [`bdd`] — a hash-consed ROBDD package, the scalable equivalence
//!   oracle this crate's property tests check everything above with.
//!
//! ## Example: minimize and map a function
//!
//! ```
//! use lbnn_logic_synth::cube::Cover;
//! use lbnn_logic_synth::espresso::minimize;
//! use lbnn_logic_synth::factor::cover_to_netlist;
//!
//! // f(a,b,c) = majority-of-3, given as its four ON-set minterms.
//! let on = Cover::from_minterms(3, &[0b011, 0b101, 0b110, 0b111]);
//! let min = minimize(&on, &Cover::empty(3));
//! assert!(min.cube_count() <= 3); // majority needs only ab + ac + bc
//! let nl = cover_to_netlist(&min, 3, "maj3");
//! assert_eq!(nl.eval_bools(&[true, true, false]), vec![true]);
//! ```

#![forbid(unsafe_code)]

pub mod bdd;
pub mod cube;
pub mod espresso;
pub mod factor;
pub mod strash;
pub mod synth;
pub mod techmap;
pub mod truth;

pub use bdd::{netlists_equivalent, Bdd};
pub use cube::{Cover, Cube};
pub use synth::{optimize, OptimizeOptions, SynthStats};
pub use truth::TruthTable;

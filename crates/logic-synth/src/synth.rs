//! The combined logic-optimization pipeline used by the compiler flow.
//!
//! Mirrors the "pre-processing" box of the paper's Fig 1: run logic
//! minimization, map to the LPE cell library, and hand a clean two-input
//! netlist to depth levelization.

use lbnn_netlist::Netlist;

use crate::strash::{strash, StrashStats};
use crate::techmap::{absorb_inverters, check_mapped, fuses_any, AbsorbStats};

/// Options for [`optimize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeOptions {
    /// Fuse `NOT(gate)` pairs into negated gates (`NAND`/`NOR`/`XNOR`).
    pub absorb_inverters: bool,
    /// Maximum strash/absorb iterations (the pipeline stops early once a
    /// fixpoint is reached).
    pub max_iterations: usize,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            absorb_inverters: true,
            max_iterations: 4,
        }
    }
}

/// Aggregate statistics of an [`optimize`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynthStats {
    /// Node count before optimization.
    pub nodes_before: usize,
    /// Node count after optimization.
    pub nodes_after: usize,
    /// Total gates folded/merged by structural hashing.
    pub strash_folded: usize,
    /// Total inverters absorbed into negated gates.
    pub inverters_fused: usize,
    /// Number of pipeline iterations executed.
    pub iterations: usize,
}

/// Optimizes a netlist: iterated structural hashing and inverter
/// absorption until fixpoint (or the iteration cap).
///
/// The result computes the same function over the same inputs/outputs and
/// uses only LPE-executable cells.
///
/// # Example
///
/// ```
/// use lbnn_netlist::{Netlist, Op};
/// use lbnn_logic_synth::{optimize, OptimizeOptions};
/// let mut nl = Netlist::new("f");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let g = nl.add_gate2(Op::And, a, b);
/// let y = nl.add_gate1(Op::Not, g); // NOT(AND) fuses to NAND
/// nl.add_output(y, "y");
/// let (opt, stats) = optimize(&nl, OptimizeOptions::default());
/// assert_eq!(opt.gate_count(), 1);
/// assert_eq!(stats.inverters_fused, 1);
/// ```
pub fn optimize(netlist: &Netlist, options: OptimizeOptions) -> (Netlist, SynthStats) {
    let mut stats = SynthStats {
        nodes_before: netlist.len(),
        ..Default::default()
    };
    // `None` until the first iteration: the input itself is never copied.
    let mut current: Option<Netlist> = None;
    for _ in 0..options.max_iterations.max(1) {
        stats.iterations += 1;
        let input = current.as_ref().unwrap_or(netlist);
        let (hashed, s): (Netlist, StrashStats) = strash(input);
        stats.strash_folded += s.folded + s.merged;
        let mut next = hashed;
        // With nothing to fuse, `absorb_inverters` would rebuild the
        // strashed netlist unchanged: skip it.
        if options.absorb_inverters && fuses_any(&next) {
            let (absorbed, a): (Netlist, AbsorbStats) = absorb_inverters(&next);
            stats.inverters_fused += a.fused;
            // Sweep the dead inner gates the fusion left behind.
            let (clean, s2) = strash(&absorbed);
            stats.strash_folded += s2.folded + s2.merged;
            next = clean;
        }
        let fixpoint = next.len() == input.len() && next == *input;
        current = Some(next);
        if fixpoint {
            break;
        }
    }
    let current = current.expect("at least one iteration");
    check_mapped(&current).expect("optimize preserves structural validity");
    stats.nodes_after = current.len();
    (current, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbnn_netlist::random::RandomDag;
    use lbnn_netlist::Op;

    #[test]
    fn optimize_reaches_fixpoint() {
        let nl = RandomDag::loose(10, 8, 12).outputs(6).generate(5);
        let (opt, stats) = optimize(&nl, OptimizeOptions::default());
        assert!(stats.nodes_after <= stats.nodes_before);
        // Re-optimizing is a no-op.
        let (opt2, stats2) = optimize(&opt, OptimizeOptions::default());
        assert_eq!(opt.len(), opt2.len());
        assert_eq!(stats2.strash_folded, 0);
        assert_eq!(stats2.inverters_fused, 0);
    }

    #[test]
    fn optimize_preserves_function_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..6 {
            let nl = RandomDag::loose(9, 5, 8).outputs(3).generate(seed);
            let (opt, _) = optimize(&nl, OptimizeOptions::default());
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..200 {
                let ins: Vec<bool> = (0..9).map(|_| rng.random_bool(0.5)).collect();
                assert_eq!(nl.eval_bools(&ins), opt.eval_bools(&ins));
            }
        }
    }

    #[test]
    fn absorb_can_be_disabled() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate2(Op::And, a, b);
        let y = nl.add_gate1(Op::Not, g);
        nl.add_output(y, "y");
        let (opt, stats) = optimize(
            &nl,
            OptimizeOptions {
                absorb_inverters: false,
                ..Default::default()
            },
        );
        assert_eq!(stats.inverters_fused, 0);
        assert_eq!(opt.gate_count(), 2);
    }
}

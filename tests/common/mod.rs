//! Fixtures shared by the conformance suites.

use lbnn::netlist::{Netlist, Op};

/// `width` inputs under `depth` levels of `width` two-input gates, gate
/// `(l, j)` reading `(l-1, j)` and `(l-1, j+16)`; every last-level net
/// is an output, so the `optimize` pass can prune nothing.
///
/// `banded_dag(512, 9)` maps to 4608 kernel instructions: at 16 words
/// per net one block is past the partitioned executor's go-wide
/// threshold (`tape_len × words × blocks ≥ 1 << 16`), so on a host with
/// two or more cores the *threaded* executor serves it — chosen by the
/// code from what it observes, with no knob.
pub fn banded_dag(width: usize, depth: usize) -> Netlist {
    let mut nl = Netlist::new("banded_dag");
    let mut prev: Vec<_> = (0..width).map(|j| nl.add_input(format!("i{j}"))).collect();
    for level in 0..depth {
        prev = (0..width)
            .map(|j| {
                let op = Op::MISO[(level * 31 + j) % Op::MISO.len()];
                nl.add_gate2(op, prev[j], prev[(j + 16) % width])
            })
            .collect();
    }
    for (j, &net) in prev.iter().enumerate() {
        nl.add_output(net, format!("y{j}"));
    }
    nl
}

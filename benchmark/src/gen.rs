//! Everything `--seed` drives, and the one netlist the benchmark builds
//! by hand. The seed reaches only the generated inputs — request bits,
//! sample columns and which cells a patch rewrites — so netlists,
//! weights and configurations, and with them every exact count, are the
//! same for every seed.

use lbnn_netlist::{Lanes, Netlist, NodeId, Op, PatchSet};

/// SplitMix64: small, seedable, and good enough for input bits.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `stream` separates the independent input
    /// sets one run draws (rows, columns, patches) from each other.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Inputs / gate columns of the banded DAG.
pub const DAG_WIDTH: usize = 4096;
/// Gate levels of the banded DAG.
pub const DAG_DEPTH: usize = 6;
/// Gate `(l, j)` reads `(l-1, j)` and `(l-1, (j + DAG_STRIDE) % DAG_WIDTH)`.
pub const DAG_STRIDE: usize = 16;

/// The live banded DAG of `offline_dag` and `compile_deploy`: 4096
/// inputs, 6 levels of 4096 two-input gates. Every last-level net is an
/// output, so the `optimize` pass can prune nothing and the live frame
/// (~4.1k slots × 16 words × 8 B ≈ 526 KB) overflows the 256 KiB tile
/// budget — the case where tiling decides throughput.
pub fn banded_dag() -> Netlist {
    let mut nl = Netlist::new("banded_dag_4096x6");
    let mut prev: Vec<NodeId> = (0..DAG_WIDTH)
        .map(|j| nl.add_input(format!("i{j}")))
        .collect();
    for level in 0..DAG_DEPTH {
        prev = (0..DAG_WIDTH)
            .map(|j| {
                let op = Op::MISO[(level * 31 + j) % Op::MISO.len()];
                nl.add_gate2(op, prev[j], prev[(j + DAG_STRIDE) % DAG_WIDTH])
            })
            .collect();
    }
    for (j, &net) in prev.iter().enumerate() {
        nl.add_output(net, format!("y{j}"));
    }
    nl
}

/// One pre-packed batch: a column of `lanes` random samples per input.
pub fn random_columns(rng: &mut Rng, num_inputs: usize, lanes: usize) -> Vec<Lanes> {
    let words = lanes.div_ceil(64);
    let tail = lanes % 64;
    (0..num_inputs)
        .map(|_| {
            let mut col: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
            if tail != 0 {
                col[words - 1] &= (1u64 << tail) - 1;
            }
            Lanes::from_words(col, lanes)
        })
        .collect()
}

/// `count` single-sample requests of `width` input bits each.
pub fn random_rows(rng: &mut Rng, width: usize, count: usize) -> Vec<Vec<bool>> {
    (0..count)
        .map(|_| {
            let mut word = 0u64;
            (0..width)
                .map(|i| {
                    if i % 64 == 0 {
                        word = rng.next_u64();
                    }
                    word >> (i % 64) & 1 != 0
                })
                .collect()
        })
        .collect()
}

/// A patch rewriting `cells` distinct cells spread over the mapped
/// netlists of a model's layers, as `(layer, patch set)` pairs in layer
/// order. Every replacement has the arity of the cell it replaces and
/// differs from the op the cell computes now, so the patch always
/// changes the function.
pub fn random_patch(rng: &mut Rng, layers: &[&Netlist], cells: usize) -> Vec<(usize, PatchSet)> {
    let mut picked: Vec<(usize, NodeId, Op)> = Vec::with_capacity(cells);
    while picked.len() < cells {
        let layer = rng.below(layers.len());
        let id = NodeId::new(rng.below(layers[layer].len()) as u32);
        let old = layers[layer].node(id).op();
        if !old.is_executable() || old.arity() == 0 {
            continue;
        }
        if picked.iter().any(|&(l, n, _)| l == layer && n == id) {
            continue;
        }
        let family: &[Op] = if old.arity() == 2 {
            &Op::MISO
        } else {
            &Op::SISO
        };
        let at = family
            .iter()
            .position(|&op| op == old)
            .expect("executable op");
        let step = 1 + rng.below(family.len() - 1);
        picked.push((layer, id, family[(at + step) % family.len()]));
    }
    let mut sets: Vec<(usize, PatchSet)> = Vec::new();
    picked.sort_by_key(|&(layer, id, _)| (layer, id));
    for (layer, id, op) in picked {
        match sets.last_mut() {
            Some((l, set)) if *l == layer => {
                set.set(id, op);
            }
            _ => {
                let mut set = PatchSet::new();
                set.set(id, op);
                sets.push((layer, set));
            }
        }
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let rows = |seed| random_rows(&mut Rng::new(seed, 1), 70, 16);
        assert_eq!(rows(5), rows(5));
        assert_ne!(rows(5), rows(6));
        let cols = |seed| random_columns(&mut Rng::new(seed, 2), 3, 100);
        assert_eq!(cols(5), cols(5));
        assert_ne!(cols(5), cols(6));
        // Streams of one seed are independent of each other.
        assert_ne!(Rng::new(5, 1).next_u64(), Rng::new(5, 2).next_u64());
    }

    #[test]
    fn columns_keep_tail_lanes_clear() {
        let cols = random_columns(&mut Rng::new(1, 0), 4, 70);
        for c in &cols {
            assert_eq!(c.len(), 70);
            assert_eq!(c.words()[1] >> 6, 0);
        }
    }

    #[test]
    fn banded_dag_has_the_documented_shape() {
        let nl = banded_dag();
        assert_eq!(nl.inputs().len(), DAG_WIDTH);
        assert_eq!(nl.outputs().len(), DAG_WIDTH);
        assert_eq!(nl.gate_count(), DAG_WIDTH * DAG_DEPTH);
        nl.validate().unwrap();
    }

    #[test]
    fn patches_are_valid_effective_and_seeded() {
        let a = banded_dag();
        let layers = [&a, &a];
        let patch = |seed| random_patch(&mut Rng::new(seed, 3), &layers, 8);
        let sets = patch(9);
        assert_eq!(sets.iter().map(|(_, s)| s.len()).sum::<usize>(), 8);
        for (layer, set) in &sets {
            set.validate(layers[*layer]).unwrap();
            for (id, op) in set.iter() {
                assert_ne!(layers[*layer].node(id).op(), op);
            }
        }
        assert_eq!(sets, patch(9));
        assert_ne!(sets, patch(10));
    }
}

//! Property-based tests for the netlist substrate.

use lbnn_netlist::balance::balance;
use lbnn_netlist::eval::{
    evaluate, gather_bits, spread_bits, BitSliceEvaluator, Lanes, PackedRows,
};
use lbnn_netlist::random::RandomDag;
use lbnn_netlist::verilog::{parse_verilog, write_verilog};
use lbnn_netlist::Levels;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Verilog write → parse round trip preserves the function and the
    /// interface.
    #[test]
    fn verilog_round_trip(
        seed in 0u64..10_000,
        inputs in 2usize..10,
        depth in 1usize..6,
        width in 1usize..8,
        outputs in 1usize..4,
        loose in proptest::bool::ANY,
    ) {
        let gen = if loose {
            RandomDag::loose(inputs, depth, width)
        } else {
            RandomDag::strict(inputs, depth, width)
        };
        let nl = gen.outputs(outputs).generate(seed);
        let text = write_verilog(&nl);
        let back = parse_verilog(&text).expect("writer output parses");
        prop_assert_eq!(back.inputs().len(), nl.inputs().len());
        prop_assert_eq!(back.outputs().len(), nl.outputs().len());
        for m in 0..(1u64 << inputs.min(8)) {
            let bits: Vec<bool> = (0..inputs).map(|i| m >> i & 1 != 0).collect();
            prop_assert_eq!(nl.eval_bools(&bits), back.eval_bools(&bits));
        }
    }

    /// Bit-parallel evaluation agrees with scalar evaluation lane by lane.
    #[test]
    fn lanes_agree_with_scalar(
        seed in 0u64..10_000,
        inputs in 2usize..8,
        depth in 1usize..5,
        width in 1usize..6,
        lanes in 1usize..100,
    ) {
        let nl = RandomDag::loose(inputs, depth, width).outputs(2).generate(seed);
        let vectors: Vec<Vec<bool>> = (0..lanes)
            .map(|l| (0..inputs).map(|i| (seed as usize + l * 7 + i).is_multiple_of(3)).collect())
            .collect();
        let packed: Vec<Lanes> = (0..inputs)
            .map(|i| Lanes::from_bools(&vectors.iter().map(|v| v[i]).collect::<Vec<_>>()))
            .collect();
        let out = evaluate(&nl, &packed).unwrap();
        for (l, v) in vectors.iter().enumerate() {
            let scalar = nl.eval_bools(v);
            for (o, lane_out) in out.iter().enumerate() {
                prop_assert_eq!(lane_out.get(l), scalar[o]);
            }
        }
    }

    /// Balancing is idempotent: balancing a balanced netlist inserts
    /// nothing.
    #[test]
    fn balance_idempotent(
        seed in 0u64..10_000,
        inputs in 2usize..8,
        depth in 1usize..6,
        width in 1usize..6,
    ) {
        let nl = RandomDag::loose(inputs, depth, width).outputs(2).generate(seed);
        let (b1, _) = balance(&nl);
        let (b2, stats2) = balance(&b1);
        prop_assert_eq!(stats2.total(), 0);
        prop_assert_eq!(b1.len(), b2.len());
        let lv = Levels::compute(&b1);
        prop_assert!(lv.is_fully_balanced(&b1));
    }

    /// After balancing, every PI→PO path crosses exactly Lmax gates.
    #[test]
    fn balanced_path_lengths_uniform(
        seed in 0u64..10_000,
        inputs in 2usize..7,
        depth in 1usize..5,
        width in 1usize..5,
    ) {
        let nl = RandomDag::loose(inputs, depth, width).outputs(2).generate(seed);
        let (bal, _) = balance(&nl);
        let lv = Levels::compute(&bal);
        // Walk all paths from each PO backwards, tracking depth.
        for o in bal.outputs() {
            let mut stack = vec![(o.node, 0u32)];
            while let Some((node, d)) = stack.pop() {
                let fanins = bal.node(node).fanins();
                if fanins.is_empty() {
                    prop_assert_eq!(d, lv.max_level(), "path length mismatch");
                } else {
                    for &f in fanins {
                        stack.push((f, d + 1));
                    }
                }
            }
        }
    }

    /// One bit-sliced 64-lane pass equals 64 independent scalar passes:
    /// the defining property of the one-word `SliceFrame` packing — every bit
    /// position of the word is a fully independent sample.
    #[test]
    fn bitsliced_pass_equals_64_scalar_passes(
        seed in 0u64..10_000,
        inputs in 2usize..8,
        depth in 1usize..6,
        width in 1usize..7,
        outputs in 1usize..4,
        loose in proptest::bool::ANY,
    ) {
        let gen = if loose {
            RandomDag::loose(inputs, depth, width)
        } else {
            RandomDag::strict(inputs, depth, width)
        };
        let nl = gen.outputs(outputs).generate(seed);

        // 64 pseudo-random scalar input vectors, one per lane.
        let vectors: Vec<Vec<bool>> = (0..64)
            .map(|l| {
                (0..inputs)
                    .map(|i| (seed as usize).wrapping_add(l * 131 + i * 17) % 5 < 2)
                    .collect()
            })
            .collect();

        // One bit-sliced pass over the packed 64-lane batch.
        let packed: Vec<Lanes> = (0..inputs)
            .map(|i| Lanes::from_bools(&vectors.iter().map(|v| v[i]).collect::<Vec<_>>()))
            .collect();
        let sliced = BitSliceEvaluator::compile(&nl);
        let got = sliced.evaluate(&packed).unwrap();

        // 64 independent scalar passes.
        for (lane, v) in vectors.iter().enumerate() {
            let scalar = nl.eval_bools(v);
            for (o, out) in got.iter().enumerate() {
                prop_assert_eq!(out.get(lane), scalar[o], "lane {} output {}", lane, o);
            }
        }
    }

    /// The 64×64 block-transpose packing is bit-identical to a naive
    /// per-bit transpose for arbitrary row counts and widths (block-edge
    /// shapes included), and `unpack_rows` inverts it exactly.
    #[test]
    fn pack_rows_transpose_matches_naive(
        seed in 0u64..10_000,
        nrows in 0usize..200,
        width in 1usize..140,
    ) {
        let rows: Vec<Vec<bool>> = (0..nrows)
            .map(|j| {
                (0..width)
                    .map(|i| (seed as usize).wrapping_add(j * 7 + i * 13).is_multiple_of(3))
                    .collect()
            })
            .collect();
        let cols = Lanes::pack_rows(&rows, width);
        prop_assert_eq!(cols.len(), width);
        for (i, col) in cols.iter().enumerate() {
            let mut naive = Lanes::zeros(nrows);
            for (j, row) in rows.iter().enumerate() {
                naive.set(j, row[i]);
            }
            prop_assert_eq!(col, &naive, "signal {}", i);
        }
        prop_assert_eq!(Lanes::unpack_rows(&cols), rows);
    }

    /// The column→packed-row transposer and the row expansion are
    /// bit-identical to the naive per-bit reference for any shape: a
    /// ragged final word, a ragged final row block, no columns, no rows.
    #[test]
    fn packed_rows_match_naive(
        seed in 0u64..10_000,
        nrows in 0usize..200,
        width in 0usize..200,
    ) {
        let bit = |j: usize, i: usize| {
            (seed as usize)
                .wrapping_add(j * 7 + i * 13 + (j * i) % 5)
                .is_multiple_of(3)
        };
        let columns: Vec<Lanes> = (0..width)
            .map(|i| {
                let mut column = Lanes::zeros(nrows);
                for j in 0..nrows {
                    column.set(j, bit(j, i));
                }
                column
            })
            .collect();
        let packed = PackedRows::from_columns(&columns);
        // The lane count comes from the columns: none, no rows.
        let rows = if width == 0 { 0 } else { nrows };
        prop_assert_eq!(packed.rows(), rows);
        prop_assert_eq!(packed.width(), width);
        for j in 0..rows {
            let naive: Vec<bool> = (0..width).map(|i| bit(j, i)).collect();
            prop_assert_eq!(packed.row(j), naive, "row {}", j);
        }
        prop_assert_eq!(Lanes::unpack_rows(&columns).len(), rows);
    }

    /// `gather_bits` / `spread_bits` — the one bool↔bit conversion — agree
    /// with per-bit shifting for every length a word can hold, and
    /// `Lanes::{from_bools, to_bools}` built on them round-trip.
    #[test]
    fn gather_and_spread_match_per_bit_shifts(seed in 0u64..10_000, len in 0usize..65) {
        let word = (seed + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let bits: Vec<bool> = (0..len).map(|k| word >> k & 1 != 0).collect();
        let mut spread = vec![false; len];
        spread_bits(word, &mut spread);
        prop_assert_eq!(&spread, &bits);
        let mask = if len == 64 { !0 } else { (1u64 << len) - 1 };
        prop_assert_eq!(gather_bits(&bits), word & mask);
        let lanes = Lanes::from_bools(&bits);
        prop_assert_eq!(lanes.words(), &[word & mask][..len.div_ceil(64)]);
        prop_assert_eq!(lanes.to_bools(), bits);
    }
}

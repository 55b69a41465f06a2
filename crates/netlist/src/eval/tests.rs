use super::lanes::{LaneWords, INLINE_WORDS};
use super::*;
use crate::cell::Op;
use crate::PatchSet;

/// One deterministic lane column per input of `nl`, varied by `salt`.
fn patterned_inputs(nl: &Netlist, lanes: usize, salt: usize) -> Vec<Lanes> {
    (0..nl.inputs().len())
        .map(|i| {
            let bits: Vec<bool> = (0..lanes)
                .map(|l| (salt + i * 31 + l * 7).is_multiple_of(3))
                .collect();
            Lanes::from_bools(&bits)
        })
        .collect()
}

#[test]
fn lanes_pack_unpack() {
    let bits: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
    let lanes = Lanes::from_bools(&bits);
    assert_eq!(lanes.len(), 130);
    assert_eq!(lanes.to_bools(), bits);
    assert_eq!(lanes.count_ones(), bits.iter().filter(|&&b| b).count());
}

#[test]
fn pack_rows_transposes_and_checks_width() {
    // Round trip: pack 70 rows (multi-word lanes), read each sample
    // back from its lane.
    let rows: Vec<Vec<bool>> = (0..70)
        .map(|j| (0..5).map(|i| (j + i) % 3 == 0).collect())
        .collect();
    let cols = Lanes::pack_rows(&rows, 5);
    assert_eq!(cols.len(), 5);
    for (j, row) in rows.iter().enumerate() {
        for (i, &bit) in row.iter().enumerate() {
            assert_eq!(cols[i].get(j), bit, "signal {i} sample {j}");
        }
    }
    assert!(Lanes::pack_rows::<Vec<bool>>(&[], 3)
        .iter()
        .all(Lanes::is_empty));
}

/// The word-level transpose against a naive per-bit reference, plus
/// the involution property (transposing twice is the identity).
#[test]
fn transpose_64x64_matches_naive() {
    for seed in 0..4u64 {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut rng = || {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let orig: [u64; 64] = std::array::from_fn(|_| rng());
        let mut m = orig;
        transpose_64x64(&mut m);
        for (r, row) in m.iter().enumerate() {
            for (c, col) in orig.iter().enumerate() {
                assert_eq!(row >> c & 1, col >> r & 1, "seed {seed} row {r} col {c}");
            }
        }
        transpose_64x64(&mut m);
        assert_eq!(m, orig, "transpose must be an involution");
    }
}

/// `pack_rows_into` produces exactly the concatenated words of
/// `pack_rows`, and a naive per-bit pack agrees with both — across
/// row counts and widths that straddle the 64×64 block edges.
#[test]
fn pack_rows_into_matches_naive_packing() {
    for (nrows, width) in [
        (0, 5),
        (1, 1),
        (63, 64),
        (64, 65),
        (65, 63),
        (130, 70),
        (70, 129),
    ] {
        let rows: Vec<Vec<bool>> = (0..nrows)
            .map(|j| (0..width).map(|i| (j * 31 + i * 7) % 3 == 0).collect())
            .collect();
        let mut flat = Vec::new();
        let stride = Lanes::pack_rows_into(&rows, width, &mut flat);
        assert_eq!(stride, nrows.div_ceil(64));
        assert_eq!(flat.len(), width * stride);
        let cols = Lanes::pack_rows(&rows, width);
        for (i, col) in cols.iter().enumerate() {
            assert_eq!(
                &flat[i * stride..(i + 1) * stride],
                col.words(),
                "{nrows}x{width} signal {i}"
            );
            // The naive reference: one get() per bit.
            for (j, row) in rows.iter().enumerate() {
                assert_eq!(col.get(j), row[i], "{nrows}x{width} signal {i} sample {j}");
            }
        }
    }
}

#[test]
fn unpack_rows_inverts_pack_rows() {
    for (nrows, width) in [(0, 3), (1, 1), (63, 65), (65, 64), (130, 70)] {
        let rows: Vec<Vec<bool>> = (0..nrows)
            .map(|j| (0..width).map(|i| (j * 13 + i * 11) % 5 < 2).collect())
            .collect();
        let cols = Lanes::pack_rows(&rows, width);
        assert_eq!(Lanes::unpack_rows(&cols), rows, "{nrows}x{width}");
    }
    assert!(Lanes::unpack_rows(&[]).is_empty());
}

/// The packed-rows entries of the one transposer: rows → columns
/// (`columns_into`) and columns → rows (`from_packed_columns`) agree
/// with `pack_rows_into`, `from_columns` and a naive per-bit
/// transpose on shapes straddling the 64×64 block edges, and each
/// inverts the other.
#[test]
fn packed_rows_transposes_are_inverse_and_match_the_bool_and_lanes_entries() {
    for nrows in [0usize, 1, 63, 64, 65, 130, 1024, 1100] {
        for width in [0usize, 1, 63, 64, 65, 200, 256] {
            let rows: Vec<Vec<bool>> = (0..nrows)
                .map(|j| (0..width).map(|i| (j * 31 + i * 7) % 5 < 2).collect())
                .collect();
            let shape = format!("{nrows}x{width}");
            // Row-by-row growth is packing all rows at once.
            let mut packed = PackedRows::with_capacity(width, nrows / 2);
            packed.push_row(&vec![true; width]);
            packed.clear();
            rows.iter().for_each(|row| packed.push_row(row));
            assert_eq!((packed.rows(), packed.width()), (nrows, width), "{shape}");
            for (j, row) in rows.iter().enumerate() {
                assert_eq!(packed.row(j), *row, "{shape} row {j}");
            }

            let (mut flat, mut want) = (vec![!0u64; 3], Vec::new());
            let stride = packed.columns_into(&mut flat);
            assert_eq!(stride, Lanes::pack_rows_into(&rows, width, &mut want));
            assert_eq!(flat, want, "{shape} rows -> columns");
            for (i, column) in flat.chunks(stride.max(1)).take(width).enumerate() {
                for (j, row) in rows.iter().enumerate() {
                    assert_eq!(column[j / 64] >> (j % 64) & 1 != 0, row[i], "{shape}");
                }
            }

            let back = PackedRows::from_packed_columns(&flat, width, nrows);
            assert_eq!(back, packed, "{shape} transpose(transpose(m)) == m");
            let lanes = Lanes::pack_rows(&rows, width);
            if width > 0 {
                assert_eq!(PackedRows::from_columns(&lanes), packed, "{shape}");
            }
            // Bits past the last lane of a column are not read.
            if nrows % 64 != 0 {
                for column in flat.chunks_mut(stride) {
                    column[stride - 1] |= !0u64 << (nrows % 64);
                }
                let dirty = PackedRows::from_packed_columns(&flat, width, nrows);
                assert_eq!(dirty, packed, "{shape} dirty column tails");
            }
        }
    }
}

#[test]
#[should_panic(expected = "row has the wrong width")]
fn push_row_rejects_a_row_of_the_wrong_width() {
    PackedRows::with_capacity(3, 1).push_row(&[true; 4]);
}

#[test]
#[should_panic(expected = "does not hold 3 columns")]
fn from_packed_columns_rejects_a_short_buffer() {
    let _ = PackedRows::from_packed_columns(&[0; 5], 3, 65);
}

#[test]
#[should_panic(expected = "inconsistent lane counts")]
fn unpack_rows_rejects_mismatched_columns() {
    let _ = Lanes::unpack_rows(&[Lanes::zeros(3), Lanes::zeros(4)]);
}

#[test]
fn simd_mode_resolves_within_its_ceiling() {
    assert_eq!(SimdMode::Off.resolve(), SimdLevel::Baseline);
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            assert_eq!(SimdMode::Auto.resolve(), SimdLevel::Avx512);
        } else if is_x86_feature_detected!("avx2") {
            assert_eq!(SimdMode::Auto.resolve(), SimdLevel::Avx2);
        }
        // The AVX2 ceiling pins the AVX2 build on an AVX-512 host.
        if is_x86_feature_detected!("avx2") {
            assert_eq!(SimdMode::Avx2.resolve(), SimdLevel::Avx2);
        }
    }
    // Whatever the host, a request never resolves *above* itself.
    assert!(matches!(
        SimdMode::Avx2.resolve(),
        SimdLevel::Avx2 | SimdLevel::Baseline
    ));
    assert_eq!(format!("{}", SimdMode::Avx2), "avx2");
    assert_eq!(format!("{}", SimdLevel::Avx512), "avx512");
    assert_eq!(format!("{}", SimdLevel::Baseline), "baseline");
}

/// Every SIMD dispatch level the host can execute is bit-identical
/// to the oracle at every supported width, ragged tails included —
/// the netlist-level half of the conformance satellite.
#[test]
fn simd_variants_match_oracle_at_every_width() {
    use crate::random::RandomDag;
    let modes = [SimdMode::Auto, SimdMode::Avx2, SimdMode::Off];
    for seed in 0..3 {
        let nl = RandomDag::loose(7, 5, 8).outputs(3).generate(seed);
        for mode in modes {
            let sliced = BitSliceEvaluator::compile_with(&nl, mode);
            for words in SUPPORTED_SLICE_WORDS {
                let mut frame = sliced.frame_with_words(words);
                for lanes in [1usize, 63, 64 * words, 64 * words + 1] {
                    let inputs = patterned_inputs(&nl, lanes, seed as usize);
                    let want = evaluate(&nl, &inputs).unwrap();
                    let got = sliced.evaluate_with(&inputs, lanes, &mut frame).unwrap();
                    assert_eq!(got, want, "seed {seed} simd {mode} words {words}");
                }
            }
        }
    }
}

/// The packed flat-buffer entry is bit-identical to the `Lanes`
/// entry and validates its inputs.
#[test]
fn evaluate_packed_matches_lanes_path() {
    use crate::random::RandomDag;
    let nl = RandomDag::loose(6, 4, 7).outputs(2).generate(5);
    let sliced = BitSliceEvaluator::compile(&nl);
    let n_in = nl.inputs().len();
    for words in [1usize, 4, 16] {
        let mut frame = sliced.frame_with_words(words);
        for lanes in [1usize, 64 * words, 64 * words + 7, 517] {
            let rows: Vec<Vec<bool>> = (0..lanes)
                .map(|j| (0..n_in).map(|i| (i * 17 + j * 3) % 4 == 0).collect())
                .collect();
            let inputs = Lanes::pack_rows(&rows, n_in);
            let mut packed = Vec::new();
            Lanes::pack_rows_into(&rows, n_in, &mut packed);
            let want = sliced.evaluate_with(&inputs, lanes, &mut frame).unwrap();
            let got = sliced
                .evaluate_packed_with(&packed, n_in, lanes, &mut frame)
                .unwrap();
            assert_eq!(got, want, "words {words} lanes {lanes}");
        }
    }
    assert!(matches!(
        sliced.evaluate_packed_with(&[], 0, 0, &mut sliced.frame()),
        Err(NetlistError::InputArity { .. })
    ));
}

#[test]
fn simd_level_is_resolved_at_compile_time() {
    let mut nl = Netlist::new("s");
    let a = nl.add_input("a");
    nl.add_output(a, "y");
    let off = BitSliceEvaluator::compile_with(&nl, SimdMode::Off);
    assert_eq!(off.simd_level(), SimdLevel::Baseline);
    assert_eq!(off.tape_stats().simd, SimdLevel::Baseline);
    let auto = BitSliceEvaluator::compile_with(&nl, SimdMode::Auto);
    assert_eq!(auto.tape_stats().simd, SimdMode::Auto.resolve());
}

#[test]
#[should_panic(expected = "wrong width")]
fn pack_rows_rejects_ragged_rows() {
    let _ = Lanes::pack_rows(&[vec![true, false], vec![true]], 2);
}

#[test]
fn ones_masks_tail() {
    let l = Lanes::ones(70);
    assert_eq!(l.count_ones(), 70);
    assert_eq!(l.words().len(), 2);
    assert_eq!(l.words()[1] >> 6, 0, "tail bits must stay clear");
}

/// The lane counts the inline/heap boundary is pinned at.
const LANE_FORM_COUNTS: [usize; 12] = [0, 1, 63, 64, 65, 128, 256, 512, 1023, 1024, 1025, 4096];

fn hash_of(l: &Lanes) -> u64 {
    use std::hash::{DefaultHasher, Hash, Hasher};
    let mut hasher = DefaultHasher::new();
    l.hash(&mut hasher);
    hasher.finish()
}

/// `l` in the other form: the same words on the heap when they are
/// inline, and inline (which only a test can build) when they are
/// not and fit.
fn other_form(l: &Lanes) -> Option<Lanes> {
    let words = match &l.words {
        LaneWords::Inline(_) => LaneWords::Heap(l.words().to_vec()),
        LaneWords::Heap(w) if w.len() <= INLINE_WORDS => LaneWords::with_first(w.len(), w),
        LaneWords::Heap(_) => return None,
    };
    Some(Lanes { words, len: l.len })
}

fn is_inline(l: &Lanes) -> bool {
    matches!(l.words, LaneWords::Inline(_))
}

/// Every word of `l`, padding included, is zero past lane `len`.
fn tail_is_clear(l: &Lanes) -> bool {
    let all: &[u64] = match &l.words {
        LaneWords::Inline(words) => words,
        LaneWords::Heap(words) => words,
    };
    (l.len..64 * all.len()).all(|k| all[k / 64] >> (k % 64) & 1 == 0)
}

/// One column built by [`lane_sink`] from blocks of `per` words.
fn sink_built(words: &[u64], lanes: usize, per: usize) -> Lanes {
    let mut columns = Vec::new();
    {
        let mut sink = lane_sink(&mut columns, 1, lanes);
        for base in (0..words.len()).step_by(per) {
            sink(0, base, &words[base..words.len().min(base + per)]);
        }
    }
    columns.pop().unwrap()
}

/// Every constructor, and a sink-built column from blocks of every
/// frame width, agree on the value of one column at every lane
/// count around the inline boundary; inline and heap forms of one
/// value are `==` and hash alike, and no form keeps a tail bit.
#[test]
fn lane_forms_agree_across_constructors_and_forms() {
    assert_eq!(std::mem::size_of::<Lanes>(), 144);
    for lanes in LANE_FORM_COUNTS {
        let stride = lanes.div_ceil(64);
        let inline = stride <= INLINE_WORDS;
        let bits: Vec<bool> = (0..lanes).map(|l| (l * 7 + l / 5) % 3 == 0).collect();
        let rows: Vec<[bool; 1]> = bits.iter().map(|&b| [b]).collect();
        let want = Lanes::from_bools(&bits);
        // Stray bits past `lanes` in the raw words: every entry masks them.
        let mut raw = want.words().to_vec();
        if lanes % 64 != 0 {
            *raw.last_mut().unwrap() |= !0 << (lanes % 64);
        }
        let mut forms = vec![
            ("from_bools", want.clone()),
            ("from_words", Lanes::from_words(raw.clone(), lanes)),
            ("from_slice", Lanes::from_slice(&raw, lanes)),
            ("pack_rows", Lanes::pack_rows(&rows, 1).pop().unwrap()),
        ];
        for per in SUPPORTED_SLICE_WORDS {
            forms.push(("lane_sink", sink_built(&raw, lanes, per)));
        }
        for (what, l) in &forms {
            assert_eq!(is_inline(l), inline, "{what} {lanes}");
        }
        let other: Vec<_> = forms
            .iter()
            .filter_map(|(what, l)| Some((*what, other_form(l)?)))
            .collect();
        forms.extend(other);
        for (what, l) in &forms {
            assert_eq!(l, &want, "{what} {lanes}");
            assert_eq!(hash_of(l), hash_of(&want), "{what} {lanes}");
            assert_eq!(format!("{l:?}"), format!("{want:?}"), "{what} {lanes}");
            assert_eq!(
                (l.len(), l.words()),
                (lanes, want.words()),
                "{what} {lanes}"
            );
            assert_eq!(l.to_bools(), bits, "{what} {lanes}");
            assert_eq!(l.count_ones(), want.count_ones(), "{what} {lanes}");
            assert!((0..lanes).all(|k| l.get(k) == bits[k]), "{what} {lanes}");
            assert!(tail_is_clear(l), "{what} {lanes}");
        }
        for (what, l) in [("zeros", Lanes::zeros(lanes)), ("ones", Lanes::ones(lanes))] {
            let one = what == "ones";
            assert_eq!(is_inline(&l), inline, "{what} {lanes}");
            assert_eq!(
                (l.len(), l.words().len()),
                (lanes, stride),
                "{what} {lanes}"
            );
            assert_eq!(
                l.count_ones(),
                if one { lanes } else { 0 },
                "{what} {lanes}"
            );
            assert_eq!(l.to_bools(), vec![one; lanes], "{what} {lanes}");
            assert_eq!(l, Lanes::from_bools(&vec![one; lanes]), "{what} {lanes}");
            assert!(tail_is_clear(&l), "{what} {lanes}");
            if let Some(o) = other_form(&l) {
                assert_eq!((&o, hash_of(&o)), (&l, hash_of(&l)), "{what} {lanes}");
            }
        }
    }
}

/// A clone is a value: setting lanes of the copy, in either form,
/// leaves the original as it was.
#[test]
fn lane_forms_set_on_a_clone_leaves_the_original() {
    for lanes in LANE_FORM_COUNTS.into_iter().filter(|&l| l > 0) {
        let original = Lanes::from_bools(&(0..lanes).map(|l| l % 5 == 1).collect::<Vec<_>>());
        let before = original.words().to_vec();
        for mut copy in [Some(original.clone()), other_form(&original)]
            .into_iter()
            .flatten()
        {
            for k in [0, lanes / 2, lanes - 1] {
                copy.set(k, !copy.get(k));
            }
            assert_ne!(copy, original, "{lanes}");
            assert_eq!(original.words(), before, "{lanes}");
            assert!(tail_is_clear(&copy), "{lanes}");
        }
    }
}

/// The sink path against the oracle at every occupied-word count of
/// a 16-word block (inline columns written in one block, or in 16
/// one-word blocks), at the full block, and past it (heap columns
/// grown block by block), with outputs handed on in order and in
/// reverse.
#[test]
fn lane_forms_sink_matches_evaluate_at_every_word_count() {
    let nl = crate::random::RandomDag::loose(6, 4, 7)
        .outputs(5)
        .generate(12);
    let tape = BitSliceEvaluator::compile(&nl);
    let outputs = tape.num_outputs();
    let counts = (1..=16).map(|w| 64 * w - 13).chain([1024, 1025, 2048]);
    for lanes in counts {
        let inputs = patterned_inputs(&nl, lanes, lanes);
        let want = evaluate(&nl, &inputs).unwrap();
        for per in [1, 4, 16] {
            let mut frame = tape.frame_with_words(per);
            let got = tape.evaluate_with(&inputs, lanes, &mut frame).unwrap();
            assert_eq!(got, want, "lanes {lanes} per {per}");
            let mut blocks: Vec<(usize, usize, Vec<u64>)> = Vec::new();
            let record = |o, base, words: &[u64]| blocks.push((o, base, words.to_vec()));
            tape.eval_blocks(lanes, &mut frame, |i| inputs[i].words(), outputs, record);
            let mut reversed = Vec::new();
            {
                let mut sink = lane_sink(&mut reversed, outputs, lanes);
                for block in blocks.chunks(outputs) {
                    block
                        .iter()
                        .rev()
                        .for_each(|(o, base, w)| sink(*o, *base, w));
                }
            }
            assert_eq!(reversed, want, "lanes {lanes} per {per}, reversed");
        }
    }
}

/// Hands `outputs` columns of `lanes` lanes to [`lane_sink`] in blocks
/// of `per` words, in order; word `w` of output `o` is `word(o, w)`.
fn sink_all(
    columns: &mut Vec<Lanes>,
    outputs: usize,
    lanes: usize,
    per: usize,
    word: impl Fn(usize, usize) -> u64,
) {
    let stride = lanes.div_ceil(64);
    let mut sink = lane_sink(columns, outputs, lanes);
    for base in (0..stride).step_by(per) {
        for o in 0..outputs {
            let block: Vec<u64> = (base..stride.min(base + per)).map(|w| word(o, w)).collect();
            sink(o, base, &block);
        }
    }
}

/// A result vector reused after a full 1024-lane batch of all-ones
/// columns: every column of a narrower batch is built anew, so no word
/// of the earlier batch shows in it, padding included, and stray bits
/// past the lanes in the handed-over words are masked.
#[test]
fn lane_forms_a_reused_sink_keeps_no_stale_words() {
    const OUTPUTS: usize = 8;
    let mut columns = Vec::new();
    for lanes in [64usize, 1000] {
        let stride = lanes.div_ceil(64);
        let stray = match lanes % 64 {
            0 => 0,
            rem => !0 << rem,
        };
        let want: Vec<Lanes> = (0..OUTPUTS)
            .map(|o| {
                Lanes::from_bools(&(0..lanes).map(|l| (l * 5 + o) % 3 == 0).collect::<Vec<_>>())
            })
            .collect();
        for per in SUPPORTED_SLICE_WORDS {
            sink_all(&mut columns, OUTPUTS, 1024, 16, |_, _| !0);
            assert!(columns.iter().all(|c| c.count_ones() == 1024));
            let word =
                |o: usize, w: usize| want[o].words()[w] | if w + 1 == stride { stray } else { 0 };
            sink_all(&mut columns, OUTPUTS, lanes, per, word);
            assert_eq!(columns.len(), OUTPUTS, "lanes {lanes} per {per}");
            for (got, want) in columns.iter().zip(&want) {
                assert_eq!(got, want, "lanes {lanes} per {per}");
                assert_eq!(hash_of(got), hash_of(want), "lanes {lanes} per {per}");
                assert!(is_inline(got), "lanes {lanes} per {per}");
                assert!(tail_is_clear(got), "lanes {lanes} per {per}");
            }
        }
    }
}

#[test]
fn evaluate_matches_scalar_eval() {
    let mut nl = Netlist::new("f");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let nb = nl.add_gate1(Op::Not, b);
    let t = nl.add_gate2(Op::Xnor, a, nb);
    let y = nl.add_gate2(Op::Nor, t, c);
    nl.add_output(y, "y");
    nl.add_output(t, "t");

    // All 8 combinations as 8 lanes.
    let mut ins = vec![Lanes::zeros(8), Lanes::zeros(8), Lanes::zeros(8)];
    for lane in 0..8 {
        for (bit, lanes) in ins.iter_mut().enumerate() {
            lanes.set(lane, lane & (1 << bit) != 0);
        }
    }
    let outs = evaluate(&nl, &ins).unwrap();
    for lane in 0..8 {
        let scalar = nl.eval_bools(&[lane & 1 != 0, lane & 2 != 0, lane & 4 != 0]);
        assert_eq!(outs[0].get(lane), scalar[0], "lane {lane}");
        assert_eq!(outs[1].get(lane), scalar[1], "lane {lane}");
    }
}

#[test]
fn evaluate_checks_input_count() {
    let mut nl = Netlist::new("f");
    let a = nl.add_input("a");
    nl.add_output(a, "y");
    assert!(matches!(
        evaluate(&nl, &[]),
        Err(NetlistError::InputArity {
            expected: 1,
            got: 0
        })
    ));
}

#[test]
fn constants_across_lanes() {
    let mut nl = Netlist::new("c");
    let a = nl.add_input("a");
    let one = nl.add_const(true);
    let y = nl.add_gate2(Op::Xor, a, one);
    nl.add_output(y, "y");
    let out = evaluate(&nl, &[Lanes::from_bools(&[true, false, true])]).unwrap();
    assert_eq!(out[0].to_bools(), vec![false, true, false]);
}

#[test]
fn bitsliced_matches_evaluate() {
    use crate::random::RandomDag;
    for seed in 0..6 {
        let nl = RandomDag::loose(7, 5, 8).outputs(3).generate(seed);
        let sliced = BitSliceEvaluator::compile(&nl);
        assert_eq!(sliced.num_inputs(), nl.inputs().len());
        assert_eq!(sliced.num_outputs(), nl.outputs().len());
        // Deliberately awkward widths: sub-word, exact word, multi-word
        // with tail.
        for lanes in [1usize, 63, 64, 65, 130, 256] {
            let inputs = patterned_inputs(&nl, lanes, seed as usize);
            let want = evaluate(&nl, &inputs).unwrap();
            let got = sliced.evaluate(&inputs).unwrap();
            assert_eq!(got, want, "seed {seed} lanes {lanes}");
        }
    }
}

#[test]
fn bitsliced_constants_and_arity_errors() {
    let mut nl = Netlist::new("c");
    let a = nl.add_input("a");
    let one = nl.add_const(true);
    let y = nl.add_gate2(Op::Xor, a, one);
    nl.add_output(y, "y");
    let sliced = BitSliceEvaluator::compile(&nl);
    let out = sliced
        .evaluate(&[Lanes::from_bools(&[true, false, true])])
        .unwrap();
    assert_eq!(out[0].to_bools(), vec![false, true, false]);
    assert!(matches!(
        sliced.evaluate(&[]),
        Err(NetlistError::InputArity {
            expected: 1,
            got: 0
        })
    ));
}

#[test]
fn every_slice_width_matches_evaluate() {
    use crate::random::RandomDag;
    for seed in 0..4 {
        let nl = RandomDag::loose(7, 5, 8).outputs(3).generate(seed);
        let sliced = BitSliceEvaluator::compile(&nl);
        // Awkward batch widths per frame width: sub-block, exact
        // block, multi-block with tail.
        for words in [1usize, 2, 4, 8] {
            let mut frame = sliced.frame_with_words(words);
            assert_eq!(frame.lanes(), 64 * words);
            for lanes in [1usize, 63, 64 * words, 64 * words + 1, 130 * words] {
                let inputs = patterned_inputs(&nl, lanes, seed as usize);
                let want = evaluate(&nl, &inputs).unwrap();
                let got = sliced.evaluate_with(&inputs, lanes, &mut frame).unwrap();
                assert_eq!(got, want, "seed {seed} words {words} lanes {lanes}");
            }
        }
    }
}

/// Occupied-word replay: every lane count up to one block plus a
/// ragged second one, at every width, on ONE frame whose batches
/// alternately grow and shrink — so words past a small batch's end
/// hold a bigger batch's leftovers, and must never surface.
#[test]
fn partial_blocks_replay_only_occupied_words() {
    use crate::random::RandomDag;
    let nl = RandomDag::loose(7, 5, 8).outputs(3).generate(2);
    let sliced = BitSliceEvaluator::compile(&nl);
    for words in SUPPORTED_SLICE_WORDS {
        let mut frame = sliced.frame_with_words(words);
        let max = words * 64 + 65;
        for step in 0..max {
            for lanes in [1 + step, max - step] {
                let inputs = patterned_inputs(&nl, lanes, lanes);
                let want = evaluate(&nl, &inputs).unwrap();
                let got = sliced.evaluate_with(&inputs, lanes, &mut frame).unwrap();
                assert_eq!(got, want, "words {words} lanes {lanes}");
            }
        }
    }
}

/// The packed sink: the first `outputs` columns land in a flat
/// column-major buffer at each block's word offset, and no other
/// column reaches the sink.
#[test]
fn eval_blocks_hands_the_leading_columns_to_the_sink() {
    use crate::random::RandomDag;
    let nl = RandomDag::loose(7, 5, 8).outputs(5).generate(4);
    let sliced = BitSliceEvaluator::compile(&nl);
    let mut frame = sliced.frame_with_words(2);
    for lanes in [1usize, 128, 300] {
        let inputs: Vec<Lanes> = (0..nl.inputs().len())
            .map(|i| {
                let bits: Vec<bool> = (0..lanes).map(|l| (i * 5 + l) % 3 == 0).collect();
                Lanes::from_bools(&bits)
            })
            .collect();
        let want = evaluate(&nl, &inputs).unwrap();
        let stride = lanes.div_ceil(64);
        for keep in [0usize, 2, 5, 9] {
            let mut packed = vec![0u64; keep.min(5) * stride];
            sliced.eval_blocks(
                lanes,
                &mut frame,
                |i| inputs[i].words(),
                keep,
                |o, base, words| packed[o * stride + base..][..words.len()].copy_from_slice(words),
            );
            for (o, col) in want.iter().enumerate().take(keep) {
                let got = Lanes::from_words(packed[o * stride..][..stride].to_vec(), lanes);
                assert_eq!(&got, col, "lanes {lanes} keep {keep} column {o}");
            }
        }
    }
}

/// The SIMD kernels index the frame unchecked, so the slot bound is
/// a real assert at the one public way in.
#[test]
#[should_panic(expected = "frame too small for tape")]
fn run_block_rejects_a_frame_one_slot_short() {
    use crate::random::RandomDag;
    let nl = RandomDag::loose(6, 4, 7).outputs(2).generate(3);
    let sliced = BitSliceEvaluator::compile(&nl);
    let slots = sliced.frame_with_words(4).slots();
    sliced.run_block(&mut SliceFrame::with_width(slots - 1, 4));
}

/// ... and so is the word bound of an occupied-word replay.
#[test]
#[should_panic(expected = "active words exceed the frame width")]
fn replay_rejects_more_active_words_than_the_frame_has() {
    let mut frame = SliceFrame::with_width(2, 4);
    Tape::new(Vec::new(), 1).replay(0..0, SimdLevel::Baseline, &mut frame, 5);
}

/// Every SIMD ceiling — the one option a tape takes — is
/// bit-identical to the oracle.
#[test]
fn tape_options_variants_match_oracle() {
    use crate::random::RandomDag;
    for seed in 0..3 {
        let nl = RandomDag::loose(7, 5, 8).outputs(3).generate(seed);
        for simd in [SimdMode::Auto, SimdMode::Avx2, SimdMode::Off] {
            let sliced = BitSliceEvaluator::compile_with(&nl, simd);
            for words in [1usize, 8] {
                let mut frame = sliced.frame_with_words(words);
                for lanes in [1usize, 63, 64 * words + 1] {
                    let inputs = patterned_inputs(&nl, lanes, seed as usize);
                    let want = evaluate(&nl, &inputs).unwrap();
                    let got = sliced.evaluate_with(&inputs, lanes, &mut frame).unwrap();
                    assert_eq!(got, want, "seed {seed} simd {simd} words {words}");
                }
            }
        }
    }
}

/// A hand-built single-fanout run fuses into one chain: interiors
/// vanish from the frame, the live footprint shrinks to the two
/// inputs, and the fused tape still matches the oracle. The inverter inside the run folds
/// into its reader; the one driving the output stays.
#[test]
fn fusion_fuses_chains_and_shrinks_frame() {
    let mut nl = Netlist::new("chain");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let g1 = nl.add_gate2(Op::And, a, b);
    let g2 = nl.add_gate1(Op::Not, g1);
    let g3 = nl.add_gate2(Op::Xor, g2, a);
    let g4 = nl.add_gate1(Op::Not, g3);
    nl.add_output(g4, "y");

    let sliced = BitSliceEvaluator::compile(&nl);
    let stats = sliced.tape_stats();
    assert_eq!(stats.tape_len, 3, "g2 folds into g3's masks");
    assert_eq!(stats.folded_cells, 1);
    assert_eq!(stats.fused_chains, 1, "g1→g3→g4 is one chain");
    assert_eq!(stats.fused_instrs, 2, "g1, g3 stay in the accumulator");
    assert_eq!(stats.frame_slots_unoptimized, 6);
    // Peak live is the two inputs; g4's result recycles a's slot
    // (dead after g3, the last frame read of `a`).
    assert_eq!(stats.frame_slots, 2);
    assert_eq!(sliced.fused_cells(), vec![g1, g3]);

    for lanes in [1usize, 64, 130] {
        let bits_a: Vec<bool> = (0..lanes).map(|l| l % 3 == 0).collect();
        let bits_b: Vec<bool> = (0..lanes).map(|l| l % 5 != 0).collect();
        let inputs = [Lanes::from_bools(&bits_a), Lanes::from_bools(&bits_b)];
        let want = evaluate(&nl, &inputs).unwrap();
        assert_eq!(sliced.evaluate(&inputs).unwrap(), want, "{lanes} lanes");
    }
}

/// Dead stores and unread inputs release their slots: three stored
/// values share two slots.
#[test]
fn dead_and_unread_slots_are_recycled() {
    let mut nl = Netlist::new("dead");
    let a = nl.add_input("a");
    let _b = nl.add_input("b"); // never read
    let y = nl.add_gate1(Op::Not, a);
    nl.add_output(y, "y");
    let tape = BitSliceEvaluator::compile(&nl);
    // b's slot is released, then a dies feeding y: y reuses a slot.
    assert_eq!(tape.tape_stats().frame_slots, 2);
    let out = tape
        .evaluate(&[Lanes::zeros(100), Lanes::ones(100)])
        .unwrap();
    assert_eq!(out[0].count_ones(), 100, "NOT of all-zero = all-one");
}

/// Arity-1 shapes the fold step must compose exactly: `Not(Not(x))`
/// read by a gate, `g(x, Not(x))` (both operands rooted at one
/// slot), and one buffer feeding both operands of a gate.
fn folding_shapes() -> Netlist {
    let mut nl = Netlist::new("folds");
    let [x, y, z] = ["x", "y", "z"].map(|name| nl.add_input(name));
    let n1 = nl.add_gate1(Op::Not, x);
    let n2 = nl.add_gate1(Op::Not, n1);
    let g1 = nl.add_gate2(Op::And, n2, y);
    let ny = nl.add_gate1(Op::Not, y);
    let g2 = nl.add_gate2(Op::Xor, g1, ny);
    let g3 = nl.add_gate2(Op::Nor, y, ny);
    let bz = nl.add_gate1(Op::Buf, z);
    let g4 = nl.add_gate2(Op::Nand, bz, bz);
    let g5 = nl.add_gate2(Op::Xnor, g2, g4);
    for (i, out) in [g5, g3, g1, g4].into_iter().enumerate() {
        nl.add_output(out, format!("y{i}"));
    }
    nl
}

/// Narrow tiles are reached only through partial blocks: every
/// occupied-word count 1..=16 of a 16-word frame — hence every
/// largest-first split from `{16, 8, 4, 2, 1}`, e.g. 13 = 8 + 4 + 1,
/// the 1 being the register tile — matches the oracle on every SIMD
/// level, as the only block of a batch and as the ragged block after
/// a full one, with and without folded cells.
#[test]
fn every_occupied_word_count_matches_oracle_on_every_simd_level() {
    use crate::random::RandomDag;
    let folds = folding_shapes();
    let random = RandomDag::loose(6, 4, 7).outputs(2).generate(11);
    for nl in [&random, &folds] {
        for simd in [SimdMode::Auto, SimdMode::Avx2, SimdMode::Off] {
            let sliced = BitSliceEvaluator::compile_with(nl, simd);
            assert_eq!(sliced.tape_stats().tile_words(), 16);
            let mut frame = sliced.frame_with_words(16);
            for occupied in 1..=16usize {
                for lanes in [64 * occupied - 37, 1024 + 64 * occupied - 37] {
                    let inputs = patterned_inputs(nl, lanes, occupied);
                    let want = evaluate(nl, &inputs).unwrap();
                    let got = sliced.evaluate_with(&inputs, lanes, &mut frame).unwrap();
                    assert_eq!(got, want, "{} simd {simd} lanes {lanes}", nl.name());
                }
            }
        }
    }
    let stats = BitSliceEvaluator::compile(&folds).tape_stats();
    assert_eq!((stats.folded_cells, stats.tape_len), (4, 5), "{stats:?}");
}

/// FNV-1a over every structural and mask word of a tape.
fn fingerprint(t: &BitSliceEvaluator) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    for i in t.tape.instrs() {
        [i.a, i.b, i.out].iter().for_each(|&s| eat(s as u64));
        i.k.iter().for_each(|&k| eat(k));
    }
    (t.cells.iter().chain(&t.inputs).chain(&t.outputs)).for_each(|&c| eat(c as u64));
    eat(t.tape.bound() as u64);
    h
}

/// With no arity-1 cell there is nothing to fold: the tape is the
/// one the parent commit compiled, word for word (fingerprints
/// recorded there), and carries no fold table.
#[test]
fn a_netlist_without_arity_1_cells_compiles_to_the_unfolded_tape() {
    use crate::random::RandomDag;
    let recorded: [(u64, u64); 3] = [
        (0xbe75_779a_e8af_b222, 0xeef6_de28_ef13_0f7b),
        (0xbd5b_079c_0b14_7c59, 0xb773_66e6_f43c_87e4),
        (0xc4c9_85ca_886e_3936, 0x999b_b292_5fa7_da10),
    ];
    for (seed, (loose, strict)) in recorded.into_iter().enumerate() {
        let seed = seed as u64;
        for (shape, nl, want) in [
            (
                "loose",
                RandomDag::loose(7, 5, 8).outputs(3).generate(seed),
                loose,
            ),
            (
                "strict",
                RandomDag::strict(9, 5, 8).outputs(4).generate(seed),
                strict,
            ),
        ] {
            let tape = BitSliceEvaluator::compile(&nl);
            assert_eq!(fingerprint(&tape), want, "{shape} seed {seed}");
            assert_eq!(tape.folds, Folds::default());
            assert_eq!(tape.tape_stats().folded_cells, 0);
        }
    }
}

/// A netlist whose arity-1 cells cover every fold the patch path
/// must recompose: an inverter inside a fused chain (`g2`), a
/// three-buffer run (`d1 → d2 → d3`) whose last buffer feeds two
/// gates, and an inverter driving a primary output (`g4`, not
/// folded).
struct FoldFixture {
    nl: Netlist,
    g1: NodeId,
    g2: NodeId,
    g4: NodeId,
    d2: NodeId,
    d3: NodeId,
    e3: NodeId,
}

fn fold_fixture() -> FoldFixture {
    let mut nl = Netlist::new("folded");
    let [a, b, d] = ["a", "b", "d"].map(|name| nl.add_input(name));
    let g1 = nl.add_gate2(Op::And, a, b);
    let g2 = nl.add_gate1(Op::Not, g1);
    let a1 = nl.add_gate1(Op::Buf, a);
    let a2 = nl.add_gate1(Op::Buf, a1);
    let g3 = nl.add_gate2(Op::Xor, g2, a2);
    let g4 = nl.add_gate1(Op::Not, g3);
    let d1 = nl.add_gate1(Op::Buf, d);
    let d2 = nl.add_gate1(Op::Buf, d1);
    let d3 = nl.add_gate1(Op::Buf, d2);
    let e3 = nl.add_gate2(Op::And, g3, d3);
    let e4 = nl.add_gate2(Op::Or, d3, g3);
    for (i, out) in [g4, e3, e4].into_iter().enumerate() {
        nl.add_output(out, format!("y{i}"));
    }
    FoldFixture {
        nl,
        g1,
        g2,
        g4,
        d2,
        d3,
        e3,
    }
}

/// Patching rewrites masks in place — of a cell inside a fused
/// chain, of a folded cell's readers, of an output-driving arity-1
/// cell — and the patched tape is `==` a fresh compile of the
/// patched netlist and matches the oracle, on the one-word register
/// tile and on a 16-word frame.
#[test]
fn patched_fused_tape_matches_fresh_compile() {
    let FoldFixture {
        nl,
        g1,
        g2,
        g4,
        d2,
        d3,
        e3,
    } = fold_fixture();
    let sliced = BitSliceEvaluator::compile(&nl);
    let stats = sliced.tape_stats();
    assert_eq!((stats.folded_cells, stats.tape_len), (6, 5), "{stats:?}");
    assert_eq!(sliced.fused_cells(), vec![g1], "g1 feeds g3 through g2");

    let cases: [(&str, &[(NodeId, Op)]); 5] = [
        (
            "a fused interior and its folded reader",
            &[(g1, Op::Nor), (g2, Op::Buf)],
        ),
        ("Buf→Not on a folded cell read twice", &[(d3, Op::Not)]),
        ("the middle of a buffer run", &[(d2, Op::Not)]),
        ("an output-driving arity-1 cell", &[(g4, Op::Buf)]),
        (
            "a reader with its folded fanin",
            &[(e3, Op::Nand), (d3, Op::Not)],
        ),
    ];
    for (case, set) in cases {
        let patches: PatchSet = set.iter().copied().collect();
        let patched = sliced.patched(&patches).unwrap();
        let mut patched_nl = nl.clone();
        patched_nl.apply_patches(&patches).unwrap();
        let fresh = BitSliceEvaluator::compile(&patched_nl);
        assert!(
            patched == fresh,
            "{case}: patched tape differs from a fresh compile"
        );
        let mut wide = patched.frame_with_words(16);
        for lanes in [1usize, 64, 131] {
            let inputs = patterned_inputs(&nl, lanes, lanes);
            let want = evaluate(&patched_nl, &inputs).unwrap();
            assert_eq!(patched.evaluate(&inputs).unwrap(), want, "{case}, {lanes}");
            let got = patched.evaluate_with(&inputs, lanes, &mut wide).unwrap();
            assert_eq!(got, want, "{case}, {lanes} lanes on 16 words");
        }
    }

    // Patches chain: a patched tape patched back is the original.
    let there: PatchSet = [(e3, Op::Nand), (d3, Op::Not)].into_iter().collect();
    let back: PatchSet = [(e3, Op::And), (d3, Op::Buf)].into_iter().collect();
    assert!(sliced.patched(&there).unwrap().patched(&back).unwrap() == sliced);

    // The unpatched tape still serves the original function.
    let inputs = patterned_inputs(&nl, 70, 3);
    assert_eq!(
        sliced.evaluate(&inputs).unwrap(),
        evaluate(&nl, &inputs).unwrap()
    );
}

/// Every node outputs `..reads` depend on, by a walk of the netlist
/// as written (folded cells included) — independent of the tape.
fn cone_of(nl: &Netlist, reads: usize) -> Vec<bool> {
    let mut cone = vec![false; nl.len()];
    for o in &nl.outputs()[..reads] {
        cone[o.node.index()] = true;
    }
    for (id, node) in nl.iter().collect::<Vec<_>>().into_iter().rev() {
        if cone[id.index()] {
            node.fanins().iter().for_each(|f| cone[f.index()] = true);
        }
    }
    cone
}

/// A tape compiled for a reader of outputs `..reads`: with every
/// output read it is `compile`'s tape, else its prefix holds exactly
/// the cone's emitting cells; replaying only the prefix yields outputs
/// `..reads` bit-identical to the oracle at every occupied-word
/// count on every SIMD level (on a frame poisoned before each
/// block, so a cone cell left out of the prefix cannot hide); and
/// patching a cell behind the prefix is `==` a fresh compile of the
/// patched netlist and leaves the read outputs alone. Over the fold
/// and fusion shapes, strict and loose random DAGs, and a balanced
/// loose DAG (buffer runs to fold), at `reads` ∈ {0, 1, n/2, n}.
#[test]
fn a_read_cone_prefix_replays_exactly_the_outputs_it_covers() {
    use crate::balance::balance;
    use crate::random::RandomDag;
    let mut chain = Netlist::new("chain");
    let [a, b] = ["a", "b"].map(|name| chain.add_input(name));
    let g1 = chain.add_gate2(Op::And, a, b);
    let g2 = chain.add_gate1(Op::Not, g1);
    let g3 = chain.add_gate2(Op::Xor, g2, a);
    let g4 = chain.add_gate2(Op::Or, g3, b);
    chain.add_output(g4, "y0");
    chain.add_output(g2, "y1");
    let loose = RandomDag::loose(7, 5, 8).outputs(6).generate(3);
    let shapes = [
        folding_shapes(),
        fold_fixture().nl,
        chain,
        RandomDag::strict(9, 5, 8).outputs(6).generate(1),
        RandomDag::strict(6, 4, 10).outputs(10).generate(2),
        balance(&loose).0,
        loose,
    ];
    let mut patched_outside = 0;
    for nl in &shapes {
        let n = nl.outputs().len();
        assert!(BitSliceEvaluator::compile_reading(nl, n) == BitSliceEvaluator::compile(nl));
        for reads in [0, 1, n / 2, n] {
            let what = format!("{} reads {reads}/{n}", nl.name());
            let tape = BitSliceEvaluator::compile_reading(nl, reads);
            let split = tape.tape_stats().prefix_len;
            let cone = cone_of(nl, reads);
            let (prefix, tail) = tape.cells.split_at(split);
            if reads == n {
                // Dead cells included: this is `compile`'s tape.
                assert_eq!(split, tape.tape_len(), "{what}");
            } else {
                assert!(prefix.iter().all(|&c| cone[c as usize]), "{what}: prefix");
                assert!(!tail.iter().any(|&c| cone[c as usize]), "{what}: tail");
            }

            for simd in [SimdMode::Auto, SimdMode::Avx2, SimdMode::Off] {
                let tape = BitSliceEvaluator::compile_for(nl, simd, reads);
                let mut frame = tape.frame_with_words(16);
                for occupied in 1..=16usize {
                    let lanes = 64 * occupied - 37;
                    let inputs = patterned_inputs(nl, lanes, occupied);
                    let want = evaluate(nl, &inputs).unwrap();
                    for slot in 0..frame.slots() {
                        (0..16).for_each(|w| frame.set_word(slot, w, !(slot * w) as u64));
                    }
                    let mut got = Vec::new();
                    let sink = lane_sink(&mut got, reads, lanes);
                    tape.eval_blocks(lanes, &mut frame, |i| inputs[i].words(), reads, sink);
                    assert_eq!(got, want[..reads], "{what} simd {simd} lanes {lanes}");
                }
            }

            let Some(&cell) = tail
                .iter()
                .find(|&&c| nl.node(NodeId::new(c)).op().arity() > 0)
            else {
                continue;
            };
            let cell = NodeId::new(cell);
            let op = match nl.node(cell).op() {
                Op::Xor => Op::Nand,
                op if op.arity() == 2 => Op::Xor,
                Op::Not => Op::Buf,
                _ => Op::Not,
            };
            let patches: PatchSet = [(cell, op)].into_iter().collect();
            let mut patched_nl = nl.clone();
            patched_nl.apply_patches(&patches).unwrap();
            let patched = tape.patched(&patches).unwrap();
            let fresh = BitSliceEvaluator::compile_reading(&patched_nl, reads);
            assert!(patched == fresh, "{what}: patching {cell:?}");
            let inputs = patterned_inputs(nl, 200, 5);
            let mut columns = Vec::new();
            let sink = lane_sink(&mut columns, reads, 200);
            let mut frame = patched.frame_with_words(2);
            patched.eval_blocks(200, &mut frame, |i| inputs[i].words(), reads, sink);
            let want = evaluate(&patched_nl, &inputs).unwrap();
            assert_eq!(want[..reads], evaluate(nl, &inputs).unwrap()[..reads]);
            assert_eq!(columns, want[..reads], "{what}");
            let whole = patched.evaluate_with(&inputs, 200, &mut frame).unwrap();
            assert_eq!(whole, want, "{what}: the whole patched tape");
            patched_outside += 1;
        }
    }
    assert!(patched_outside >= 10, "{patched_outside} cells patched");
    // What a hidden VGG16 layer looks like: six of many outputs read.
    let wide = RandomDag::strict(6, 4, 64).outputs(64).generate(9);
    let stats = BitSliceEvaluator::compile_reading(&wide, 6).tape_stats();
    assert!(stats.prefix_len * 2 < stats.tape_len, "{stats:?}");
}

#[test]
fn patched_rejects_cells_without_instructions() {
    let mut nl = Netlist::new("p");
    let a = nl.add_input("a");
    let y = nl.add_gate1(Op::Not, a);
    nl.add_output(y, "y");
    let sliced = BitSliceEvaluator::compile(&nl);
    let mut on_input = PatchSet::new();
    on_input.set(a, Op::Buf);
    assert!(matches!(
        sliced.patched(&on_input),
        Err(NetlistError::InvalidNode { .. })
    ));
    let mut out_of_range = PatchSet::new();
    out_of_range.set(NodeId::new(1000), Op::Buf);
    assert!(matches!(
        sliced.patched(&out_of_range),
        Err(NetlistError::InvalidNode { .. })
    ));
}

#[test]
fn slice_frame_set_width_preserves_slots() {
    let mut frame = SliceFrame::with_slots(10);
    assert_eq!(
        (frame.slots(), frame.words_per_net(), frame.lanes()),
        (10, 1, 64)
    );
    frame.set_width(4);
    assert_eq!(
        (frame.slots(), frame.words_per_net(), frame.lanes()),
        (10, 4, 256)
    );
    frame.set_word(9, 3, 0xdead_beef);
    assert_eq!(frame.word(9, 3), 0xdead_beef);
    frame.set_width(2);
    assert_eq!((frame.slots(), frame.lanes()), (10, 128));
}

/// A width change must zero the whole frame: with slot reuse, stale
/// words from the old layout would otherwise sit exactly where a
/// recycled slot's partial-block tail is read back.
#[test]
fn slice_frame_set_width_zeroes_reused_tails() {
    let mut frame = SliceFrame::with_width(4, 4);
    for slot in 0..4 {
        for w in 0..4 {
            frame.set_word(slot, w, !0);
        }
    }
    frame.set_width(2);
    for slot in 0..4 {
        for w in 0..2 {
            assert_eq!(frame.word(slot, w), 0, "stale word at {slot}/{w}");
        }
    }
    frame.set_width(8);
    for slot in 0..4 {
        for w in 0..8 {
            assert_eq!(frame.word(slot, w), 0, "stale word at {slot}/{w}");
        }
    }
}

/// Regression: a ragged final block evaluated right after a width
/// change on a reused frame must not see words from the old layout.
#[test]
fn ragged_final_block_after_width_change_is_clean() {
    use crate::random::RandomDag;
    let nl = RandomDag::loose(6, 4, 7).outputs(2).generate(3);
    let sliced = BitSliceEvaluator::compile(&nl);
    let mut frame = sliced.frame_with_words(8);
    let fill: Vec<Lanes> = (0..nl.inputs().len()).map(|_| Lanes::ones(512)).collect();
    sliced.evaluate_with(&fill, 512, &mut frame).unwrap();
    // Shrink the width and run a batch whose final block is ragged.
    frame.set_width(2);
    for lanes in [65usize, 129, 130] {
        let inputs: Vec<Lanes> = (0..nl.inputs().len())
            .map(|i| {
                let bits: Vec<bool> = (0..lanes).map(|l| (i * 11 + l) % 3 == 0).collect();
                Lanes::from_bools(&bits)
            })
            .collect();
        let want = evaluate(&nl, &inputs).unwrap();
        let got = sliced.evaluate_with(&inputs, lanes, &mut frame).unwrap();
        assert_eq!(got, want, "lanes {lanes}");
    }
}

/// The frame contract the replay speed rests on: however a frame
/// comes to hold its words — built, widened, grown from empty,
/// cloned, shrunk and regrown — they start on a 64-byte boundary,
/// the slots a reshape adds and every word after a width change are
/// zero, and equality sees the words, not the buffer behind them.
#[test]
fn slice_frame_window_stays_line_aligned_and_zeroes_what_it_gains() {
    fn aligned(frame: &SliceFrame) -> bool {
        (frame.words().as_ptr() as usize).is_multiple_of(64)
    }
    fn fill(frame: &mut SliceFrame) {
        frame.words_mut().fill(!0);
    }
    assert!(aligned(&SliceFrame::with_slots(5)));
    let built = SliceFrame::with_width(5, 16);
    assert!(aligned(&built) && built.words().iter().all(|&w| w == 0));

    // Grown from the empty default, as an engine scratch's frame is.
    let mut frame = SliceFrame::default();
    assert_eq!((frame.slots(), frame.words_per_net()), (0, 1));
    frame.reshape(33);
    assert!(aligned(&frame) && frame.words().iter().all(|&w| w == 0));
    fill(&mut frame);

    // A width change zeroes every word, in place or in a new buffer.
    for width in [16usize, 2, 4, 16] {
        frame.set_width(width);
        assert_eq!((frame.slots(), frame.words_per_net()), (33, width));
        assert!(aligned(&frame), "width {width}");
        assert!(frame.words().iter().all(|&w| w == 0), "width {width}");
        fill(&mut frame);
    }

    // Shrink, then regrow — within the buffer, then past it: the
    // kept slots keep their words, the regrown ones are zero.
    for slots in [7usize, 33, 7, 90] {
        let kept = frame.slots().min(slots) * 16;
        frame.reshape(slots);
        assert_eq!(frame.slots(), slots);
        assert!(aligned(&frame), "{slots} slots");
        assert!(frame.words()[..kept].iter().all(|&w| w == !0));
        assert!(frame.words()[kept..].iter().all(|&w| w == 0));
        fill(&mut frame);
    }

    // A clone has its own buffer and its own offset; a shrunken
    // frame equals a fresh one of its shape whatever lies beyond.
    frame.set_word(3, 5, 0xdead_beef);
    let copy = frame.clone();
    assert!(aligned(&copy));
    assert_eq!(copy, frame);
    assert_eq!(copy.word(3, 5), 0xdead_beef);
    frame.set_width(4);
    frame.reshape(2);
    assert_eq!(frame, SliceFrame::with_width(2, 4));
    assert_ne!(frame, SliceFrame::with_width(4, 2));
    assert_ne!(frame, copy);
}

#[test]
#[should_panic(expected = "at least one word")]
fn slice_frame_rejects_zero_width() {
    let _ = SliceFrame::with_width(4, 0);
}

/// Only a supported width puts every tile on its own span grid.
#[test]
#[should_panic(expected = "slice frame width 3")]
fn slice_frame_rejects_an_unsupported_width() {
    SliceFrame::with_slots(4).set_width(3);
}

#[test]
fn partial_final_block_masks_unused_lanes_on_every_width() {
    // NOT of all-zero inputs turns every *computed* lane to 1 — so any
    // garbage published from the unused tail lanes of a partial block
    // would show up as count_ones() > lanes.
    let mut nl = Netlist::new("n");
    let a = nl.add_input("a");
    let y = nl.add_gate1(Op::Not, a);
    nl.add_output(y, "y");
    let sliced = BitSliceEvaluator::compile(&nl);
    for words in SUPPORTED_SLICE_WORDS {
        let mut frame = sliced.frame_with_words(words);
        let block = 64 * words;
        for lanes in [1usize, block - 1, block + 1, 2 * block + 7] {
            let out = sliced
                .evaluate_with(&[Lanes::zeros(lanes)], lanes, &mut frame)
                .unwrap();
            assert_eq!(out[0].len(), lanes, "words {words} lanes {lanes}");
            assert_eq!(out[0].count_ones(), lanes, "words {words} lanes {lanes}");
            if let Some(last) = out[0].words().last() {
                let rem = lanes % 64;
                if rem != 0 {
                    assert_eq!(last >> rem, 0, "tail bits must stay clear");
                }
            }
        }
    }
}

#[test]
fn zero_lane_batches_are_empty_on_every_width() {
    let mut nl = Netlist::new("n");
    let a = nl.add_input("a");
    let y = nl.add_gate1(Op::Not, a);
    nl.add_output(y, "y");
    let sliced = BitSliceEvaluator::compile(&nl);
    for words in SUPPORTED_SLICE_WORDS {
        let mut frame = sliced.frame_with_words(words);
        let out = sliced
            .evaluate_with(&[Lanes::zeros(0)], 0, &mut frame)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty(), "words {words}");
    }
}

#[test]
fn bitsliced_frame_reuse_across_widths() {
    let mut nl = Netlist::new("n");
    let a = nl.add_input("a");
    let y = nl.add_gate1(Op::Not, a);
    nl.add_output(y, "y");
    let sliced = BitSliceEvaluator::compile(&nl);
    assert_eq!(sliced.tape_len(), 1);
    let mut frame = sliced.frame();
    for lanes in [100usize, 3, 64] {
        let out = sliced
            .evaluate_with(&[Lanes::zeros(lanes)], lanes, &mut frame)
            .unwrap();
        assert_eq!(out[0].count_ones(), lanes, "NOT of all-zero = all-one");
    }
}

#[test]
fn wide_batch_tail_masking() {
    let mut nl = Netlist::new("n");
    let a = nl.add_input("a");
    let y = nl.add_gate1(Op::Not, a);
    nl.add_output(y, "y");
    let out = evaluate(&nl, &[Lanes::zeros(100)]).unwrap();
    assert_eq!(out[0].count_ones(), 100, "NOT of all-zero = all-one");
}

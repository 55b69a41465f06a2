//! Patch-equivalence conformance suite (ISSUE 7): rewriting a compiled
//! kernel tape's ANF masks in place must be indistinguishable from
//! compiling the patched netlist from scratch.
//!
//! For random netlists and random same-arity gate rewrites, at every
//! bit-sliced lane width (64/128/256/512), the suite pins three routes
//! to the same bits:
//!
//! 1. **live** — `Engine::patch_cells` on the already-compiled engine,
//! 2. **delta** — `Flow::make_delta` → `Flow::apply_delta` (the
//!    `.lbnnp` wire format round trip),
//! 3. **serve** — the live-patched engine behind `Runtime::submit`,
//!
//! each compared against a *fresh compile* of the patched netlist and
//! against the pure netlist oracle (`eval::evaluate`).

use lbnn::netlist::eval::evaluate;
use lbnn::netlist::random::RandomDag;
use lbnn::netlist::{Lanes, Netlist, NodeId, Op, PartitionedEngine, PatchSet};
use lbnn::{Backend, EngineScratch, Flow, LpuConfig, RequestHandle, Runtime, RuntimeOptions};
use proptest::prelude::*;

/// A deterministic pseudo-random patch set over `netlist`: roughly a
/// third of its patchable cells (executable, arity ≥ 1) get a random
/// same-arity replacement gate. Replacements may coincide with the old
/// op — a no-op rewrite is a valid patch and must also conform.
fn random_patch(netlist: &Netlist, pick: u64) -> PatchSet {
    const GATE2: [Op; 6] = [Op::And, Op::Or, Op::Xor, Op::Xnor, Op::Nand, Op::Nor];
    const GATE1: [Op; 2] = [Op::Not, Op::Buf];
    let mut patches = PatchSet::new();
    let mut x = pick | 1;
    for (id, node) in netlist.iter() {
        let op = node.op();
        if !op.is_executable() || op.arity() == 0 {
            continue;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Keep the first candidate unconditionally so the set is never
        // empty; sample the rest.
        if !patches.is_empty() && !x.is_multiple_of(3) {
            continue;
        }
        let replacement = if op.arity() == 2 {
            GATE2[(x >> 8) as usize % GATE2.len()]
        } else {
            GATE1[(x >> 8) as usize % GATE1.len()]
        };
        patches.set(id, replacement);
    }
    patches
}

/// Deterministic request bits: request `r` of width `width`.
fn request_bits(width: usize, r: u64, salt: u64) -> Vec<bool> {
    (0..width)
        .map(|i| {
            let x = r
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(salt)
                .wrapping_add((i as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
            (x ^ (x >> 29)) & 1 != 0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// The tentpole invariant, across every supported lane width: a
    /// live-patched engine and a delta-patched flow both serve the
    /// exact bits a fresh compile of the patched netlist serves — for
    /// full frames, a single lane, and a ragged partial frame.
    #[test]
    fn patched_tape_matches_fresh_compile_of_patched_netlist(
        seed in 0u64..300,
        pick in 0u64..u64::MAX,
        words_idx in 0usize..5,
        salt in 0u64..u64::MAX,
    ) {
        let words = 1usize << words_idx; // 1/2/4/8/16 words = 64..1024 lanes
        let backend = Backend::BitSliced { words };
        let netlist = RandomDag::strict(9, 4, 7).outputs(3).generate(seed);
        let config = LpuConfig::new(4, 4);
        let flow = Flow::builder(&netlist)
            .config(config)
            .backend(backend)
            .compile()
            .unwrap();
        let width = flow.program.num_inputs;

        // Patch ids name cells of the *compiled* (mapped) netlist.
        let patches = random_patch(&flow.netlist, pick);
        prop_assert!(!patches.is_empty());
        let mut patched_netlist = flow.netlist.clone();
        patched_netlist.apply_patches(&patches).unwrap();

        // Oracle 1: a fresh compile of the patched netlist.
        let fresh = Flow::builder(&patched_netlist)
            .config(config)
            .backend(backend)
            .compile()
            .unwrap()
            .into_engine()
            .unwrap();

        // Route 1: live in-place tape patch on the compiled engine.
        let live = flow.engine().unwrap().patch_cells(&patches).unwrap();
        // Route 2: the `.lbnnp` delta wire format, applied to the flow.
        let delta = flow.make_delta(&patches).unwrap();
        let via_delta = flow.apply_delta(&delta).unwrap().into_engine().unwrap();

        let lanes_full = backend.lanes();
        for lanes in [1usize, lanes_full / 2 + 3, lanes_full] {
            let rows: Vec<Vec<bool>> = (0..lanes)
                .map(|r| request_bits(width, r as u64, salt))
                .collect();
            let batch = Lanes::pack_rows(&rows, width);
            let mut scratch = EngineScratch::new();
            let want = fresh.run_batch_with(&mut scratch, &batch).unwrap().outputs;
            // Oracle 2: the pure netlist evaluation of the patched DAG.
            let oracle = evaluate(&patched_netlist, &batch).unwrap();
            for (o, (w, pure)) in want.iter().zip(oracle.iter()).enumerate() {
                for lane in 0..lanes {
                    prop_assert_eq!(
                        w.get(lane), pure.get(lane),
                        "fresh compile disagrees with netlist oracle: output {} lane {}", o, lane
                    );
                }
            }
            for (route, engine) in [("live", &live), ("delta", &via_delta)] {
                let got = engine.run_batch_with(&mut scratch, &batch).unwrap().outputs;
                prop_assert_eq!(got.len(), want.len());
                for (o, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                    for lane in 0..lanes {
                        prop_assert_eq!(
                            g.get(lane), w.get(lane),
                            "{} route diverges at {} lanes: output {} lane {} (words {})",
                            route, lanes, o, lane, words
                        );
                    }
                }
            }
        }

        // The base flow must be untouched by everything above: its
        // engine still matches the *unpatched* netlist oracle.
        let base_rows: Vec<Vec<bool>> = (0..7)
            .map(|r| request_bits(width, r as u64, salt ^ 0x5a5a))
            .collect();
        let base_batch = Lanes::pack_rows(&base_rows, width);
        let mut scratch = EngineScratch::new();
        let base_got = flow
            .engine()
            .unwrap()
            .run_batch_with(&mut scratch, &base_batch)
            .unwrap()
            .outputs;
        let base_oracle = evaluate(&flow.netlist, &base_batch).unwrap();
        for (g, w) in base_got.iter().zip(base_oracle.iter()) {
            for lane in 0..base_rows.len() {
                prop_assert_eq!(g.get(lane), w.get(lane), "base flow was mutated by patching");
            }
        }
    }

    /// The serve route: patched engines behind `Runtime::submit` answer
    /// single-sample requests with the fresh-compile bits, at every
    /// lane width, on both the live-patch and the artifact-delta path.
    #[test]
    fn runtime_serves_patched_bits(
        seed in 0u64..300,
        pick in 0u64..u64::MAX,
        words_idx in 0usize..5,
        delta_sel in 0usize..2,
    ) {
        let words = 1usize << words_idx;
        let backend = Backend::BitSliced { words };
        let netlist = RandomDag::strict(8, 4, 6).outputs(3).generate(seed);
        let config = LpuConfig::new(4, 4);
        let flow = Flow::builder(&netlist)
            .config(config)
            .backend(backend)
            .compile()
            .unwrap();
        let width = flow.program.num_inputs;
        let patches = random_patch(&flow.netlist, pick);
        let mut patched_netlist = flow.netlist.clone();
        patched_netlist.apply_patches(&patches).unwrap();
        let fresh = Flow::builder(&patched_netlist)
            .config(config)
            .backend(backend)
            .compile()
            .unwrap()
            .into_engine()
            .unwrap();

        let delta_path = delta_sel == 1;
        let engine = if delta_path {
            let delta = flow.make_delta(&patches).unwrap();
            flow.apply_delta(&delta).unwrap().into_engine().unwrap()
        } else {
            flow.engine().unwrap().patch_cells(&patches).unwrap()
        };
        let runtime = Runtime::from_engine(
            engine,
            RuntimeOptions::default()
                .workers(2)
                .max_batch(16),
        )
        .unwrap();

        let requests: Vec<Vec<bool>> = (0..40)
            .map(|r| request_bits(width, r, pick))
            .collect();
        let handles: Vec<RequestHandle> = requests
            .iter()
            .map(|bits| runtime.submit(bits).unwrap())
            .collect();
        runtime.flush();
        let packed = Lanes::pack_rows(&requests, width);
        let mut scratch = EngineScratch::new();
        let want = fresh.run_batch_with(&mut scratch, &packed).unwrap().outputs;
        for (j, handle) in handles.into_iter().enumerate() {
            let got = handle.wait().unwrap();
            let expect: Vec<bool> = want.iter().map(|o| o.get(j)).collect();
            prop_assert_eq!(
                got, expect,
                "served patched bits diverge: request {} (words {}, delta_path {})",
                j, words, delta_path
            );
        }
    }
}

/// ISSUE 8: a patch aimed at cells *inside a fused chain* must re-derive
/// the chain's fused masks — the live-patched tape and the `.lbnnp`
/// delta route both stay bit-identical to a fresh compile of the patched
/// netlist, at every lane width. The netlist is hand-built so the
/// locality pass is guaranteed to fuse (`g1` feeds only `g3`, through the
/// folded inverter `g2`) and balancing inserts buffer runs: `a → 2
/// buffers → g3`, and `d → 3 buffers`, the last read by two gates.
///
/// ISSUE 25 adds the folds: one patch set per way a patch can reach a
/// folded arity-1 cell — `Buf → Not` on a buffer read twice, a buffer in
/// the middle of a run, an output-driving inverter (not folded), and a
/// reader patched together with its folded fanin.
#[test]
fn patching_inside_a_fused_chain_matches_fresh_compile() {
    let mut nl = Netlist::new("chain");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let d = nl.add_input("d");
    let g1 = nl.add_gate2(Op::And, a, b);
    let g2 = nl.add_gate1(Op::Not, g1);
    let g3 = nl.add_gate2(Op::Xor, g2, a);
    let g4 = nl.add_gate1(Op::Not, g3);
    let e3 = nl.add_gate2(Op::And, g3, d);
    let e4 = nl.add_gate2(Op::Or, d, g3);
    nl.add_output(g4, "y");
    nl.add_output(e3, "e3");
    nl.add_output(e4, "e4");

    for words in [1usize, 2, 4, 8, 16] {
        let backend = Backend::BitSliced { words };
        let config = LpuConfig::new(4, 4);
        let flow = Flow::builder(&nl)
            .config(config)
            .backend(backend)
            .optimize(false) // keep the hand-built chain mappable as-is
            .compile()
            .unwrap();
        let tape = flow
            .artifacts
            .as_ref()
            .and_then(|art| art.tape.as_ref())
            .expect("bit-sliced flows cache the locality pass's tape");
        let fused = tape.fused_cells();
        assert!(
            !fused.is_empty(),
            "the mapped chain netlist must produce fused cells (words {words})"
        );
        // g2 and the five balance buffers fold; g4 drives an output.
        assert_eq!(tape.tape_stats().folded_cells, 6, "words {words}");

        // Flip the function of every fused cell, same arity.
        let mut flip_fused = PatchSet::new();
        for id in &fused {
            let rep = match flow.netlist.node(*id).op() {
                Op::Not => Op::Buf,
                Op::Buf => Op::Not,
                Op::And => Op::Nand,
                Op::Nand => Op::And,
                Op::Or => Op::Nor,
                Op::Nor => Op::Or,
                Op::Xor => Op::Xnor,
                Op::Xnor => Op::Xor,
                _ => continue,
            };
            flip_fused.set(*id, rep);
        }
        assert!(
            !flip_fused.is_empty(),
            "no patchable fused cell (words {words})"
        );

        // The folded cells by role, found in the mapped netlist.
        let mapped = &flow.netlist;
        let fanouts = mapped.fanouts();
        let is_output = |id: NodeId| mapped.outputs().iter().any(|o| o.node == id);
        let is_buf = |id: NodeId| mapped.node(id).op() == Op::Buf && !is_output(id);
        let find = |what: &str, pick: &dyn Fn(NodeId) -> bool| {
            (mapped.node_ids().find(|&id| pick(id)))
                .unwrap_or_else(|| panic!("no {what} in the mapped netlist"))
        };
        let read_twice = find("buffer read twice", &|id| {
            is_buf(id) && fanouts[id.index()].len() >= 2
        });
        let middle = find("buffer inside a run", &|id| {
            is_buf(id)
                && is_buf(mapped.node(id).fanins()[0])
                && fanouts[id.index()].iter().any(|&r| is_buf(r))
        });
        let output_inverter = find("output-driving inverter", &|id| {
            mapped.node(id).op() == Op::Not && is_output(id)
        });
        let reader = fanouts[read_twice.index()][0];
        let reader_op = mapped.node(reader).op().negated().unwrap();

        let cases: [(&str, PatchSet); 5] = [
            ("every fused cell", flip_fused),
            (
                "Buf→Not on a buffer read twice",
                [(read_twice, Op::Not)].into_iter().collect(),
            ),
            (
                "the middle of a buffer run",
                [(middle, Op::Not)].into_iter().collect(),
            ),
            (
                "an output-driving inverter",
                [(output_inverter, Op::Buf)].into_iter().collect(),
            ),
            (
                "a reader with its folded fanin",
                [(reader, reader_op), (read_twice, Op::Not)]
                    .into_iter()
                    .collect(),
            ),
        ];
        for (case, patches) in cases {
            let mut patched_netlist = flow.netlist.clone();
            patched_netlist.apply_patches(&patches).unwrap();
            let fresh = Flow::builder(&patched_netlist)
                .config(config)
                .backend(backend)
                .optimize(false)
                .compile()
                .unwrap()
                .into_engine()
                .unwrap();
            let live = flow.engine().unwrap().patch_cells(&patches).unwrap();
            let delta = flow.make_delta(&patches).unwrap();
            let via_delta = flow.apply_delta(&delta).unwrap().into_engine().unwrap();

            let width = flow.program.num_inputs;
            let lanes_full = backend.lanes();
            for lanes in [1usize, lanes_full / 2 + 3, lanes_full] {
                let rows: Vec<Vec<bool>> = (0..lanes)
                    .map(|r| request_bits(width, r as u64, 0xf05ed ^ words as u64))
                    .collect();
                let batch = Lanes::pack_rows(&rows, width);
                let mut scratch = EngineScratch::new();
                let want = fresh.run_batch_with(&mut scratch, &batch).unwrap().outputs;
                let oracle = evaluate(&patched_netlist, &batch).unwrap();
                assert_eq!(
                    want, oracle,
                    "{case}: fresh compile disagrees with the netlist oracle (words {words})"
                );
                for (route, engine) in [("live", &live), ("delta", &via_delta)] {
                    let got = engine.run_batch_with(&mut scratch, &batch).unwrap().outputs;
                    assert_eq!(
                        got, want,
                        "{case}: {route} route, words {words}, {lanes} lanes"
                    );
                }
            }
        }

        // The base flow still serves the unpatched function.
        let width = flow.program.num_inputs;
        let rows: Vec<Vec<bool>> = (0..9)
            .map(|r| request_bits(width, r as u64, 0xba5e))
            .collect();
        let batch = Lanes::pack_rows(&rows, width);
        let mut scratch = EngineScratch::new();
        let base = flow
            .engine()
            .unwrap()
            .run_batch_with(&mut scratch, &batch)
            .unwrap()
            .outputs;
        assert_eq!(base, evaluate(&flow.netlist, &batch).unwrap());
    }
}

/// Patching a *partitioned* flow rewrites the owning partition's tape
/// of its exchange plan in place — the per-partition slot spaces and the
/// exchange schedule are structural, so [`Flow::apply_patches`] must
/// yield exactly the plan a fresh compile of the patched netlist builds.
/// The live-patch and delta routes must serve bit-identically to a
/// fresh compile at the same partition count, and the base partitioned
/// flow must stay untouched.
fn assert_partitioned_patch_conformance(
    netlist: &Netlist,
    config: LpuConfig,
    words: usize,
    parts: usize,
    seed: u64,
) {
    let backend = Backend::BitSliced { words };
    let flow = Flow::builder(netlist)
        .config(config)
        .backend(backend)
        .partitions(parts)
        .compile()
        .unwrap();
    assert!(flow.partitioned.is_some(), "words {words} parts {parts}");
    let width = flow.program.num_inputs;
    let patches = random_patch(&flow.netlist, seed ^ 0xdead);
    assert!(!patches.is_empty());
    let mut patched_netlist = flow.netlist.clone();
    patched_netlist.apply_patches(&patches).unwrap();
    let fresh = Flow::builder(&patched_netlist)
        .config(config)
        .backend(backend)
        .partitions(parts)
        .optimize(false) // ids name mapped cells; keep them stable
        .merge(false)
        .compile()
        .unwrap();
    assert_eq!(
        flow.apply_patches(&patches).unwrap().partitioned,
        Some(PartitionedEngine::compile(&patched_netlist, parts).unwrap()),
        "patched plan differs from a fresh one (words {words} parts {parts})"
    );
    // The fresh compile may re-map; pin it to the netlist oracle
    // instead of comparing engines structurally.
    let live = flow.engine().unwrap().patch_cells(&patches).unwrap();
    let delta = flow.make_delta(&patches).unwrap();
    let via_delta = flow.apply_delta(&delta).unwrap().into_engine().unwrap();

    let lanes_full = backend.lanes();
    for lanes in [1usize, lanes_full / 2 + 3, 2 * lanes_full + 5] {
        let rows: Vec<Vec<bool>> = (0..lanes)
            .map(|r| request_bits(width, r as u64, seed))
            .collect();
        let batch = Lanes::pack_rows(&rows, width);
        let oracle = evaluate(&patched_netlist, &batch).unwrap();
        let mut scratch = EngineScratch::new();
        let fresh_got = fresh
            .engine()
            .unwrap()
            .run_batch_with(&mut scratch, &batch)
            .unwrap()
            .outputs;
        assert_eq!(
            fresh_got, oracle,
            "fresh partitioned compile disagrees with the oracle \
             (words {words} parts {parts} lanes {lanes})"
        );
        for (route, engine) in [("live", &live), ("delta", &via_delta)] {
            let got = engine.run_batch_with(&mut scratch, &batch).unwrap().outputs;
            assert_eq!(
                got, oracle,
                "{route} route diverges (words {words} parts {parts} lanes {lanes})"
            );
        }
    }

    // Base flow untouched: still serves the unpatched bits.
    let rows: Vec<Vec<bool>> = (0..13)
        .map(|r| request_bits(width, r as u64, seed ^ 0xba5e))
        .collect();
    let batch = Lanes::pack_rows(&rows, width);
    let mut scratch = EngineScratch::new();
    let base = flow
        .engine()
        .unwrap()
        .run_batch_with(&mut scratch, &batch)
        .unwrap()
        .outputs;
    assert_eq!(base, evaluate(&flow.netlist, &batch).unwrap());
}

/// Every lane width × partition count on small random netlists.
#[test]
fn patching_partitioned_engines_matches_fresh_compile() {
    for seed in [3u64, 19] {
        let netlist = RandomDag::loose(9, 4, 7).outputs(3).generate(seed);
        for words in [1usize, 4, 16] {
            for parts in [2usize, 3, 8, lbnn::netlist::MAX_PARTITIONS] {
                assert_partitioned_patch_conformance(
                    &netlist,
                    LpuConfig::new(5, 4),
                    words,
                    parts,
                    seed,
                );
            }
        }
    }
}

/// Patching must reject what it cannot express, without touching the
/// engine: unknown cells, primary inputs, and arity mismatches are
/// typed errors on every route.
#[test]
fn illegal_patches_are_rejected_on_every_route() {
    use lbnn::netlist::NetlistError;
    let netlist = RandomDag::strict(8, 4, 6).outputs(3).generate(5);
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(4, 4))
        .backend(Backend::BitSliced { words: 2 })
        .compile()
        .unwrap();
    let input = flow.netlist.inputs()[0];
    let gate2 = flow
        .netlist
        .iter()
        .find(|(_, n)| n.op().is_gate2())
        .map(|(id, _)| id)
        .unwrap();

    let mut unknown = PatchSet::new();
    unknown.set(NodeId::new(100_000), Op::And);
    let mut on_input = PatchSet::new();
    on_input.set(input, Op::Not);
    let mut arity = PatchSet::new();
    arity.set(gate2, Op::Not);

    for (label, patches) in [
        ("unknown cell", &unknown),
        ("primary input", &on_input),
        ("arity mismatch", &arity),
    ] {
        // Netlist route.
        let err = flow.netlist.clone().apply_patches(patches).unwrap_err();
        assert!(
            matches!(
                err,
                NetlistError::InvalidNode { .. } | NetlistError::BadPatch { .. }
            ),
            "{label}: {err:?}"
        );
        // Live engine route.
        assert!(
            flow.engine().unwrap().patch_cells(patches).is_err(),
            "{label} must fail patch_cells"
        );
        // Delta route: an illegal set cannot even be encoded.
        assert!(
            flow.make_delta(patches).is_err(),
            "{label} must fail make_delta"
        );
    }
}

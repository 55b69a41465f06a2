//! Cross-backend differential conformance: every available execution
//! backend/width must serve **bit-identically to the sequential scalar
//! oracle** (direct netlist evaluation) on every serving path —
//! `Engine::run_batch`, `Engine::run_batches` and `Runtime::submit` —
//! for random netlists, the shipped example netlists,
//! non-multiple-of-width tail batches, and zero-length batches, on both
//! direct-compile and artifact-reload flows.
//!
//! This is the single generic harness that pins a new backend or a new
//! slice width the moment it exists: add it to [`all_backends`] and
//! every invariant below applies to it.

use lbnn::netlist::eval::evaluate;
use lbnn::netlist::random::RandomDag;
use lbnn::netlist::verilog::parse_verilog;
use lbnn::netlist::{Lanes, Netlist};
use lbnn::{Backend, Flow, LpuConfig, RequestHandle, Runtime, RuntimeOptions};
use proptest::prelude::*;

/// Every backend/width this build can serve on. The scalar
/// cycle-accurate machine is the reference implementation; the oracle
/// both it and the bit-sliced widths are compared against is direct
/// netlist evaluation.
fn all_backends() -> Vec<Backend> {
    let mut backends = vec![Backend::Scalar];
    backends.extend(
        lbnn::netlist::SUPPORTED_SLICE_WORDS
            .iter()
            .map(|&words| Backend::BitSliced { words }),
    );
    backends
}

/// Deterministic batch: `width` inputs × `lanes` samples.
fn batch(width: usize, lanes: usize, seed: u64) -> Vec<Lanes> {
    (0..width)
        .map(|i| {
            let bits: Vec<bool> = (0..lanes)
                .map(|l| {
                    let x = seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add((i as u64) << 32)
                        .wrapping_add(l as u64)
                        .wrapping_mul(0x517c_c1b7_2722_0a95);
                    (x ^ (x >> 31)) & 1 != 0
                })
                .collect();
            Lanes::from_bools(&bits)
        })
        .collect()
}

/// Batch lane counts that straddle every width's block boundary:
/// zero-length, single-lane, one under/over 64, one under/at/over the
/// 512-lane block, and one under/at/over the widest (1024-lane) block
/// — every width sees at least one ragged final block.
fn awkward_lane_counts() -> Vec<usize> {
    vec![0, 1, 63, 64, 65, 129, 511, 512, 517, 1023, 1024, 1025]
}

/// The harness core: compiles `netlist` once per backend (optionally
/// bouncing each flow through its serialized artifact) and checks every
/// serving path bit-exactly against the `evaluate` oracle.
fn assert_conformance(netlist: &Netlist, config: LpuConfig, seed: u64, reload: bool) {
    let width = netlist.inputs().len();
    let batches: Vec<Vec<Lanes>> = awkward_lane_counts()
        .into_iter()
        .map(|lanes| batch(width, lanes, seed))
        .collect();
    let oracle: Vec<Vec<Lanes>> = batches
        .iter()
        .map(|b| evaluate(netlist, b).expect("oracle evaluation"))
        .collect();
    for backend in all_backends() {
        let flow = Flow::builder(netlist)
            .config(config)
            .backend(backend)
            .compile()
            .unwrap_or_else(|e| panic!("{backend}: compile failed: {e}"));
        let flow = if reload {
            Flow::from_artifact_bytes(&flow.to_artifact_bytes().unwrap())
                .unwrap_or_else(|e| panic!("{backend}: artifact reload failed: {e}"))
        } else {
            flow
        };
        assert_eq!(flow.backend, backend);

        // Path 1: one batch at a time through the resident engine.
        let mut engine = flow.engine().unwrap();
        for (b, want) in batches.iter().zip(&oracle) {
            let got = engine.run_batch(b).unwrap();
            assert_eq!(
                &got.outputs,
                want,
                "{backend} run_batch lanes {} (reload {reload})",
                b.first().map_or(0, Lanes::len)
            );
        }

        // Path 2: the whole sequence back to back.
        let results = flow.engine().unwrap().run_batches(&batches).unwrap();
        assert_eq!(results.len(), batches.len());
        for (got, want) in results.iter().zip(&oracle) {
            assert_eq!(
                &got.outputs, want,
                "{backend} run_batches (reload {reload})"
            );
        }
    }
}

/// Runtime conformance: individual submits across every backend resolve
/// to the oracle's per-request bits, at the default (lane-width) flush
/// target and at an awkward explicit one.
fn assert_runtime_conformance(netlist: &Netlist, config: LpuConfig, seed: u64, reload: bool) {
    let width = netlist.inputs().len();
    // 517 requests: covers multiple full frames on every width plus a
    // tail partial batch on all of them.
    let requests: Vec<Vec<bool>> = (0..517)
        .map(|r| {
            batch(width, 1, seed ^ (r as u64) << 7)
                .iter()
                .map(|l| l.get(0))
                .collect()
        })
        .collect();
    let packed = Lanes::pack_rows(&requests, width);
    let oracle = evaluate(netlist, &packed).expect("oracle evaluation");
    for backend in all_backends() {
        let flow = Flow::builder(netlist)
            .config(config)
            .backend(backend)
            .compile()
            .unwrap();
        let flow = if reload {
            Flow::from_artifact_bytes(&flow.to_artifact_bytes().unwrap()).unwrap()
        } else {
            flow
        };
        for max_batch in [0usize, 21] {
            let runtime = Runtime::from_engine(
                flow.engine().unwrap(),
                RuntimeOptions::default().workers(2).max_batch(max_batch),
            )
            .unwrap();
            if max_batch == 0 {
                assert_eq!(runtime.flush_target(), backend.lanes(), "{backend}");
            }
            let handles: Vec<RequestHandle> = requests
                .iter()
                .map(|bits| runtime.submit(bits).unwrap())
                .collect();
            runtime.flush();
            for (j, handle) in handles.into_iter().enumerate() {
                let got = handle.wait().unwrap();
                let want: Vec<bool> = oracle.iter().map(|o| o.get(j)).collect();
                assert_eq!(
                    got, want,
                    "{backend} request {j} max_batch {max_batch} (reload {reload})"
                );
            }
        }
    }
}

/// Partition counts the differential suite pins (ISSUE 10): the
/// degenerate single-partition engine, two- and three-way splits (odd
/// count exercises uneven level chunks), a deep 8-way split, and the
/// accepted maximum (most partitions empty on these netlists).
fn partition_counts() -> [usize; 5] {
    [1, 2, 3, 8, lbnn::netlist::MAX_PARTITIONS]
}

/// Compiles `netlist` for `backend` split into `parts` partitions,
/// optionally bouncing the flow through its serialized artifact (which
/// carries the partition count, not the exchange plan).
fn partitioned_flow(
    netlist: &Netlist,
    config: LpuConfig,
    backend: Backend,
    parts: usize,
    reload: bool,
) -> Flow {
    let flow = Flow::builder(netlist)
        .config(config)
        .backend(backend)
        .partitions(parts)
        .compile()
        .unwrap_or_else(|e| panic!("{backend} x{parts}: compile failed: {e}"));
    let flow = if reload {
        Flow::from_artifact_bytes(&flow.to_artifact_bytes().unwrap())
            .unwrap_or_else(|e| panic!("{backend} x{parts}: artifact reload failed: {e}"))
    } else {
        flow
    };
    assert_eq!(
        flow.partitions, parts,
        "{backend} x{parts} (reload {reload})"
    );
    assert_eq!(
        flow.partitioned.is_some(),
        parts > 1 && !reload,
        "{backend} x{parts} (reload {reload}): only a fresh split compile carries its exchange plan"
    );
    flow
}

/// The partition-differential harness core: for every slice width ×
/// partition count, the flow's engine (which serves the single tape) and
/// its exchange plan ([`Flow::partitioned`], fresh compiles only) must
/// evaluate bit-identically to both the scalar `evaluate` oracle and the
/// unpartitioned single-engine flow of the same width, through
/// `run_batch` and `run_batches`, on ragged and zero-length batches,
/// direct-compile and artifact-reload.
fn assert_partition_conformance(netlist: &Netlist, config: LpuConfig, seed: u64, reload: bool) {
    let width = netlist.inputs().len();
    let batches: Vec<Vec<Lanes>> = awkward_lane_counts()
        .into_iter()
        .map(|lanes| batch(width, lanes, seed))
        .collect();
    let oracle: Vec<Vec<Lanes>> = batches
        .iter()
        .map(|b| evaluate(netlist, b).expect("oracle evaluation"))
        .collect();
    for &words in lbnn::netlist::SUPPORTED_SLICE_WORDS.iter() {
        let backend = Backend::BitSliced { words };
        // The same-width single-engine flow is the second oracle: the
        // partition pass must be a pure execution-schedule change.
        let single = partitioned_flow(netlist, config, backend, 1, reload);
        let mut single_engine = single.engine().unwrap();
        let single_outputs: Vec<Vec<Lanes>> = batches
            .iter()
            .map(|b| single_engine.run_batch(b).unwrap().outputs)
            .collect();
        for (got, want) in single_outputs.iter().zip(&oracle) {
            assert_eq!(got, want, "{backend} x1 disagrees with the scalar oracle");
        }
        for parts in partition_counts() {
            if parts == 1 {
                continue;
            }
            let flow = partitioned_flow(netlist, config, backend, parts, reload);
            let mut engine = flow.engine().unwrap();
            for (b, want) in batches.iter().zip(&single_outputs) {
                let got = engine.run_batch(b).unwrap();
                assert_eq!(
                    &got.outputs,
                    want,
                    "{backend} x{parts} run_batch lanes {} (reload {reload})",
                    b.first().map_or(0, Lanes::len)
                );
            }
            let results = flow.engine().unwrap().run_batches(&batches).unwrap();
            assert_eq!(results.len(), batches.len());
            for (got, want) in results.iter().zip(&single_outputs) {
                assert_eq!(
                    &got.outputs, want,
                    "{backend} x{parts} run_batches (reload {reload})"
                );
            }
            if let Some(plan) = &flow.partitioned {
                let mut frames = plan.frames_with_words(words);
                for (b, want) in batches.iter().zip(&single_outputs) {
                    let lanes = b.first().map_or(0, Lanes::len);
                    let got = plan.evaluate_with(b, lanes, &mut frames).unwrap();
                    assert_eq!(&got, want, "{backend} x{parts} exchange plan lanes {lanes}");
                }
            }
        }
    }
}

/// Runtime conformance across partition counts: individual submits
/// through the micro-batching worker pool resolve bit-identically to
/// the oracle whatever partition count the flow was compiled at.
fn assert_partition_runtime_conformance(
    netlist: &Netlist,
    config: LpuConfig,
    seed: u64,
    reload: bool,
) {
    let width = netlist.inputs().len();
    // 131 requests: at least one full frame at 64 lanes plus a ragged
    // tail on every width.
    let requests: Vec<Vec<bool>> = (0..131)
        .map(|r| {
            batch(width, 1, seed ^ (r as u64) << 9)
                .iter()
                .map(|l| l.get(0))
                .collect()
        })
        .collect();
    let packed = Lanes::pack_rows(&requests, width);
    let oracle = evaluate(netlist, &packed).expect("oracle evaluation");
    for &words in lbnn::netlist::SUPPORTED_SLICE_WORDS.iter() {
        let backend = Backend::BitSliced { words };
        for parts in partition_counts() {
            let flow = partitioned_flow(netlist, config, backend, parts, reload);
            let runtime =
                Runtime::from_engine(flow.engine().unwrap(), RuntimeOptions::default().workers(2))
                    .unwrap();
            let handles: Vec<RequestHandle> = requests
                .iter()
                .map(|bits| runtime.submit(bits).unwrap())
                .collect();
            runtime.flush();
            for (j, handle) in handles.into_iter().enumerate() {
                let got = handle.wait().unwrap();
                let want: Vec<bool> = oracle.iter().map(|o| o.get(j)).collect();
                assert_eq!(
                    got, want,
                    "{backend} x{parts} request {j} (reload {reload})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// The acceptance invariant: for random netlists and machine shapes,
    /// all widths are pinned bit-identical to the scalar reference by
    /// every engine-batch path, on both direct-compile and
    /// artifact-reload flows.
    #[test]
    fn every_backend_matches_the_oracle_on_random_netlists(
        seed in 0u64..1000,
        inputs in 5usize..11,
        depth in 3usize..6,
        dag_width in 3usize..8,
        outputs in 1usize..5,
        m in 4usize..9,
        n in 2usize..5,
        reload in proptest::bool::ANY,
    ) {
        let netlist = RandomDag::strict(inputs, depth, dag_width)
            .outputs(outputs)
            .generate(seed);
        assert_conformance(&netlist, LpuConfig::new(m, n), seed, reload);
    }

    /// Runtime-serve conformance over random netlists: submits resolve
    /// bit-identically to the oracle on every width, default and
    /// explicit flush targets, direct and reloaded flows.
    #[test]
    fn runtime_matches_the_oracle_on_random_netlists(
        seed in 0u64..1000,
        inputs in 5usize..10,
        reload in proptest::bool::ANY,
    ) {
        let netlist = RandomDag::strict(inputs, 4, 6).outputs(3).generate(seed);
        assert_runtime_conformance(&netlist, LpuConfig::new(5, 4), seed, reload);
    }

    /// The partition-count invariant on random netlists: engines and
    /// exchange plans are bit-identical to the single-engine and scalar
    /// oracles at every slice width × partition count {1,2,3,8,64},
    /// through every engine-batch path, direct and reloaded. (Looser
    /// DAGs than the strict generator: more cross-level nets means a
    /// denser exchange schedule.)
    #[test]
    fn partitioned_execution_matches_both_oracles_on_random_netlists(
        seed in 0u64..1000,
        inputs in 5usize..11,
        depth in 3usize..6,
        dag_width in 4usize..9,
        outputs in 1usize..5,
        strict in proptest::bool::ANY,
        reload in proptest::bool::ANY,
    ) {
        let dag = if strict {
            RandomDag::strict(inputs, depth, dag_width)
        } else {
            RandomDag::loose(inputs, depth, dag_width)
        };
        let netlist = dag.outputs(outputs).generate(seed);
        assert_partition_conformance(&netlist, LpuConfig::new(6, 4), seed, reload);
    }

    /// Runtime submits over engines of partitioned flows resolve
    /// bit-identically to the oracle at every width × partition count.
    #[test]
    fn partitioned_runtime_matches_the_oracle_on_random_netlists(
        seed in 0u64..1000,
        inputs in 5usize..10,
        reload in proptest::bool::ANY,
    ) {
        let netlist = RandomDag::loose(inputs, 4, 6).outputs(3).generate(seed);
        assert_partition_runtime_conformance(&netlist, LpuConfig::new(5, 4), seed, reload);
    }
}

/// Every shipped example netlist conforms on every backend, through both
/// the engine-batch and runtime-serve paths.
#[test]
fn shipped_example_netlists_conform_on_every_backend() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let mut checked = 0usize;
    for entry in std::fs::read_dir(&dir).expect("examples/data exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("v") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let netlist =
            parse_verilog(&src).unwrap_or_else(|e| panic!("{}: parse failed: {e}", path.display()));
        assert_conformance(&netlist, LpuConfig::new(8, 4), 0x5eed, false);
        assert_conformance(&netlist, LpuConfig::new(8, 4), 0x5eed, true);
        assert_runtime_conformance(&netlist, LpuConfig::new(8, 4), 0x5eed, false);
        checked += 1;
    }
    assert!(
        checked > 0,
        "no example netlists found in {}",
        dir.display()
    );
}

/// Every shipped example netlist conforms at every partition count too
/// — every width, direct and reloaded, plus the runtime path.
#[test]
fn shipped_example_netlists_conform_partitioned() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let mut checked = 0usize;
    for entry in std::fs::read_dir(&dir).expect("examples/data exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("v") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let netlist =
            parse_verilog(&src).unwrap_or_else(|e| panic!("{}: parse failed: {e}", path.display()));
        assert_partition_conformance(&netlist, LpuConfig::new(8, 4), 0x9a17, false);
        assert_partition_conformance(&netlist, LpuConfig::new(8, 4), 0x9a17, true);
        assert_partition_runtime_conformance(&netlist, LpuConfig::new(8, 4), 0x9a17, false);
        checked += 1;
    }
    assert!(
        checked > 0,
        "no example netlists found in {}",
        dir.display()
    );
}

// Exchange-schedule soundness under *arbitrary* partition assignments
// (ISSUE 10 satellite): for random maps — not just the contiguous
// heuristic — the compiled schedule must transfer every cross-partition
// net before its first consumer runs and never overwrite a live slot,
// and compilation must be deterministic for a fixed seed. All three
// properties are checked by [`lbnn::netlist::PartitionedEngine::validate`]
// (a symbolic replay that tracks which node each frame slot holds) plus
// structural equality of independently compiled engines; execution is
// then pinned against the oracle for good measure.
proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn exchange_schedule_is_sound_for_arbitrary_assignments(
        seed in 0u64..1000,
        inputs in 5usize..10,
        depth in 3usize..6,
        dag_width in 3usize..8,
        parts in 2usize..9,
        strict in proptest::bool::ANY,
    ) {
        use lbnn::netlist::{PartitionAssignment, PartitionedEngine};
        let dag = if strict {
            RandomDag::strict(inputs, depth, dag_width)
        } else {
            RandomDag::loose(inputs, depth, dag_width)
        };
        let netlist = dag.outputs(3).generate(seed);
        // An adversarial assignment from a cheap deterministic PRNG:
        // neighbours land in different partitions, so the schedule is
        // as dense as it gets.
        let mut x = seed | 1;
        let map: Vec<u32> = (0..netlist.len())
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % parts as u64) as u32
            })
            .collect();
        let assignment = PartitionAssignment::from_map(parts, map).unwrap();
        let simd = lbnn::netlist::SimdMode::Auto;
        let engine = PartitionedEngine::compile_with(&netlist, &assignment, simd).unwrap();
        engine
            .validate(&netlist)
            .expect("schedule transfers every net before use, no live overwrite");
        // Deterministic: an independent compile of the same netlist +
        // assignment is structurally identical.
        let again = PartitionedEngine::compile_with(&netlist, &assignment, simd).unwrap();
        assert_eq!(engine, again, "compilation must be deterministic");
        // And it executes bit-exactly.
        let width = netlist.inputs().len();
        let b = batch(width, 130, seed);
        let want = evaluate(&netlist, &b).unwrap();
        let got = engine.evaluate(&b).unwrap();
        assert_eq!(got, want, "seed {seed} parts {parts}");
    }
}

/// Regression (tail-lane masking): a batch of `lanes*k + r` samples
/// (0 < r < lanes) must never read or publish garbage from the unused
/// lanes of the final partial block, on any width. NOT of all-zero
/// inputs makes stray lanes maximally visible: every *computed* lane is
/// 1, so any leak shows up as extra set bits or a dirty tail word.
#[test]
fn tail_lanes_never_leak_on_any_width() {
    let mut nl = Netlist::new("inv");
    let a = nl.add_input("a");
    let y = nl.add_gate1(lbnn::netlist::Op::Not, a);
    nl.add_output(y, "y");
    for backend in all_backends() {
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(2, 2))
            .optimize(false)
            .backend(backend)
            .compile()
            .unwrap();
        let mut engine = flow.engine().unwrap();
        let block = backend.lanes();
        for lanes in [1, block - 1, block + 1, 2 * block + 3, 3 * block - 1] {
            let out = &engine.run_batch(&[Lanes::zeros(lanes)]).unwrap().outputs[0];
            assert_eq!(out.len(), lanes, "{backend} lanes {lanes}");
            assert_eq!(
                out.count_ones(),
                lanes,
                "{backend} lanes {lanes}: garbage leaked into unused lanes"
            );
            let rem = lanes % 64;
            if rem != 0 {
                let last = *out.words().last().unwrap();
                assert_eq!(last >> rem, 0, "{backend} lanes {lanes}: dirty tail word");
            }
        }
    }
}

/// Regression (tail lanes through the runtime): a partial micro-batch of
/// `r < lane_width` requests resolves correctly on every width — the
/// unused lanes of the padded frame never bleed into responses.
#[test]
fn partial_micro_batches_conform_on_every_width() {
    let netlist = RandomDag::strict(7, 4, 6).outputs(3).generate(99);
    let width = netlist.inputs().len();
    for backend in all_backends() {
        let flow = Flow::builder(&netlist)
            .config(LpuConfig::new(4, 4))
            .backend(backend)
            .compile()
            .unwrap();
        let runtime =
            Runtime::from_engine(flow.engine().unwrap(), RuntimeOptions::default().workers(1))
                .unwrap();
        // Strictly fewer requests than any width's flush target.
        let requests: Vec<Vec<bool>> = (0..5)
            .map(|r| {
                batch(width, 1, 0xfeed ^ (r as u64))
                    .iter()
                    .map(|l| l.get(0))
                    .collect()
            })
            .collect();
        let packed = Lanes::pack_rows(&requests, width);
        let oracle = evaluate(&netlist, &packed).unwrap();
        let handles: Vec<RequestHandle> = requests
            .iter()
            .map(|bits| runtime.submit(bits).unwrap())
            .collect();
        runtime.flush();
        for (j, handle) in handles.into_iter().enumerate() {
            let got = handle.wait().unwrap();
            let want: Vec<bool> = oracle.iter().map(|o| o.get(j)).collect();
            assert_eq!(got, want, "{backend} request {j}");
        }
    }
}

/// Tape-locality differential sweep: the fused, slot-reused kernel
/// tape must be bit-identical to the oracle under every SIMD ceiling —
/// the one option a tape takes — at 64–1024 lanes and awkward batch
/// shapes, and (the width differential) at every occupied-word count
/// 1..=16 of a 1024-lane frame: a block is split largest-first into
/// tiles from `{16, 8, 4, 2, 1}` by how many words it carries
/// (13 = 8 + 4 + 1), so partial blocks are the only way to the
/// narrow-tile kernels.
#[test]
fn tape_locality_options_are_bit_identical_at_every_width() {
    use lbnn::netlist::eval::BitSliceEvaluator;
    use lbnn::netlist::SimdMode;
    // One ragged block of `k` occupied words, alone and after a full one.
    let occupied_lanes: Vec<usize> = (1..=16)
        .flat_map(|k| [64 * k - 37, 1024 + 64 * k - 37])
        .collect();
    let mut saw_fusion = false;
    let mut saw_shrink = false;
    for seed in [7u64, 42, 1337] {
        let netlist = RandomDag::strict(9, 5, 8).outputs(4).generate(seed);
        let width = netlist.inputs().len();
        // Each batch next to what the oracle makes of it.
        let with_oracle = |lane_counts: &[usize]| -> Vec<(Vec<Lanes>, Vec<Lanes>)> {
            let batches = lane_counts.iter().map(|&lanes| batch(width, lanes, seed));
            batches
                .map(|b| {
                    let want = evaluate(&netlist, &b).unwrap();
                    (b, want)
                })
                .collect()
        };
        let awkward = with_oracle(&awkward_lane_counts());
        let occupied = with_oracle(&occupied_lanes);
        for simd in [SimdMode::Auto, SimdMode::Avx2, SimdMode::Off] {
            let sliced = BitSliceEvaluator::compile_with(&netlist, simd);
            let stats = sliced.tape_stats();
            saw_fusion |= stats.fused_instrs > 0;
            saw_shrink |= stats.frame_slots < stats.frame_slots_unoptimized;
            for &words in lbnn::netlist::SUPPORTED_SLICE_WORDS.iter() {
                let mut frame = sliced.frame_with_words(words);
                for (b, want) in &awkward {
                    let lanes = b.first().map_or(0, Lanes::len);
                    let got = sliced.evaluate_with(b, lanes, &mut frame).unwrap();
                    assert_eq!(
                        &got, want,
                        "seed {seed} simd {simd} words {words} lanes {lanes}"
                    );
                }
            }
            let mut frame = sliced.frame_with_words(16);
            for (b, want) in &occupied {
                let lanes = b[0].len();
                let got = sliced.evaluate_with(b, lanes, &mut frame).unwrap();
                assert_eq!(&got, want, "seed {seed} simd {simd} lanes {lanes}");
            }
        }
    }
    assert!(saw_fusion, "no seed produced a fused chain");
    assert!(saw_shrink, "no seed shrank the live frame");
}

/// SIMD dispatch differential sweep (ISSUE 9): every dispatch variant —
/// auto, the AVX2 ceiling (clamped to what the host supports), and the
/// baseline build (`Off`) — must replay the kernel tape bit-identically to the
/// oracle at every width and awkward batch shape, ragged final blocks
/// included. A patched tape (the in-place ANF-mask rewrite behind the
/// `.lbnnp` hot-reconfiguration flow) must stay bit-identical under
/// every variant too. Modes are forced through the typed
/// [`lbnn::netlist::SimdMode`] ceiling of `compile_with`; the default
/// run of every other suite exercises the best available path.
#[test]
fn simd_dispatch_variants_are_bit_identical_at_every_width() {
    use lbnn::netlist::eval::BitSliceEvaluator;
    use lbnn::netlist::{PatchSet, SimdMode};
    let modes = [SimdMode::Auto, SimdMode::Avx2, SimdMode::Off];
    for seed in [11u64, 23] {
        let netlist = RandomDag::strict(9, 5, 8).outputs(4).generate(seed);
        let width = netlist.inputs().len();
        let batches: Vec<Vec<Lanes>> = awkward_lane_counts()
            .into_iter()
            .map(|lanes| batch(width, lanes, seed))
            .collect();
        let oracle: Vec<Vec<Lanes>> = batches
            .iter()
            .map(|b| evaluate(&netlist, b).unwrap())
            .collect();
        // A few gates flipped to their negated forms — the same shape
        // of rewrite `Engine::patch_cells` ships over the `.lbnnp`
        // delta format.
        let mut patches = PatchSet::new();
        for (id, node) in netlist.iter() {
            if node.op().is_gate2() && patches.len() < 3 {
                patches.set(id, node.op().negated().unwrap());
            }
        }
        assert_eq!(patches.len(), 3);
        let mut patched_netlist = netlist.clone();
        patched_netlist.apply_patches(&patches).unwrap();
        let patched_oracle: Vec<Vec<Lanes>> = batches
            .iter()
            .map(|b| evaluate(&patched_netlist, b).unwrap())
            .collect();
        for mode in modes {
            let sliced = BitSliceEvaluator::compile_with(&netlist, mode);
            let patched = sliced.patched(&patches).unwrap();
            // Patching rewrites masks in place, never the dispatch level.
            assert_eq!(
                patched.tape_stats().simd,
                sliced.tape_stats().simd,
                "seed {seed} mode {mode}"
            );
            for &words in lbnn::netlist::SUPPORTED_SLICE_WORDS.iter() {
                let mut frame = sliced.frame_with_words(words);
                for (b, want) in batches.iter().zip(&oracle) {
                    let lanes = b.first().map_or(0, Lanes::len);
                    let got = sliced.evaluate_with(b, lanes, &mut frame).unwrap();
                    assert_eq!(
                        &got, want,
                        "seed {seed} mode {mode} words {words} lanes {lanes}"
                    );
                }
                let mut pframe = patched.frame_with_words(words);
                for (b, want) in batches.iter().zip(&patched_oracle) {
                    let lanes = b.first().map_or(0, Lanes::len);
                    let got = patched.evaluate_with(b, lanes, &mut pframe).unwrap();
                    assert_eq!(
                        &got, want,
                        "patched: seed {seed} mode {mode} words {words} lanes {lanes}"
                    );
                }
            }
        }
    }
}

/// Zero-length batches are a no-op with well-formed (empty) outputs on
/// every backend — no panic, no phantom lanes.
#[test]
fn zero_length_batches_are_served_empty_on_every_width() {
    let netlist = RandomDag::strict(6, 3, 5).outputs(2).generate(3);
    for backend in all_backends() {
        let flow = Flow::builder(&netlist)
            .config(LpuConfig::new(4, 4))
            .backend(backend)
            .compile()
            .unwrap();
        let mut engine = flow.engine().unwrap();
        let empty = batch(netlist.inputs().len(), 0, 1);
        let result = engine.run_batch(&empty).unwrap();
        assert_eq!(result.outputs.len(), 2, "{backend}");
        for out in &result.outputs {
            assert!(out.is_empty(), "{backend}: zero-length batch grew lanes");
        }
    }
}

//! The artifact contract, end to end: `load(save(flow))` must serve
//! bit-identically to the in-process compile on both backends, for any
//! compilable netlist; corrupt images must surface as typed
//! `CoreError::Artifact` values, never panics.

use std::path::PathBuf;

use lbnn::netlist::random::RandomDag;
use lbnn::netlist::Lanes;
use lbnn::{
    ArtifactError, Backend, CompiledModel, CoreError, Flow, FlowOptions, LayerSpec, LpuConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_lanes(rng: &mut StdRng, count: usize, lanes: usize) -> Vec<Lanes> {
    (0..count)
        .map(|_| {
            let bits: Vec<bool> = (0..lanes).map(|_| rng.random_bool(0.5)).collect();
            Lanes::from_bools(&bits)
        })
        .collect()
}

/// Re-seals an artifact image's trailing checksum (FNV-1a over
/// everything before it, matching the container) so an injected defect
/// is the only one the parser can trip on.
fn reseal(mut img: Vec<u8>) -> Vec<u8> {
    let body = img.len() - 8;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in &img[..body] {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    img[body..].copy_from_slice(&hash.to_le_bytes());
    img
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lbnn-roundtrip-{tag}-{}.lbnn", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// Satellite requirement: for random DAGs, machine shapes and both
    /// backends, a flow reloaded from its serialized artifact serves
    /// bit-identically to the freshly compiled one.
    #[test]
    fn load_of_save_serves_bit_identically(
        seed in 0u64..1000,
        inputs in 4usize..12,
        depth in 2usize..6,
        width in 2usize..8,
        outputs in 1usize..5,
        m in 4usize..10,
        n in 2usize..6,
        backend_idx in 0usize..5,
    ) {
        let netlist = RandomDag::strict(inputs, depth, width)
            .outputs(outputs)
            .generate(seed);
        // 0 = scalar; 1..5 = every supported bit-slice width.
        let backend = match backend_idx {
            0 => Backend::Scalar,
            i => Backend::BitSliced { words: 1 << (i - 1) },
        };
        let flow = Flow::builder(&netlist)
            .config(LpuConfig::new(m, n))
            .backend(backend)
            .compile()
            .unwrap();
        let bytes = flow.to_artifact_bytes().unwrap();
        let loaded = Flow::from_artifact_bytes(&bytes).unwrap();
        prop_assert_eq!(loaded.stats, flow.stats);
        prop_assert_eq!(loaded.backend, backend);
        prop_assert_eq!(&loaded.report, &flow.report);

        let mut original = flow.engine().unwrap();
        let mut reloaded = loaded.engine().unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00C0_FFEE);
        for lanes in [1usize, 64, 97] {
            let batch = random_lanes(&mut rng, netlist.inputs().len(), lanes);
            let a = original.run_batch(&batch).unwrap();
            let b = reloaded.run_batch(&batch).unwrap();
            prop_assert_eq!(a.outputs, b.outputs, "lanes {}", lanes);
            prop_assert_eq!(a.clock_cycles, b.clock_cycles);
        }
        // The loaded flow still verifies end-to-end against its own
        // (mapped) netlist oracle.
        loaded.verify_against_netlist(seed).unwrap();
    }
}

/// All backends loaded from artifacts agree with each other, not just
/// each with its own original — the full compile-once/serve-anywhere
/// diamond, across every slice width.
#[test]
fn loaded_backends_agree_with_each_other() {
    let netlist = RandomDag::strict(16, 6, 12).outputs(5).generate(77);
    let mut engines = Vec::new();
    let backends = [
        Backend::Scalar,
        Backend::BitSliced { words: 1 },
        Backend::BitSliced { words: 2 },
        Backend::BitSliced { words: 4 },
        Backend::BitSliced { words: 8 },
    ];
    for backend in backends {
        let flow = Flow::builder(&netlist)
            .config(LpuConfig::new(8, 4))
            .backend(backend)
            .compile()
            .unwrap();
        let loaded = Flow::from_artifact_bytes(&flow.to_artifact_bytes().unwrap()).unwrap();
        assert_eq!(loaded.backend, backend);
        engines.push(loaded.into_engine().unwrap());
    }
    let mut rng = StdRng::seed_from_u64(31);
    // Lane counts straddling every width's block boundary.
    for lanes in [1usize, 64, 130, 255, 256, 513] {
        let batch = random_lanes(&mut rng, netlist.inputs().len(), lanes);
        let reference = engines[0].run_batch(&batch).unwrap().outputs;
        for (engine, backend) in engines[1..].iter_mut().zip(&backends[1..]) {
            assert_eq!(
                engine.run_batch(&batch).unwrap().outputs,
                reference,
                "{backend} lanes {lanes}"
            );
        }
    }
}

/// The artifact's backend record carries the slice width (format v2):
/// each width round-trips exactly, and a corrupt `words` byte inside an
/// otherwise valid envelope surfaces as the dedicated typed error.
#[test]
fn artifact_width_field_round_trips_and_rejects_corruption() {
    let netlist = RandomDag::strict(10, 5, 8).outputs(3).generate(8);
    let compile = |words: usize| {
        Flow::builder(&netlist)
            .config(LpuConfig::new(5, 4))
            .backend(Backend::BitSliced { words })
            .compile()
            .unwrap()
    };
    for words in [1usize, 2, 4, 8, 16] {
        let loaded =
            Flow::from_artifact_bytes(&compile(words).to_artifact_bytes().unwrap()).unwrap();
        assert_eq!(loaded.backend, Backend::BitSliced { words });
        loaded.engine().unwrap();
    }

    // Locate the words byte as the single payload byte that differs
    // between the words=1 and words=2 images of the *same* compiled
    // flow (same netlist, config, program and report — only the width
    // and the checksum change).
    let mut flow = compile(1);
    let a = flow.to_artifact_bytes().unwrap();
    flow.backend = Backend::BitSliced { words: 2 };
    let b = flow.to_artifact_bytes().unwrap();
    assert_eq!(a.len(), b.len());
    let body = a.len() - 8; // trailing 8 bytes are the checksum
    let diffs: Vec<usize> = (0..body).filter(|&i| a[i] != b[i]).collect();
    assert_eq!(diffs.len(), 1, "exactly the words byte differs");
    let words_at = diffs[0];

    // Corrupt it to an unsupported width and re-seal the checksum so the
    // only remaining defect is the width itself.
    let mut bad = a.clone();
    bad[words_at] = 7;
    assert!(matches!(
        Flow::from_artifact_bytes(&reseal(bad)),
        Err(CoreError::Artifact(ArtifactError::UnsupportedWidth {
            words: 7
        }))
    ));

    // Without the checksum fix-up the same flip is caught earlier, as
    // checksum corruption — the layered-validation contract.
    let mut flipped = a;
    flipped[words_at] = 7;
    assert!(matches!(
        Flow::from_artifact_bytes(&flipped),
        Err(CoreError::Artifact(ArtifactError::ChecksumMismatch { .. }))
    ));
}

/// Satellite requirement: corruption comes back as the typed error for
/// each failure mode — truncated file, bad magic, wrong version, flipped
/// checksum byte — through the file-based API.
#[test]
fn corrupted_files_report_typed_errors() {
    let netlist = RandomDag::strict(10, 5, 8).outputs(3).generate(5);
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(5, 4))
        .compile()
        .unwrap();
    let path = temp_path("corrupt");
    flow.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    let reload = |mutated: &[u8]| -> CoreError {
        std::fs::write(&path, mutated).unwrap();
        Flow::load(&path).unwrap_err()
    };

    // Truncated file.
    let err = reload(&bytes[..bytes.len() / 3]);
    assert!(
        matches!(err, CoreError::Artifact(ArtifactError::Truncated { .. })),
        "{err:?}"
    );

    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] = b'X';
    let err = reload(&bad);
    assert!(
        matches!(err, CoreError::Artifact(ArtifactError::BadMagic)),
        "{err:?}"
    );

    // Wrong version.
    let mut bad = bytes.clone();
    bad[8..12].copy_from_slice(&7u32.to_le_bytes());
    let err = reload(&bad);
    assert!(
        matches!(
            err,
            CoreError::Artifact(ArtifactError::UnsupportedVersion { found: 7, .. })
        ),
        "{err:?}"
    );

    // Flipped checksum byte.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x40;
    let err = reload(&bad);
    assert!(
        matches!(
            err,
            CoreError::Artifact(ArtifactError::ChecksumMismatch { .. })
        ),
        "{err:?}"
    );

    std::fs::remove_file(&path).ok();
}

/// Artifact v5: a partitioned flow's artifact carries the mapped netlist
/// and the partition count, not the exchange plan. Its mapped netlist
/// recompiles exactly the plan the fresh compile built, and the loaded
/// flow serves bit-identically to the oracle; a bad partition count or
/// bytes past the count are typed `ArtifactError`s, and a v4 image
/// (which carried an engine image) is refused by version, never
/// mis-parsed.
#[test]
fn partitioned_artifact_v5_recompiles_its_engine_and_rejects_corruption() {
    use lbnn::netlist::eval::evaluate;
    use lbnn::netlist::PartitionedEngine;
    let netlist = RandomDag::loose(10, 5, 8).outputs(4).generate(13);
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(5, 4))
        .backend(Backend::BitSliced { words: 2 })
        .partitions(3)
        .compile()
        .unwrap();
    let bytes = flow.to_artifact_bytes().unwrap();
    let loaded = Flow::from_artifact_bytes(&bytes).unwrap();
    assert_eq!(loaded.partitions, 3);
    assert!(loaded.partitioned.is_none(), "kernels do not travel");
    assert_eq!(
        PartitionedEngine::compile(&loaded.netlist, 3).ok(),
        flow.partitioned,
        "the recompile is the plan the exchange pass built"
    );
    // Saving the loaded flow reproduces the image byte for byte, so
    // patch deltas bind to either.
    assert_eq!(loaded.to_artifact_bytes().unwrap(), bytes);
    let mut fresh = flow.engine().unwrap();
    let mut re = loaded.engine().unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let batch = random_lanes(&mut rng, netlist.inputs().len(), 130);
    let oracle = evaluate(&netlist, &batch).unwrap();
    assert_eq!(fresh.run_batch(&batch).unwrap().outputs, oracle);
    assert_eq!(re.run_batch(&batch).unwrap().outputs, oracle);

    // The partition count is the payload's last field.
    let body = bytes.len() - 8; // trailing 8 bytes: container checksum
    let pfield = body - 4;
    assert_eq!(&bytes[pfield..body], &3u32.to_le_bytes());

    for lie in [0u32, 65] {
        let mut bad = bytes.clone();
        bad[pfield..body].copy_from_slice(&lie.to_le_bytes());
        let err = Flow::from_artifact_bytes(&reseal(bad)).unwrap_err();
        assert!(
            matches!(err, CoreError::Artifact(ArtifactError::Malformed { .. })),
            "partition count {lie}: {err:?}"
        );
    }

    // Bytes past the count (where v4 kept its presence flag and engine
    // image), with the declared payload length and checksum fixed up.
    let mut long = bytes[..body].to_vec();
    long.push(0);
    let payload_len = (long.len() - 20) as u64; // 20-byte container header
    long[12..20].copy_from_slice(&payload_len.to_le_bytes());
    long.extend_from_slice(&[0u8; 8]);
    let err = Flow::from_artifact_bytes(&reseal(long)).unwrap_err();
    assert!(
        matches!(err, CoreError::Artifact(ArtifactError::Malformed { .. })),
        "trailing byte: {err:?}"
    );

    let mut v4 = bytes.clone();
    v4[8..12].copy_from_slice(&4u32.to_le_bytes());
    let err = Flow::from_artifact_bytes(&reseal(v4)).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Artifact(ArtifactError::UnsupportedVersion {
                found: 4,
                supported: 6
            })
        ),
        "{err:?}"
    );
}

/// A whole model survives the artifact boundary: save, load in a fresh
/// value, and infer bit-identically, with per-layer stats and compile
/// reports intact.
#[test]
fn compiled_model_round_trips_through_a_file() {
    let specs = vec![
        LayerSpec {
            name: "L1".to_string(),
            netlist: RandomDag::strict(10, 4, 8).outputs(6).generate(4),
            blocks: 3,
            sites: 16,
        },
        LayerSpec {
            name: "L2".to_string(),
            netlist: RandomDag::strict(6, 3, 4).outputs(3).generate(5),
            blocks: 2,
            sites: 4,
        },
    ];
    let config = LpuConfig::new(6, 4);
    let model =
        CompiledModel::compile("roundtrip", specs, &config, &FlowOptions::default()).unwrap();

    let path = temp_path("model");
    model.save(&path).unwrap();
    let loaded = CompiledModel::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded.name(), model.name());
    assert_eq!(loaded.config(), model.config());
    assert_eq!(loaded.layers().len(), model.layers().len());
    for (a, b) in loaded.layers().iter().zip(model.layers()) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.blocks(), b.blocks());
        assert_eq!(a.sites(), b.sites());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.report(), b.report());
    }
    assert!((loaded.throughput().fps - model.throughput().fps).abs() < 1e-9);

    let mut rng = StdRng::seed_from_u64(9);
    let inputs = random_lanes(&mut rng, 10, 96);
    let a = model.infer(&inputs).unwrap();
    let b = loaded.infer(&inputs).unwrap();
    assert_eq!(a.layer_outputs, b.layer_outputs);
    assert_eq!(a.clock_cycles, b.clock_cycles);
}

/// The compile report is part of the serving story: a fresh compile
/// records all seven passes, and the report survives the artifact.
#[test]
fn compile_report_travels_with_the_artifact() {
    let netlist = RandomDag::strict(12, 5, 8).outputs(3).generate(2);
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(6, 4))
        .compile()
        .unwrap();
    let names: Vec<&str> = flow.report.passes.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "optimize",
            "balance",
            "levelize",
            "partition",
            "merge",
            "schedule",
            "codegen"
        ]
    );
    let loaded = Flow::from_artifact_bytes(&flow.to_artifact_bytes().unwrap()).unwrap();
    assert_eq!(loaded.report, flow.report);
    assert!(loaded.artifacts.is_none(), "compiler state does not travel");
    assert!(flow.artifacts.is_some(), "fresh compiles keep it");
}

/// A patch delta round-trips through a `.lbnnp` sidecar file: the
/// reloaded delta applies to a *reloaded* base artifact and the result
/// serves the same bits as patching the in-process flow directly.
#[test]
fn patch_delta_round_trips_through_files() {
    use lbnn::netlist::PatchSet;
    let netlist = RandomDag::strict(9, 4, 7).outputs(3).generate(17);
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(4, 4))
        .backend(Backend::BitSliced { words: 1 })
        .compile()
        .unwrap();
    let patches: PatchSet = flow
        .netlist
        .iter()
        .filter(|(_, n)| n.op().is_gate2())
        .take(4)
        .map(|(id, n)| (id, n.op().negated().unwrap()))
        .collect();

    let base_path = temp_path("patch-base");
    let delta_path =
        std::env::temp_dir().join(format!("lbnn-roundtrip-delta-{}.lbnnp", std::process::id()));
    flow.save(&base_path).unwrap();
    std::fs::write(&delta_path, flow.make_delta(&patches).unwrap()).unwrap();

    let reloaded = Flow::load(&base_path).unwrap();
    let delta = std::fs::read(&delta_path).unwrap();
    let patched = reloaded.apply_delta(&delta).unwrap();
    let direct = flow.apply_patches(&patches).unwrap();

    let mut rng = StdRng::seed_from_u64(3);
    let width = netlist.inputs().len();
    let batch = random_lanes(&mut rng, width, 64);
    let a = patched.into_engine().unwrap().run_batch(&batch).unwrap();
    let b = direct.into_engine().unwrap().run_batch(&batch).unwrap();
    for (x, y) in a.outputs.iter().zip(b.outputs.iter()) {
        for lane in 0..64 {
            assert_eq!(x.get(lane), y.get(lane));
        }
    }
    std::fs::remove_file(&base_path).ok();
    std::fs::remove_file(&delta_path).ok();
}

/// Corrupt `.lbnnp` images surface as the most specific typed
/// `ArtifactError` — truncation, bad magic, unsupported version, a
/// delta bound to a different base, a record naming a cell the base
/// does not have, trailing garbage — and a full byte-flip sweep never
/// panics and never silently applies.
#[test]
fn corrupted_patch_deltas_report_typed_errors() {
    use lbnn::netlist::PatchSet;
    use lbnn::{PatchDelta, PatchRecord};
    let netlist = RandomDag::strict(9, 4, 7).outputs(3).generate(23);
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(4, 4))
        .compile()
        .unwrap();
    let patches: PatchSet = flow
        .netlist
        .iter()
        .filter(|(_, n)| n.op().is_gate2())
        .take(3)
        .map(|(id, n)| (id, n.op().negated().unwrap()))
        .collect();
    let delta = flow.make_delta(&patches).unwrap();
    assert!(
        flow.apply_delta(&delta).is_ok(),
        "the pristine delta applies"
    );

    // Truncation at every structural boundary (and a few odd offsets).
    for cut in [0, 4, 7, 8, 12, 19, 23, 24, delta.len() - 9, delta.len() - 1] {
        let err = flow.apply_delta(&delta[..cut]).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Artifact(ArtifactError::Truncated { .. } | ArtifactError::BadMagic)
            ),
            "cut at {cut}: {err:?}"
        );
    }

    // Bad magic.
    let mut bad = delta.clone();
    bad[0] = b'x';
    assert!(
        matches!(
            flow.apply_delta(&bad).unwrap_err(),
            CoreError::Artifact(ArtifactError::BadMagic)
        ),
        "bad magic"
    );

    // Unsupported version (the checksum is irrelevant: version is
    // checked before the trailer).
    let mut bad = delta.clone();
    bad[8..12].copy_from_slice(&9u32.to_le_bytes());
    assert!(
        matches!(
            flow.apply_delta(&bad).unwrap_err(),
            CoreError::Artifact(ArtifactError::UnsupportedVersion { found: 9, .. })
        ),
        "unsupported version"
    );

    // A structurally valid delta bound to a *different* base: parse,
    // perturb the binding, re-serialize (fresh trailer).
    let parsed = PatchDelta::from_bytes(&delta).unwrap();
    let foreign = PatchDelta {
        base_checksum: parsed.base_checksum.wrapping_add(1),
        records: parsed.records.clone(),
    };
    let err = flow.apply_delta(&foreign.to_bytes()).unwrap_err();
    assert!(
        matches!(err, CoreError::Artifact(ArtifactError::BaseMismatch { .. })),
        "{err:?}"
    );

    // A record naming a cell the base artifact does not have.
    let mut ghost = parsed.clone();
    ghost.records.push(PatchRecord {
        layer: 0,
        node: lbnn::netlist::NodeId::new(1_000_000),
        op: lbnn::netlist::Op::And,
    });
    let err = flow.apply_delta(&ghost.to_bytes()).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Artifact(ArtifactError::UnknownCell { layer: 0, .. })
        ),
        "{err:?}"
    );

    // A record targeting a layer a single-flow artifact does not have.
    let mut wrong_layer = parsed.clone();
    wrong_layer.records[0].layer = 3;
    assert!(
        flow.apply_delta(&wrong_layer.to_bytes()).is_err(),
        "wrong layer must be rejected"
    );

    // Trailing garbage after a well-formed image.
    let mut long = delta.clone();
    long.extend_from_slice(b"junk");
    assert!(flow.apply_delta(&long).is_err(), "trailing bytes rejected");

    // Exhaustive single-byte-flip sweep: every corruption is a typed
    // error (the Err return *is* the no-panic proof), and the base
    // flow still serves afterwards.
    for i in 0..delta.len() {
        let mut bad = delta.clone();
        bad[i] ^= 0xa5;
        assert!(
            flow.apply_delta(&bad).is_err(),
            "flip at byte {i} must not apply"
        );
    }
    assert!(flow.engine().is_ok(), "base flow unharmed by the sweep");
}

/// The patch set the checked-in delta carries: in layer 0 the first
/// three two-input cells, in layer 1 the first two, each negated.
fn fixture_patches(model: &CompiledModel) -> Vec<(usize, lbnn::PatchSet)> {
    [(0usize, 3usize), (1, 2)]
        .into_iter()
        .map(|(layer, n)| {
            let set = model.layers()[layer]
                .flow()
                .netlist
                .iter()
                .filter(|(_, node)| node.op().is_gate2())
                .take(n)
                .map(|(id, node)| (id, node.op().negated().unwrap()))
                .collect();
            (layer, set)
        })
        .collect()
}

/// `tests/data/model_v6.lbnn` (a two-layer model) and
/// `model_v6.lbnnp` (a delta against it) were written by the v6 encoder
/// that pushed every sub-field of the VLIW image on its own, before
/// lanes and ports were packed whole. Packing changed no bit: the image
/// loads and re-saves byte for byte, its cached checksum is the file's
/// trailer, the old delta applies, and a delta made now is the same
/// bytes as the old one — so it applies to the old build too.
#[test]
fn images_and_deltas_written_field_by_field_still_hold() {
    let data = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let image = std::fs::read(data.join("model_v6.lbnn")).unwrap();
    let old_delta = std::fs::read(data.join("model_v6.lbnnp")).unwrap();
    let model = CompiledModel::from_artifact_bytes(&image).unwrap();
    let trailer = u64::from_le_bytes(image[image.len() - 8..].try_into().unwrap());
    assert_eq!(model.artifact_checksum().unwrap(), trailer);
    assert_eq!(model.to_artifact_bytes().unwrap(), image);

    let patches = fixture_patches(&model);
    assert_eq!(model.make_delta(&patches).unwrap(), old_delta);
    let patched = model.apply_delta(&old_delta).unwrap();

    // The patched model answers what its patched netlists compute.
    let mut rng = StdRng::seed_from_u64(6);
    let inputs = random_lanes(&mut rng, 10, 128);
    let mut want = inputs.clone();
    for (layer, set) in &patches {
        let mut netlist = model.layers()[*layer].flow().netlist.clone();
        netlist.apply_patches(set).unwrap();
        want = lbnn::netlist::eval::evaluate(&netlist, &want).unwrap();
    }
    assert_eq!(patched.infer(&inputs).unwrap().outputs(), &want[..]);
}

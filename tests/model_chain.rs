//! The model chain keeps every layer boundary packed; this suite pins
//! that nothing observable moved. Every inference entry —
//! `infer_with` (all layers built), `infer_batches` (final layer only),
//! `Runtime::from_model` + `submit`, and each of them again on a
//! reloaded artifact — must equal the `eval::evaluate` + `chain_inputs`
//! oracle on every backend, partition count and lane count, across all
//! three boundary shapes: the next layer wants fewer columns than the
//! previous one produced, exactly as many, or more (the last cycles).
//! A single block behind `Runtime::from_engine` is a chain of one on the
//! same worker path, and a swap replaces one chain by another.
//!
//! A hidden layer's tape puts the read cone of the outputs the next
//! layer reads first, and the chain replays only that prefix: a chain
//! whose links read some, all, cycled and none of the outputs before
//! them serves the oracle's answers on every width, patched inside and
//! outside a read cone.

use lbnn::bench::{bench_workload_options, table3_workload_options};
use lbnn::core::model::{chain_inputs, CompiledLayer, LayerSpec, ModelScratch};
use lbnn::models::{workload::model_specs, zoo};
use lbnn::netlist::eval::evaluate;
use lbnn::netlist::random::RandomDag;
use lbnn::netlist::{BitSliceEvaluator, Lanes, Netlist, NodeId, Op, PatchSet};
use lbnn::{
    Backend, CompiledModel, Flow, FlowOptions, LpuConfig, RequestHandle, Runtime, RuntimeOptions,
};

/// 8 → 6 | 4 → 5 | 5 → 3 | 7 → 4: the boundaries are `want <`, `==`
/// and `>` the previous layer's outputs, in that order.
fn chain_netlists() -> Vec<Netlist> {
    vec![
        RandomDag::strict(8, 4, 8).outputs(6).generate(11),
        RandomDag::strict(4, 3, 6).outputs(5).generate(12),
        RandomDag::strict(5, 3, 6).outputs(3).generate(13),
        RandomDag::strict(7, 4, 8).outputs(4).generate(14),
    ]
}

fn compile(netlists: &[Netlist], backend: Backend, partitions: usize) -> CompiledModel {
    let specs = netlists
        .iter()
        .enumerate()
        .map(|(k, nl)| LayerSpec::block(format!("L{}", k + 1), nl.clone()))
        .collect();
    let options = FlowOptions {
        backend,
        partitions,
        ..FlowOptions::default()
    };
    CompiledModel::compile("chain", specs, &LpuConfig::new(6, 4), &options).unwrap()
}

/// Scalar plus one-, four- and sixteen-word slices, each on one tape and
/// on three partitions (the scalar machine ignores the count).
fn variants() -> Vec<(Backend, usize)> {
    let backends = [
        Backend::Scalar,
        Backend::BitSliced { words: 1 },
        Backend::BitSliced { words: 4 },
        Backend::BitSliced { words: 16 },
    ];
    backends
        .into_iter()
        .flat_map(|b| [(b, 1), (b, 3)])
        .collect()
}

/// Empty, sub-word, word-edge, ragged multi-word, one full 1024-lane
/// block, and a second ragged block behind it.
const LANE_COUNTS: [usize; 8] = [0, 1, 63, 64, 65, 130, 1024, 1100];

fn batch(width: usize, lanes: usize, seed: usize) -> Vec<Lanes> {
    (0..width)
        .map(|i| {
            let bits: Vec<bool> = (0..lanes)
                .map(|l| (seed + i * 31 + l * 7) % 5 < 2)
                .collect();
            Lanes::from_bools(&bits)
        })
        .collect()
}

/// Every layer's outputs by the scalar oracle, joined by `chain_inputs`.
fn oracle(netlists: &[Netlist], inputs: &[Lanes]) -> Vec<Vec<Lanes>> {
    let mut layers: Vec<Vec<Lanes>> = Vec::new();
    for netlist in netlists {
        let fed = match layers.last() {
            None => inputs.to_vec(),
            Some(prev) => chain_inputs(prev, netlist.inputs().len()),
        };
        layers.push(evaluate(netlist, &fed).unwrap());
    }
    layers
}

/// `infer_with` on one scratch through growing lane counts, then
/// `infer_batches` through the same batches shrinking.
fn assert_chain_conformance(model: &CompiledModel, netlists: &[Netlist], what: &str) {
    let width = netlists[0].inputs().len();
    let batches: Vec<Vec<Lanes>> = LANE_COUNTS
        .iter()
        .rev()
        .map(|&lanes| batch(width, lanes, lanes))
        .collect();
    let mut scratch = ModelScratch::new();
    let mut all_layers = Vec::new();
    for inputs in batches.iter().rev() {
        let lanes = inputs[0].len();
        let got = model.infer_with(&mut scratch, inputs).unwrap();
        assert_eq!(
            got.layer_outputs,
            oracle(netlists, inputs),
            "{what}: infer_with, {lanes} lanes"
        );
        all_layers.push(got);
    }
    let streamed = model.infer_batches(&batches).unwrap();
    assert_eq!(streamed.len(), batches.len());
    for (got, want) in streamed.iter().zip(all_layers.iter().rev()) {
        let lanes = want.outputs().first().map_or(0, Lanes::len);
        assert_eq!(
            got.layer_outputs.len(),
            1,
            "{what}: infer_batches builds the final layer only"
        );
        assert_eq!(
            got.outputs(),
            want.outputs(),
            "{what}: infer_batches, {lanes} lanes"
        );
        assert_eq!(got.lpe_ops, want.lpe_ops, "{what}: whole-model LPE ops");
        assert_eq!(
            got.clock_cycles, want.clock_cycles,
            "{what}: whole-model cycles"
        );
    }
}

/// One request per row through `Runtime::submit`, every handle waited:
/// the responses in request order. Micro-batches form however the
/// worker's pace decides, ragged ones included.
fn serve(runtime: &Runtime, rows: &[Vec<bool>]) -> Vec<Vec<bool>> {
    let handles: Vec<RequestHandle> = rows
        .iter()
        .map(|row| runtime.submit(row).unwrap())
        .collect();
    handles.into_iter().map(|h| h.wait().unwrap()).collect()
}

fn assert_runtime_conformance(model: CompiledModel, netlists: &[Netlist], what: &str) {
    let width = netlists[0].inputs().len();
    let runtime = Runtime::from_model(model, RuntimeOptions::default().workers(1)).unwrap();
    for lanes in [1usize, 65, 1100] {
        let columns = batch(width, lanes, lanes + 3);
        let want = Lanes::unpack_rows(oracle(netlists, &columns).last().unwrap());
        let got = serve(&runtime, &Lanes::unpack_rows(&columns));
        assert!(got == want, "{what}: {lanes} requests");
    }
}

fn block_flow(netlist: &Netlist, backend: Backend, partitions: usize) -> Flow {
    let options = FlowOptions {
        backend,
        partitions,
        ..FlowOptions::default()
    };
    Flow::builder(netlist)
        .config(LpuConfig::new(6, 4))
        .options(options)
        .compile()
        .unwrap()
}

#[test]
fn every_inference_entry_matches_the_chained_oracle() {
    let netlists = chain_netlists();
    for (backend, partitions) in variants() {
        let what = format!("{backend} x{partitions}");
        let model = compile(&netlists, backend, partitions);
        assert_chain_conformance(&model, &netlists, &what);
        let reloaded =
            CompiledModel::from_artifact_bytes(&model.to_artifact_bytes().unwrap()).unwrap();
        assert_chain_conformance(&reloaded, &netlists, &format!("{what} reloaded"));
    }
}

#[test]
fn the_runtime_serves_the_same_chain() {
    let netlists = chain_netlists();
    for (backend, partitions) in variants() {
        let what = format!("{backend} x{partitions} runtime");
        let model = compile(&netlists, backend, partitions);
        let reloaded =
            CompiledModel::from_artifact_bytes(&model.to_artifact_bytes().unwrap()).unwrap();
        assert_runtime_conformance(model, &netlists, &what);
        assert_runtime_conformance(reloaded, &netlists, &format!("{what} reloaded"));
    }
}

/// A block behind `Runtime::from_engine` is a chain of one: the same
/// packed worker path, with result rows of less than a word, exactly a
/// word, a word and a bit, and four words, and micro-batches on both
/// sides of every word edge of the two transposes.
#[test]
fn the_runtime_serves_a_block_as_a_chain_of_one() {
    for outputs in [1usize, 64, 65, 256] {
        let netlist = RandomDag::strict(9, 4, 16)
            .outputs(outputs)
            .generate(40 + outputs as u64);
        for (backend, partitions) in variants() {
            let engine = block_flow(&netlist, backend, partitions)
                .into_engine()
                .unwrap();
            let runtime =
                Runtime::from_engine(engine, RuntimeOptions::default().workers(1)).unwrap();
            for requests in [1usize, 63, 64, 65, 130, 1100] {
                let columns = batch(9, requests, requests + outputs);
                let want = Lanes::unpack_rows(&evaluate(&netlist, &columns).unwrap());
                let got = serve(&runtime, &Lanes::unpack_rows(&columns));
                assert!(
                    got == want,
                    "{backend} x{partitions}, {outputs} outputs: {requests} requests"
                );
            }
        }
    }
}

/// A swap lands mid-stream: the requests accepted before it are answered
/// by the version that admitted them, the ones after it by the
/// replacement — block for block (`swap_engine`, the result rows growing
/// from 65 to 256 bits) and chain for chain (`swap_model`, a different
/// final layer).
#[test]
fn a_swap_mid_stream_answers_each_request_from_exactly_one_version() {
    let backend = Backend::BitSliced { words: 4 };
    let options = RuntimeOptions::default().workers(1);
    let across_a_swap = |runtime: &Runtime, rows: &[Vec<bool>], swap: &dyn Fn()| {
        let (before, after) = rows.split_at(rows.len() / 2);
        let early: Vec<RequestHandle> = before
            .iter()
            .map(|row| runtime.submit(row).unwrap())
            .collect();
        swap();
        let late = serve(runtime, after);
        let early: Vec<Vec<bool>> = early.into_iter().map(|h| h.wait().unwrap()).collect();
        (early, late)
    };

    let blocks = [
        RandomDag::strict(9, 4, 16).outputs(65).generate(71),
        RandomDag::strict(9, 5, 16).outputs(256).generate(72),
    ];
    let columns = batch(9, 260, 5);
    let rows = Lanes::unpack_rows(&columns);
    let want = blocks
        .each_ref()
        .map(|nl| Lanes::unpack_rows(&evaluate(nl, &columns).unwrap()));
    let engines = blocks
        .each_ref()
        .map(|nl| block_flow(nl, backend, 1).into_engine().unwrap());
    let [v0, v1] = engines;
    let runtime = Runtime::from_engine(v0, options).unwrap();
    let v1 = std::cell::Cell::new(Some(v1));
    let swap = || assert_eq!(runtime.swap_engine(v1.take().unwrap()).unwrap(), 1);
    let (early, late) = across_a_swap(&runtime, &rows, &swap);
    assert!(early == want[0][..130], "block: accepted before the swap");
    assert!(late == want[1][130..], "block: accepted after the swap");

    let mut chains = [chain_netlists(), chain_netlists()];
    chains[1][3] = RandomDag::strict(7, 3, 12).outputs(70).generate(73);
    let columns = batch(8, 260, 9);
    let rows = Lanes::unpack_rows(&columns);
    let want = chains
        .each_ref()
        .map(|netlists| Lanes::unpack_rows(oracle(netlists, &columns).last().unwrap()));
    let runtime = Runtime::from_model(compile(&chains[0], backend, 1), options).unwrap();
    let swap = || {
        let version = runtime.swap_model(compile(&chains[1], backend, 3)).unwrap();
        assert_eq!(version, 1);
    };
    let (early, late) = across_a_swap(&runtime, &rows, &swap);
    assert!(early == want[0][..130], "chain: accepted before the swap");
    assert!(late == want[1][130..], "chain: accepted after the swap");
}

/// A batch whose columns disagree on the lane count is a caller bug on
/// every entry, caught before a word is read.
#[test]
#[should_panic(expected = "inconsistent lane counts")]
fn ragged_input_columns_are_rejected() {
    let netlists = chain_netlists();
    let model = compile(&netlists, Backend::BitSliced { words: 4 }, 1);
    let mut inputs = batch(netlists[0].inputs().len(), 70, 0);
    inputs[3] = Lanes::zeros(64);
    let _ = model.infer_batches(&[inputs]);
}

/// 8 → 256 | 6 → 5 | 5 → 3 | 7 → 4: the hidden links read 6 of 256
/// outputs (a VGG16-shaped hidden layer), all 5 of 5, and 3 cycled into
/// 7 inputs.
fn read_cone_netlists() -> Vec<Netlist> {
    vec![
        RandomDag::strict(8, 3, 256).outputs(256).generate(21),
        RandomDag::strict(6, 3, 12).outputs(5).generate(22),
        RandomDag::strict(5, 3, 8).outputs(3).generate(23),
        RandomDag::strict(7, 4, 8).outputs(4).generate(24),
    ]
}

/// Every bit-sliced width.
const WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// One lane, one word, a ragged block, one full block.
const CONE_LANES: [usize; 4] = [1, 64, 1000, 1024];

fn sliced(words: usize) -> Backend {
    Backend::BitSliced { words }
}

/// `(prefix_len, tape_len)` of each layer's engine tape.
fn prefixes(model: &CompiledModel) -> Vec<(usize, usize)> {
    let stats = |layer: &CompiledLayer| {
        let stats = layer.engine().unwrap().tape_stats().unwrap();
        (stats.prefix_len, stats.tape_len)
    };
    model.layers().iter().map(stats).collect()
}

/// `infer_with` (every hidden output), `infer_batches` and
/// `Runtime::submit` against the chained oracle at every lane count.
fn assert_read_cone_conformance(model: &CompiledModel, netlists: &[Netlist], what: &str) {
    let width = netlists[0].inputs().len();
    let batches: Vec<Vec<Lanes>> = CONE_LANES
        .iter()
        .map(|&lanes| batch(width, lanes, lanes + 1))
        .collect();
    let oracles: Vec<Vec<Vec<Lanes>>> = batches.iter().map(|b| oracle(netlists, b)).collect();
    let mut scratch = ModelScratch::new();
    for (inputs, want) in batches.iter().zip(&oracles) {
        let got = model.infer_with(&mut scratch, inputs).unwrap();
        let lanes = inputs[0].len();
        assert_eq!(
            &got.layer_outputs, want,
            "{what}: infer_with, {lanes} lanes"
        );
    }
    let streamed = model.infer_batches(&batches).unwrap();
    for ((got, want), lanes) in streamed.iter().zip(&oracles).zip(CONE_LANES) {
        let last = want.last().unwrap();
        assert_eq!(got.outputs(), last, "{what}: infer_batches, {lanes} lanes");
    }
    let runtime = Runtime::from_model(model.clone(), RuntimeOptions::default().workers(1)).unwrap();
    for ((inputs, want), lanes) in batches.iter().zip(&oracles).zip(CONE_LANES) {
        let got = serve(&runtime, &Lanes::unpack_rows(inputs));
        let want = Lanes::unpack_rows(want.last().unwrap());
        assert!(got == want, "{what}: Runtime::submit, {lanes} requests");
    }
}

#[test]
fn hidden_links_replay_their_read_cones_on_every_width() {
    let netlists = read_cone_netlists();
    for words in WIDTHS {
        let model = compile(&netlists, sliced(words), 1);
        let reloaded =
            CompiledModel::from_artifact_bytes(&model.to_artifact_bytes().unwrap()).unwrap();
        for (model, what) in [(&model, "fresh"), (&reloaded, "reloaded")] {
            let what = format!("{words} words, {what}");
            let prefixes = prefixes(model);
            // 256 → 6 replays a prefix; the links reading all of their
            // outputs, cycled ones included, and the final link replay
            // their whole tapes.
            assert!(prefixes[0].0 * 2 < prefixes[0].1, "{what}: {prefixes:?}");
            assert!(
                prefixes[1..].iter().all(|(p, t)| p == t),
                "{what}: {prefixes:?}"
            );
            assert_read_cone_conformance(model, &netlists, &what);
        }
        assert_eq!(prefixes(&model), prefixes(&reloaded), "{words} words");
    }
}

/// A layer that reads none of the outputs before it: the hidden link
/// replays no instruction on the chain, and the zero-input layer's
/// constants reach every lane of the batch — on every backend and lane
/// count, and through a runtime whose micro-batches are wider than one
/// word. A lone `run_batch(&[])` still answers one lane.
#[test]
fn a_link_read_by_a_zero_input_layer_replays_nothing() {
    let mut constants = Netlist::new("constants");
    let (zero, one) = (constants.add_const(false), constants.add_const(true));
    let x = constants.add_gate2(Op::Xor, zero, one);
    constants.add_output(x, "x");
    constants.add_output(one, "one");
    let netlists = [
        RandomDag::strict(6, 3, 16).outputs(16).generate(25),
        constants,
    ];
    for backend in [Backend::Scalar].into_iter().chain(WIDTHS.map(sliced)) {
        let model = compile(&netlists, backend, 1);
        if backend != Backend::Scalar {
            assert_eq!(prefixes(&model)[0].0, 0, "{backend}");
        }
        let lone = model.layers()[1]
            .flow()
            .engine()
            .unwrap()
            .run_batch(&[])
            .unwrap();
        assert_eq!(Lanes::unpack_rows(&lone.outputs), vec![vec![true, true]]);
        let mut scratch = ModelScratch::new();
        for lanes in LANE_COUNTS {
            let inputs = batch(6, lanes, lanes);
            let broadcast = vec![Lanes::ones(lanes); 2];
            let got = model.infer_with(&mut scratch, &inputs).unwrap();
            assert_eq!(
                got.layer_outputs[0],
                evaluate(&netlists[0], &inputs).unwrap()
            );
            assert_eq!(got.layer_outputs[1], broadcast, "{backend}, {lanes} lanes");
            let streamed = model.infer_batches(&[inputs]).unwrap();
            assert_eq!(streamed[0].outputs(), broadcast, "{backend}, {lanes} lanes");
        }
        // 1 100 requests outstanding at once: every bit-sliced width
        // forms micro-batches of more than 64 lanes.
        let runtime = Runtime::from_model(model, RuntimeOptions::default().workers(1)).unwrap();
        let rows = Lanes::unpack_rows(&batch(6, 1100, 5));
        let served = serve(&runtime, &rows);
        assert_eq!(served.len(), rows.len());
        for (j, row) in served.iter().enumerate() {
            assert_eq!(row, &[true, true], "{backend}, request {j}");
        }
    }
}

/// Every node outputs `..reads` of `netlist` depend on.
fn cone(netlist: &Netlist, reads: usize) -> Vec<bool> {
    let mut cone = vec![false; netlist.len()];
    for o in &netlist.outputs()[..reads] {
        cone[o.node.index()] = true;
    }
    for (id, node) in netlist.iter().collect::<Vec<_>>().into_iter().rev() {
        if cone[id.index()] {
            node.fanins().iter().for_each(|f| cone[f.index()] = true);
        }
    }
    cone
}

/// The gate computing the complement of `op`.
fn complement(op: Op) -> Op {
    match op {
        Op::And => Op::Nand,
        Op::Nand => Op::And,
        Op::Or => Op::Nor,
        Op::Nor => Op::Or,
        Op::Xor => Op::Xnor,
        Op::Xnor => Op::Xor,
        Op::Not => Op::Buf,
        _ => Op::Not,
    }
}

/// The mapped netlists of `model`'s layers: the patched oracle.
fn mapped(model: &CompiledModel) -> Vec<Netlist> {
    model
        .layers()
        .iter()
        .map(|l| l.flow().netlist.clone())
        .collect()
}

/// A delta patches one cell of the 256 → 6 layer inside the read cone
/// and, separately, one outside it, on a fresh and a reloaded model. The
/// patched tape keeps its prefix; `infer_with` matches the patched
/// oracle at every hidden layer either way; a runtime swapped onto the
/// patched model serves changed answers for the first patch only.
#[test]
fn a_patch_inside_a_read_cone_changes_served_outputs_and_one_outside_does_not() {
    let netlists = read_cone_netlists();
    let model = compile(&netlists, sliced(4), 1);
    let reloaded = CompiledModel::from_artifact_bytes(&model.to_artifact_bytes().unwrap()).unwrap();
    let inputs = batch(8, 1000, 3);
    let rows = Lanes::unpack_rows(&inputs);
    let base = mapped(&model);
    let served_before = Lanes::unpack_rows(oracle(&base, &inputs).last().unwrap());
    let read = cone(&base[0], 6);
    let patched_oracle = |cell: NodeId| {
        let mut netlists = base.clone();
        let op = complement(netlists[0].node(cell).op());
        netlists[0]
            .apply_patches(&[(cell, op)].into_iter().collect())
            .unwrap();
        netlists
    };
    let gates = || {
        base[0]
            .iter()
            .filter(|(_, node)| node.op().arity() > 0)
            .map(|(id, _)| id)
    };
    // Inside: a cone cell whose complement reaches the final outputs.
    let inside = gates()
        .filter(|id| read[id.index()])
        .find(|&id| {
            let served = Lanes::unpack_rows(oracle(&patched_oracle(id), &inputs).last().unwrap());
            served != served_before
        })
        .unwrap();
    // Outside: a gate driving an unread output and nothing read.
    let outside = base[0].outputs()[6..]
        .iter()
        .map(|o| o.node)
        .find(|id| !read[id.index()] && base[0].node(*id).op().arity() > 0)
        .unwrap();
    for model in [&model, &reloaded] {
        for (cell, changes) in [(inside, true), (outside, false)] {
            let op = complement(base[0].node(cell).op());
            let set: PatchSet = [(cell, op)].into_iter().collect();
            let delta = model.make_delta(&[(0, set)]).unwrap();
            let patched = model.apply_delta(&delta).unwrap();
            assert_eq!(
                prefixes(&patched),
                prefixes(model),
                "a patch keeps the prefix"
            );
            let want = oracle(&patched_oracle(cell), &inputs);
            assert_eq!(want, oracle(&mapped(&patched), &inputs));
            let got = patched
                .infer_with(&mut ModelScratch::new(), &inputs)
                .unwrap();
            assert_eq!(got.layer_outputs, want, "cell {cell:?}: infer_with");
            assert!(
                got.layer_outputs[0] != oracle(&base, &inputs)[0],
                "cell {cell:?}"
            );

            let runtime =
                Runtime::from_model(model.clone(), RuntimeOptions::default().workers(1)).unwrap();
            assert!(serve(&runtime, &rows) == served_before);
            assert_eq!(runtime.swap_model(patched).unwrap(), 1);
            let served = serve(&runtime, &rows);
            assert_eq!(served != served_before, changes, "cell {cell:?}");
            assert!(served == Lanes::unpack_rows(want.last().unwrap()));
        }
    }
}

/// JSC-M's hidden layers read every output of the layer before, so each
/// engine's tape is its flow's — the one `BitSliceEvaluator::compile`
/// builds from the mapped netlist — fresh and reloaded; VGG16 L2–13's
/// hidden layers read 6 of their 64–256 outputs, and a chain pass
/// replays 1 543 of the model's 4 754 instructions.
#[test]
fn jsc_m_keeps_its_tapes_and_vgg16_replays_its_read_cones() {
    let options = FlowOptions {
        backend: sliced(16),
        ..FlowOptions::default()
    };
    let specs = model_specs(&zoo::jsc_m(), &table3_workload_options());
    let jsc = CompiledModel::compile("jsc", specs, &LpuConfig::new(16, 4), &options).unwrap();
    let reloaded = CompiledModel::from_artifact_bytes(&jsc.to_artifact_bytes().unwrap()).unwrap();
    for (layer, loaded) in jsc.layers().iter().zip(reloaded.layers()) {
        let tape = BitSliceEvaluator::compile(&layer.flow().netlist);
        let flow_tape = layer.flow().artifacts.as_ref().unwrap().tape.as_ref();
        assert!(flow_tape == Some(&tape), "{}", layer.name());
        assert_eq!(
            layer.engine().unwrap().tape_stats(),
            Some(tape.tape_stats())
        );
        assert_eq!(
            loaded.engine().unwrap().tape_stats(),
            Some(tape.tape_stats())
        );
        assert_eq!(tape.tape_stats().prefix_len, tape.tape_len());
    }

    let specs = model_specs(&zoo::vgg16_layers_2_13(), &bench_workload_options());
    let vgg = CompiledModel::compile("vgg", specs, &LpuConfig::paper_default(), &options).unwrap();
    let prefixes = prefixes(&vgg);
    let sum = |pick: fn(&(usize, usize)) -> usize| prefixes.iter().map(pick).sum::<usize>();
    assert_eq!((sum(|p| p.0), sum(|p| p.1)), (1543, 4754), "{prefixes:?}");
}

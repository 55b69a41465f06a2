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

use lbnn::core::model::{chain_inputs, LayerSpec, ModelScratch};
use lbnn::netlist::eval::evaluate;
use lbnn::netlist::random::RandomDag;
use lbnn::netlist::{Lanes, Netlist};
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

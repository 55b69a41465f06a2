//! The serving API's contract, end to end: `FlowBuilder` defaults,
//! `Engine` batch replay, and `CompiledModel` whole-model inference must
//! all agree bit-exactly with the one-shot compile/simulate path they
//! replaced.

use lbnn::core::model::chain_inputs;
use lbnn::models::workload::{model_specs, model_workloads, WorkloadOptions};
use lbnn::models::zoo;
use lbnn::netlist::random::RandomDag;
use lbnn::netlist::Lanes;
use lbnn::{Backend, CompiledModel, Flow, FlowOptions, LpuConfig, ServingMode};
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

fn small_options() -> WorkloadOptions {
    WorkloadOptions {
        block_neurons: 16,
        max_fanin: 6,
        exact_fanin: 8,
        isf_samples: 32,
        seed: 7,
    }
}

/// Satellite requirement 1: engine reuse across ≥ 3 batches yields
/// bit-identical outputs to fresh `Flow::simulate` calls.
#[test]
fn engine_reuse_is_bit_identical_to_fresh_simulation() {
    let netlist = RandomDag::strict(20, 6, 14).outputs(5).generate(31);
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(8, 4))
        .compile()
        .unwrap();
    let mut engine = flow.engine().unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    for batch_no in 0..4u64 {
        // Varying lane widths across batches exercises buffer reshaping.
        let lanes = 48 + 16 * batch_no as usize;
        let batch = random_lanes(&mut rng, netlist.inputs().len(), lanes);
        let fresh = flow.simulate(&batch).unwrap();
        let served = engine.run_batch(&batch).unwrap();
        assert_eq!(
            served.outputs, fresh.outputs,
            "batch {batch_no} must be bit-identical"
        );
        assert_eq!(served.lpe_ops, fresh.lpe_ops);
        assert_eq!(served.compute_cycles, fresh.compute_cycles);
    }
    assert_eq!(engine.batches_served(), 4);
}

/// Satellite requirement 2: the builder's defaults are exactly
/// `FlowOptions::default()` (and the default machine), and compiling with
/// them equals the explicit-options path.
#[test]
fn builder_defaults_equal_flow_options_default() {
    let netlist = RandomDag::strict(12, 5, 8).outputs(3).generate(8);
    let builder = Flow::builder(&netlist);
    assert_eq!(*builder.current_options(), FlowOptions::default());
    assert_eq!(*builder.current_config(), LpuConfig::default());

    let config = LpuConfig::new(6, 4);
    let defaulted = Flow::builder(&netlist).config(config).compile().unwrap();
    // Explicitly passing the default option set must agree with the
    // defaulted builder.
    let explicit = Flow::builder(&netlist)
        .config(config)
        .options(FlowOptions::default())
        .compile()
        .unwrap();
    assert_eq!(defaulted.stats, explicit.stats);
    let mut rng = StdRng::seed_from_u64(5);
    let batch = random_lanes(&mut rng, netlist.inputs().len(), 64);
    assert_eq!(
        defaulted.simulate(&batch).unwrap().outputs,
        explicit.simulate(&batch).unwrap().outputs
    );
}

/// Satellite requirement 3: `CompiledModel::infer` agrees with per-layer
/// evaluation on a small zoo model.
#[test]
fn compiled_model_infer_agrees_with_per_layer_evaluation() {
    let model = zoo::jsc_m();
    let config = LpuConfig::new(16, 4);
    let wl = small_options();
    let compiled = CompiledModel::compile(
        model.name,
        model_specs(&model, &wl),
        &config,
        &FlowOptions::default(),
    )
    .unwrap();

    let first_inputs = compiled.layers()[0].source_netlist().inputs().len();
    let mut rng = StdRng::seed_from_u64(13);
    let inputs = random_lanes(&mut rng, first_inputs, 96);
    let inference = compiled.infer(&inputs).unwrap();
    assert_eq!(inference.layer_outputs.len(), model.layers.len());

    // Per-layer evaluation over the same chain, each layer compiled
    // fresh from its workload netlist.
    let workloads = model_workloads(&model, &wl);
    let mut current = inputs;
    for (i, workload) in workloads.iter().enumerate() {
        let flow = Flow::builder(&workload.netlist)
            .config(config)
            .compile()
            .unwrap();
        let want = workload.netlist.inputs().len();
        if i > 0 && current.len() != want {
            current = chain_inputs(&current, want);
        }
        let result = flow.simulate(&current).unwrap();
        assert_eq!(
            inference.layer_outputs[i], result.outputs,
            "layer {i} of {} must match per-layer evaluation",
            model.name
        );
        current = result.outputs;
    }
}

/// The serving artifact's accounting matches the bench harness's
/// per-layer arithmetic (throughput and latency modes).
#[test]
fn compiled_model_accounting_matches_bench_reports() {
    let model = zoo::jsc_m();
    let config = LpuConfig::new(16, 4);
    let wl = small_options();
    let compiled = lbnn::bench::compile_model(&model, &config, &wl, true);
    let throughput = lbnn::bench::ModelReport::from_compiled(&compiled, ServingMode::Throughput);
    let latency = lbnn::bench::ModelReport::from_compiled(&compiled, ServingMode::Latency);
    assert!((compiled.fps(ServingMode::Throughput) - throughput.fps).abs() < 1e-9);
    assert!((compiled.fps(ServingMode::Latency) - latency.fps).abs() < 1e-9);
    assert!(throughput.fps > latency.fps, "lane batching must amortize");
    let report = compiled.throughput();
    assert_eq!(report.batch, config.operand_bits());
    assert!((report.fps - throughput.fps).abs() / throughput.fps < 1e-3);
}

/// Engines spun off the same flow are independent: interleaved batches on
/// two engines match a single engine run sequentially.
#[test]
fn engines_are_independent() {
    let netlist = RandomDag::strict(10, 4, 8).outputs(3).generate(3);
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(5, 3))
        .compile()
        .unwrap();
    let mut a = flow.clone().into_engine().unwrap();
    let mut b = flow.engine().unwrap();
    let mut rng = StdRng::seed_from_u64(21);
    let batches: Vec<Vec<Lanes>> = (0..3)
        .map(|_| random_lanes(&mut rng, netlist.inputs().len(), 40))
        .collect();
    let solo: Vec<_> = batches
        .iter()
        .map(|batch| flow.simulate(batch).unwrap().outputs)
        .collect();
    for (i, batch) in batches.iter().enumerate() {
        let ra = a.run_batch(batch).unwrap();
        let rb = b.run_batch(batch).unwrap();
        assert_eq!(ra.outputs, solo[i]);
        assert_eq!(rb.outputs, solo[i]);
    }
    let all = a.run_batches(&batches).unwrap();
    for (res, want) in all.iter().zip(&solo) {
        assert_eq!(&res.outputs, want);
    }
}

/// The bit-sliced backend is bit-identical to the scalar machine on a
/// real extracted workload (JSC-M layer blocks), across batch widths that
/// exercise sub-word, exact-word and multi-word 64-lane blocks.
#[test]
fn bitsliced_backend_matches_scalar_on_extracted_workloads() {
    let model = zoo::jsc_m();
    let config = LpuConfig::new(16, 4);
    let wl = small_options();
    let mut rng = StdRng::seed_from_u64(2023);
    for workload in model_workloads(&model, &wl) {
        let scalar = Flow::builder(&workload.netlist)
            .config(config)
            .compile()
            .unwrap();
        let sliced = Flow::builder(&workload.netlist)
            .config(config)
            .backend(Backend::BitSliced { words: 1 })
            .compile()
            .unwrap();
        let mut scalar_engine = scalar.engine().unwrap();
        let mut sliced_engine = sliced.engine().unwrap();
        for lanes in [1usize, 64, 129] {
            let batch = random_lanes(&mut rng, workload.netlist.inputs().len(), lanes);
            let a = scalar_engine.run_batch(&batch).unwrap();
            let b = sliced_engine.run_batch(&batch).unwrap();
            assert_eq!(a.outputs, b.outputs, "{} lanes {lanes}", workload.name);
        }
    }
}

/// A whole model compiled on the bit-sliced backend infers bit-identically
/// to the scalar-backend artifact.
#[test]
fn compiled_model_infer_is_backend_independent() {
    let model = zoo::jsc_m();
    let config = LpuConfig::new(16, 4);
    let wl = small_options();
    let specs = model_specs(&model, &wl);
    let scalar =
        CompiledModel::compile(model.name, specs.clone(), &config, &FlowOptions::default())
            .unwrap();
    let sliced = CompiledModel::compile(
        model.name,
        specs,
        &config,
        &FlowOptions {
            backend: Backend::BitSliced { words: 1 },
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(
        sliced.layers()[0].backend(),
        Backend::BitSliced { words: 1 }
    );

    let first_inputs = scalar.layers()[0].source_netlist().inputs().len();
    let mut rng = StdRng::seed_from_u64(4);
    let inputs = random_lanes(&mut rng, first_inputs, 128);
    let a = scalar.infer(&inputs).unwrap();
    let b = sliced.infer(&inputs).unwrap();
    assert_eq!(a.layer_outputs, b.layer_outputs);
    assert_eq!(a.clock_cycles, b.clock_cycles);
}

//! The fixed side of every workload — models, netlists, configurations —
//! and the scalar oracle all outputs are checked against. Nothing here
//! takes the seed.

use lbnn_bench::{bench_workload_options, table3_workload_options};
use lbnn_core::model::{chain_inputs, CompiledModel, LayerSpec};
use lbnn_core::{Backend, Flow, FlowOptions, LpuConfig};
use lbnn_models::workload::{layer_workload, model_specs};
use lbnn_models::zoo;
use lbnn_netlist::eval::evaluate;
use lbnn_netlist::{Lanes, Netlist};

/// Words per net of every engine: 16 × 64 = 1024 lanes per kernel pass.
pub const WORDS: usize = 16;
/// Samples per full batch.
pub const LANES: usize = 64 * WORDS;
/// The backend every engine in the benchmark uses.
pub const BACKEND: Backend = Backend::BitSliced { words: WORDS };

pub fn flow_options() -> FlowOptions {
    FlowOptions {
        backend: BACKEND,
        ..FlowOptions::default()
    }
}

/// Layer specs of VGG16 layers 2–13 with the Table II workload options
/// (weights seeded with 2023). This is `models.workload`: at ~1.8 s it
/// is most of the set-up time of every workload that needs the model.
pub fn vgg_specs() -> Vec<LayerSpec> {
    model_specs(&zoo::vgg16_layers_2_13(), &bench_workload_options())
}

pub fn compile_vgg(specs: Vec<LayerSpec>) -> CompiledModel {
    CompiledModel::compile("vgg", specs, &LpuConfig::paper_default(), &flow_options())
        .expect("VGG16 layers 2-13 compile")
}

/// The VGG16 L8 block on its own: 6 inputs, 256 outputs.
pub fn l8_netlist() -> Netlist {
    let shape = zoo::vgg16_layers_2_13().layers[7];
    layer_workload(&shape, 7, &bench_workload_options()).netlist
}

/// Compiles one block for the paper-default machine at 1024 lanes.
pub fn compile_flow(netlist: &Netlist, partitions: usize) -> Flow {
    Flow::builder(netlist)
        .config(LpuConfig::paper_default())
        .options(flow_options())
        .partitions(partitions)
        .compile()
        .expect("block compiles")
}

/// Name the served model is registered under.
pub const JSC_NAME: &str = "jsc";

pub fn jsc_specs() -> Vec<LayerSpec> {
    model_specs(&zoo::jsc_m(), &table3_workload_options())
}

/// JSC-M as `lbnn-serve` would host it.
pub fn compile_jsc(specs: Vec<LayerSpec>) -> CompiledModel {
    CompiledModel::compile(JSC_NAME, specs, &LpuConfig::new(16, 4), &flow_options())
        .expect("JSC-M compiles")
}

/// The scalar oracle for a chain of layers: `eval::evaluate` on each
/// netlist, joined by `chain_inputs` exactly as `CompiledModel::infer`
/// joins its layers. Returns the last layer's outputs.
pub fn oracle_chain(layers: &[&Netlist], inputs: &[Lanes]) -> Vec<Lanes> {
    let mut current = inputs.to_vec();
    for (i, netlist) in layers.iter().enumerate() {
        let want = netlist.inputs().len();
        if i > 0 && current.len() != want {
            current = chain_inputs(&current, want);
        }
        current = evaluate(netlist, &current).expect("oracle arity");
    }
    current
}

/// [`oracle_chain`] for single-sample requests: one output row per input
/// row.
pub fn oracle_rows(layers: &[&Netlist], rows: &[Vec<bool>]) -> Vec<Vec<bool>> {
    let width = layers[0].inputs().len();
    Lanes::unpack_rows(&oracle_chain(layers, &Lanes::pack_rows(rows, width)))
}

/// The source netlists of a compiled model, in layer order.
pub fn source_netlists(model: &CompiledModel) -> Vec<&Netlist> {
    model.layers().iter().map(|l| l.source_netlist()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbnn_netlist::Op;

    #[test]
    fn oracle_chain_cycles_outputs_into_the_next_layer() {
        // Layer 1: two outputs (a&b, a|b). Layer 2 wants three inputs, so
        // it sees (and, or, and) and computes (in0 ^ in1) | in2.
        let mut l1 = Netlist::new("l1");
        let a = l1.add_input("a");
        let b = l1.add_input("b");
        let and = l1.add_gate2(Op::And, a, b);
        let or = l1.add_gate2(Op::Or, a, b);
        l1.add_output(and, "and");
        l1.add_output(or, "or");
        let mut l2 = Netlist::new("l2");
        let i: Vec<_> = (0..3).map(|k| l2.add_input(format!("i{k}"))).collect();
        let x = l2.add_gate2(Op::Xor, i[0], i[1]);
        let y = l2.add_gate2(Op::Or, x, i[2]);
        l2.add_output(y, "y");

        let rows = vec![vec![false, false], vec![true, false], vec![true, true]];
        let out = oracle_rows(&[&l1, &l2], &rows);
        assert_eq!(out, vec![vec![false], vec![true], vec![true]]);
    }
}

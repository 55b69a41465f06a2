//! Ablation table for two design choices of the MFG partitioner: stop-rule
//! variants (paper pseudocode `>= m` vs conditions `> m`) and shared vs
//! duplicated children — partition sizes, and what one partitioning
//! costs, printed once (`cargo bench -p lbnn-bench`).

use lbnn_bench::bench_workload_options;
use lbnn_core::compiler::partition::{partition, PartitionOptions, StopRule};
use lbnn_models::workload::layer_workload;
use lbnn_models::zoo;
use lbnn_netlist::balance::balance;
use lbnn_netlist::Levels;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let wl = bench_workload_options();
    let model = zoo::lenet5();
    let workload = layer_workload(&model.layers[2], 2, &wl);
    let (balanced, _) = balance(&workload.netlist);
    let levels = Levels::compute(&balanced);
    let m = 64;

    // Partition sizes, and the mean time of ten partitionings each.
    for (label, opts) in [
        ("GtM/shared", PartitionOptions::default()),
        (
            "GeqM/shared",
            PartitionOptions {
                stop_rule: StopRule::GeqM,
                ..Default::default()
            },
        ),
        (
            "GtM/duplicated",
            PartitionOptions {
                duplicate_children: true,
                ..Default::default()
            },
        ),
    ] {
        let part = partition(&balanced, &levels, m, opts).unwrap();
        let start = Instant::now();
        for _ in 0..10 {
            black_box(partition(&balanced, &levels, m, opts)).unwrap();
        }
        println!(
            "ablation {label}: {} MFGs, {} executed nodes, {:.2} ms per partitioning",
            part.mfg_count(),
            part.executed_nodes(),
            start.elapsed().as_secs_f64() * 100.0
        );
    }
}

//! # lbnn-bench
//!
//! The evaluation harness: compiles the model-zoo workloads onto the LPU
//! through the serving API ([`CompiledModel`]), measures cycle counts with
//! the cycle-accurate simulator, combines them with the analytic
//! baselines, and formats the rows of every table and figure of the
//! paper. The `src/bin` binaries (`table1`–`table3`, `fig7`–`fig9`,
//! `all`) print paper-vs-reproduced rows. Host performance is measured
//! by the repository benchmark (`benchmark/`), not here.

#![forbid(unsafe_code)]

use lbnn_core::flow::{Flow, FlowOptions};
use lbnn_core::lpu::LpuConfig;
use lbnn_core::model::{CompiledLayer, CompiledModel, ServingMode};
use lbnn_models::workload::{model_specs, LayerWorkload, WorkloadOptions};
use lbnn_models::zoo::ModelShape;

/// Per-layer evaluation result.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Layer label.
    pub name: String,
    /// Gates in the compiled block (after optimization + balancing).
    pub gates: usize,
    /// Logic depth of the block.
    pub depth: u32,
    /// MFG count before merging.
    pub mfgs_before: usize,
    /// MFG count after merging.
    pub mfgs_after: usize,
    /// Instruction-queue depth (steady-state initiation interval in
    /// compute cycles).
    pub queue_depth: usize,
    /// One-pass latency in clock cycles.
    pub latency_clk: u64,
    /// Steady-state clocks per pass (initiation interval × tc).
    pub ii_clk: u64,
    /// LPE occupancy of the steady-state schedule.
    pub occupancy: f64,
    /// Block passes per input image.
    pub passes_per_image: f64,
    /// Clock cycles per input image for this layer.
    pub cycles_per_image: f64,
}

impl LayerReport {
    /// Extracts the report of one compiled layer under `mode`.
    pub fn from_compiled(layer: &CompiledLayer, mode: ServingMode, lanes: usize) -> LayerReport {
        let stats = layer.stats();
        LayerReport {
            name: layer.name().to_string(),
            gates: stats.gates,
            depth: stats.depth,
            mfgs_before: stats.mfgs_before_merge,
            mfgs_after: stats.mfgs,
            queue_depth: stats.queue_depth,
            latency_clk: stats.clock_cycles,
            ii_clk: stats.steady_clock_cycles,
            occupancy: layer.flow().occupancy(),
            passes_per_image: layer.passes_per_image(mode, lanes),
            cycles_per_image: layer.cycles_per_image(mode, lanes),
        }
    }
}

/// Whole-model evaluation result.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Model name.
    pub model: String,
    /// Per-layer reports.
    pub layers: Vec<LayerReport>,
    /// Total clock cycles per image.
    pub total_cycles_per_image: f64,
    /// Frames per second at the configuration's clock.
    pub fps: f64,
    /// Machine configuration used.
    pub config: LpuConfig,
}

impl ModelReport {
    /// Derives the full report from a compiled model under `mode`.
    pub fn from_compiled(compiled: &CompiledModel, mode: ServingMode) -> ModelReport {
        let config = *compiled.config();
        let lanes = config.operand_bits();
        let layers: Vec<LayerReport> = compiled
            .layers()
            .iter()
            .map(|l| LayerReport::from_compiled(l, mode, lanes))
            .collect();
        ModelReport {
            model: compiled.name().to_string(),
            layers,
            total_cycles_per_image: compiled.cycles_per_image(mode),
            fps: compiled.fps(mode),
            config,
        }
    }

    /// Total MFGs across layers before merging.
    pub fn mfgs_before(&self) -> usize {
        self.layers.iter().map(|l| l.mfgs_before).sum()
    }

    /// Total MFGs across layers after merging.
    pub fn mfgs_after(&self) -> usize {
        self.layers.iter().map(|l| l.mfgs_after).sum()
    }
}

/// Workload defaults for the Table II / Fig 7-9 benches: NullaNet-Tiny
/// style bounded fan-in (6 inputs per neuron, exact truth-table
/// extraction) and blocks of up to 256 neurons so merged MFGs fill the
/// LPVs densely.
pub fn bench_workload_options() -> WorkloadOptions {
    WorkloadOptions {
        block_neurons: 256,
        max_fanin: 6,
        exact_fanin: 10,
        isf_samples: 48,
        seed: 2023,
    }
}

/// Compiles a zoo model's workloads into one serving artifact.
///
/// # Panics
///
/// Panics if compilation fails (bench workloads are all schedulable).
pub fn compile_model(
    model: &ModelShape,
    config: &LpuConfig,
    wl: &WorkloadOptions,
    merge: bool,
) -> CompiledModel {
    let options = FlowOptions {
        merge,
        ..Default::default()
    };
    CompiledModel::compile(model.name, model_specs(model, wl), config, &options)
        .unwrap_or_else(|e| panic!("model {} failed to compile: {e}", model.name))
}

/// Compiles one layer workload and derives its per-image cost.
///
/// # Panics
///
/// Panics if compilation fails (bench workloads are all schedulable).
pub fn evaluate_layer(workload: &LayerWorkload, config: &LpuConfig, merge: bool) -> LayerReport {
    let flow = Flow::builder(&workload.netlist)
        .config(*config)
        .merge(merge)
        .compile()
        .unwrap_or_else(|e| panic!("layer {} failed to compile: {e}", workload.name));
    let lanes = config.operand_bits();
    let ii_clk = flow.stats.steady_clock_cycles;
    let passes = workload.passes_per_image(lanes);
    LayerReport {
        name: workload.name.clone(),
        gates: flow.stats.gates,
        depth: flow.stats.depth,
        mfgs_before: flow.stats.mfgs_before_merge,
        mfgs_after: flow.stats.mfgs,
        queue_depth: flow.stats.queue_depth,
        latency_clk: flow.stats.clock_cycles,
        ii_clk,
        occupancy: flow.occupancy(),
        passes_per_image: passes,
        cycles_per_image: ii_clk as f64 * passes,
    }
}

/// Evaluates a whole model on the LPU in batched steady state (the Table
/// II deployment).
pub fn evaluate_model(
    model: &ModelShape,
    config: &LpuConfig,
    wl: &WorkloadOptions,
    merge: bool,
) -> ModelReport {
    ModelReport::from_compiled(
        &compile_model(model, config, wl, merge),
        ServingMode::Throughput,
    )
}

/// Evaluates a model in *latency* (single-stream) mode: one sample in
/// flight, each block pass costs its full fill+drain latency, and blocks
/// run sequentially. This matches the deployment of the Table III
/// extreme-throughput tasks, where a detector processes one event at a
/// time (LogicNets streams one sample per clock; the LPU runs one program
/// pass per sample).
pub fn evaluate_model_latency(
    model: &ModelShape,
    config: &LpuConfig,
    wl: &WorkloadOptions,
    merge: bool,
) -> ModelReport {
    ModelReport::from_compiled(
        &compile_model(model, config, wl, merge),
        ServingMode::Latency,
    )
}

/// Workload options for the Table III tasks: realistic fan-in (the
/// physics/security nets keep wide first layers; ISF extraction from
/// observed samples, as NullaNet does on real data).
pub fn table3_workload_options() -> WorkloadOptions {
    WorkloadOptions {
        block_neurons: 64,
        max_fanin: 64,
        exact_fanin: 8,
        isf_samples: 96,
        seed: 2023,
    }
}

/// One pipeline pass's compile cost aggregated across all layers of a
/// [`CompiledModel`] (the whole-model view of the per-flow
/// [`lbnn_core::CompileReport`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PassTiming {
    /// Pass name (`optimize`, `balance`, …, `codegen`).
    pub name: String,
    /// Total wall time across layers, in microseconds.
    pub total_us: f64,
    /// Layers whose report recorded this pass.
    pub layers: usize,
}

/// Aggregates per-pass compile wall time across a model's layers, in
/// pipeline pass order.
pub fn compile_pass_timings(model: &CompiledModel) -> Vec<PassTiming> {
    let mut totals: Vec<PassTiming> = Vec::new();
    for layer in model.layers() {
        for pass in &layer.report().passes {
            match totals.iter_mut().find(|t| t.name == pass.name) {
                Some(t) => {
                    t.total_us += pass.wall_us;
                    t.layers += 1;
                }
                None => totals.push(PassTiming {
                    name: pass.name.clone(),
                    total_us: pass.wall_us,
                    layers: 1,
                }),
            }
        }
    }
    totals
}

/// Prints the per-pass compile-time breakdown of a model — the table
/// binaries' window into where whole-model compile time goes.
pub fn print_compile_pass_timings(model: &CompiledModel) {
    let timings = compile_pass_timings(model);
    let total: f64 = timings.iter().map(|t| t.total_us).sum();
    println!(
        "Compile pass timings, {} ({} layers, total {:.1} ms):",
        model.name(),
        model.layers().len(),
        total / 1e3
    );
    for t in &timings {
        let share = if total > 0.0 {
            100.0 * t.total_us / total
        } else {
            0.0
        };
        println!(
            "  {:<9} {:>10.1} us  ({share:>4.1}% across {} layer compiles)",
            t.name, t.total_us, t.layers
        );
    }
}

/// Formats an FPS value the way the paper's tables do (`0.12K`,
/// `103.99K`, `8.39M`).
pub fn fmt_fps(fps: f64) -> String {
    if fps >= 1e6 {
        format!("{:.2}M", fps / 1e6)
    } else if fps >= 1e3 {
        format!("{:.2}K", fps / 1e3)
    } else {
        format!("{fps:.2}")
    }
}

/// Formats an optional FPS cell (dash for `None`, like the paper).
pub fn fmt_fps_opt(fps: Option<f64>) -> String {
    fps.map_or_else(|| "-".to_string(), fmt_fps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbnn_models::zoo;

    #[test]
    fn fmt_matches_paper_style() {
        assert_eq!(fmt_fps(103_990.0), "103.99K");
        assert_eq!(fmt_fps(8_390_000.0), "8.39M");
        assert_eq!(fmt_fps(120.0), "120.00");
        assert_eq!(fmt_fps_opt(None), "-");
    }

    #[test]
    fn small_model_evaluates() {
        let model = zoo::jsc_m();
        let config = LpuConfig::new(16, 4);
        let report = evaluate_model(&model, &config, &bench_workload_options(), true);
        assert_eq!(report.layers.len(), model.layers.len());
        assert!(report.fps > 0.0);
        assert!(report.total_cycles_per_image > 0.0);
        for layer in &report.layers {
            assert!(layer.occupancy > 0.0 && layer.occupancy <= 1.0);
            assert!(layer.ii_clk <= layer.latency_clk);
        }
    }

    #[test]
    fn model_report_agrees_with_per_layer_evaluation() {
        // The CompiledModel path must reproduce exactly what per-layer
        // compilation computed before the serving API existed.
        let model = zoo::jsc_m();
        let config = LpuConfig::new(16, 4);
        let wl = bench_workload_options();
        let report = evaluate_model(&model, &config, &wl, true);
        let workloads = lbnn_models::workload::model_workloads(&model, &wl);
        for (layer, workload) in report.layers.iter().zip(&workloads) {
            let solo = evaluate_layer(workload, &config, true);
            assert_eq!(layer.gates, solo.gates);
            assert_eq!(layer.ii_clk, solo.ii_clk);
            assert_eq!(layer.latency_clk, solo.latency_clk);
            assert_eq!(layer.cycles_per_image, solo.cycles_per_image);
        }
    }

    #[test]
    fn merging_improves_or_matches_throughput() {
        let model = zoo::jsc_m();
        let config = LpuConfig::new(16, 4);
        let wl = bench_workload_options();
        let merged = evaluate_model(&model, &config, &wl, true);
        let unmerged = evaluate_model(&model, &config, &wl, false);
        assert!(merged.mfgs_after() <= unmerged.mfgs_after());
        assert!(merged.fps >= unmerged.fps * 0.95, "merging should not hurt");
    }
}

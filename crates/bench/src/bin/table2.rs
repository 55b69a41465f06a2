//! Regenerates **Table II**: FPS of the high-accuracy models across the
//! MAC / NullaDSP / XNOR baselines and the LPU (LPV count 16).
//!
//! Baseline columns show both the analytic model of `lbnn-baselines`
//! (calibrated on the VGG16 row) and the value the paper quotes; the LPU
//! column is measured by compiling the FFCL workloads and counting cycles
//! in the cycle-accurate simulator.

use lbnn_baselines::reported::{table2_fps, Impl2};
use lbnn_baselines::{MacAccelerator, NullaDsp, XnorAccelerator};
use lbnn_bench::{
    bench_workload_options, compile_model, evaluate_model, fmt_fps, fmt_fps_opt,
    print_compile_pass_timings, ModelReport,
};
use lbnn_core::lpu::LpuConfig;
use lbnn_core::{CompiledModel, ServingMode};
use lbnn_models::zoo;

fn main() {
    let config = LpuConfig::paper_default();
    let wl = bench_workload_options();
    let mac = MacAccelerator::default();
    let dsp = NullaDsp::default();
    let xnor = XnorAccelerator::default();

    println!("Table II: FPS, high-accuracy models, LPV count = 16");
    println!("(columns: analytic model / paper-quoted; LPU: simulated / paper)");
    println!();
    println!(
        "{:<14} {:>17} {:>17} {:>17} {:>21}",
        "model", "MAC", "NullaDSP", "XNOR", "LPU"
    );
    // LeNet-5's compiled artifact is kept for the pass-timing section at
    // the end, so the model is not compiled a second time just for that.
    let mut lenet: Option<CompiledModel> = None;
    for model in [
        zoo::vgg16_layers_2_13(),
        zoo::lenet5(),
        zoo::mlpmixer_s4(),
        zoo::mlpmixer_b4(),
    ] {
        // Model names in the paper's tables.
        let paper_name = match model.name {
            "VGG16[2:13]" => "VGG16",
            other => other,
        };
        let lpu = if model.name == "LENET5" {
            let compiled = compile_model(&model, &config, &wl, true);
            let report = ModelReport::from_compiled(&compiled, ServingMode::Throughput);
            lenet = Some(compiled);
            report
        } else {
            evaluate_model(&model, &config, &wl, true)
        };
        let row = |m: f64, p: Option<f64>| format!("{} / {}", fmt_fps(m), fmt_fps_opt(p));
        // NullaDSP has no mixer rows in the paper (dash).
        let dsp_model = if paper_name.starts_with("MLPMixer") {
            None
        } else {
            Some(dsp.fps(&model))
        };
        println!(
            "{:<14} {:>17} {:>17} {:>17} {:>21}",
            paper_name,
            row(mac.fps(&model), table2_fps(paper_name, Impl2::Mac)),
            match dsp_model {
                Some(v) => row(v, table2_fps(paper_name, Impl2::NullaDsp)),
                None => "- / -".to_string(),
            },
            row(xnor.fps(&model), table2_fps(paper_name, Impl2::Xnor)),
            row(lpu.fps, table2_fps(paper_name, Impl2::Lpu)),
        );
    }
    println!();
    println!("Shape checks (paper's headline: LPU wins every Table II row):");
    for model in [zoo::vgg16_layers_2_13(), zoo::lenet5()] {
        let paper_name = if model.name == "VGG16[2:13]" {
            "VGG16"
        } else {
            model.name
        };
        let lpu = evaluate_model(&model, &config, &wl, true);
        println!(
            "  {paper_name}: LPU/XNOR = {:.1}x (paper {:.1}x), LPU/MAC = {:.0}x (paper {:.0}x)",
            lpu.fps / XnorAccelerator::default().fps(&model),
            table2_fps(paper_name, Impl2::Lpu).unwrap()
                / table2_fps(paper_name, Impl2::Xnor).unwrap(),
            lpu.fps / MacAccelerator::default().fps(&model),
            table2_fps(paper_name, Impl2::Lpu).unwrap()
                / table2_fps(paper_name, Impl2::Mac).unwrap(),
        );
    }

    // Where whole-model compile time goes, per pipeline pass. Reuses the
    // LeNet-5 artifact compiled for the table.
    println!();
    print_compile_pass_timings(lenet.as_ref().expect("LeNet-5 compiled above"));
}

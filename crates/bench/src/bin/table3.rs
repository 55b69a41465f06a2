//! Regenerates **Table III**: FPS of the extreme-throughput models
//! (network intrusion detection, jet substructure classification).
//!
//! The LPU runs these in single-stream latency mode (one event in
//! flight); LogicNets' hardened pipelines accept one sample per clock and
//! win by orders of magnitude — the paper's trade-off: raw speed vs
//! field-reprogrammability.

use lbnn_baselines::reported::{table3_fps, Impl3};
use lbnn_baselines::LogicNets;
use lbnn_bench::{
    compile_model, evaluate_model_latency, fmt_fps, fmt_fps_opt, print_compile_pass_timings,
    table3_workload_options, ModelReport,
};
use lbnn_core::lpu::LpuConfig;
use lbnn_core::{CompiledModel, ServingMode};
use lbnn_models::zoo;

fn main() {
    let config = LpuConfig::paper_default();
    let wl = table3_workload_options();
    let ln = LogicNets::default();

    println!("Table III: FPS, high-throughput models, LPV count = 16");
    println!("(columns: analytic model / paper-quoted; LPU: simulated / paper)");
    println!();
    println!(
        "{:<8} {:>21} {:>14} {:>12} {:>19}",
        "model", "LogicNets", "Google+CERN", "FINN-RTL", "LPU"
    );
    // JSC-M's compiled artifact is kept for the pass-timing section at
    // the end, so the model is not compiled an extra time just for that.
    let mut jsc_m: Option<CompiledModel> = None;
    for model in [zoo::nid(), zoo::jsc_m(), zoo::jsc_l()] {
        let lpu = if model.name == "JSC-M" {
            let compiled = compile_model(&model, &config, &wl, true);
            let report = ModelReport::from_compiled(&compiled, ServingMode::Latency);
            jsc_m = Some(compiled);
            report
        } else {
            evaluate_model_latency(&model, &config, &wl, true)
        };
        println!(
            "{:<8} {:>21} {:>14} {:>12} {:>19}",
            model.name,
            format!(
                "{} / {}",
                fmt_fps(ln.fps(&model)),
                fmt_fps_opt(table3_fps(model.name, Impl3::LogicNets))
            ),
            fmt_fps_opt(table3_fps(model.name, Impl3::GoogleCern)),
            fmt_fps_opt(table3_fps(model.name, Impl3::FinnRtl)),
            format!(
                "{} / {}",
                fmt_fps(lpu.fps),
                fmt_fps_opt(table3_fps(model.name, Impl3::Lpu))
            ),
        );
    }
    println!();
    println!("Shape check (the LPU loses Table III; programmability is the point):");
    for model in [zoo::nid(), zoo::jsc_m(), zoo::jsc_l()] {
        let lpu = evaluate_model_latency(&model, &config, &wl, true);
        let ln_fps = ln.fps(&model);
        println!(
            "  {}: LogicNets/LPU = {:.0}x (paper {:.0}x)",
            model.name,
            ln_fps / lpu.fps,
            table3_fps(model.name, Impl3::LogicNets).unwrap()
                / table3_fps(model.name, Impl3::Lpu).unwrap()
        );
    }

    // Per-pass compile cost of a representative detector model — the
    // one-time cost the single-stream serving numbers amortize. Reuses
    // the JSC-M artifact compiled for the table.
    println!();
    print_compile_pass_timings(jsc_m.as_ref().expect("JSC-M compiled above"));
}

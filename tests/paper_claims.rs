//! The paper's headline claims, asserted as integration tests (on reduced
//! workloads so they run in test builds; the full-size numbers are what
//! the bench binaries print).

use lbnn_baselines::{LogicNets, MacAccelerator, NullaDsp, XnorAccelerator};
use lbnn_bench::{evaluate_model, evaluate_model_latency};
use lbnn_core::lpu::LpuConfig;
use lbnn_models::workload::WorkloadOptions;
use lbnn_models::zoo;

fn fast_options() -> WorkloadOptions {
    WorkloadOptions {
        block_neurons: 32,
        max_fanin: 6,
        exact_fanin: 8,
        isf_samples: 32,
        seed: 2023,
    }
}

/// Table II shape: the LPU out-runs every baseline on a high-accuracy
/// model (JSC-M stands in for the conv giants at test speed; the bench
/// binaries check the full set).
#[test]
fn lpu_wins_table2_shape() {
    let model = zoo::jsc_m();
    let config = LpuConfig::paper_default();
    let lpu = evaluate_model(&model, &config, &fast_options(), true);
    assert!(lpu.fps > MacAccelerator::default().fps(&model) * 10.0);
    assert!(lpu.fps > NullaDsp::default().fps(&model) * 10.0);
    assert!(lpu.fps > XnorAccelerator::default().fps(&model) * 10.0);
}

/// Table III shape: hardened LogicNets pipelines beat the programmable
/// LPU by orders of magnitude on the extreme-throughput tasks.
#[test]
fn logicnets_wins_table3_shape() {
    let model = zoo::nid();
    let config = LpuConfig::paper_default();
    let lpu = evaluate_model_latency(&model, &config, &fast_options(), true);
    let ln = LogicNets::default().fps(&model);
    assert!(
        ln > lpu.fps * 50.0,
        "LogicNets {ln} must dwarf the LPU {}",
        lpu.fps
    );
}

/// Fig 8 shape: merging improves throughput substantially and reduces the
/// MFG count, with the two effects strongly correlated (the paper's
/// central Fig 7 observation).
#[test]
fn merging_gains_track_mfg_reduction() {
    let model = zoo::jsc_m();
    let config = LpuConfig::paper_default();
    let wl = fast_options();
    let merged = evaluate_model(&model, &config, &wl, true);
    let unmerged = evaluate_model(&model, &config, &wl, false);
    let fps_gain = merged.fps / unmerged.fps;
    let mfg_gain = unmerged.mfgs_after() as f64 / merged.mfgs_after() as f64;
    assert!(fps_gain > 2.0, "merging gain {fps_gain}");
    assert!(mfg_gain > 2.0, "MFG reduction {mfg_gain}");
    let ratio = fps_gain / mfg_gain;
    assert!(
        (0.4..2.5).contains(&ratio),
        "throughput should track MFG count: {fps_gain} vs {mfg_gain}"
    );
}

/// Fig 9 shape: throughput is monotone non-decreasing in the LPV count
/// and saturates (the last doubling buys little).
#[test]
fn lpv_scaling_saturates() {
    let model = zoo::jsc_m();
    let wl = fast_options();
    let mut fps = Vec::new();
    for n in [1usize, 2, 4, 8, 16] {
        let report = evaluate_model(&model, &LpuConfig::new(64, n), &wl, true);
        fps.push(report.fps);
    }
    for pair in fps.windows(2) {
        assert!(
            pair[1] >= pair[0] * 0.9,
            "throughput must not collapse with more LPVs: {fps:?}"
        );
    }
    let early_gain = fps[2] / fps[0]; // 1 -> 4 LPVs
    let late_gain = fps[4] / fps[3]; // 8 -> 16 LPVs
    assert!(
        early_gain > late_gain,
        "scaling must saturate: early {early_gain} vs late {late_gain}"
    );
}

/// Table I: the resource model stays inside the ±20% band (full assertion
/// set lives in the lpu::resource unit tests; this is the integration
/// smoke).
#[test]
fn table1_resource_band() {
    let r = lbnn_core::lpu::resource::estimate(&LpuConfig::paper_default());
    assert!((r.ff as f64 - 478e3).abs() / 478e3 < 0.2);
    assert!((r.lut as f64 - 433e3).abs() / 433e3 < 0.2);
    assert!((r.bram_kb as f64 - 12_240.0).abs() / 12_240.0 < 0.2);
}

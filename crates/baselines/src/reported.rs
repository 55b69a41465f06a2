//! FPS values as printed in the paper (Tables II and III).
//!
//! The paper's baseline numbers are themselves quoted from prior art
//! (\[12\], \[16\], \[17\], \[8\], \[1\]); keeping them verbatim lets every bench
//! print *paper vs reproduction* rows and lets the tests check the
//! reproduced ratios against the claimed ones.

/// Implementations of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Impl2 {
    /// MAC-array accelerator (AutoSA-style, \[14\] improved per \[12\]).
    Mac,
    /// NullaDSP: FFCL mapped onto DSP blocks (\[12\]).
    NullaDsp,
    /// XNOR/FINN-based accelerator (\[16\] improved by packing).
    Xnor,
    /// The paper's logic processor (LPV count 16).
    Lpu,
}

/// Implementations of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Impl3 {
    /// LogicNets \[17\].
    LogicNets,
    /// Google + CERN optimized implementation \[8\].
    GoogleCern,
    /// FINN MVU RTL implementation \[1\].
    FinnRtl,
    /// The paper's logic processor (LPV count 16).
    Lpu,
}

/// Table II (FPS), `None` where the paper prints a dash.
pub fn table2_fps(model: &str, imp: Impl2) -> Option<f64> {
    let v = match (model, imp) {
        ("VGG16", Impl2::Mac) => 0.12e3,
        ("VGG16", Impl2::NullaDsp) => 0.33e3,
        ("VGG16", Impl2::Xnor) => 0.83e3,
        ("VGG16", Impl2::Lpu) => 103.99e3,
        ("LENET5", Impl2::Mac) => 0.48e3,
        ("LENET5", Impl2::NullaDsp) => 4.12e3,
        ("LENET5", Impl2::Xnor) => 3.31e3,
        ("LENET5", Impl2::Lpu) => 1035.60e3,
        ("MLPMixer-S/4", Impl2::Mac) => 4.17e3,
        ("MLPMixer-S/4", Impl2::Xnor) => 50.00e3,
        ("MLPMixer-S/4", Impl2::Lpu) => 179.23e3,
        ("MLPMixer-B/4", Impl2::Mac) => 0.88e3,
        ("MLPMixer-B/4", Impl2::Xnor) => 16.67e3,
        ("MLPMixer-B/4", Impl2::Lpu) => 102.01e3,
        _ => return None,
    };
    Some(v)
}

/// Table III (FPS), `None` where the paper prints a dash.
pub fn table3_fps(model: &str, imp: Impl3) -> Option<f64> {
    let v = match (model, imp) {
        ("NID", Impl3::LogicNets) => 95.24e6,
        ("NID", Impl3::FinnRtl) => 49.58e6,
        ("NID", Impl3::Lpu) => 8.39e6,
        ("JSC-M", Impl3::LogicNets) => 2995.0e6,
        ("JSC-M", Impl3::Lpu) => 0.69e6,
        ("JSC-L", Impl3::LogicNets) => 76.92e6,
        ("JSC-L", Impl3::GoogleCern) => 76.92e6,
        ("JSC-L", Impl3::Lpu) => 0.21e6,
        _ => return None,
    };
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_known_cells() {
        assert_eq!(table2_fps("VGG16", Impl2::Lpu), Some(103_990.0));
        assert_eq!(table2_fps("MLPMixer-S/4", Impl2::NullaDsp), None, "dash");
        assert_eq!(table2_fps("LENET5", Impl2::Mac), Some(480.0));
    }

    #[test]
    fn table3_known_cells() {
        assert_eq!(table3_fps("JSC-M", Impl3::LogicNets), Some(2.995e9));
        assert_eq!(table3_fps("NID", Impl3::GoogleCern), None, "dash");
        assert_eq!(table3_fps("JSC-L", Impl3::Lpu), Some(0.21e6));
    }

    #[test]
    fn lpu_loses_table3_wins_table2() {
        // The paper's shape: the programmable LPU dominates Table II but
        // is orders slower than hardwired LogicNets in Table III.
        for model in ["VGG16", "LENET5", "MLPMixer-S/4", "MLPMixer-B/4"] {
            let lpu = table2_fps(model, Impl2::Lpu).unwrap();
            for imp in [Impl2::Mac, Impl2::NullaDsp, Impl2::Xnor] {
                if let Some(other) = table2_fps(model, imp) {
                    assert!(lpu > other, "{model}: LPU must win Table II");
                }
            }
        }
        for model in ["NID", "JSC-M", "JSC-L"] {
            let lpu = table3_fps(model, Impl3::Lpu).unwrap();
            let ln = table3_fps(model, Impl3::LogicNets).unwrap();
            assert!(ln > lpu, "{model}: LogicNets wins Table III");
        }
    }
}

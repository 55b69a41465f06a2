//! Throughput accounting: compute cycles → frames per second.
//!
//! The LPU processes `2m` Boolean samples per pass (each operand bit is an
//! independent patch or image, §IV), so the throughput of one compiled
//! FFCL block is `freq · 2m / clock_cycles`. A neural network is a
//! sequence of FFCL blocks (one or more per layer) executed back to back;
//! its FPS divides the batch by the summed cycles.

/// Queue-depth and per-request latency statistics of a serving run,
/// measured by the [`Runtime`](crate::runtime::Runtime) micro-batcher
/// and reported by [`Runtime::stats`](crate::runtime::Runtime::stats):
/// the peak number of in-flight requests and the distribution of
/// submit→response latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueStats {
    /// Peak number of simultaneously in-flight requests (submitted but
    /// not yet resolved).
    pub peak_depth: usize,
    /// Median submit→response latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile submit→response latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile submit→response latency in microseconds.
    pub p99_us: f64,
}

/// Throughput of a single compiled block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Clock cycles for one pass.
    pub clock_cycles: u64,
    /// Samples processed per pass (`2m`).
    pub batch: usize,
    /// Clock frequency in MHz.
    pub freq_mhz: f64,
    /// Frames (samples) per second.
    pub fps: f64,
    /// Latency of one pass in microseconds.
    pub latency_us: f64,
}

/// Computes FPS for a block: `freq · batch / cycles`.
///
/// # Panics
///
/// Panics if `clock_cycles == 0`.
pub fn block_throughput(clock_cycles: u64, batch: usize, freq_mhz: f64) -> ThroughputReport {
    assert!(clock_cycles > 0, "a pass takes at least one cycle");
    let seconds = clock_cycles as f64 / (freq_mhz * 1e6);
    ThroughputReport {
        clock_cycles,
        batch,
        freq_mhz,
        fps: batch as f64 / seconds,
        latency_us: seconds * 1e6,
    }
}

/// Throughput of a model composed of sequential blocks (layers): the
/// batch flows through all blocks, so cycles add up.
///
/// # Panics
///
/// Panics if `layer_cycles` is empty or sums to zero.
pub fn model_throughput(layer_cycles: &[u64], batch: usize, freq_mhz: f64) -> ThroughputReport {
    assert!(!layer_cycles.is_empty(), "a model has at least one layer");
    let total: u64 = layer_cycles.iter().sum();
    block_throughput(total, batch, freq_mhz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fps_formula() {
        // 333 MHz, batch 128, 1000 cycles: 128 / (1000/333e6) ≈ 42.6 M FPS.
        let r = block_throughput(1000, 128, 333.0);
        assert!(
            (r.fps - 42.624e6).abs() / 42.624e6 < 1e-3,
            "fps = {}",
            r.fps
        );
        assert!((r.latency_us - 3.003).abs() < 0.01);
    }

    #[test]
    fn model_sums_layers() {
        let a = model_throughput(&[100, 200, 300], 128, 333.0);
        let b = block_throughput(600, 128, 333.0);
        assert_eq!(a.fps, b.fps);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_cycles_rejected() {
        let _ = block_throughput(0, 128, 333.0);
    }
}

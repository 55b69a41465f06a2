//! Order statistics for the harness: percentiles over latency samples
//! and the quartiles of per-window throughputs.

/// The `q`-quantile (`0.0..=1.0`) of `sorted`, by linear interpolation
/// between the two closest ranks. `sorted` must be ascending and
/// non-empty.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `values` ascending in place (all values must be finite).
fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// The `q`-quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    quantile_sorted(&sorted, q)
}

/// The median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Lower quartile, median and upper quartile of the per-window
/// throughputs of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowQuartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Quartiles of per-window throughputs, printed beside the throughput
/// the harness reports (the upper decile, `harness::Phase::throughput`)
/// so a program, or a host, that is erratic still shows: interference
/// only ever slows a window, so the further these fall below the
/// reported value, the more of the run was disturbed.
pub fn window_quartiles(per_window: &[f64]) -> WindowQuartiles {
    let mut sorted = per_window.to_vec();
    sort(&mut sorted);
    WindowQuartiles {
        q1: quantile_sorted(&sorted, 0.25),
        median: quantile_sorted(&sorted, 0.5),
        q3: quantile_sorted(&sorted, 0.75),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn window_quartiles_ignore_a_few_slow_windows() {
        // 17 steady windows and 3 that a noisy neighbour halved.
        let mut windows = vec![100.0; 17];
        windows.extend([50.0, 55.0, 60.0]);
        let q = window_quartiles(&windows);
        assert_eq!(q.q3, 100.0);
        assert_eq!(q.median, 100.0);
        assert_eq!(q.q1, 100.0);
        assert_eq!(quantile(&windows, 0.9), 100.0);
        // An erratic program shows in the lower quartile.
        let erratic: Vec<f64> = (0..20)
            .map(|i| if i % 2 == 0 { 100.0 } else { 40.0 })
            .collect();
        let q = window_quartiles(&erratic);
        assert_eq!(q.q3, 100.0);
        assert_eq!(q.q1, 40.0);
    }
}

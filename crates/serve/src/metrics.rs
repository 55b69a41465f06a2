//! Lock-free serving metrics and their text renderings.
//!
//! Two layers of counters, all plain atomics so the hot path pays a
//! handful of relaxed increments per request:
//!
//! * [`ModelMetrics`] — per registry entry: requests by outcome
//!   (ok / shed / bad-request / failed). Latency percentiles are *not*
//!   duplicated here — the runtime already counts the submit→response
//!   span of one request in 31 in a fixed log-bucket histogram
//!   ([`QueueStats`](lbnn_core::QueueStats)); the renderers pull from
//!   `Runtime::stats()` at scrape time, which reads it in place.
//! * [`ServerMetrics`] — per listener: connections by protocol,
//!   requests by endpoint family, protocol errors.
//!
//! `GET /metrics` renders everything in the flat
//! `metric{label="value"} N` text shape scrapers expect; `GET /models`
//! renders a one-line-per-model human summary.

use std::sync::atomic::{AtomicU64, Ordering};

use lbnn_core::RuntimeStats;

/// Per-model request counters. One instance lives in each
/// [`ModelEntry`](crate::ModelEntry), shared by every connection thread.
#[derive(Debug, Default)]
pub struct ModelMetrics {
    /// Requests admitted and answered with output bits.
    pub ok: AtomicU64,
    /// Requests refused by admission control.
    pub shed: AtomicU64,
    /// Requests rejected before submission (arity, malformed input).
    pub bad_request: AtomicU64,
    /// Requests admitted but failed inside the engine.
    pub failed: AtomicU64,
}

impl ModelMetrics {
    /// Point-in-time copy of all counters: (ok, shed, bad_request, failed).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.ok.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
            self.bad_request.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
        )
    }

    /// Total requests seen, regardless of outcome.
    pub fn total(&self) -> u64 {
        let (ok, shed, bad, failed) = self.snapshot();
        ok + shed + bad + failed
    }
}

/// Per-listener counters, shared across all connection threads.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted that spoke HTTP.
    pub http_connections: AtomicU64,
    /// Connections accepted that spoke the binary protocol.
    pub binary_connections: AtomicU64,
    /// Connections refused because the connection cap was reached.
    pub connections_refused: AtomicU64,
    /// HTTP requests answered (any status).
    pub http_requests: AtomicU64,
    /// Binary frames answered (any status).
    pub binary_requests: AtomicU64,
    /// Requests that failed to parse at the protocol layer.
    pub protocol_errors: AtomicU64,
}

/// Render the `GET /metrics` scrape body.
///
/// `models` supplies, per model: its `name@version` id, its counters,
/// and the runtime's current [`RuntimeStats`].
pub fn render_metrics(
    server: &ServerMetrics,
    models: &[(String, &ModelMetrics, RuntimeStats)],
) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(format!(
        "lbnn_connections_total{{protocol=\"http\"}} {}",
        server.http_connections.load(Ordering::Relaxed)
    ));
    line(format!(
        "lbnn_connections_total{{protocol=\"binary\"}} {}",
        server.binary_connections.load(Ordering::Relaxed)
    ));
    line(format!(
        "lbnn_connections_refused_total {}",
        server.connections_refused.load(Ordering::Relaxed)
    ));
    line(format!(
        "lbnn_requests_total{{protocol=\"http\"}} {}",
        server.http_requests.load(Ordering::Relaxed)
    ));
    line(format!(
        "lbnn_requests_total{{protocol=\"binary\"}} {}",
        server.binary_requests.load(Ordering::Relaxed)
    ));
    line(format!(
        "lbnn_protocol_errors_total {}",
        server.protocol_errors.load(Ordering::Relaxed)
    ));
    for (id, metrics, stats) in models {
        let (ok, shed, bad, failed) = metrics.snapshot();
        for (outcome, n) in [
            ("ok", ok),
            ("shed", shed),
            ("bad_request", bad),
            ("failed", failed),
        ] {
            line(format!(
                "lbnn_model_requests_total{{model=\"{id}\",outcome=\"{outcome}\"}} {n}"
            ));
        }
        line(format!(
            "lbnn_model_in_flight{{model=\"{id}\"}} {}",
            stats.in_flight
        ));
        line(format!(
            "lbnn_model_micro_batches_total{{model=\"{id}\"}} {}",
            stats.micro_batches
        ));
        line(format!(
            "lbnn_model_serving_version{{model=\"{id}\"}} {}",
            stats.version
        ));
        line(format!(
            "lbnn_model_swaps_total{{model=\"{id}\"}} {}",
            stats.swaps
        ));
        for (q, v) in [
            ("0.5", stats.queue.p50_us),
            ("0.95", stats.queue.p95_us),
            ("0.99", stats.queue.p99_us),
        ] {
            line(format!(
                "lbnn_model_latency_us{{model=\"{id}\",quantile=\"{q}\"}} {v}"
            ));
        }
    }
    out
}

/// Render the `GET /models` listing: one line per model.
///
/// `models` supplies `(id, inputs, outputs, backend, metrics, stats)`.
pub fn render_models(
    models: &[(String, usize, usize, String, &ModelMetrics, RuntimeStats)],
) -> String {
    let mut out = String::new();
    for (id, inputs, outputs, backend, metrics, stats) in models {
        let (ok, shed, _, _) = metrics.snapshot();
        out.push_str(&format!(
            "{id} inputs={inputs} outputs={outputs} backend={backend} \
             requests={ok} shed={shed} in_flight={} p99_us={} \
             serving_version={} swaps={}\n",
            stats.in_flight, stats.queue.p99_us, stats.version, stats.swaps,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbnn_core::QueueStats;

    fn zero_stats() -> RuntimeStats {
        RuntimeStats {
            requests: 0,
            micro_batches: 0,
            full_flushes: 0,
            deadline_flushes: 0,
            mean_lanes_per_batch: 0.0,
            shed: 0,
            in_flight: 0,
            version: 0,
            swaps: 0,
            completed_current: 0,
            completed_prior: 0,
            queue: QueueStats {
                peak_depth: 0,
                p50_us: 0.0,
                p95_us: 0.0,
                p99_us: 0.0,
            },
            elapsed_us: 0.0,
            requests_per_sec: 0.0,
        }
    }

    #[test]
    fn model_metrics_snapshot_and_total() {
        let m = ModelMetrics::default();
        m.ok.fetch_add(5, Ordering::Relaxed);
        m.shed.fetch_add(2, Ordering::Relaxed);
        m.bad_request.fetch_add(1, Ordering::Relaxed);
        assert_eq!(m.snapshot(), (5, 2, 1, 0));
        assert_eq!(m.total(), 8);
    }

    #[test]
    fn metrics_rendering_contains_every_series() {
        let server = ServerMetrics::default();
        server.http_requests.fetch_add(3, Ordering::Relaxed);
        let m = ModelMetrics::default();
        m.ok.fetch_add(7, Ordering::Relaxed);
        m.shed.fetch_add(4, Ordering::Relaxed);
        let text = render_metrics(&server, &[("xor@1".into(), &m, zero_stats())]);
        assert!(text.contains("lbnn_requests_total{protocol=\"http\"} 3"));
        assert!(text.contains("lbnn_model_requests_total{model=\"xor@1\",outcome=\"ok\"} 7"));
        assert!(text.contains("lbnn_model_requests_total{model=\"xor@1\",outcome=\"shed\"} 4"));
        assert!(text.contains("lbnn_model_latency_us{model=\"xor@1\",quantile=\"0.99\"}"));
        // Every line is a complete `name{...} value` or `name value` record.
        for line in text.lines() {
            assert!(line.starts_with("lbnn_"), "bad line: {line}");
            assert!(line.rsplit(' ').next().unwrap().parse::<f64>().is_ok());
        }
    }

    #[test]
    fn models_rendering_is_one_line_per_model() {
        let m = ModelMetrics::default();
        let text = render_models(&[
            ("a@1".into(), 4, 2, "scalar".into(), &m, zero_stats()),
            ("b@2".into(), 8, 1, "bitsliced:256".into(), &m, zero_stats()),
        ]);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("a@1 inputs=4 outputs=2 backend=scalar"));
        assert!(text.contains("b@2 inputs=8 outputs=1 backend=bitsliced:256"));
    }
}

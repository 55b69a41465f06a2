//! Open-loop load generator (`lbnn-serve --bench`).
//!
//! Closed-loop benchmarks (send, wait, send) measure the server at
//! whatever rate the server allows — they cannot see queueing collapse,
//! and they suffer coordinated omission: a slow response delays the
//! *next* request, hiding the very latency it caused. This generator is
//! **open-loop**: request send times are scheduled up front from a
//! Poisson process at the target rate, and each request's latency is
//! measured from its *scheduled* time, so time the request spent
//! waiting behind a slow socket counts against the server, as it would
//! for a real independent client.
//!
//! Mechanics: `connections` persistent binary-protocol connections,
//! each with a writer (paces the schedule) and a reader (matches
//! responses to requests in order — the protocol guarantees ordering).
//! Input bits are derived deterministically from the request index, so
//! a run is reproducible given `seed`, and responses can be verified
//! bit-for-bit against the netlist oracle
//! ([`LoadGenOptions::verify_netlist`]).

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use lbnn_netlist::{eval, Lanes, Netlist};

use crate::wire::{self, FrameOutcome, InferRequest, Status};
use crate::ServeError;

/// Configuration of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadGenOptions {
    /// Model spec to request (`name` or `name@version`).
    pub model: String,
    /// Input bits per request (the model's input arity).
    pub num_inputs: usize,
    /// Target aggregate arrival rate, requests per second.
    pub rate: f64,
    /// Total requests across all connections.
    pub requests: usize,
    /// Persistent connections to spread the load over.
    pub connections: usize,
    /// Seed for the arrival process and the request bits.
    pub seed: u64,
    /// When set, every OK response is checked bit-for-bit against this
    /// netlist evaluated on the same inputs (the scalar oracle).
    pub verify_netlist: Option<Netlist>,
}

impl Default for LoadGenOptions {
    fn default() -> Self {
        LoadGenOptions {
            model: String::new(),
            num_inputs: 0,
            rate: 1000.0,
            requests: 1000,
            connections: 4,
            seed: 1,
            verify_netlist: None,
        }
    }
}

/// Results of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadGenReport {
    /// Requests that returned OK.
    pub ok: u64,
    /// Requests the server shed.
    pub shed: u64,
    /// Requests answered with any other status.
    pub errors: u64,
    /// OK responses that mismatched the oracle (0 unless verifying).
    pub mismatches: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Achieved throughput: OK responses per second of wall clock.
    pub achieved_rps: f64,
    /// Over-the-wire latency percentiles in microseconds, measured from
    /// each request's *scheduled* send time (p50, p95, p99).
    pub p50_us: f64,
    /// 95th percentile (same clock).
    pub p95_us: f64,
    /// 99th percentile (same clock).
    pub p99_us: f64,
    /// Worst single latency observed.
    pub max_us: f64,
}

impl std::fmt::Display for LoadGenReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sent {} requests in {:.2}s: {} ok ({:.0} rps), {} shed, {} errors{}",
            self.ok + self.shed + self.errors,
            self.elapsed.as_secs_f64(),
            self.ok,
            self.achieved_rps,
            self.shed,
            self.errors,
            if self.mismatches > 0 {
                format!(", {} ORACLE MISMATCHES", self.mismatches)
            } else {
                String::new()
            }
        )?;
        write!(
            f,
            "latency (from scheduled send): p50={:.0}us p95={:.0}us p99={:.0}us max={:.0}us",
            self.p50_us, self.p95_us, self.p99_us, self.max_us
        )
    }
}

/// xorshift64* — deterministic, dependency-free uniform stream.
fn next_u64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Uniform in (0, 1], never exactly 0 (safe for `ln`).
fn next_unit(state: &mut u64) -> f64 {
    ((next_u64(state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Deterministic input bits for request `index` under `seed`.
pub fn request_bits(seed: u64, index: u64, num_inputs: usize) -> Vec<bool> {
    let mut state = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .wrapping_add(1);
    // Warm the stream so small seeds don't correlate across indices.
    next_u64(&mut state);
    (0..num_inputs)
        .map(|_| next_u64(&mut state) & 1 == 1)
        .collect()
}

/// Evaluate the oracle netlist on one request's bits.
fn oracle_outputs(netlist: &Netlist, bits: &[bool]) -> Option<Vec<bool>> {
    let lanes: Vec<Lanes> = bits.iter().map(|&b| Lanes::from_bools(&[b])).collect();
    let outs = eval::evaluate(netlist, &lanes).ok()?;
    Some(outs.iter().map(|l| l.get(0)).collect())
}

/// Run the load generator against `addr`. Blocks until every request
/// has a response (or a connection fails hard).
pub fn run(addr: SocketAddr, options: &LoadGenOptions) -> Result<LoadGenReport, ServeError> {
    if options.requests == 0 || options.rate <= 0.0 {
        return Err(ServeError::Protocol {
            reason: "load generator needs requests > 0 and rate > 0".into(),
        });
    }
    let connections = options.connections.max(1).min(options.requests);

    // Pre-plan the Poisson schedule: exponential inter-arrivals at the
    // aggregate rate, requests round-robined over connections.
    let mut rng = options.seed ^ 0xD6E8_FEB8_6659_FD93;
    // Avoid a degenerate all-zeros state.
    if rng == 0 {
        rng = 1;
    }
    let mut offsets = Vec::with_capacity(options.requests);
    let mut t = 0.0f64;
    for _ in 0..options.requests {
        t += -next_unit(&mut rng).ln() / options.rate;
        offsets.push(Duration::from_secs_f64(t));
    }
    let mut per_conn: Vec<Vec<(u64, Duration)>> = vec![Vec::new(); connections];
    for (i, &offset) in offsets.iter().enumerate() {
        per_conn[i % connections].push((i as u64, offset));
    }

    let start = Instant::now();
    let mut workers = Vec::new();
    for plan in per_conn {
        let model = options.model.clone();
        let num_inputs = options.num_inputs;
        let seed = options.seed;
        let verify = options.verify_netlist.clone();
        workers.push(std::thread::spawn(move || {
            conn_worker(addr, &model, num_inputs, seed, start, plan, verify.as_ref())
        }));
    }

    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut errors = 0u64;
    let mut mismatches = 0u64;
    let mut latencies: Vec<f64> = Vec::with_capacity(options.requests);
    for worker in workers {
        let outcome = worker.join().map_err(|_| ServeError::Protocol {
            reason: "load generator connection thread panicked".into(),
        })??;
        ok += outcome.ok;
        shed += outcome.shed;
        errors += outcome.errors;
        mismatches += outcome.mismatches;
        latencies.extend(outcome.latencies_us);
    }
    let elapsed = start.elapsed();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        // Nearest-rank on the sorted sample.
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1]
    };
    Ok(LoadGenReport {
        ok,
        shed,
        errors,
        mismatches,
        elapsed,
        achieved_rps: ok as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
        max_us: latencies.last().copied().unwrap_or(0.0),
    })
}

/// What one connection worker brings home.
struct ConnOutcome {
    ok: u64,
    shed: u64,
    errors: u64,
    mismatches: u64,
    latencies_us: Vec<f64>,
}

/// Drive one persistent connection through its share of the schedule.
fn conn_worker(
    addr: SocketAddr,
    model: &str,
    num_inputs: usize,
    seed: u64,
    start: Instant,
    plan: Vec<(u64, Duration)>,
    verify: Option<&Netlist>,
) -> Result<ConnOutcome, ServeError> {
    let io_err = |what: &str, e: std::io::Error| ServeError::Io {
        target: what.to_string(),
        reason: e.to_string(),
    };
    let mut stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    // Each request is one write; it must leave when written, not when
    // the previous one has been acknowledged.
    stream
        .set_nodelay(true)
        .map_err(|e| io_err("set TCP_NODELAY", e))?;
    stream
        .write_all(&wire::MAGIC)
        .map_err(|e| io_err("handshake", e))?;
    let mut reader = stream.try_clone().map_err(|e| io_err("clone socket", e))?;

    // Writer runs inline; the reader thread matches responses in order.
    let reader_plan: Vec<(u64, Duration)> = plan.clone();
    let verify = verify.cloned();
    let reader_thread = std::thread::spawn(move || -> Result<ConnOutcome, ServeError> {
        let mut outcome = ConnOutcome {
            ok: 0,
            shed: 0,
            errors: 0,
            mismatches: 0,
            latencies_us: Vec::with_capacity(reader_plan.len()),
        };
        let mut buf = Vec::new();
        for &(index, scheduled) in &reader_plan {
            let payload = loop {
                match wire::read_frame(&mut reader, &mut buf) {
                    FrameOutcome::Ready(p) => break p,
                    FrameOutcome::NeedMore => continue,
                    FrameOutcome::Closed | FrameOutcome::Bad(_) => {
                        return Err(ServeError::Protocol {
                            reason: "server closed mid-run".into(),
                        });
                    }
                    FrameOutcome::Io(e) => {
                        return Err(ServeError::Io {
                            target: "read response".into(),
                            reason: e.to_string(),
                        });
                    }
                }
            };
            // Latency from the *scheduled* send time: open-loop clock.
            let now = start.elapsed();
            let lat = now.saturating_sub(scheduled).as_secs_f64() * 1e6;
            let resp = wire::decode_response(&payload)
                .map_err(|reason| ServeError::Protocol { reason })?;
            match resp.status {
                Status::Ok => {
                    outcome.ok += 1;
                    outcome.latencies_us.push(lat);
                    if let Some(netlist) = verify.as_ref() {
                        let bits = request_bits(seed, index, num_inputs);
                        match oracle_outputs(netlist, &bits) {
                            Some(expected) if expected == resp.bits => {}
                            _ => outcome.mismatches += 1,
                        }
                    }
                }
                Status::Shed => {
                    outcome.shed += 1;
                    outcome.latencies_us.push(lat);
                }
                _ => outcome.errors += 1,
            }
        }
        Ok(outcome)
    });

    for &(index, scheduled) in &plan {
        // Open loop: pace by the wall clock, never by responses.
        loop {
            let now = start.elapsed();
            if now >= scheduled {
                break;
            }
            std::thread::sleep((scheduled - now).min(Duration::from_millis(5)));
        }
        let req = InferRequest {
            model: model.to_string(),
            bits: request_bits(seed, index, num_inputs),
        };
        wire::write_frame(&mut stream, &wire::encode_request(&req))
            .map_err(|e| io_err("send", e))?;
    }
    reader_thread.join().map_err(|_| ServeError::Protocol {
        reason: "load generator reader thread panicked".into(),
    })?
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_offsets_are_monotone_and_rate_scaled() {
        let mut rng = 42u64;
        let rate = 1000.0;
        let n = 4000;
        let mut t = 0.0;
        let mut last = 0.0;
        for _ in 0..n {
            t += -next_unit(&mut rng).ln() / rate;
            assert!(t > last);
            last = t;
        }
        // Mean inter-arrival should land near 1/rate (law of large numbers).
        let mean = t / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.1 / rate, "mean={mean}");
    }

    #[test]
    fn request_bits_are_deterministic_and_vary_by_index() {
        let a = request_bits(7, 0, 64);
        let b = request_bits(7, 0, 64);
        let c = request_bits(7, 1, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn zero_requests_is_rejected() {
        let options = LoadGenOptions {
            requests: 0,
            ..LoadGenOptions::default()
        };
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(run(addr, &options).is_err());
    }
}

//! The measuring loop shared by every workload: repeated set-up,
//! untimed warm-up, then one closed-loop load thread whose timed
//! operations are cut into short windows, with every output checked
//! outside the timed path.

use std::time::{Duration, Instant};

use crate::stats::{self, WindowQuartiles};
use crate::trace::Tracer;

/// How long one run warms up and measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Wall time of the timed part.
    pub measure: Duration,
    /// Untimed warm-up before it.
    pub warmup: Duration,
    /// Times the workload is set up from scratch; `setup_s` is the
    /// median.
    pub setup_reps: usize,
    /// Scales the repetition counts of the layer probes.
    pub probe_scale: f64,
}

impl Plan {
    /// The plan for `--seconds`: that long timed, after a 1 s warm-up
    /// and three set-ups.
    pub fn full(seconds: f64) -> Plan {
        Plan {
            measure: Duration::from_secs_f64(seconds),
            warmup: Duration::from_secs(1),
            setup_reps: 3,
            probe_scale: 1.0,
        }
    }

    /// `--quick`: same code, same names, numbers not for comparison.
    pub fn quick() -> Plan {
        Plan {
            measure: Duration::from_millis(600),
            warmup: Duration::from_millis(100),
            setup_reps: 1,
            probe_scale: 0.1,
        }
    }
}

/// Time inside timed operations after which a window closes: long
/// enough to average over what the program itself varies in (ten
/// micro-batches of `runtime_saturated`, four calls of the offline
/// workloads), short enough that a run has hundreds of them and a
/// tenth fall into moments the host left alone. A longer operation is a
/// window of its own.
pub const WINDOW_BUSY: Duration = Duration::from_millis(10);

/// Share of a run's windows the estimators rest on: throughput is the
/// value this share of the windows reached or beat, latency the value
/// this share stayed at or below.
pub const QUIET_SHARE: f64 = 0.1;

/// The closed-loop load thread's operation.
pub trait Op {
    /// The timed part: one call (or one chunk of calls) into the system
    /// under test. Returns the units of work it completed.
    fn run(&mut self, tr: &mut Tracer) -> u64;

    /// Untimed: compares what the last `run` produced with the oracle.
    /// Returns `(operations checked, operations that failed)`.
    fn check(&mut self) -> (u64, u64);

    /// Latency samples (µs) the op took itself during `run`, for ops
    /// whose `run` covers many requests. `None` means one `run` is one
    /// operation and its duration is the latency.
    fn take_latencies_us(&mut self) -> Option<Vec<f64>> {
        None
    }

    /// Untimed: completes whatever `run` left in flight.
    fn finish(&mut self) {}
}

/// What the timed windows of one phase recorded.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Throughput of each window in units per second.
    pub per_window: Vec<f64>,
    /// Median latency of each window that took a sample, µs.
    pub window_p50_us: Vec<f64>,
    /// Latency of every timed operation, µs.
    pub latencies_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    /// Throughput of the run: what the best [`QUIET_SHARE`] of its
    /// windows reached. On a shared host interference only ever slows a
    /// window, and it comes in bursts that leave whole windows alone, so
    /// a high quantile of many short windows reads what the program can
    /// do and holds still where the mean, and even the median, follow
    /// the neighbours.
    pub fn throughput(&self) -> f64 {
        stats::quantile(&self.per_window, 1.0 - QUIET_SHARE)
    }

    pub fn quartiles(&self) -> WindowQuartiles {
        stats::window_quartiles(&self.per_window)
    }

    /// Median latency of the run: the mirror image of
    /// [`Phase::throughput`], the level the window medians of the
    /// quietest [`QUIET_SHARE`] of windows stayed at or below.
    pub fn p50_us(&self) -> f64 {
        stats::quantile(&self.window_p50_us, QUIET_SHARE)
    }

    /// The `q`-quantile over every latency sample of the run, host
    /// interference included.
    pub fn pooled_us(&self, q: f64) -> f64 {
        stats::quantile(&self.latencies_us, q)
    }

    /// Closes a window of `units` done in `busy`, whose latency samples
    /// are `latencies_us[first_sample..]`.
    fn close_window(&mut self, units: u64, busy: Duration, first_sample: usize) {
        self.per_window.push(units as f64 / busy.as_secs_f64());
        let samples = &self.latencies_us[first_sample..];
        if !samples.is_empty() {
            self.window_p50_us.push(stats::median(samples));
        }
    }

    /// Appends the windows of `more`.
    fn extend(&mut self, more: Phase) {
        self.per_window.extend(more.per_window);
        self.window_p50_us.extend(more.window_p50_us);
        self.latencies_us.extend(more.latencies_us);
        self.attempted += more.attempted;
        self.failed += more.failed;
    }
}

/// Runs `op` in a closed loop for `duration` of wall time.
///
/// A window's throughput is units over the time spent inside `run`, so
/// the output checks between calls take their share of the wall time but
/// do not distort the number. Operations after the last full window are
/// checked but belong to no window.
pub fn drive(op: &mut dyn Op, tr: &mut Tracer, duration: Duration) -> Phase {
    let mut phase = Phase::default();
    let wall = Instant::now();
    let mut busy = Duration::ZERO;
    let mut units = 0u64;
    let mut first_sample = 0;
    while wall.elapsed() < duration {
        let start = Instant::now();
        let done = op.run(tr);
        let took = start.elapsed();
        busy += took;
        units += done;
        match op.take_latencies_us() {
            Some(samples) => phase.latencies_us.extend(samples),
            None => phase.latencies_us.push(took.as_secs_f64() * 1e6),
        }
        let (attempted, failed) = op.check();
        phase.attempted += attempted;
        phase.failed += failed;
        if busy >= WINDOW_BUSY {
            phase.close_window(units, busy, first_sample);
            busy = Duration::ZERO;
            units = 0;
            first_sample = phase.latencies_us.len();
        }
    }
    if phase.per_window.is_empty() && units > 0 {
        phase.close_window(units, busy, first_sample);
    }
    phase
}

/// A whole run of one workload: the untraced phase every end-to-end
/// metric comes from and, on a traced run, a second phase with the
/// spans on.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub untraced: Phase,
    pub traced: Option<Phase>,
}

/// Stretches a traced run alternates between tracer off and on.
const TRACE_TURNS: u32 = 10;

/// Warm-up, then the timed part. An untraced run spends it all with the
/// tracer off. A traced run alternates: a stretch with the tracer off,
/// a stretch recording into `tr`, so both halves see the same moods of a
/// noisy host and their difference is the tracing overhead.
pub fn measure(op: &mut dyn Op, tr: &mut Tracer, plan: &Plan) -> Measured {
    let mut off = Tracer::off();
    if !plan.warmup.is_zero() {
        drive(op, &mut off, plan.warmup);
    }
    let measured = if tr.enabled() {
        let stretch = plan.measure / (2 * TRACE_TURNS);
        let mut untraced = Phase::default();
        let mut traced = Phase::default();
        for _ in 0..TRACE_TURNS {
            untraced.extend(drive(op, &mut off, stretch));
            traced.extend(drive(op, tr, stretch));
        }
        Measured {
            untraced,
            traced: Some(traced),
        }
    } else {
        Measured {
            untraced: drive(op, &mut off, plan.measure),
            traced: None,
        }
    };
    op.finish();
    measured
}

/// Most set-ups one run makes of a workload that sets up in
/// milliseconds.
const MAX_SETUPS: usize = 15;

/// Builds the workload from scratch at least `reps` times — and, when
/// `reps > 1`, again until the set-ups have taken a second in all or
/// [`MAX_SETUPS`] were made, so a 60 ms set-up gets a median as steady as
/// a 2 s one. Drops every build but the last and returns it with the
/// time each build took.
pub fn timed_setups<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    while times.len() < reps.max(1)
        || (reps > 1 && times.len() < MAX_SETUPS && times.iter().sum::<f64>() < 1.0)
    {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sleeps `pause` per call; every third output is "wrong".
    struct Sleepy {
        pause: Duration,
        calls: u64,
    }

    impl Op for Sleepy {
        fn run(&mut self, tr: &mut Tracer) -> u64 {
            tr.timed("sleepy.call", self.calls, 1, || {
                std::thread::sleep(self.pause)
            });
            self.calls += 1;
            10
        }
        fn check(&mut self) -> (u64, u64) {
            (1, u64::from(self.calls.is_multiple_of(3)))
        }
    }

    fn sleepy(pause_ms: u64) -> Sleepy {
        Sleepy {
            pause: Duration::from_millis(pause_ms),
            calls: 0,
        }
    }

    #[test]
    fn windows_close_on_busy_time_and_count_units_over_it() {
        // 3 ms calls: four to a 10 ms window.
        let mut tr = Tracer::on(Instant::now(), 0);
        let phase = drive(&mut sleepy(3), &mut tr, Duration::from_millis(100));
        assert!(phase.per_window.len() >= 4, "{phase:?}");
        assert_eq!(phase.per_window.len(), phase.window_p50_us.len());
        assert_eq!(phase.latencies_us.len() as u64, phase.attempted);
        assert_eq!(tr.spans().len() as u64, phase.attempted);
        assert_eq!(phase.failed, phase.attempted / 3);
        assert!(phase.p50_us() >= 3000.0 && phase.pooled_us(0.9) >= phase.p50_us());
        // 10 units per ~3 ms call: at most 3334 units/s, and not absurdly less.
        assert!(
            phase.per_window.iter().all(|&w| w <= 3334.0 && w > 300.0),
            "{phase:?}"
        );
        assert!(phase.throughput() >= phase.quartiles().median);

        // An operation longer than the window is a window of its own, and
        // a run shorter than one window still reports one.
        let long = drive(
            &mut sleepy(15),
            &mut Tracer::off(),
            Duration::from_millis(60),
        );
        assert_eq!(long.per_window.len() as u64, long.attempted);
        let short = drive(&mut sleepy(2), &mut Tracer::off(), Duration::from_millis(3));
        assert_eq!(short.per_window.len(), 1);
    }

    #[test]
    fn traced_runs_split_the_time_and_untraced_runs_do_not() {
        let plan = Plan {
            measure: Duration::from_millis(400),
            warmup: Duration::from_millis(5),
            setup_reps: 1,
            probe_scale: 1.0,
        };
        let m = measure(&mut sleepy(5), &mut Tracer::off(), &plan);
        assert!(m.untraced.per_window.len() >= 20);
        assert!(m.traced.is_none());
        let mut tr = Tracer::on(Instant::now(), 0);
        let m = measure(&mut sleepy(5), &mut tr, &plan);
        let traced = m.traced.unwrap();
        assert!(m.untraced.per_window.len() >= TRACE_TURNS as usize);
        assert!(traced.per_window.len() >= TRACE_TURNS as usize);
        assert_eq!(tr.spans().len() as u64, traced.attempted);
    }

    #[test]
    fn setups_are_rebuilt_and_timed_each_rep() {
        let mut builds = 0;
        let (last, times) = timed_setups(3, || {
            builds += 1;
            builds
        });
        // Instant set-ups are repeated up to the cap, one rep stays one.
        assert_eq!((last, times.len()), (MAX_SETUPS, MAX_SETUPS));
        assert_eq!(timed_setups(1, || ()).1.len(), 1);
        let (_, slow) = timed_setups(3, || std::thread::sleep(Duration::from_millis(400)));
        assert_eq!(slow.len(), 3);
        assert!(peak_rss_mb() > 0.0);
    }
}

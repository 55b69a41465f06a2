//! `lbnn-benchmark` — the repo benchmark.
//!
//! ```text
//! lbnn-benchmark run --workload <name|all> --seed <u64>
//!                    [--seconds <n>] [--trace [0|1]] [--quick]
//! lbnn-benchmark manifest        # prints BENCHMARK.json
//! ```
//!
//! `run` sets a workload up, warms it, measures it, checks every output
//! against the scalar oracle and prints every metric by name with its
//! unit: text lines first, one JSON object last. See `README.md`.

mod clients;
mod fixtures;
mod gen;
mod harness;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use harness::Plan;
use metrics::{Values, END_TO_END, PER_LAYER, RUN_SECONDS};
use trace::Tracer;
use workloads::{Ctx, Outcome};

/// Thread number of the layer probes' tracer; load threads use 0..=2.
const PROBE_THREAD: u32 = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

const USAGE: &str = "usage: lbnn-benchmark run --workload <name|all> --seed <u64> \
                     [--seconds <n>] [--trace [0|1]] [--quick]\n       lbnn-benchmark manifest";

fn parse_run_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
    };
    let mut seed_given = false;
    let mut args = std::iter::from_fn(move || args.next()).peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value("--workload")?,
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // `--trace` alone switches tracing on; `--trace 0|1` is what
            // the driver passes.
            "--trace" => {
                parsed.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workload != "all" && !workloads::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be `all` or one of: {}",
            workloads::NAMES.join(", ")
        ));
    }
    if !seed_given {
        return Err("--seed is required".into());
    }
    Ok(parsed)
}

/// End-to-end values of one run.
fn end_to_end(outcome: &Outcome) -> Values {
    let phase = &outcome.measured.untraced;
    let mut v = Values::new();
    v.insert("ops_per_s", phase.throughput());
    v.insert("p50_us", phase.p50_us());
    v.insert("peak_rss_mb", harness::peak_rss_mb());
    v.insert("setup_s", stats::median(&outcome.setup_s));
    v
}

/// The `bench.*` values of a traced run: how the traced workload itself
/// went, with and without spans, and what the estimators leave out —
/// the windows the host disturbed and the tail of the latencies.
fn bench_values(outcome: &Outcome, values: &mut Values) {
    let untraced = &outcome.measured.untraced;
    let traced = outcome
        .measured
        .traced
        .as_ref()
        .expect("traced run has a traced phase");
    values.insert("bench.ops_per_s", untraced.throughput());
    values.insert("bench.win_median", untraced.quartiles().median);
    values.insert("bench.win_q1", untraced.quartiles().q1);
    values.insert("bench.p50_us", untraced.p50_us());
    values.insert("bench.pooled_p50_us", untraced.pooled_us(0.5));
    values.insert("bench.pooled_p90_us", untraced.pooled_us(0.9));
    values.insert("bench.samples", untraced.latencies_us.len() as f64);
    values.insert(
        "bench.trace_overhead_share",
        1.0 - traced.throughput() / untraced.throughput(),
    );
}

fn run_one(args: &Args) -> ExitCode {
    let plan = if args.quick {
        Plan::quick()
    } else {
        Plan::full(args.seconds)
    };
    let ctx = Ctx {
        seed: args.seed,
        plan,
    };
    let name = args.workload.as_str();
    let mut tr = if args.trace {
        Tracer::on(Instant::now(), 0)
    } else {
        Tracer::off()
    };

    let root = tr.begin("workload", 0);
    let outcome = workloads::run(name, &ctx, &mut tr).expect("workload name was validated");
    tr.end(root, 1);
    let phase = &outcome.measured.untraced;
    let (mut attempted, mut failed) = (phase.attempted, phase.failed);
    if let Some(traced) = &outcome.measured.traced {
        attempted += traced.attempted;
        failed += traced.failed;
    }

    println!(
        "workload {name}  seed {}  {:.1} s timed in windows of {} ms  trace {}{}",
        args.seed,
        plan.measure.as_secs_f64(),
        harness::WINDOW_BUSY.as_millis(),
        u8::from(args.trace),
        if args.quick {
            "  (quick: numbers not for comparison)"
        } else {
            ""
        }
    );
    println!(
        "  one operation: {} (ops_per_s counts {})",
        outcome.latency_of, outcome.op_unit
    );
    let quartiles = phase.quartiles();
    println!(
        "  {} windows: best tenth {:.1}  q3 {:.1}  median {:.1}  q1 {:.1} {}/s",
        phase.per_window.len(),
        phase.throughput(),
        quartiles.q3,
        quartiles.median,
        quartiles.q1,
        outcome.op_unit,
    );
    println!(
        "  {} latency samples: quiet p50 {:.1}  all p50 {:.1}  all p90 {:.1} us",
        phase.latencies_us.len(),
        phase.p50_us(),
        phase.pooled_us(0.5),
        phase.pooled_us(0.9),
    );
    let setups: Vec<String> = outcome.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("  set-ups: {} s", setups.join(" "));
    println!(
        "  attempted {attempted}  failed {failed}  fail_share {}",
        failed as f64 / attempted.max(1) as f64
    );

    let line = if args.trace {
        // A tracer of their own: the probes enter some of the calls the
        // traced workload made, and must read back only their own spans.
        let mut probes = tr.for_thread(PROBE_THREAD);
        let mut values = layers::probe_all(&mut probes, &plan, args.seed);
        tr.absorb(probes);
        bench_values(&outcome, &mut values);
        let dir = layers::out_dir();
        let path = dir.join(format!("{name}.trace.json"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_json(name, args.seed, tr.spans())));
        match written {
            Ok(()) => println!("  {} spans written to {}", tr.spans().len(), path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        let table = || PER_LAYER.iter().map(|m| (m.0, m.1));
        print!("{}", metrics::text_lines(table(), &values));
        metrics::result_line(attempted, failed, table(), &values)
    } else {
        let values = end_to_end(&outcome);
        let table = || END_TO_END.iter().map(|m| (m.0, m.1));
        print!("{}", metrics::text_lines(table(), &values));
        metrics::result_line(attempted, failed, table(), &values)
    };
    println!("{line}");
    if failed == 0 && attempted > 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{name}: {failed} of {attempted} operations failed the oracle check");
        ExitCode::FAILURE
    }
}

/// `--workload all`: one child process per workload, so each reports its
/// own peak memory and set-up.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in workloads::NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", name, "--seed", &args.seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{name}: {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        Some("run") => match parse_run_args(argv) {
            Ok(args) if args.workload == "all" => run_all(&args),
            Ok(args) => run_one(&args),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_run_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_and_hand_typed_command_lines_both_parse() {
        let a = parse(&[
            "--workload",
            "offline_dag",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.quick),
            ("offline_dag", 7, 10.0, false, false)
        );
        let a = parse(&["--workload", "all", "--seed", "1", "--trace", "1"]).unwrap();
        assert!(a.trace && a.seconds == f64::from(RUN_SECONDS));
        let a = parse(&["--workload", "all", "--seed", "1", "--trace", "--quick"]).unwrap();
        assert!(a.trace && a.quick);
        assert!(parse(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(parse(&["--workload", "all"]).is_err());
        assert!(parse(&["--workload", "all", "--seed", "x"]).is_err());
        assert!(parse(&["--workload", "all", "--seed", "1", "--seconds", "0"]).is_err());
    }
}

//! `lbnn-serve` — serve a directory of compiled LPU artifacts over TCP,
//! or load-test a running server.
//!
//! ```text
//! lbnn-serve --models DIR [options]          serve every *.lbnn in DIR
//!   --addr A:P            listen address     (default 127.0.0.1:7878)
//!   --workers N           runtime workers per model (0 = one per CPU)
//!   --queue-capacity N    micro-batch job queue bound  (default 32)
//!   --max-batch N         lanes per micro-batch (0 = engine lane width)
//!   --admission-limit N   in-flight cap before shedding (0 = auto)
//!   --max-connections N   simultaneous connections     (default 256)
//!   --no-admin            disable POST /admin/shutdown
//!
//! lbnn-serve --bench ADDR --model NAME [options]   open-loop load test
//!   --rate R              target requests/second     (default 1000)
//!   --requests N          total requests             (default 1000)
//!   --connections N       persistent connections     (default 4)
//!   --seed S              arrival + payload seed     (default 1)
//!   --verify FILE.v       check every response against this netlist
//! ```
//!
//! Models are named by file stem: `xor@3.lbnn` serves as `xor@3` (and as
//! plain `xor` while 3 is the latest version); a stem without `@` gets
//! version 1. SIGINT/SIGTERM begin a graceful drain: accepted requests
//! all resolve, then the final per-model report prints.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use lbnn_core::RuntimeOptions;
use lbnn_serve::loadgen::{self, LoadGenOptions};
use lbnn_serve::registry::ModelRegistry;
use lbnn_serve::server::{Server, ServerOptions};

fn usage() -> ! {
    eprintln!(
        "usage: lbnn-serve --models DIR [--addr A:P] [--workers N] [--queue-capacity N]\n\
         \u{20}                 [--max-batch N] [--admission-limit N] [--max-connections N]\n\
         \u{20}                 [--no-admin]\n\
         \u{20}      lbnn-serve --bench ADDR --model NAME [--rate R] [--requests N]\n\
         \u{20}                 [--connections N] [--seed S] [--verify FILE.v]"
    );
    std::process::exit(2);
}

struct ServeArgs {
    models: String,
    addr: String,
    runtime: RuntimeOptions,
    server: ServerOptions,
}

struct BenchArgs {
    addr: String,
    options: LoadGenOptions,
    verify_path: Option<String>,
}

enum Mode {
    Serve(ServeArgs),
    Bench(BenchArgs),
}

fn parse_args() -> Mode {
    let mut serve = ServeArgs {
        models: String::new(),
        addr: "127.0.0.1:7878".into(),
        runtime: RuntimeOptions::default(),
        server: ServerOptions::default(),
    };
    let mut bench: Option<BenchArgs> = None;
    let mut it = std::env::args().skip(1);
    let num = |it: &mut dyn Iterator<Item = String>| -> usize {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--models" => serve.models = it.next().unwrap_or_else(|| usage()),
            "--addr" => serve.addr = it.next().unwrap_or_else(|| usage()),
            "--workers" => serve.runtime.workers = num(&mut it),
            "--queue-capacity" => serve.runtime.queue_capacity = num(&mut it),
            "--max-batch" => serve.runtime.max_batch = num(&mut it),
            "--admission-limit" => serve.runtime.admission_limit = num(&mut it),
            "--max-connections" => serve.server.max_connections = num(&mut it),
            "--no-admin" => serve.server.enable_admin = false,
            "--bench" => {
                bench = Some(BenchArgs {
                    addr: it.next().unwrap_or_else(|| usage()),
                    options: LoadGenOptions::default(),
                    verify_path: None,
                })
            }
            "--model" => match bench.as_mut() {
                Some(b) => b.options.model = it.next().unwrap_or_else(|| usage()),
                None => usage(),
            },
            "--rate" => match bench.as_mut() {
                Some(b) => {
                    b.options.rate = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage())
                }
                None => usage(),
            },
            "--requests" => match bench.as_mut() {
                Some(b) => b.options.requests = num(&mut it),
                None => usage(),
            },
            "--connections" => match bench.as_mut() {
                Some(b) => b.options.connections = num(&mut it),
                None => usage(),
            },
            "--seed" => match bench.as_mut() {
                Some(b) => b.options.seed = num(&mut it) as u64,
                None => usage(),
            },
            "--verify" => match bench.as_mut() {
                Some(b) => b.verify_path = Some(it.next().unwrap_or_else(|| usage())),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    match bench {
        Some(b) => {
            if b.options.model.is_empty() {
                usage();
            }
            Mode::Bench(b)
        }
        None => {
            if serve.models.is_empty() {
                usage();
            }
            Mode::Serve(serve)
        }
    }
}

// ---------------------------------------------------------------------------
// Unix signal handling without any external crate: std links libc, so the
// classic `signal(2)` entry point is available to declare directly. The
// handler only flips an atomic — every async-signal-safety rule allows that.
// ---------------------------------------------------------------------------

static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    SIGNALLED.store(true, Ordering::Release);
}

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn run_serve(args: ServeArgs) -> ExitCode {
    let registry = match ModelRegistry::load_dir(&args.models, &args.runtime) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lbnn-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    for entry in registry.entries() {
        println!(
            "loaded {}: {} inputs, {} outputs, backend {}, admission limit {}",
            entry.id(),
            entry.num_inputs,
            entry.num_outputs,
            entry.backend,
            entry.runtime.admission_limit(),
        );
    }
    let server = match Server::bind(args.addr.as_str(), registry, args.server) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lbnn-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.local_addr());
    let handle = server.handle();
    install_signal_handlers();
    // The handler only sets a flag; this watcher turns it into a drain.
    let watcher_handle = handle.clone();
    std::thread::spawn(move || loop {
        if SIGNALLED.load(Ordering::Acquire) {
            eprintln!("lbnn-serve: signal received, draining...");
            watcher_handle.shutdown();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
    match server.serve() {
        Ok(report) => {
            println!("drained cleanly; final report:");
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lbnn-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Ask the server (over HTTP) how many inputs `model` expects.
fn discover_num_inputs(addr: SocketAddr, model: &str) -> Result<usize, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    write!(
        stream,
        "GET /v1/models/{model} HTTP/1.1\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    if !text.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "server does not serve `{model}`: {}",
            text.lines().next().unwrap_or("no response")
        ));
    }
    text.split_whitespace()
        .find_map(|tok| tok.strip_prefix("inputs=")?.parse().ok())
        .ok_or_else(|| "model info response carries no inputs= field".into())
}

fn run_bench(args: BenchArgs) -> ExitCode {
    let addr = match args.addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(a) => a,
        None => {
            eprintln!("lbnn-serve: cannot resolve {}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let mut options = args.options;
    options.num_inputs = match discover_num_inputs(addr, &options.model) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("lbnn-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.verify_path {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("lbnn-serve: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let netlist = match lbnn_netlist::verilog::parse_verilog(&src) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("lbnn-serve: parse error in {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if netlist.inputs().len() != options.num_inputs {
            eprintln!(
                "lbnn-serve: oracle {path} has {} inputs but the served model takes {}",
                netlist.inputs().len(),
                options.num_inputs
            );
            return ExitCode::FAILURE;
        }
        options.verify_netlist = Some(netlist);
    }
    println!(
        "open-loop bench against {addr}: model {}, {} inputs, {:.0} req/s target, \
         {} requests over {} connections{}",
        options.model,
        options.num_inputs,
        options.rate,
        options.requests,
        options.connections,
        if options.verify_netlist.is_some() {
            " (verifying against oracle)"
        } else {
            ""
        }
    );
    match loadgen::run(addr, &options) {
        Ok(report) => {
            println!("{report}");
            if report.mismatches > 0 {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lbnn-serve: bench failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Mode::Serve(args) => run_serve(args),
        Mode::Bench(args) => run_bench(args),
    }
}

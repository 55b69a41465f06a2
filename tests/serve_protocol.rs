//! Protocol-level integration tests for the `lbnn-serve` front-end: a
//! real server on an ephemeral port, real sockets, both protocols.
//!
//! Covers the contract the network layer must keep:
//! * malformed HTTP and oversized bodies get precise 4xx answers,
//! * wrong input arity and unknown models are per-request failures
//!   (400/404, or `BAD_REQUEST`/`NOT_FOUND` frames), never hangs,
//! * concurrent clients on both protocols receive responses
//!   bit-identical to the scalar netlist oracle,
//! * a saturated model sheds while its neighbour keeps serving,
//! * a plain one-in-flight client is answered without waiting on a timer,
//! * a client that never reads cannot block shutdown,
//! * graceful shutdown answers every accepted request.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use lbnn::netlist::random::RandomDag;
use lbnn::netlist::Netlist;
use lbnn::serve::registry::ModelRegistry;
use lbnn::serve::server::{ServeReport, Server, ServerHandle, ServerOptions};
use lbnn::serve::wire::{self, InferRequest, Status};
use lbnn::serve::WireLimits;
use lbnn::{Flow, LpuConfig, RuntimeOptions};

/// Compile a small strict DAG; returns the flow plus its oracle netlist.
fn compiled(seed: u64) -> (Flow, Netlist) {
    let netlist = RandomDag::strict(14, 4, 10).outputs(3).generate(seed);
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(8, 4))
        .compile()
        .expect("compile test flow");
    (flow, netlist)
}

struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    join: std::thread::JoinHandle<ServeReport>,
}

impl TestServer {
    fn start(registry: ModelRegistry, options: ServerOptions) -> TestServer {
        let server = Server::bind("127.0.0.1:0", registry, options).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.serve().expect("serve"));
        TestServer { addr, handle, join }
    }

    fn stop(self) -> ServeReport {
        self.handle.shutdown();
        self.join.join().expect("server thread")
    }
}

/// One-shot raw exchange: send `payload`, read until the peer closes.
fn raw_roundtrip(addr: SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(payload).expect("send");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("recv");
    out
}

fn http_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    raw_roundtrip(
        addr,
        format!(
            "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn bits_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

#[test]
fn malformed_http_gets_400_and_client_errors_get_4xx() {
    let (flow, _) = compiled(1);
    let mut registry = ModelRegistry::new();
    registry
        .insert_model("m", "1", flow.into(), RuntimeOptions::default())
        .unwrap();
    let server = TestServer::start(registry, ServerOptions::default());

    // Garbage request line.
    assert!(raw_roundtrip(server.addr, b"NOT HTTP AT ALL\r\n\r\n").starts_with("HTTP/1.1 400"));
    // Unsupported HTTP version.
    assert!(raw_roundtrip(server.addr, b"GET / HTTP/2.0\r\n\r\n").starts_with("HTTP/1.1 505"));
    // Chunked encoding is not supported.
    assert!(raw_roundtrip(
        server.addr,
        b"POST /v1/models/m/infer HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    )
    .starts_with("HTTP/1.1 501"));
    // Unknown path and unknown model.
    assert!(http_request(server.addr, "GET", "/nope", "").starts_with("HTTP/1.1 404"));
    assert!(
        http_request(server.addr, "POST", "/v1/models/ghost/infer", "01")
            .starts_with("HTTP/1.1 404")
    );
    // Wrong method on a model route.
    assert!(http_request(server.addr, "DELETE", "/v1/models/m", "").starts_with("HTTP/1.1 405"));
    // Wrong arity: model takes more than 1 bit.
    assert!(
        http_request(server.addr, "POST", "/v1/models/m/infer", "1").starts_with("HTTP/1.1 400")
    );
    // Non-bit characters in the body.
    assert!(
        http_request(server.addr, "POST", "/v1/models/m/infer", "01x1").starts_with("HTTP/1.1 400")
    );

    let report = server.stop();
    assert!(report.protocol_errors >= 3, "report: {report}");
    // Arity and body failures are per-model bad_request, not protocol errors.
    assert_eq!(report.models[0].bad_request, 2);
    assert_eq!(report.models[0].ok, 0);
}

#[test]
fn oversized_bodies_and_heads_are_rejected() {
    let (flow, _) = compiled(2);
    let mut registry = ModelRegistry::new();
    registry
        .insert_model("m", "1", flow.into(), RuntimeOptions::default())
        .unwrap();
    let options = ServerOptions {
        limits: WireLimits {
            max_head_bytes: 512,
            max_body_bytes: 64,
        },
        ..ServerOptions::default()
    };
    let server = TestServer::start(registry, options);

    let big_body = "0".repeat(65);
    assert!(
        http_request(server.addr, "POST", "/v1/models/m/infer", &big_body)
            .starts_with("HTTP/1.1 413")
    );
    let long_path = format!("/{}", "x".repeat(600));
    assert!(http_request(server.addr, "GET", &long_path, "").starts_with("HTTP/1.1 431"));

    let report = server.stop();
    assert_eq!(report.protocol_errors, 2);
}

#[test]
fn binary_protocol_round_trips_and_rejects_bad_frames() {
    let (flow, netlist) = compiled(3);
    let num_inputs = flow.program.num_inputs;
    let mut registry = ModelRegistry::new();
    registry
        .insert_model("m", "1", flow.into(), RuntimeOptions::default())
        .unwrap();
    let server = TestServer::start(registry, ServerOptions::default());

    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.write_all(&wire::MAGIC).unwrap();
    let mut buf = Vec::new();

    let mut exchange = |payload: &[u8]| -> Vec<u8> {
        wire::write_frame(&mut stream, payload).unwrap();
        loop {
            match wire::read_frame(&mut stream, &mut buf) {
                wire::FrameOutcome::Ready(p) => return p,
                wire::FrameOutcome::NeedMore => continue,
                other => panic!("unexpected: {other:?}"),
            }
        }
    };

    // OK round trip, checked against the oracle.
    let bits: Vec<bool> = (0..num_inputs).map(|i| i % 2 == 1).collect();
    let resp = wire::decode_response(&exchange(&wire::encode_request(&InferRequest {
        model: "m@1".into(),
        bits: bits.clone(),
    })))
    .unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.bits, netlist.eval_bools(&bits));

    // Unknown model.
    let resp = wire::decode_response(&exchange(&wire::encode_request(&InferRequest {
        model: "ghost".into(),
        bits: bits.clone(),
    })))
    .unwrap();
    assert_eq!(resp.status, Status::NotFound);

    // Wrong arity.
    let resp = wire::decode_response(&exchange(&wire::encode_request(&InferRequest {
        model: "m".into(),
        bits: vec![true],
    })))
    .unwrap();
    assert_eq!(resp.status, Status::BadRequest);

    // A syntactically broken frame payload (too short for its header).
    let resp = wire::decode_response(&exchange(&[0xff])).unwrap();
    assert_eq!(resp.status, Status::BadRequest);
    drop(stream);

    let report = server.stop();
    assert_eq!(report.binary_connections, 1);
    assert_eq!(report.binary_requests, 4);
    assert_eq!(report.models[0].ok, 1);
}

#[test]
fn http_keep_alive_serves_pipelined_requests_on_one_connection() {
    let (flow, netlist) = compiled(4);
    let num_inputs = flow.program.num_inputs;
    let mut registry = ModelRegistry::new();
    registry
        .insert_model("m", "1", flow.into(), RuntimeOptions::default())
        .unwrap();
    let server = TestServer::start(registry, ServerOptions::default());

    let inputs: Vec<Vec<bool>> = (0..4)
        .map(|r| (0..num_inputs).map(|i| (i + r) % 3 == 0).collect())
        .collect();
    let mut payload = String::new();
    for (i, bits) in inputs.iter().enumerate() {
        let body = bits_string(bits);
        let connection = if i + 1 == inputs.len() {
            "close"
        } else {
            "keep-alive"
        };
        payload.push_str(&format!(
            "POST /v1/models/m/infer HTTP/1.1\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
            body.len()
        ));
    }
    let response = raw_roundtrip(server.addr, payload.as_bytes());
    let bodies: Vec<&str> = response
        .split("\r\n\r\n")
        .skip(1)
        .map(|chunk| chunk.lines().next().unwrap_or(""))
        .collect();
    assert_eq!(bodies.len(), inputs.len());
    for (bits, body) in inputs.iter().zip(&bodies) {
        assert_eq!(
            *body,
            bits_string(&netlist.eval_bools(bits)),
            "for {bits:?}"
        );
    }

    let report = server.stop();
    assert_eq!(report.http_connections, 1);
    assert_eq!(report.http_requests, 4);
}

#[test]
fn concurrent_clients_match_the_scalar_oracle_bit_for_bit() {
    let (flow, netlist) = compiled(5);
    let num_inputs = flow.program.num_inputs;
    let mut registry = ModelRegistry::new();
    registry
        .insert_model("m", "1", flow.into(), RuntimeOptions::default())
        .unwrap();
    let server = TestServer::start(registry, ServerOptions::default());
    let addr = server.addr;

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 16;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let netlist = netlist.clone();
            std::thread::spawn(move || {
                for r in 0..PER_CLIENT {
                    let bits: Vec<bool> = (0..num_inputs)
                        .map(|i| (i * 31 + r * 7 + c) % 5 < 2)
                        .collect();
                    let expected = bits_string(&netlist.eval_bools(&bits));
                    if c % 2 == 0 {
                        // HTTP client.
                        let response =
                            http_request(addr, "POST", "/v1/models/m/infer", &bits_string(&bits));
                        assert!(response.starts_with("HTTP/1.1 200"), "got: {response}");
                        let body = response.split("\r\n\r\n").nth(1).unwrap_or("").trim();
                        assert_eq!(body, expected, "client {c} request {r}");
                    } else {
                        // Binary client, persistent connection per thread.
                        let mut stream = TcpStream::connect(addr).unwrap();
                        stream.write_all(&wire::MAGIC).unwrap();
                        let mut buf = Vec::new();
                        wire::write_frame(
                            &mut stream,
                            &wire::encode_request(&InferRequest {
                                model: "m".into(),
                                bits: bits.clone(),
                            }),
                        )
                        .unwrap();
                        let payload = loop {
                            match wire::read_frame(&mut stream, &mut buf) {
                                wire::FrameOutcome::Ready(p) => break p,
                                wire::FrameOutcome::NeedMore => continue,
                                other => panic!("unexpected: {other:?}"),
                            }
                        };
                        let resp = wire::decode_response(&payload).unwrap();
                        assert_eq!(resp.status, Status::Ok);
                        assert_eq!(bits_string(&resp.bits), expected, "client {c} request {r}");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let report = server.stop();
    assert_eq!(report.models[0].ok as usize, CLIENTS * PER_CLIENT);
    assert_eq!(report.models[0].failed, 0);
    assert_eq!(report.models[0].bad_request, 0);
}

/// A persistent binary-protocol connection with one request in flight:
/// `TCP_NODELAY`, one `write_all` per request, a blocking read of the one
/// response — what a plain caller does.
struct BinConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl BinConn {
    fn connect(addr: SocketAddr) -> BinConn {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.write_all(&wire::MAGIC).expect("handshake");
        BinConn {
            stream,
            buf: Vec::new(),
        }
    }

    fn infer(&mut self, model: &str, bits: &[bool]) -> wire::InferResponse {
        let request = wire::encode_request(&InferRequest {
            model: model.into(),
            bits: bits.to_vec(),
        });
        wire::write_frame(&mut self.stream, &request).expect("send");
        loop {
            match wire::read_frame(&mut self.stream, &mut self.buf) {
                wire::FrameOutcome::Ready(p) => return wire::decode_response(&p).expect("decode"),
                wire::FrameOutcome::NeedMore => continue,
                other => panic!("unexpected: {other:?}"),
            }
        }
    }
}

#[test]
fn saturated_model_sheds_while_its_neighbour_keeps_serving() {
    let (flow_a, netlist_a) = compiled(6);
    let (flow_b, netlist_b) = compiled(7);
    let inputs_a = flow_a.program.num_inputs;
    let inputs_b = flow_b.program.num_inputs;
    let mut registry = ModelRegistry::new();
    // Model A admits one request at a time, so two connections hammering
    // it collide — and the loser is shed — whenever their requests
    // overlap. Model B: ordinary options.
    registry
        .insert_model(
            "a",
            "1",
            flow_a.into(),
            RuntimeOptions::default().admission_limit(1),
        )
        .unwrap();
    registry
        .insert_model("b", "1", flow_b.into(), RuntimeOptions::default())
        .unwrap();
    let server = TestServer::start(registry, ServerOptions::default());
    let addr = server.addr;

    // Hammer A from two connections until one of them has seen a SHED
    // (bounded: 10 s is ~100k round trips each). Whatever A does admit,
    // it answers correctly.
    let seen_shed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let bits_a: Vec<bool> = (0..inputs_a).map(|i| i % 3 == 0).collect();
    let want_a = netlist_a.eval_bools(&bits_a);
    let hammers: Vec<_> = (0..2)
        .map(|_| {
            let seen_shed = std::sync::Arc::clone(&seen_shed);
            let bits_a = bits_a.clone();
            let want_a = want_a.clone();
            std::thread::spawn(move || {
                use std::sync::atomic::Ordering;
                let mut conn = BinConn::connect(addr);
                let (mut ok, mut shed) = (0u64, 0u64);
                while !seen_shed.load(Ordering::Acquire) && std::time::Instant::now() < deadline {
                    let resp = conn.infer("a", &bits_a);
                    match resp.status {
                        Status::Ok => {
                            assert_eq!(resp.bits, want_a);
                            ok += 1;
                        }
                        Status::Shed => {
                            shed += 1;
                            seen_shed.store(true, Ordering::Release);
                        }
                        other => panic!("unexpected status from a: {other:?}"),
                    }
                }
                (ok, shed)
            })
        })
        .collect();

    // Meanwhile B is unaffected: every request answered, and correctly.
    let mut conn_b = BinConn::connect(addr);
    let mut b_requests = 0u64;
    while b_requests < 20 || !hammers.iter().all(|h| h.is_finished()) {
        let bits_b: Vec<bool> = (0..inputs_b)
            .map(|i| (i as u64 + b_requests) % 2 == 1)
            .collect();
        let resp = conn_b.infer("b", &bits_b);
        assert_eq!(resp.status, Status::Ok, "b must never shed");
        assert_eq!(resp.bits, netlist_b.eval_bools(&bits_b));
        b_requests += 1;
    }
    drop(conn_b);

    let (mut a_ok, mut a_shed) = (0u64, 0u64);
    for hammer in hammers {
        let (ok, shed) = hammer.join().expect("hammer thread");
        a_ok += ok;
        a_shed += shed;
    }
    assert!(a_shed >= 1, "model a never shed within the time bound");

    // Shedding never cancels admitted work: the accounting balances.
    let report = server.stop();
    let a = report.models.iter().find(|m| m.id == "a@1").unwrap();
    let b = report.models.iter().find(|m| m.id == "b@1").unwrap();
    assert_eq!(a.ok, a_ok);
    assert_eq!(a.shed, a_shed);
    assert_eq!(a.stats.shed, a_shed);
    assert_eq!(a.stats.requests, a_ok);
    assert_eq!(b.ok, b_requests);
    assert_eq!(b.shed, 0);
}

/// Round-trip time of a plain one-in-flight client, sorted.
fn sequential_round_trips(mut exchange: impl FnMut(usize)) -> Vec<Duration> {
    let mut times: Vec<Duration> = (0..50)
        .map(|r| {
            let start = std::time::Instant::now();
            exchange(r);
            start.elapsed()
        })
        .collect();
    times.sort();
    times
}

/// A plain request/response client must not wait on a timer: with the
/// server idle, the median round trip on either protocol is far below
/// 10 ms. (A response split over two writes without `TCP_NODELAY` costs
/// the client's ~40 ms delayed ACK per request; the expected value here
/// is ~0.15 ms, so the bound has ~70x headroom.)
#[test]
fn sequential_requests_do_not_wait_on_a_timer() {
    let (flow, netlist) = compiled(9);
    let num_inputs = flow.program.num_inputs;
    let mut registry = ModelRegistry::new();
    registry
        .insert_model("m", "1", flow.into(), RuntimeOptions::default())
        .unwrap();
    let server = TestServer::start(registry, ServerOptions::default());
    let request = |r: usize| -> Vec<bool> { (0..num_inputs).map(|i| (i + r) % 3 == 1).collect() };

    let mut conn = BinConn::connect(server.addr);
    let binary = sequential_round_trips(|r| {
        let bits = request(r);
        let resp = conn.infer("m", &bits);
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.bits, netlist.eval_bools(&bits));
    });
    drop(conn);
    assert!(
        binary[binary.len() / 2] < Duration::from_millis(10),
        "binary median round trip {:?}",
        binary[binary.len() / 2]
    );

    // HTTP/1.1 keep-alive: one write per request, then read exactly one
    // response (head, then Content-Length bytes).
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut buf: Vec<u8> = Vec::new();
    let http = sequential_round_trips(|r| {
        let bits = request(r);
        let body = bits_string(&bits);
        stream
            .write_all(
                format!(
                    "POST /v1/models/m/infer HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let (head_end, length) = loop {
            if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&buf[..end]).unwrap();
                assert!(head.starts_with("HTTP/1.1 200"), "got: {head}");
                let length: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .expect("Content-Length")
                    .parse()
                    .unwrap();
                break (end + 4, length);
            }
            let mut chunk = [0u8; 1024];
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed a keep-alive connection");
            buf.extend_from_slice(&chunk[..n]);
        };
        while buf.len() < head_end + length {
            let mut chunk = [0u8; 1024];
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed mid-body");
            buf.extend_from_slice(&chunk[..n]);
        }
        let got = std::str::from_utf8(&buf[head_end..head_end + length])
            .unwrap()
            .trim()
            .to_string();
        assert_eq!(got, bits_string(&netlist.eval_bools(&bits)));
        buf.drain(..head_end + length);
    });
    drop(stream);
    assert!(
        http[http.len() / 2] < Duration::from_millis(10),
        "http median round trip {:?}",
        http[http.len() / 2]
    );

    let report = server.stop();
    assert_eq!(report.models[0].ok, 100);
}

/// A peer that pipelines requests and never reads a response must not
/// hold the server hostage: once the socket buffers fill, its connection
/// thread's write times out and the thread closes, so `serve()` still
/// returns after `shutdown()`.
#[test]
fn a_client_that_never_reads_cannot_block_shutdown() {
    let (flow, _) = compiled(10);
    let mut registry = ModelRegistry::new();
    registry
        .insert_model("m", "1", flow.into(), RuntimeOptions::default())
        .unwrap();
    let server = TestServer::start(registry, ServerOptions::default());

    // Requests for a model that does not exist, named with 60 KB of
    // padding: each NOT_FOUND response echoes the name, so responses are
    // as large as requests and a few hundred of them overflow any
    // loopback socket buffer.
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    stream.write_all(&wire::MAGIC).unwrap();
    let payload = wire::encode_request(&InferRequest {
        model: "x".repeat(60_000),
        bits: vec![true],
    });
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    // Write until the pipe jams in both directions: the server is stuck
    // writing responses nobody reads, so it stops reading requests, so
    // this write times out too.
    let mut jammed = false;
    for _ in 0..2_000 {
        if stream.write_all(&frame).is_err() {
            jammed = true;
            break;
        }
    }
    assert!(jammed, "120 MB of unread responses never filled the pipe");

    let TestServer { handle, join, .. } = server;
    handle.shutdown();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(join.join().expect("server thread"));
    });
    let report = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("serve() must return although a client never reads");
    assert_eq!(report.binary_connections, 1);
    drop(stream);
}

#[test]
fn graceful_shutdown_answers_every_accepted_request() {
    let (flow, netlist) = compiled(8);
    let num_inputs = flow.program.num_inputs;
    let mut registry = ModelRegistry::new();
    registry
        .insert_model("m", "1", flow.into(), RuntimeOptions::default())
        .unwrap();
    let server = TestServer::start(registry, ServerOptions::default());

    // Pipeline a burst of binary requests, then ask for shutdown while
    // the connection is still open.
    const BURST: usize = 40;
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.write_all(&wire::MAGIC).unwrap();
    let inputs: Vec<Vec<bool>> = (0..BURST)
        .map(|r| (0..num_inputs).map(|i| (i * 13 + r) % 4 < 2).collect())
        .collect();
    for bits in &inputs {
        wire::write_frame(
            &mut stream,
            &wire::encode_request(&InferRequest {
                model: "m".into(),
                bits: bits.clone(),
            }),
        )
        .unwrap();
    }
    // Shutdown via the admin endpoint, concurrently with the burst.
    let admin = http_request(server.addr, "POST", "/admin/shutdown", "");
    assert!(admin.starts_with("HTTP/1.1 200"), "got: {admin}");

    // Every pipelined request still gets its (correct) response.
    let mut buf = Vec::new();
    for bits in &inputs {
        let payload = loop {
            match wire::read_frame(&mut stream, &mut buf) {
                wire::FrameOutcome::Ready(p) => break p,
                wire::FrameOutcome::NeedMore => continue,
                other => panic!("unexpected: {other:?}"),
            }
        };
        let resp = wire::decode_response(&payload).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.bits, netlist.eval_bools(bits));
    }
    drop(stream);

    let report = server.join.join().expect("server thread");
    assert_eq!(report.models[0].ok as usize, BURST);
    assert_eq!(report.models[0].failed, 0);
    // Zero accepted requests lost: everything submitted resolved.
    assert_eq!(report.models[0].stats.in_flight, 0);
    assert_eq!(report.models[0].stats.requests as usize, BURST);
}

//! Minimal request/response clients for the two `lbnn-serve` protocols.
//!
//! `lbnn_serve::loadgen` pipelines requests over a reader and a writer
//! thread per connection, which hides any per-request stall. These
//! clients do what a plain caller does: one request in flight, sent with
//! a single `write_all` on a `TCP_NODELAY` socket, then a blocking read
//! of exactly one response — so whatever delay they measure belongs to
//! the server.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use lbnn_serve::wire::{self, InferRequest, InferResponse, Status};

/// A response is never this slow unless the server is wedged.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

fn invalid(reason: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason)
}

/// One protocol's way of turning input bits into output bits over a
/// connection.
pub trait Client {
    /// The bytes one request puts on the wire, length prefix or head
    /// included.
    fn encode(&self, bits: &[bool]) -> Vec<u8>;
    /// Sends pre-encoded request bytes with one write and reads one
    /// response. `Ok(None)` is a well-formed refusal (shed, not found,
    /// non-200).
    fn roundtrip(&mut self, request: &[u8]) -> io::Result<Option<Vec<bool>>>;
}

/// The length-prefixed binary `LBNB` protocol.
pub struct BinClient {
    stream: TcpStream,
    model: String,
    frame: Vec<u8>,
}

impl BinClient {
    pub fn connect(addr: SocketAddr, model: &str) -> io::Result<BinClient> {
        let mut stream = connect(addr)?;
        stream.write_all(&wire::MAGIC)?;
        Ok(BinClient {
            stream,
            model: model.to_string(),
            frame: Vec::new(),
        })
    }
}

/// A request payload with its length prefix, ready for one write.
pub fn bin_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

impl Client for BinClient {
    fn encode(&self, bits: &[bool]) -> Vec<u8> {
        bin_frame(&wire::encode_request(&InferRequest {
            model: self.model.clone(),
            bits: bits.to_vec(),
        }))
    }

    fn roundtrip(&mut self, request: &[u8]) -> io::Result<Option<Vec<bool>>> {
        self.stream.write_all(request)?;
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len > wire::MAX_FRAME_BYTES {
            return Err(invalid(format!("response frame of {len} bytes")));
        }
        self.frame.resize(len, 0);
        self.stream.read_exact(&mut self.frame)?;
        let InferResponse { status, bits, .. } =
            wire::decode_response(&self.frame).map_err(invalid)?;
        Ok((status == Status::Ok).then_some(bits))
    }
}

/// HTTP/1.1 keep-alive `POST /v1/models/<model>/infer`.
pub struct HttpClient {
    stream: TcpStream,
    path: String,
    reader: HttpResponseReader,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr, model: &str) -> io::Result<HttpClient> {
        Ok(HttpClient {
            stream: connect(addr)?,
            path: format!("/v1/models/{model}/infer"),
            reader: HttpResponseReader::default(),
        })
    }
}

/// The full bytes of one inference request: head and ASCII bit-string
/// body.
pub fn http_request(path: &str, bits: &[bool]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        bits.len()
    )
    .into_bytes();
    out.extend(bits.iter().map(|&b| if b { b'1' } else { b'0' }));
    out
}

/// Parses the `0`/`1` body of a 200 response (trailing newline allowed).
pub fn parse_bit_body(body: &[u8]) -> Option<Vec<bool>> {
    let body = body.strip_suffix(b"\n").unwrap_or(body);
    body.iter()
        .map(|&c| match c {
            b'0' => Some(false),
            b'1' => Some(true),
            _ => None,
        })
        .collect()
}

impl Client for HttpClient {
    fn encode(&self, bits: &[bool]) -> Vec<u8> {
        http_request(&self.path, bits)
    }

    fn roundtrip(&mut self, request: &[u8]) -> io::Result<Option<Vec<bool>>> {
        self.stream.write_all(request)?;
        let (status, body) = self.reader.read_response(&mut self.stream)?;
        if status != 200 {
            return Ok(None);
        }
        parse_bit_body(&body)
            .map(Some)
            .ok_or_else(|| invalid("200 body is not a bit string".into()))
    }
}

/// `Content-Length`-driven HTTP response reader. Bytes past the end of
/// one response stay buffered for the next, so it works whether the
/// kernel hands the head and body over in one read, in several, or
/// glued to the following response.
#[derive(Debug, Default)]
pub struct HttpResponseReader {
    buf: Vec<u8>,
}

impl HttpResponseReader {
    /// Reads one response: `(status code, body)`.
    pub fn read_response<R: Read>(&mut self, reader: &mut R) -> io::Result<(u16, Vec<u8>)> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(done) = self.try_take()? {
                return Ok(done);
            }
            match reader.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-response",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Pops one complete response off the front of the buffer, if one is
    /// there.
    fn try_take(&mut self) -> io::Result<Option<(u16, Vec<u8>)>> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("response head is not utf-8".into()))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| invalid("bad status line".into()))?;
        let mut content_length = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let len =
            content_length.ok_or_else(|| invalid("response without Content-Length".into()))?;
        let total = head_end + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some((status, body)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out the scripted chunks one `read` at a time.
    struct Chunks(Vec<Vec<u8>>);

    impl Read for Chunks {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            let chunk = self.0.remove(0);
            out[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    const A: &[u8] =
        b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\ncontent-length: 6\r\n\r\n10110\n";
    const B: &[u8] = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 5\r\n\r\nSHED\n";

    #[test]
    fn reads_a_response_split_at_every_byte_boundary() {
        for cut in 1..A.len() {
            let mut src = Chunks(vec![A[..cut].to_vec(), A[cut..].to_vec()]);
            let mut reader = HttpResponseReader::default();
            let (status, body) = reader.read_response(&mut src).unwrap();
            assert_eq!(
                (status, body.as_slice()),
                (200, &b"10110\n"[..]),
                "cut at {cut}"
            );
        }
        // Head and body as the server sends them: two separate writes.
        let head_end = A.len() - 6;
        let mut src = Chunks(vec![A[..head_end].to_vec(), A[head_end..].to_vec()]);
        let (_, body) = HttpResponseReader::default()
            .read_response(&mut src)
            .unwrap();
        assert_eq!(
            parse_bit_body(&body).unwrap(),
            [true, false, true, true, false]
        );
    }

    #[test]
    fn reads_coalesced_responses_one_at_a_time() {
        let mut glued = A.to_vec();
        glued.extend_from_slice(B);
        glued.extend_from_slice(&A[..10]);
        let mut src = Chunks(vec![glued, A[10..].to_vec()]);
        let mut reader = HttpResponseReader::default();
        assert_eq!(reader.read_response(&mut src).unwrap().0, 200);
        assert_eq!(
            reader.read_response(&mut src).unwrap(),
            (429, b"SHED\n".to_vec())
        );
        assert_eq!(reader.read_response(&mut src).unwrap().1, b"10110\n");
        let err = reader.read_response(&mut src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_responses_it_cannot_frame() {
        let mut src = Chunks(vec![b"HTTP/1.1 200 OK\r\n\r\nbody".to_vec()]);
        assert!(HttpResponseReader::default()
            .read_response(&mut src)
            .is_err());
        let mut src = Chunks(vec![b"garbage\r\n\r\n".to_vec()]);
        assert!(HttpResponseReader::default()
            .read_response(&mut src)
            .is_err());
        assert_eq!(parse_bit_body(b"01x"), None);
    }

    #[test]
    fn requests_are_single_buffers_the_server_parses() {
        let bits = [true, false, true];
        let raw = http_request("/v1/models/jsc/infer", &bits);
        let mut buf = Vec::new();
        let parsed = lbnn_serve::http::read_request(
            &mut io::Cursor::new(raw),
            &mut buf,
            &lbnn_serve::WireLimits::default(),
        );
        match parsed {
            lbnn_serve::http::ReadOutcome::Ready(req) => {
                assert_eq!(
                    (req.method.as_str(), req.body.as_slice()),
                    ("POST", &b"101"[..])
                );
                assert!(req.keep_alive);
            }
            other => panic!("server would not parse the request: {other:?}"),
        }
        let payload = wire::encode_request(&InferRequest {
            model: "jsc".into(),
            bits: bits.to_vec(),
        });
        let frame = bin_frame(&payload);
        assert_eq!(frame.len(), 4 + payload.len());
        assert_eq!(
            u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize,
            payload.len()
        );
    }
}
